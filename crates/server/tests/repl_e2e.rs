//! End-to-end replication: a primary server and a live standby on
//! loopback sockets, real pull threads, real promotion.

#![allow(clippy::unwrap_used)]

use mmdb_core::{Algorithm, MmdbConfig};
use mmdb_server::{ReplOptions, Server, ServerConfig, ServerHandle};
use mmdb_shard::ShardedMmdb;
use mmdb_types::RecordId;
use mmdb_wire::{Client, ErrorCode, Request, Response, WireError, REPL_VERSION};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;

fn spawn(repl: ReplOptions, repl_sync: bool) -> ServerHandle {
    let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
    let db = ShardedMmdb::open_in_memory(cfg, SHARDS).unwrap();
    let config = ServerConfig {
        checkpoint_interval: Some(Duration::from_millis(5)),
        repl: ReplOptions { repl_sync, ..repl },
        ..ServerConfig::default()
    };
    Server::spawn_sharded(db, config).unwrap()
}

fn spawn_primary(repl_sync: bool) -> ServerHandle {
    spawn(ReplOptions::default(), repl_sync)
}

fn spawn_standby(primary: &ServerHandle) -> ServerHandle {
    spawn(
        ReplOptions {
            replica_of: Some(primary.local_addr().to_string()),
            ..ReplOptions::default()
        },
        false,
    )
}

/// Polls until both servers report the same storage fingerprint.
fn wait_converged(primary_addr: &str, standby_addr: &str) -> u64 {
    let mut a = Client::connect(primary_addr).unwrap();
    let mut b = Client::connect(standby_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fp_primary = a.fingerprint().unwrap();
        let fp_standby = b.fingerprint().unwrap();
        if fp_primary == fp_standby {
            return fp_primary;
        }
        assert!(
            Instant::now() < deadline,
            "standby never converged: primary {fp_primary:#x}, standby {fp_standby:#x}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn standby_replays_live_writes_and_serves_reads() {
    let primary = spawn_primary(false);
    let standby = spawn_standby(&primary);
    let primary_addr = primary.local_addr().to_string();
    let standby_addr = standby.local_addr().to_string();

    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    for i in 0..60u64 {
        c.retry_transient(200, |c| c.put(RecordId(i % 32), &vec![i as u32 + 1; words]))
            .unwrap();
    }
    wait_converged(&primary_addr, &standby_addr);

    // the standby serves committed reads at its applied watermark
    let mut s = Client::connect(&standby_addr).unwrap();
    assert_eq!(s.get(RecordId(59 % 32)).unwrap(), vec![60u32; words]);

    // ... but refuses writes while unpromoted
    match s.put(RecordId(0), &vec![9; words]) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("read-only replica"), "{message}");
        }
        other => panic!("write on standby must fail, got {other:?}"),
    }
    assert!(!standby.is_writable());

    primary.shutdown_join();
    standby.shutdown_join();
}

#[test]
fn promotion_flips_standby_writable_sub_second() {
    let primary = spawn_primary(false);
    let standby = spawn_standby(&primary);
    let primary_addr = primary.local_addr().to_string();
    let standby_addr = standby.local_addr().to_string();

    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    for i in 0..20u64 {
        c.retry_transient(200, |c| c.put(RecordId(i), &vec![0xC0DE; words]))
            .unwrap();
    }
    wait_converged(&primary_addr, &standby_addr);

    // lose the primary abruptly, then promote the standby
    primary.shutdown_join();
    let t0 = Instant::now();
    let mut s = Client::connect(&standby_addr).unwrap();
    s.promote().unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "promotion took {took:?}, expected sub-second"
    );
    assert!(standby.is_writable());

    // replayed state survived promotion and the server now takes writes
    assert_eq!(s.get(RecordId(3)).unwrap(), vec![0xC0DE; words]);
    s.retry_transient(200, |c| c.put(RecordId(3), &vec![0xBEEF; words]))
        .unwrap();
    assert_eq!(s.get(RecordId(3)).unwrap(), vec![0xBEEF; words]);

    standby.shutdown_join();
}

#[test]
fn late_standby_bootstraps_past_a_truncated_log() {
    let primary = spawn_primary(false);
    let primary_addr = primary.local_addr().to_string();

    // Write, then give the primary's checkpointers time to complete
    // enough checkpoints that auto-truncation cuts the log prefix on
    // every shard — the history a standby would need is gone from the
    // log before one ever attaches.
    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    for i in 0..40u64 {
        c.retry_transient(200, |c| c.put(RecordId(i), &vec![i as u32 + 7; words]))
            .unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats_json().unwrap();
        if stats.contains("\"log.truncations\"") || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // A standby attaching now cannot replay from LSN 0; it must re-seed
    // from the primary's database and stream from there.
    let standby = spawn_standby(&primary);
    let standby_addr = standby.local_addr().to_string();
    wait_converged(&primary_addr, &standby_addr);
    let mut s = Client::connect(&standby_addr).unwrap();
    assert_eq!(s.get(RecordId(11)).unwrap(), vec![18u32; words]);

    // ... and live writes after the bootstrap keep flowing
    c.retry_transient(200, |c| c.put(RecordId(50), &vec![0xABCD; words]))
        .unwrap();
    wait_converged(&primary_addr, &standby_addr);
    assert_eq!(s.get(RecordId(50)).unwrap(), vec![0xABCD; words]);

    primary.shutdown_join();
    standby.shutdown_join();
}

#[test]
fn promote_fires_callback_and_non_replica_refuses() {
    // a standalone server refuses Promote
    let standalone = spawn_primary(false);
    let mut c = Client::connect(standalone.local_addr().to_string()).unwrap();
    match c.promote() {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Invalid),
        other => panic!("promote on standalone must fail, got {other:?}"),
    }
    standalone.shutdown_join();

    // a replica's promotion fires the on_promote callback exactly once
    let primary = spawn_primary(false);
    let fired = Arc::new(AtomicBool::new(false));
    let standby = {
        let fired = Arc::clone(&fired);
        spawn(
            ReplOptions {
                replica_of: Some(primary.local_addr().to_string()),
                on_promote: Some(Arc::new(move || fired.store(true, Ordering::SeqCst))),
                ..ReplOptions::default()
            },
            false,
        )
    };
    let mut s = Client::connect(standby.local_addr().to_string()).unwrap();
    s.promote().unwrap();
    assert!(fired.load(Ordering::SeqCst));
    primary.shutdown_join();
    standby.shutdown_join();
}

#[test]
fn version_negotiation_is_in_protocol_and_picks_the_newest_common() {
    let primary = spawn_primary(false);
    let mut c = Client::connect(primary.local_addr().to_string()).unwrap();

    // a standby from a future build with no common version is refused
    // with a structured error, not a dropped connection
    let future = Request::ReplHello {
        ver_min: REPL_VERSION + 1,
        ver_max: REPL_VERSION + 5,
    };
    match c.request(&future) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("disjoint version range must be refused, got {other:?}"),
    }
    // a version-1 standby is refused too: it would read the frames this
    // primary ships as corrupt and stall
    let version_one = Request::ReplHello {
        ver_min: 1,
        ver_max: 1,
    };
    match c.request(&version_one) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("frame format"), "{message}");
        }
        other => panic!("a version-1 standby must be refused, got {other:?}"),
    }
    // ... and so is a version-2 one, which would stall at the first
    // `TxnPrepare` frame
    let version_two = Request::ReplHello {
        ver_min: 1,
        ver_max: 2,
    };
    match c.request(&version_two) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("TxnPrepare"), "{message}");
        }
        other => panic!("a version-2 standby must be refused, got {other:?}"),
    }
    // ... and so is a version-3 one, which would stop at the first
    // `TxnDecide` frame
    let version_three = Request::ReplHello {
        ver_min: 1,
        ver_max: 3,
    };
    match c.request(&version_three) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("TxnDecide"), "{message}");
        }
        other => panic!("a version-3 standby must be refused, got {other:?}"),
    }
    // ... and an inverted range is malformed, same structured refusal
    let inverted = Request::ReplHello {
        ver_min: REPL_VERSION,
        ver_max: 0,
    };
    assert!(matches!(
        c.request(&inverted),
        Err(WireError::Remote {
            code: ErrorCode::Invalid,
            ..
        })
    ));
    // the rejection left the connection healthy: an old client that
    // never speaks repl opcodes keeps its full legacy surface
    c.ping().unwrap();
    assert!(c.info().unwrap().record_words > 0);

    // a newer standby offering an overlapping range negotiates down to
    // the newest version this primary speaks
    let overlapping = Request::ReplHello {
        ver_min: 1,
        ver_max: REPL_VERSION + 3,
    };
    match c.request(&overlapping) {
        Ok(Response::ReplWelcome(w)) => {
            assert_eq!(w.ver, REPL_VERSION);
            assert_eq!(w.shards, SHARDS as u32);
        }
        other => panic!("overlapping range must negotiate, got {other:?}"),
    }
    primary.shutdown_join();
}

#[test]
fn background_compaction_respects_standby_pin_and_causes_no_bootstrap_gaps() {
    // A declared primary with the background log-maintenance thread
    // running aggressively: rotation seals chunks and compaction wants
    // to rewrite them, but the replication truncation pin — seeded at
    // startup, raised only by standby acks — must stall both, so a
    // standby that attaches late never finds a gap (and the compactor
    // is never the cause of a `repl.bootstrap_gaps` refusal).
    let dir = std::env::temp_dir().join(format!("mmdb-repl-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
    cfg.log_chunk_bytes = 4096; // many cold chunks under the workload
    let db = ShardedMmdb::open_dir(cfg, &dir, 1).unwrap().0;
    let primary = Server::spawn_sharded(
        db,
        ServerConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            compact_interval: Some(Duration::from_millis(5)),
            repl: ReplOptions {
                primary: true,
                ..ReplOptions::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let primary_addr = primary.local_addr().to_string();

    // Overwrite a tiny hot set so nearly every frame is superseded —
    // maximal temptation for the compactor — across many chunk seals.
    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    for i in 0..120u64 {
        c.retry_transient(200, |c| c.put(RecordId(i % 4), &vec![i as u32 + 1; words]))
            .unwrap();
    }
    // let checkpoints and maintenance passes race the pin for a while
    let deadline = Instant::now() + Duration::from_secs(5);
    while primary.compaction_passes() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        primary.compaction_passes() >= 3,
        "maintenance thread never ran"
    );

    // now the standby attaches — every log byte from the pin onward
    // must still be there, byte-exact
    let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
    let standby_db = ShardedMmdb::open_in_memory(cfg, 1).unwrap();
    let standby = Server::spawn_sharded(
        standby_db,
        ServerConfig {
            checkpoint_interval: Some(Duration::from_millis(5)),
            repl: ReplOptions {
                replica_of: Some(primary_addr.clone()),
                ..ReplOptions::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let standby_addr = standby.local_addr().to_string();

    // more writes (and maintenance passes) while the standby pulls
    for i in 0..60u64 {
        c.retry_transient(200, |c| {
            c.put(RecordId(i % 4), &vec![0xA000 + i as u32; words])
        })
        .unwrap();
    }
    wait_converged(&primary_addr, &standby_addr);

    let standby_db = standby.shutdown_join();
    let snap = standby_db.metrics_snapshot();
    assert_eq!(
        snap.counter("repl.bootstrap_gaps").unwrap_or(0),
        0,
        "standby hit a bootstrap gap — compaction or truncation cut pinned bytes"
    );
    primary.shutdown_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn semi_sync_commits_complete_with_standby_attached() {
    let primary = spawn_primary(true);
    let standby = spawn_standby(&primary);
    let primary_addr = primary.local_addr().to_string();
    let standby_addr = standby.local_addr().to_string();

    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    // semi-sync engages on the standby's hello; every one of these
    // commits then waits for a standby ack before returning
    for i in 0..30u64 {
        c.retry_transient(200, |c| c.put(RecordId(i), &vec![5; words]))
            .unwrap();
    }
    let fp = wait_converged(&primary_addr, &standby_addr);
    assert_ne!(fp, 0, "non-trivial converged state");

    standby.shutdown_join();
    primary.shutdown_join();
}

#[test]
fn semi_sync_cross_shard_batches_replay_while_the_primary_checkpoints() {
    // Every batch spans both shards, so each is a two-phase commit: a
    // prepared branch per shard, the decision on shard 0, and a `Commit`
    // per branch. The standby must install each branch at its own
    // `Commit` and converge while the primary's checkpointers run.
    let primary = spawn_primary(true);
    let standby = spawn_standby(&primary);
    let primary_addr = primary.local_addr().to_string();
    let standby_addr = standby.local_addr().to_string();

    let mut c = Client::connect(&primary_addr).unwrap();
    let words = c.info().unwrap().record_words as usize;
    // at least 40 batches, and on until two checkpoints completed
    // beside them
    let ckpts_before = primary.checkpoints_completed();
    let mut batches = 0u64;
    while batches < 40 || primary.checkpoints_completed() < ckpts_before + 2 {
        assert!(batches < 100_000, "the primary never checkpointed");
        let (rid, fill) = (2 * (batches % 16), batches as u32 + 1);
        let batch = vec![
            (RecordId(rid), vec![fill; words]),
            (RecordId(rid + 1), vec![fill; words]),
        ];
        c.retry_transient(200, |c| c.batch(&batch)).unwrap();
        batches += 1;
    }
    let fp = wait_converged(&primary_addr, &standby_addr);
    assert_ne!(fp, 0, "non-trivial converged state");
    let last = batches - 1;
    let mut s = Client::connect(&standby_addr).unwrap();
    assert_eq!(
        s.get(RecordId(2 * (last % 16) + 1)).unwrap(),
        vec![last as u32 + 1; words]
    );

    let standby_db = standby.shutdown_join();
    let primary_db = primary.shutdown_join();
    let cross = primary_db.metrics_snapshot().counter("router.txns_cross");
    assert_eq!(cross, Some(batches), "every batch was a cross-shard commit");
    let applied = standby_db.metrics_snapshot().counter("repl.applied_txns");
    assert!(applied.unwrap_or(0) > 0, "{applied:?}");
}
