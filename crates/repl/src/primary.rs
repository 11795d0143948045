//! The primary's half of replication: answering `ReplHello`,
//! `ReplAck`, and `ReplScan` requests against the per-shard logs and
//! the committed store.
//!
//! These functions are called from the server's dispatch path on an
//! ordinary worker thread. `serve_pull` long-polls the shard's
//! durable-LSN watermark for up to [`MAX_REPL_WAIT_MS`], then reads the
//! batch from the log device — the log's only copy — under the shard's
//! shared gate. It holds no shard lock while parked, but it does occupy
//! a worker — size the worker pool at or above `client connections +
//! shards` when standbys are attached.

use mmdb_shard::ShardedMmdb;
use mmdb_types::{Lsn, MmdbError, RecordId, Result};
use mmdb_wire::{ReplWelcome, ScanRecords, REPL_VERSION};
use std::time::Duration;

/// Cap on one `ReplBatch`'s payload, regardless of what the standby
/// asks for (the standby asks for exactly this). A cap, not an
/// allocation: the read buffer is sized to what is durable. A batch is
/// always whole frames, and a single frame longer than this ships whole
/// and alone: a transaction is one frame however large (the engine
/// bounds it at [`mmdb_core::MAX_TXN_FRAME_BYTES`], under the wire frame
/// cap), and the device read grows to the frame it starts at.
pub const MAX_REPL_BATCH_BYTES: usize = 4 << 20;

// The longest frame plus the batch header must fit one wire frame.
const _: () = assert!(mmdb_core::MAX_TXN_FRAME_BYTES + 1024 <= mmdb_wire::MAX_FRAME_BYTES);

/// Cap on how long one pull may park on the durable watermark. Bounds
/// worker occupancy; an empty batch tells the standby to ask again.
pub const MAX_REPL_WAIT_MS: u32 = 250;

/// Cap on the records one `ReplScan` page returns, regardless of what
/// the standby asks for. Keeps a page under the wire frame cap even at
/// large `record_words`.
pub const MAX_REPL_SCAN_RECORDS: u32 = 4096;

/// Cap on the record ids one `ReplScan` walks, so a page over a sparse
/// range still returns promptly instead of scanning the whole shard in
/// one request.
const MAX_REPL_SCAN_IDS: u64 = 64 * 1024;

/// Serves `ReplHello`: negotiates the replication version, enables the
/// replication slots (idempotent), engages the semi-sync gate, and
/// reports the topology the standby must match plus each shard's
/// `(start, durable)` log LSNs.
pub fn serve_hello(db: &ShardedMmdb, ver_min: u8, ver_max: u8) -> Result<ReplWelcome> {
    // A version-1 standby reads this primary's CRC-32C frames as corrupt,
    // a version-2 one its `TxnPrepare` frames, a version-3 one its
    // `TxnDecide` frames: it speaks only the newest.
    if !(ver_min..=ver_max).contains(&REPL_VERSION) {
        return Err(MmdbError::Invalid(format!(
            "no common replication version: standby speaks {ver_min}..={ver_max}, this \
             primary only {REPL_VERSION} (it ships TxnDecide commit-point frames, TxnPrepare \
             frames, CRC-32C log frame format)"
        )));
    }
    db.enable_repl_slots();
    db.repl_gate().engage();
    db.obs().counter("repl.hello", 1);
    let shard_lsns = (0..db.shards())
        .map(|i| db.with_shard(i, |e| (e.log_start_lsn().raw(), e.log_durable_lsn().raw())))
        .collect();
    Ok(ReplWelcome {
        ver: REPL_VERSION,
        shards: db.shards() as u32,
        n_records: db.n_records(),
        record_words: db.record_words() as u32,
        shard_lsns,
    })
}

/// Serves one `ReplAck`: publishes the standby's applied LSN to the
/// semi-sync gate, records lag, long-polls the shard's durable
/// watermark up to `wait_ms` for bytes past `applied`, then reads the
/// next batch from the log device. Returns `(start, durable, bytes)`:
/// `bytes` are whole frames (empty when nothing new became durable in
/// time), `durable` the device end the read was cut against.
pub fn serve_pull(
    db: &ShardedMmdb,
    shard: u32,
    applied: Lsn,
    max_bytes: u32,
    wait_ms: u32,
) -> Result<(Lsn, Lsn, Vec<u8>)> {
    let i = shard as usize;
    if i >= db.shards() {
        return Err(MmdbError::Invalid(format!(
            "no shard {shard} (topology has {})",
            db.shards()
        )));
    }
    if !db.repl_gate().is_engaged() {
        return Err(MmdbError::Invalid(
            "replication not initialized on this server (send ReplHello first)".into(),
        ));
    }
    let obs = db.obs();
    db.repl_gate().advance(i, applied);
    let watermark = db.log_watermark(i);
    if let Some(lag) = watermark.ack_lag(applied) {
        obs.observe_duration_us("repl.lag_us", lag);
    }
    let t = obs.timer();
    let max = (max_bytes as usize).clamp(1, MAX_REPL_BATCH_BYTES);
    let wait = Duration::from_millis(u64::from(wait_ms.min(MAX_REPL_WAIT_MS)));
    if watermark.wait_for(applied.advance(1), wait).is_err() {
        // a failed force is answered like a timeout: park out the
        // budget instead of handing the standby a hot retry loop
        std::thread::sleep(wait);
    }
    // one device read, frame-aligned by the log manager, which returns
    // the frame at `applied` whole when it alone is longer than `max`
    let (durable, bytes) = db.read_log_range(i, applied, max)?;
    obs.counter("repl.batches", 1);
    obs.counter("repl.batch_bytes", bytes.len() as u64);
    obs.observe("repl.batch_size", bytes.len() as u64);
    obs.gauge("repl.lag_lsn", durable.raw().saturating_sub(applied.raw()));
    obs.phase_detail("repl.ship", t, i as u64);
    Ok((applied, durable, bytes))
}

/// Serves one `ReplScan`: walks record ids from `from`, collecting the
/// shard's nonzero committed values until the record or id cap is hit.
/// Reads go through the lock-free mirror path, so a scan never blocks
/// writers or the checkpointer. Returns `(next, records)`: every id in
/// `[from, next)` was covered, and ids absent from `records` are zero.
pub fn serve_scan(
    db: &ShardedMmdb,
    shard: u32,
    from: u64,
    max_records: u32,
) -> Result<(u64, ScanRecords)> {
    let i = shard as usize;
    if i >= db.shards() {
        return Err(MmdbError::Invalid(format!(
            "no shard {shard} (topology has {})",
            db.shards()
        )));
    }
    let obs = db.obs();
    let t = obs.timer();
    let cap = max_records.clamp(1, MAX_REPL_SCAN_RECORDS) as usize;
    let end = db.n_records().min(from.saturating_add(MAX_REPL_SCAN_IDS));
    let mut records = Vec::new();
    let mut next = from;
    while next < end {
        let rid = RecordId(next);
        if db.shard_of(rid)? == i {
            let value = db.read_committed(rid)?;
            if value.iter().any(|&w| w != 0) {
                records.push((next, value));
            }
        }
        next += 1;
        if records.len() >= cap {
            break;
        }
    }
    obs.counter("repl.scan_pages", 1);
    obs.counter("repl.scan_records", records.len() as u64);
    obs.phase_detail("repl.scan", t, i as u64);
    Ok((next, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_core::MmdbConfig;
    use mmdb_types::{Algorithm, RecordId};

    fn db() -> ShardedMmdb {
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        ShardedMmdb::open_in_memory(cfg, 2).expect("open")
    }

    #[test]
    fn hello_reports_topology_and_version() {
        let db = db();
        let w = serve_hello(&db, 1, REPL_VERSION).expect("hello");
        assert_eq!(w.ver, REPL_VERSION);
        assert_eq!(w.shards, 2);
        assert_eq!(w.n_records, db.n_records());
        assert_eq!(w.shard_lsns.len(), 2);
        assert!(db.repl_gate().is_engaged());
    }

    #[test]
    fn hello_rejects_disjoint_version_ranges() {
        let db = db();
        assert!(serve_hello(&db, REPL_VERSION + 1, REPL_VERSION + 3).is_err());
        assert!(serve_hello(&db, 3, 1).is_err(), "inverted range");
        // a version-1 standby would read every shipped frame as corrupt
        let old = serve_hello(&db, 1, 1).expect_err("version 1 refused");
        assert!(old.to_string().contains("frame format"), "{old}");
        // a version-2 standby would read the first branch's frame as
        // corrupt and stall there
        let two = serve_hello(&db, 1, 2).expect_err("version 2 refused");
        assert!(two.to_string().contains("TxnPrepare"), "{two}");
        // a version-3 standby would stop at the first commit point, a
        // frame it cannot decode
        let three = serve_hello(&db, 1, 3).expect_err("version 3 refused");
        assert!(three.to_string().contains("TxnDecide"), "{three}");
        assert!(!db.repl_gate().is_engaged(), "a refusal engages nothing");
    }

    #[test]
    fn pull_requires_hello_and_valid_shard() {
        let db = db();
        assert!(serve_pull(&db, 0, Lsn::ZERO, 1024, 0).is_err(), "no hello");
        serve_hello(&db, 1, REPL_VERSION).expect("hello");
        assert!(serve_pull(&db, 7, Lsn::ZERO, 1024, 0).is_err(), "bad shard");
    }

    #[test]
    fn pull_returns_forced_bytes_and_advances_the_gate() {
        let db = db();
        serve_hello(&db, 1, REPL_VERSION).expect("hello");
        db.run_txn(&[(RecordId(0), vec![7; db.record_words()])])
            .expect("txn");
        let (start, durable, bytes) = serve_pull(&db, 0, Lsn::ZERO, 1 << 16, 0).expect("pull");
        assert_eq!(start, Lsn::ZERO);
        assert!(!bytes.is_empty());
        assert!(durable.raw() >= bytes.len() as u64);
        // the ack side: a later pull at `durable` publishes it
        let _ = serve_pull(&db, 0, durable, 1 << 16, 0).expect("pull");
        assert_eq!(db.repl_gate().acked(0), durable);
    }

    #[test]
    fn a_parked_pull_wakes_on_the_watermark_not_the_timeout() {
        let db = db();
        serve_hello(&db, 1, REPL_VERSION).expect("hello");
        let caught_up = db.with_shard(0, |e| e.log_durable_lsn());
        let wait = Duration::from_millis(u64::from(MAX_REPL_WAIT_MS));
        std::thread::scope(|s| {
            let puller = s.spawn(|| {
                let t = std::time::Instant::now();
                let pulled = serve_pull(&db, 0, caught_up, 1 << 16, MAX_REPL_WAIT_MS);
                (pulled, t.elapsed())
            });
            std::thread::sleep(Duration::from_millis(20));
            db.run_txn(&[(RecordId(0), vec![7; db.record_words()])])
                .expect("txn");
            let (pulled, waited) = puller.join().expect("puller");
            let (start, durable, bytes) = pulled.expect("pull");
            assert_eq!(start, caught_up);
            assert!(!bytes.is_empty(), "the commit's bytes, not an empty batch");
            assert!(durable.raw() >= caught_up.raw() + bytes.len() as u64);
            assert!(
                waited < wait,
                "woke after {waited:?}: the timeout, not the force"
            );
        });
    }

    #[test]
    fn a_published_force_error_is_answered_like_a_timeout() {
        let db = db();
        serve_hello(&db, 1, REPL_VERSION).expect("hello");
        let caught_up = db.with_shard(0, |e| e.log_durable_lsn());
        db.log_watermark(0).fail("injected force failure".into());
        let t = std::time::Instant::now();
        let (start, _, bytes) = serve_pull(&db, 0, caught_up, 1 << 16, 30).expect("empty batch");
        assert_eq!(start, caught_up);
        assert!(bytes.is_empty());
        assert!(
            t.elapsed() >= Duration::from_millis(30),
            "the wait budget is parked out, not returned at once"
        );
    }

    #[test]
    fn lag_is_observed_only_for_forces_after_hello() {
        let db = db();
        let lag_observations = || {
            mmdb_core::MetricsSnapshot::capture(db.obs())
                .hist("repl.lag_us")
                .map_or(0, |h| h.count)
        };
        let commit = |fill: u32| {
            db.run_txn(&[(RecordId(0), vec![fill; db.record_words()])])
                .expect("txn")
        };
        commit(1);
        serve_hello(&db, 1, REPL_VERSION).expect("hello");
        let at_hello = db.with_shard(0, |e| e.log_durable_lsn());
        assert!(at_hello > Lsn::ZERO);
        // an ack covering a force made before the hello measures nothing
        let _ = serve_pull(&db, 0, at_hello, 1 << 16, 0).expect("pull");
        assert_eq!(lag_observations(), 0);

        commit(2);
        let (_, durable, _) = serve_pull(&db, 0, at_hello, 1 << 16, 0).expect("pull");
        assert_eq!(lag_observations(), 0, "shipped, not yet acked");
        let _ = serve_pull(&db, 0, durable, 1 << 16, 0).expect("ack");
        assert_eq!(lag_observations(), 1);
    }
}
