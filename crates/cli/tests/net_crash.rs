//! Networked crash test — the network analogue of `tests/crash_matrix.rs`.
//!
//! A real `mmdb-cli serve` process takes concurrent wire commits with a
//! live background checkpointer, gets SIGKILLed mid-load (no flush, no
//! goodbye), and must come back with exactly the committed state:
//! every value the server *acked* survives (commits force the log —
//! `CommitDurability::Force`), and every record holds either its last
//! acked value or the one write that was in flight when the process
//! died — never a torn mixture, never anything older.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmdb_types::RecordId;
use mmdb_wire::Client;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mmdb-cli")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-net-crash-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `mmdb-cli <dir> serve` and returns (child, bound address,
/// stdout reader). Keep the reader alive until after `wait()`: dropping
/// it closes the pipe, and the server's own shutdown summary would then
/// die on EPIPE.
fn spawn_serve(dir: &Path, ckpt_ms: u64) -> (Child, String, BufReader<std::process::ChildStdout>) {
    spawn_serve_args(dir, ckpt_ms, &[])
}

fn spawn_serve_args(
    dir: &Path,
    ckpt_ms: u64,
    extra: &[&str],
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(bin())
        .arg(dir)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--ckpt-ms",
            &ckpt_ms.to_string(),
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .expect("serve prints its address");
    let addr = first
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {first}"))
        .to_string();
    (child, addr, reader)
}

/// Copies a database directory byte for byte (recovery twins for the
/// fingerprint-identity checks).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read src").flatten() {
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

/// Per-record fill tracking: the last server-acked fill and the fill
/// that was in flight (sent, not yet acked).
#[derive(Default, Clone, Copy)]
struct Tracked {
    acked: Option<u32>,
    in_flight: Option<u32>,
}

#[test]
fn kill_nine_mid_load_recovers_exactly_the_acked_state() {
    let dir = tmpdir("kill9");
    let out = Command::new(bin())
        .arg(&dir)
        .args(["init", "--algorithm", "COUCOPY"])
        .output()
        .expect("init");
    assert!(out.status.success());

    let (mut child, addr, _stdout_keepalive) = spawn_serve(&dir, 1);

    let mut control = Client::connect(&addr).expect("control connect");
    control
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let info = control.info().expect("info");
    let words = info.record_words as usize;

    // 4 writer threads, each owning a disjoint 8-record range
    const THREADS: u64 = 4;
    const RANGE: u64 = 8;
    let tracked: Arc<Mutex<HashMap<u64, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let tracked = Arc::clone(&tracked);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        joins.push(std::thread::spawn(move || {
            let mut c = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            let _ = c.set_timeout(Some(Duration::from_secs(10)));
            let mut seq: u32 = 0;
            while !stop.load(Ordering::SeqCst) {
                seq += 1;
                let rid = t * RANGE + u64::from(seq) % RANGE;
                // unique per (thread, seq): survivors are attributable
                let fill = ((t as u32) << 24) | seq;
                {
                    let mut m = match tracked.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    m.entry(rid).or_default().in_flight = Some(fill);
                }
                match c.retry_transient(1000, |c| c.put(RecordId(rid), &vec![fill; words])) {
                    Ok(_) => {
                        let mut m = match tracked.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        let e = m.entry(rid).or_default();
                        e.acked = Some(fill);
                        e.in_flight = None;
                        committed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => return, // server died under us — expected
                }
            }
        }));
    }

    // let the load run until background checkpoints demonstrably overlap
    // it, then pull the plug with no warning
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "server never took 2 checkpoints under load"
        );
        std::thread::sleep(Duration::from_millis(20));
        if committed.load(Ordering::SeqCst) < 100 {
            continue;
        }
        let stats = match control.stats_json() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let snap = mmdb_core::MetricsSnapshot::from_json(&stats).expect("stats parse");
        if snap.counter("ckpt.completed").unwrap_or(0) >= 2 {
            break;
        }
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    stop.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }
    let tracked = match Arc::try_unwrap(tracked).map(Mutex::into_inner) {
        Ok(Ok(m)) => m,
        _ => panic!("tracking map still shared"),
    };
    assert!(
        committed.load(Ordering::SeqCst) >= 100,
        "not enough acked commits to make the test meaningful"
    );

    // recovery must be clean (torn log tail is expected and tolerated)
    let fsck = Command::new(bin())
        .arg(&dir)
        .arg("fsck")
        .output()
        .expect("fsck");
    let fsck_out =
        String::from_utf8_lossy(&fsck.stdout).into_owned() + &String::from_utf8_lossy(&fsck.stderr);
    assert!(
        fsck.status.success(),
        "fsck failed after kill -9:\n{fsck_out}"
    );
    assert!(fsck_out.contains("fsck: clean"), "{fsck_out}");
    // a clean fsck must not leave a crash dump behind (fsck dumps next
    // to the shard's evidence)
    for at in [dir.clone(), mmdb_shard::shard_dir(&dir, 0)] {
        assert!(
            !at.join("flightrec.json").exists(),
            "clean fsck wrote {}",
            at.join("flightrec.json").display()
        );
    }

    // re-serve the recovered database and audit every tracked record
    // over the wire: last acked fill, or the one in-flight write
    let (mut child2, addr2, _stdout_keepalive2) = spawn_serve(&dir, 0);
    let mut reader = Client::connect(&addr2).expect("connect to recovered server");
    reader
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for (rid, t) in &tracked {
        let value = reader.get(RecordId(*rid)).expect("read recovered record");
        assert!(
            value.iter().all(|w| *w == value[0]),
            "record {rid} recovered torn: {value:?}"
        );
        let got = value[0];
        let mut allowed: Vec<u32> = Vec::new();
        if let Some(a) = t.acked {
            allowed.push(a);
        }
        if let Some(f) = t.in_flight {
            allowed.push(f);
        }
        if t.acked.is_none() {
            // never acked: the initial content may also survive; only
            // the in-flight value or "untouched" are legal, and
            // untouched is whatever init wrote — accept any fill that
            // is NOT a lost ack (no acks existed)
            continue;
        }
        assert!(
            allowed.contains(&got),
            "record {rid}: recovered fill {got:#x}, expected one of {allowed:x?} \
             (acked={:x?}, in-flight={:x?})",
            t.acked,
            t.in_flight
        );
    }
    reader.shutdown().expect("graceful shutdown");
    assert!(child2.wait().expect("serve exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_fsck_after_kill_nine_dumps_the_flight_recorder() {
    // Dump-on-crash, end to end: SIGKILL the server mid-load, then make
    // the post-crash fsck *fail* by corrupting the stale backup copy
    // (the one recovery does not read, so the engine still opens and
    // its recorder has recovery spans to dump). The failing fsck must
    // write `<dir>/flightrec.json`, and the dump must parse as the
    // wire-schema trace document with the recovery phases inside.
    let dir = tmpdir("kill9-flightrec");
    let out = Command::new(bin())
        .arg(&dir)
        .args(["init", "--algorithm", "COUCOPY"])
        .output()
        .expect("init");
    assert!(out.status.success());

    let (mut child, addr, _stdout_keepalive) = spawn_serve(&dir, 1);
    let mut control = Client::connect(&addr).expect("control connect");
    control
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let words = control.info().expect("info").record_words as usize;
    // enough traffic that a checkpoint lands between init and the kill
    for seq in 0..200u32 {
        control
            .retry_transient(1000, |c| {
                c.put(RecordId(u64::from(seq) % 8), &vec![seq; words])
            })
            .expect("put");
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();

    // recover once and take a fresh checkpoint: after it, both backup
    // copies are Complete with distinct checkpoint ids (a SIGKILL can
    // leave one copy InProgress, which fsck's checksum scan skips)
    let ckpt = Command::new(bin())
        .arg(&dir)
        .arg("checkpoint")
        .output()
        .expect("checkpoint");
    assert!(
        ckpt.status.success(),
        "post-crash checkpoint failed: {}",
        String::from_utf8_lossy(&ckpt.stderr)
    );

    // find the stale copy: recovery loads the newest complete backup,
    // so corrupting the *older* one leaves the engine able to open
    let config = mmdb_core::MmdbConfig::small(mmdb_types::Algorithm::CouCopy);
    let engine_dir = mmdb_shard::shard_dir(&dir, 0);
    let stale: usize = {
        use mmdb_disk::BackupStore;
        let mut backup =
            mmdb_disk::FileBackup::open(&engine_dir.join("backup"), config.params.db, false)
                .expect("backup");
        let c0 = backup
            .copy_status(0)
            .expect("copy 0 status")
            .complete_ckpt();
        let c1 = backup
            .copy_status(1)
            .expect("copy 1 status")
            .complete_ckpt();
        match (c0, c1) {
            (Some(a), Some(b)) => usize::from(a.raw() > b.raw()),
            (Some(_), None) => 1,
            _ => 0,
        }
    };
    let stale_path = engine_dir.join(format!("backup.{stale}"));
    let mut bytes = std::fs::read(&stale_path).expect("read stale copy");
    assert!(bytes.len() > 4096, "backup copy implausibly small");
    // flip bytes across the middle of the file so at least one segment
    // checksum breaks regardless of layout details
    let mid = bytes.len() / 2;
    for off in (mid..bytes.len().min(mid + 4096)).step_by(64) {
        bytes[off] ^= 0xFF;
    }
    std::fs::write(&stale_path, &bytes).expect("write corrupted copy");

    let fsck = Command::new(bin())
        .arg(&dir)
        .arg("fsck")
        .output()
        .expect("fsck");
    let fsck_out =
        String::from_utf8_lossy(&fsck.stdout).into_owned() + &String::from_utf8_lossy(&fsck.stderr);
    assert!(
        !fsck.status.success(),
        "fsck must fail on a corrupted backup copy:\n{fsck_out}"
    );
    assert!(fsck_out.contains("CORRUPT"), "{fsck_out}");
    assert!(fsck_out.contains("flight recorder dumped to"), "{fsck_out}");

    let dump = std::fs::read_to_string(engine_dir.join("flightrec.json")).expect("flightrec.json");
    let doc = mmdb_core::TraceDumpDoc::from_json(&dump).expect("dump parses");
    assert!(doc.recorded > 0, "empty flight recorder dumped");
    let names: Vec<&str> = doc.recent.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"recovery.backup_load"),
        "recovery spans missing from the crash dump: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_compaction_discards_torn_rewrites_and_recovers_clean() {
    // The log-maintenance path under fire: tiny chunks and an
    // aggressive background compactor (`--compact-ms 1` rotates the
    // active chunk and rewrites cold ones, compressed, every pass)
    // racing writers that hammer an 8-record hot set — maximal
    // supersession, so nearly every pass has frames to drop. SIGKILL
    // lands with rotation and chunk rewrites in flight; the rewrite
    // protocol (write `.tmp`, sync, rename) must leave every chunk as
    // either its old or its new image. We then plant a torn `.tmp`
    // over a real cold chunk — exactly what an interrupted rewrite
    // leaves — and recovery must discard it, never adopt it.
    let dir = tmpdir("kill9-compact");
    let out = Command::new(bin())
        .arg(&dir)
        .args(["init", "--algorithm", "COUCOPY"])
        .output()
        .expect("init");
    assert!(out.status.success());
    // shrink the chunks so the load seals many and the compactor always
    // has cold work, and compress cold storage to exercise the full
    // `.log → .logz` rewrite path
    let conf_path = dir.join("mmdb.conf");
    let conf = std::fs::read_to_string(&conf_path).expect("mmdb.conf");
    let conf = conf
        .lines()
        .map(|l| match l {
            l if l.starts_with("log_chunk_bytes=") => "log_chunk_bytes=8192",
            l if l.starts_with("compress_log=") => "compress_log=true",
            l => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    std::fs::write(&conf_path, conf).expect("rewrite mmdb.conf");

    let (mut child, addr, _stdout_keepalive) = spawn_serve_args(&dir, 25, &["--compact-ms", "1"]);

    let mut control = Client::connect(&addr).expect("control connect");
    control
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let words = control.info().expect("info").record_words as usize;

    const THREADS: u64 = 4;
    const RANGE: u64 = 8;
    let tracked: Arc<Mutex<HashMap<u64, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let tracked = Arc::clone(&tracked);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        joins.push(std::thread::spawn(move || {
            let mut c = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            let _ = c.set_timeout(Some(Duration::from_secs(10)));
            let mut seq: u32 = 0;
            while !stop.load(Ordering::SeqCst) {
                seq += 1;
                let rid = t * RANGE + u64::from(seq) % RANGE;
                let fill = ((t as u32) << 24) | seq;
                {
                    let mut m = match tracked.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    m.entry(rid).or_default().in_flight = Some(fill);
                }
                match c.retry_transient(1000, |c| c.put(RecordId(rid), &vec![fill; words])) {
                    Ok(_) => {
                        let mut m = match tracked.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        let e = m.entry(rid).or_default();
                        e.acked = Some(fill);
                        e.in_flight = None;
                        committed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => return, // server died under us — expected
                }
            }
        }));
    }

    // run until checkpoints and chunk rewrites have demonstrably
    // happened under the load, then pull the plug with a maintenance
    // pass at most 1ms away
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "compactor never rewrote chunks under load"
        );
        std::thread::sleep(Duration::from_millis(20));
        if committed.load(Ordering::SeqCst) < 100 {
            continue;
        }
        let stats = match control.stats_json() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let snap = mmdb_core::MetricsSnapshot::from_json(&stats).expect("stats parse");
        if snap.counter("ckpt.completed").unwrap_or(0) >= 2
            && snap.counter("compact.chunks_rewritten").unwrap_or(0) >= 3
        {
            break;
        }
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    stop.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }
    let tracked = match Arc::try_unwrap(tracked).map(Mutex::into_inner) {
        Ok(Ok(m)) => m,
        _ => panic!("tracking map still shared"),
    };
    assert!(
        committed.load(Ordering::SeqCst) >= 100,
        "not enough acked commits to make the test meaningful"
    );

    // plant the torn rewrite: a `.tmp` twin of a real chunk, full of
    // garbage — the state an interrupted rename-in-flight leaves behind
    let log_dir = mmdb_shard::shard_dir(&dir, 0).join("log");
    let chunk_stem = std::fs::read_dir(&log_dir)
        .expect("read log dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let stem = name
                .strip_suffix(".logz")
                .or_else(|| name.strip_suffix(".log"))?;
            stem.parse::<u64>().ok().map(|_| stem.to_string())
        })
        .min()
        .expect("at least one chunk file");
    let torn = log_dir.join(format!("{chunk_stem}.tmp"));
    std::fs::write(&torn, b"half a rewrite, then the power went").expect("plant torn tmp");

    // recovery must be clean, and the torn tmp discarded — not adopted
    let fsck = Command::new(bin())
        .arg(&dir)
        .arg("fsck")
        .output()
        .expect("fsck");
    let fsck_out =
        String::from_utf8_lossy(&fsck.stdout).into_owned() + &String::from_utf8_lossy(&fsck.stderr);
    assert!(
        fsck.status.success(),
        "fsck failed after kill -9 mid-compaction:\n{fsck_out}"
    );
    assert!(fsck_out.contains("fsck: clean"), "{fsck_out}");
    assert!(!torn.exists(), "torn .tmp rewrite survived recovery");

    // re-serve the recovered database and audit every tracked record:
    // last acked fill or the one in-flight write, never anything else
    let (mut child2, addr2, _stdout_keepalive2) = spawn_serve(&dir, 0);
    let mut reader = Client::connect(&addr2).expect("connect to recovered server");
    reader
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for (rid, t) in &tracked {
        let value = reader.get(RecordId(*rid)).expect("read recovered record");
        assert!(
            value.iter().all(|w| *w == value[0]),
            "record {rid} recovered torn: {value:?}"
        );
        let got = value[0];
        let mut allowed: Vec<u32> = Vec::new();
        if let Some(a) = t.acked {
            allowed.push(a);
        }
        if let Some(f) = t.in_flight {
            allowed.push(f);
        }
        if t.acked.is_none() {
            continue;
        }
        assert!(
            allowed.contains(&got),
            "record {rid}: recovered fill {got:#x}, expected one of {allowed:x?} — \
             compaction dropped a frame recovery still needed (acked={:x?}, in-flight={:x?})",
            t.acked,
            t.in_flight
        );
    }
    // no maintenance garbage left anywhere in the log directory
    let stray: Vec<String> = std::fs::read_dir(&log_dir)
        .expect("read log dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        stray.is_empty(),
        "stray rewrite temps after recovery: {stray:?}"
    );
    reader.shutdown().expect("graceful shutdown");
    assert!(child2.wait().expect("serve exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_group_commit_load_loses_no_acked_commit() {
    // The group-commit ack-durability invariant: under
    // `CommitDurability::Group` the server acks a commit only once a
    // batched force covers its LSN, so a SIGKILL mid-load must lose
    // nothing that was ever acked — the same contract as per-commit
    // forcing, checked end-to-end through the batched path (append,
    // release the shard, flusher forces, watermark wakes the acker).
    let dir = tmpdir("kill9-group");
    let out = Command::new(bin())
        .arg(&dir)
        .args(["init", "--algorithm", "COUCOPY", "--durability", "group"])
        .output()
        .expect("init --durability group");
    assert!(
        out.status.success(),
        "init failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let conf = std::fs::read_to_string(dir.join("mmdb.conf")).expect("mmdb.conf");
    assert!(conf.contains("commit_durability=group"), "{conf}");

    let (mut child, addr, _stdout_keepalive) = spawn_serve(&dir, 1);

    let mut control = Client::connect(&addr).expect("control connect");
    control
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let info = control.info().expect("info");
    let words = info.record_words as usize;

    // 8 writer threads (the batching only shows with concurrent
    // committers in flight), each owning a disjoint 8-record range
    const THREADS: u64 = 8;
    const RANGE: u64 = 8;
    let tracked: Arc<Mutex<HashMap<u64, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let tracked = Arc::clone(&tracked);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        joins.push(std::thread::spawn(move || {
            let mut c = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            let _ = c.set_timeout(Some(Duration::from_secs(10)));
            let mut seq: u32 = 0;
            while !stop.load(Ordering::SeqCst) {
                seq += 1;
                let rid = t * RANGE + u64::from(seq) % RANGE;
                let fill = ((t as u32) << 24) | seq;
                {
                    let mut m = match tracked.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    m.entry(rid).or_default().in_flight = Some(fill);
                }
                match c.retry_transient(1000, |c| c.put(RecordId(rid), &vec![fill; words])) {
                    Ok(_) => {
                        let mut m = match tracked.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        let e = m.entry(rid).or_default();
                        e.acked = Some(fill);
                        e.in_flight = None;
                        committed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => return, // server died under us — expected
                }
            }
        }));
    }

    // run until checkpoints demonstrably overlap the batched commits,
    // then SIGKILL with acks and unforced appends both in flight
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "server never took 2 checkpoints under group-commit load"
        );
        std::thread::sleep(Duration::from_millis(20));
        if committed.load(Ordering::SeqCst) < 100 {
            continue;
        }
        let stats = match control.stats_json() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let snap = mmdb_core::MetricsSnapshot::from_json(&stats).expect("stats parse");
        if snap.counter("ckpt.completed").unwrap_or(0) >= 2
            && snap.counter("log.group_commit.forces").unwrap_or(0) >= 1
        {
            break;
        }
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    stop.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }
    let tracked = match Arc::try_unwrap(tracked).map(Mutex::into_inner) {
        Ok(Ok(m)) => m,
        _ => panic!("tracking map still shared"),
    };
    assert!(
        committed.load(Ordering::SeqCst) >= 100,
        "not enough acked commits to make the test meaningful"
    );

    let fsck = Command::new(bin())
        .arg(&dir)
        .arg("fsck")
        .output()
        .expect("fsck");
    let fsck_out =
        String::from_utf8_lossy(&fsck.stdout).into_owned() + &String::from_utf8_lossy(&fsck.stderr);
    assert!(
        fsck.status.success(),
        "fsck failed after kill -9 under group commit:\n{fsck_out}"
    );
    assert!(fsck_out.contains("fsck: clean"), "{fsck_out}");

    // every acked commit must have survived: last acked fill or the one
    // in-flight (acked-but-newer-write-pending never exists per record
    // because each put is acked before the next begins on that thread)
    let (mut child2, addr2, _stdout_keepalive2) = spawn_serve(&dir, 0);
    let mut reader = Client::connect(&addr2).expect("connect to recovered server");
    reader
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for (rid, t) in &tracked {
        let value = reader.get(RecordId(*rid)).expect("read recovered record");
        assert!(
            value.iter().all(|w| *w == value[0]),
            "record {rid} recovered torn: {value:?}"
        );
        let got = value[0];
        let mut allowed: Vec<u32> = Vec::new();
        if let Some(a) = t.acked {
            allowed.push(a);
        }
        if let Some(f) = t.in_flight {
            allowed.push(f);
        }
        if t.acked.is_none() {
            continue;
        }
        assert!(
            allowed.contains(&got),
            "record {rid}: recovered fill {got:#x}, expected one of {allowed:x?} — \
             an ACKED group commit was lost (acked={:x?}, in-flight={:x?})",
            t.acked,
            t.in_flight
        );
    }
    reader.shutdown().expect("graceful shutdown");
    assert!(child2.wait().expect("serve exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_cross_shard_transfers_leaves_no_torn_transfer() {
    // The sharded analogue: a 4-shard server takes "transfer"
    // transactions — one Batch writing the same unique fill to 4
    // records, one per shard (consecutive rids land on consecutive
    // shards under rid % 4 routing) — and gets SIGKILLed mid-load.
    // After recovery every transfer group must be atomically uniform:
    // all 4 branches hold the same fill (all-present) or none do
    // (all-absent / an older transfer's fill). A mixture would mean a
    // torn cross-shard commit escaped the two-phase protocol.
    let dir = tmpdir("kill9-sharded");
    let out = Command::new(bin())
        .arg(&dir)
        .args(["init", "--algorithm", "COUCOPY", "--shards", "4"])
        .output()
        .expect("init --shards 4");
    assert!(
        out.status.success(),
        "init failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("shards").exists(), "topology marker written");
    assert!(dir.join("shard.3").is_dir(), "per-shard engine dirs");

    let (mut child, addr, _stdout_keepalive) = spawn_serve(&dir, 1);

    let mut control = Client::connect(&addr).expect("control connect");
    control
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let info = control.info().expect("info");
    let words = info.record_words as usize;
    const SHARDS: u64 = 4;
    const THREADS: u64 = 4;
    let groups_per_thread = info.n_records / SHARDS / THREADS;
    assert!(groups_per_thread >= 8, "record space too small for groups");

    // group g owns records [4g, 4g+4): a disjoint record set per
    // transfer group, so recovered fills are attributable to exactly
    // one group's write history
    let tracked: Arc<Mutex<HashMap<u64, Tracked>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let addr = addr.clone();
        let tracked = Arc::clone(&tracked);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        joins.push(std::thread::spawn(move || {
            let mut c = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            let _ = c.set_timeout(Some(Duration::from_secs(10)));
            let mut seq: u32 = 0;
            while !stop.load(Ordering::SeqCst) {
                seq += 1;
                let group = t * groups_per_thread + u64::from(seq) % groups_per_thread;
                let fill = ((t as u32) << 24) | seq; // unique per (thread, seq)
                let base = group * SHARDS;
                let updates: Vec<(RecordId, Vec<u32>)> = (0..SHARDS)
                    .map(|k| (RecordId(base + k), vec![fill; words]))
                    .collect();
                {
                    let mut m = match tracked.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    m.entry(group).or_default().in_flight = Some(fill);
                }
                match c.retry_transient(1000, |c| c.batch(&updates)) {
                    Ok(_) => {
                        let mut m = match tracked.lock() {
                            Ok(g) => g,
                            Err(p) => p.into_inner(),
                        };
                        let e = m.entry(group).or_default();
                        e.acked = Some(fill);
                        e.in_flight = None;
                        committed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => return, // server died under us — expected
                }
            }
        }));
    }

    // run until checkpoints demonstrably interleave on the shards (the
    // merged `ckpt.completed` counter sums all four checkpointers),
    // then SIGKILL with cross-shard transfers in flight
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(
            Instant::now() < deadline,
            "server never took 8 shard checkpoints under load"
        );
        std::thread::sleep(Duration::from_millis(20));
        if committed.load(Ordering::SeqCst) < 100 {
            continue;
        }
        let stats = match control.stats_json() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let snap = mmdb_core::MetricsSnapshot::from_json(&stats).expect("stats parse");
        if snap.counter("ckpt.completed").unwrap_or(0) >= 8 {
            break;
        }
    }
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    stop.store(true, Ordering::SeqCst);
    for j in joins {
        let _ = j.join();
    }
    let tracked = match Arc::try_unwrap(tracked).map(Mutex::into_inner) {
        Ok(Ok(m)) => m,
        _ => panic!("tracking map still shared"),
    };
    assert!(
        committed.load(Ordering::SeqCst) >= 100,
        "not enough acked transfers to make the test meaningful"
    );

    // coordinated recovery must be clean on every shard
    let fsck = Command::new(bin())
        .arg(&dir)
        .arg("fsck")
        .output()
        .expect("fsck");
    let fsck_out =
        String::from_utf8_lossy(&fsck.stdout).into_owned() + &String::from_utf8_lossy(&fsck.stderr);
    assert!(
        fsck.status.success(),
        "fsck failed after kill -9 on the sharded topology:\n{fsck_out}"
    );
    assert!(fsck_out.contains("fsck: clean"), "{fsck_out}");
    assert!(fsck_out.contains("topology: 4 shards"), "{fsck_out}");

    // fingerprint identity on the real crash state: a twin copy of the
    // sharded directory — in-doubt cross-shard branches and all — must
    // recover to the original's fingerprint bit for bit (the in-doubt
    // resolver sees the identical branch set either way)
    let twin = tmpdir("kill9-sharded-twin");
    copy_dir(&dir, &twin);
    let cmp = Command::new(bin())
        .arg(&twin)
        .args(["fsck", "--compare", &dir.to_string_lossy()])
        .output()
        .expect("fsck --compare");
    let cmp_out =
        String::from_utf8_lossy(&cmp.stdout).into_owned() + &String::from_utf8_lossy(&cmp.stderr);
    assert!(
        cmp.status.success() && cmp_out.contains("compare: fingerprints match"),
        "twin recovery diverged on the sharded crash state:\n{cmp_out}"
    );
    let _ = std::fs::remove_dir_all(&twin);

    // re-serve (parallel shard recovery + in-doubt resolution happens
    // here) and audit every transfer group over the wire
    let (mut child2, addr2, _stdout_keepalive2) = spawn_serve(&dir, 0);
    let mut reader = Client::connect(&addr2).expect("connect to recovered server");
    reader
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut audited = 0u64;
    for (group, t) in &tracked {
        let base = group * SHARDS;
        let mut fills = Vec::with_capacity(SHARDS as usize);
        for k in 0..SHARDS {
            let value = reader.get(RecordId(base + k)).expect("read recovered");
            assert!(
                value.iter().all(|w| *w == value[0]),
                "record {} recovered torn within itself: {value:?}",
                base + k
            );
            fills.push(value[0]);
        }
        // the atomicity claim: all four branches agree
        assert!(
            fills.iter().all(|f| *f == fills[0]),
            "transfer group {group} recovered TORN across shards: {fills:x?} \
             (acked={:x?}, in-flight={:x?})",
            t.acked,
            t.in_flight
        );
        let got = fills[0];
        let mut allowed: Vec<u32> = Vec::new();
        if let Some(a) = t.acked {
            allowed.push(a);
        }
        if let Some(f) = t.in_flight {
            allowed.push(f);
        }
        if t.acked.is_none() {
            // never acked: initial zeroes or the lone in-flight value
            allowed.push(0);
        }
        assert!(
            allowed.contains(&got),
            "transfer group {group}: recovered fill {got:#x}, expected one of {allowed:x?}",
        );
        audited += 1;
    }
    assert!(audited > 0, "no transfer groups tracked");
    reader.shutdown().expect("graceful shutdown");
    assert!(child2.wait().expect("serve exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
