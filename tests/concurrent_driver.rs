//! Concurrent driving: the engine is single-threaded by design (every
//! interleaving is an explicit step), but it is `Send`, so a concurrent
//! deployment wraps it in a mutex with a dedicated checkpointer thread —
//! exactly the shape the paper's system implies (transactions on the
//! processors, the checkpointer asynchronously alongside). This test runs
//! that deployment: four worker threads committing transfers while a
//! checkpointer thread takes continuous checkpoints, then crashes and
//! verifies the invariants.
//!
//! The second test drives the *within-shard* concurrency design instead:
//! lock-free seqlock readers racing single-shard committers racing a
//! live two-color checkpoint on one `ShardedMmdb` shard, asserting that
//! no read ever returns a torn value and the content survives a crash.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::shard::ShardedMmdb;
use mmdb::{Algorithm, Mmdb, MmdbConfig, MmdbError, RecordId, StepOutcome};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

const N_ACCOUNTS: u64 = 2048;
const INITIAL: u32 = 1000;

fn total(db: &Mmdb) -> u64 {
    (0..N_ACCOUNTS)
        .map(|a| db.read_committed(RecordId(a)).unwrap()[0] as u64)
        .sum()
}

#[test]
fn threaded_workers_and_checkpointer() {
    for algorithm in [
        Algorithm::CouCopy,
        Algorithm::TwoColorCopy,
        Algorithm::FuzzyCopy,
    ] {
        let cfg = MmdbConfig::small(algorithm);
        let mut db = Mmdb::open_in_memory(cfg).unwrap();
        let words = db.record_words();
        for a in 0..N_ACCOUNTS {
            let mut rec = vec![0u32; words];
            rec[0] = INITIAL;
            db.run_txn(&[(RecordId(a), rec)]).unwrap();
        }
        db.checkpoint().unwrap();

        let db = Arc::new(Mutex::new(db));
        let stop = Arc::new(AtomicBool::new(false));
        let transfers_done = Arc::new(AtomicU64::new(0));
        let checkpoints_done = Arc::new(AtomicU64::new(0));

        // the checkpointer thread: begin + step until told to stop
        let ckpt_handle = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&checkpoints_done);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut guard = db.lock().unwrap_or_else(PoisonError::into_inner);
                    if !guard.is_checkpoint_active() && !guard.is_quiescing() {
                        // ignore "in progress" races
                        let _ = guard.try_begin_checkpoint();
                    }
                    if guard.is_checkpoint_active() {
                        match guard.checkpoint_step() {
                            Ok(StepOutcome::Done { .. }) => {
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(StepOutcome::WaitingForLog) => {
                                guard.force_log().unwrap();
                            }
                            Ok(StepOutcome::Progress { .. }) => {}
                            Err(e) => panic!("checkpointer thread: {e}"),
                        }
                    }
                    drop(guard);
                    std::thread::yield_now();
                }
            })
        };

        // worker threads: random transfers with two-color retry
        let workers: Vec<_> = (0..4u64)
            .map(|w| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                let count = Arc::clone(&transfers_done);
                std::thread::spawn(move || {
                    let mut x = 88172645463325252u64 ^ (w + 1); // xorshift
                    let mut next = || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let from = next() % N_ACCOUNTS;
                        let to = (from + 1 + next() % (N_ACCOUNTS - 1)) % N_ACCOUNTS;
                        let amount = (next() % 20 + 1) as u32;
                        let mut guard = db.lock().unwrap_or_else(PoisonError::into_inner);
                        let result = (|| -> mmdb::Result<bool> {
                            let txn = match guard.begin_txn() {
                                Ok(t) => t,
                                Err(MmdbError::Quiesced) => return Ok(false),
                                Err(e) => return Err(e),
                            };
                            let mut src = guard.read(txn, RecordId(from))?;
                            let mut dst = guard.read(txn, RecordId(to))?;
                            if src[0] < amount {
                                guard.abort(txn)?;
                                return Ok(false);
                            }
                            src[0] -= amount;
                            dst[0] += amount;
                            guard.write(txn, RecordId(from), &src)?;
                            guard.write(txn, RecordId(to), &dst)?;
                            guard.commit(txn)?;
                            Ok(true)
                        })();
                        match result {
                            Ok(true) => {
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(false) => {} // quiesced or insufficient funds
                            Err(MmdbError::TwoColorViolation { .. }) => {} // retried later
                            Err(e) => panic!("worker {w}: {e}"),
                        }
                    }
                })
            })
            .collect();

        // let the system churn until real work has accumulated
        loop {
            std::thread::sleep(std::time::Duration::from_millis(20));
            if transfers_done.load(Ordering::Relaxed) > 2_000
                && checkpoints_done.load(Ordering::Relaxed) > 2
            {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        ckpt_handle.join().unwrap();

        let mut db = Arc::try_unwrap(db)
            .unwrap_or_else(|_| panic!("threads leaked an Arc"))
            .into_inner()
            .unwrap();

        // money is conserved under concurrency...
        assert_eq!(total(&db), N_ACCOUNTS * INITIAL as u64, "{algorithm}");
        // ...and across a crash
        let before = db.fingerprint();
        db.crash().unwrap();
        db.recover().unwrap();
        assert_eq!(db.fingerprint(), before, "{algorithm}");
        assert_eq!(total(&db), N_ACCOUNTS * INITIAL as u64, "{algorithm}");
        println!(
            "{algorithm}: {} transfers, {} checkpoints, {} two-color aborts",
            transfers_done.load(Ordering::Relaxed),
            checkpoints_done.load(Ordering::Relaxed),
            db.txn_stats().aborted_two_color
        );
    }
}

/// The within-shard concurrency design under fire: lock-free seqlock
/// readers race single-shard committers race a live two-color
/// checkpoint, all against ONE shard. Every committed value is uniform
/// (all words equal), so a reader observing a mixed-word record proves
/// a torn seqlock read. Afterwards the shard must crash-recover to the
/// same fingerprint with zero audit violations.
#[test]
fn intra_shard_readers_and_committers_race_a_live_checkpoint() {
    let cfg = MmdbConfig::small(Algorithm::TwoColorCopy);
    let db = Arc::new(ShardedMmdb::open_in_memory(cfg, 1).unwrap());
    let words = db.record_words();
    let n = db.n_records();

    // seed every record with a uniform value so readers can check
    // torn-ness from the very first read
    let mut batch = Vec::new();
    for r in 0..n {
        batch.push((RecordId(r), vec![1u32; words]));
        if batch.len() == 64 {
            db.run_txn(&batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        db.run_txn(&batch).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let commits_done = Arc::new(AtomicU64::new(0));
    let checkpoints_done = Arc::new(AtomicU64::new(0));
    let reads_done = Arc::new(AtomicU64::new(0));

    // the checkpointer: step a two-color checkpoint through the shard's
    // exclusive gate, one step per lock acquisition so committers and
    // the gate interleave with it
    let ckpt_handle = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&checkpoints_done);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.with_shard(0, |e| {
                    if !e.is_checkpoint_active() && !e.is_quiescing() {
                        let _ = e.try_begin_checkpoint();
                    }
                    if e.is_checkpoint_active() {
                        match e.checkpoint_step() {
                            Ok(StepOutcome::Done { .. }) => {
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(StepOutcome::WaitingForLog) => e.force_log().unwrap(),
                            Ok(StepOutcome::Progress { .. }) => {}
                            Err(e) => panic!("checkpointer thread: {e}"),
                        }
                    }
                });
                std::thread::yield_now();
            }
        })
    };

    // committers: single-record uniform writes through the router's
    // single-shard fast path (per-segment latches, not the shard mutex)
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let count = Arc::clone(&commits_done);
            std::thread::spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (w + 1);
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while !stop.load(Ordering::Relaxed) {
                    let rid = RecordId(next() % n);
                    let value = (next() % u32::MAX as u64) as u32 | 1;
                    match db.run_txn(&[(rid, vec![value; words])]) {
                        Ok(_) => {
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        // begin-quiesce window: retry on the next spin
                        Err(MmdbError::Quiesced) => {}
                        Err(e) => panic!("committer {w}: {e}"),
                    }
                }
            })
        })
        .collect();

    // readers: lock-free committed reads, never touching the shard
    // mutex — any record with unequal words is a torn seqlock read
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let count = Arc::clone(&reads_done);
            std::thread::spawn(move || {
                let mut x = 0xD1B5_4A32_D192_ED03u64 ^ (r + 1);
                let mut next = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while !stop.load(Ordering::Relaxed) {
                    let rid = RecordId(next() % n);
                    let value = db.read_committed(rid).unwrap();
                    assert!(
                        value.iter().all(|&w| w == value[0]),
                        "torn read on {rid:?}: {value:?}"
                    );
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if commits_done.load(Ordering::Relaxed) > 2_000
            && checkpoints_done.load(Ordering::Relaxed) > 2
            && reads_done.load(Ordering::Relaxed) > 10_000
        {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    ckpt_handle.join().unwrap();

    // the racing never tripped an audit checker...
    let violations = db.audit_violations();
    assert!(violations.is_empty(), "audit violations: {violations:?}");

    // ...every record is still uniform through the locked read path
    // (one shard: global and local record ids coincide)...
    for r in 0..n {
        let value = db.with_shard(0, |e| e.read_committed(RecordId(r))).unwrap();
        assert!(
            value.iter().all(|&w| w == value[0]),
            "non-uniform record {r} after the race: {value:?}"
        );
    }

    // ...and the shard crash-recovers to the identical fingerprint
    let before = db.fingerprint();
    db.with_shard(0, |e| {
        e.crash().unwrap();
        e.recover().unwrap();
    });
    assert_eq!(db.fingerprint(), before, "fingerprint changed across crash");
    println!(
        "intra-shard race: {} commits, {} checkpoints, {} lock-free reads",
        commits_done.load(Ordering::Relaxed),
        checkpoints_done.load(Ordering::Relaxed),
        reads_done.load(Ordering::Relaxed)
    );
}
