//! Log truncation: after each completed checkpoint, the engine discards
//! the log prefix that no future recovery can need (everything before
//! the replay floor of the *older* complete ping-pong copy). With the
//! segmented on-disk log, that reclaims real space — the property a
//! long-running system lives or dies by.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::log::{LogDevice, LogRecord, SegmentedLogDevice};
use mmdb::{Algorithm, LogMode, Mmdb, MmdbConfig, RecordId, TxnId};

fn config(algorithm: Algorithm) -> MmdbConfig {
    let mut cfg = MmdbConfig::small(algorithm);
    cfg.log_chunk_bytes = 4096; // small chunks so truncation is visible
    if algorithm == Algorithm::FastFuzzy {
        cfg.params.log_mode = LogMode::StableTail;
    }
    cfg
}

fn log_dir_bytes(dir: &std::path::Path) -> u64 {
    let d = SegmentedLogDevice::open(&dir.join("log"), 4096, false).unwrap();
    let bytes = d.disk_bytes();
    // keep borrowck happy about the unused read capability
    let _ = d.len();
    bytes
}

#[test]
fn log_disk_usage_stays_bounded_across_checkpoint_cycles() {
    for algorithm in [Algorithm::FuzzyCopy, Algorithm::CouCopy] {
        let dir = std::env::temp_dir().join(format!(
            "mmdb-trunc-{}-{}",
            algorithm.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut peak_after_ckpt = Vec::new();
        {
            let (mut db, _) = Mmdb::open_dir(config(algorithm), &dir).unwrap();
            let words = db.record_words();
            for cycle in 0..12u64 {
                // ~10 KiB of log per cycle (well past several chunks)
                for i in 0..60u64 {
                    db.run_txn(&[(
                        RecordId((cycle * 61 + i * 7) % 2048),
                        vec![(cycle * 100 + i) as u32; words],
                    )])
                    .unwrap();
                }
                db.checkpoint().unwrap();
                peak_after_ckpt.push(db.log_stats().bytes);
            }
            // total log *written* grows without bound: every transaction's
            // frame (none shorter than this one), plus the checkpoint markers
            let shortest = LogRecord::txn_len(TxnId(0), None, [RecordId(0)], words);
            let txn_bytes = 12 * 60 * shortest as u64;
            assert!(peak_after_ckpt.last().unwrap() > &txn_bytes);
        }
        // ...but the disk footprint is bounded by ~2 checkpoint intervals
        // of log plus chunk rounding
        let on_disk = log_dir_bytes(&dir);
        let total_written = *peak_after_ckpt.last().unwrap();
        assert!(
            on_disk < total_written / 3,
            "{algorithm}: truncation should have reclaimed most of the \
             {total_written} written bytes, but {on_disk} remain"
        );

        // and the database still recovers from what remains
        let (db, recovered) = Mmdb::open_dir(config(algorithm), &dir).unwrap();
        assert!(recovered.is_some(), "{algorithm}");
        assert!(db.read_committed(RecordId(0)).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_after_truncation_is_exact() {
    let dir = std::env::temp_dir().join(format!("mmdb-trunc-exact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let fingerprint = {
        let (mut db, _) = Mmdb::open_dir(config(Algorithm::FuzzyCopy), &dir).unwrap();
        let words = db.record_words();
        for cycle in 0..6u64 {
            for i in 0..50u64 {
                db.run_txn(&[(
                    RecordId((cycle * 97 + i * 3) % 2048),
                    vec![(cycle * 1000 + i) as u32; words],
                )])
                .unwrap();
            }
            db.checkpoint().unwrap();
        }
        // post-checkpoint transactions that live only in the (recent) log
        for i in 0..20u64 {
            db.run_txn(&[(RecordId(i), vec![999_000 + i as u32; words])])
                .unwrap();
        }
        db.fingerprint()
    };

    let (db, recovered) = Mmdb::open_dir(config(Algorithm::FuzzyCopy), &dir).unwrap();
    assert!(recovered.is_some());
    assert_eq!(
        db.fingerprint(),
        fingerprint,
        "truncation must never eat log that recovery needs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_keeps_enough_for_the_older_copy() {
    // After checkpoints k and k+1 complete, recovery might still use
    // either copy (a crash during checkpoint k+2 invalidates its target).
    // So the log must reach back to checkpoint k's begin marker — crash
    // mid-checkpoint and verify.
    let dir = std::env::temp_dir().join(format!("mmdb-trunc-older-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (mut db, _) = Mmdb::open_dir(config(Algorithm::CouCopy), &dir).unwrap();
    let words = db.record_words();
    for i in 0..40u64 {
        db.run_txn(&[(RecordId(i * 13 % 2048), vec![i as u32 + 1; words])])
            .unwrap();
    }
    db.checkpoint().unwrap(); // ckpt 1 → copy 1
    db.run_txn(&[(RecordId(5), vec![111; words])]).unwrap();
    db.checkpoint().unwrap(); // ckpt 2 → copy 0 (truncation may fire now)
    db.run_txn(&[(RecordId(6), vec![222; words])]).unwrap();

    // begin ckpt 3 (targets copy 1, invalidating it) and crash mid-way
    db.try_begin_checkpoint().unwrap();
    db.checkpoint_step().unwrap();
    let before = db.fingerprint();
    db.crash().unwrap();
    let report = db.recover().unwrap();
    assert_eq!(report.ckpt.raw(), 2, "copy 0 (ckpt 2) is the survivor");
    assert_eq!(db.fingerprint(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
