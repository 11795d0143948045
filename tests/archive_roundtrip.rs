//! Archival cold backups (paper §2.7): `dump_archive` captures the
//! newest complete checkpoint image plus the log slice that brings it to
//! the committed state; `restore_archive_dir` rebuilds an identical
//! database in a fresh directory.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::{Algorithm, Mmdb, MmdbConfig, MmdbError, RecordId};

fn tmp(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("mmdb-archtest-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn archive_captures_exact_committed_state() {
    let src_dir = tmp("src");
    let dst_dir = tmp("dst");
    let archive = tmp("file.mmdbarch");

    let config = MmdbConfig::small(Algorithm::CouCopy);
    let fingerprint = {
        let (mut db, _) = Mmdb::open_dir(config, &src_dir).unwrap();
        let words = db.record_words();
        for i in 0..80u64 {
            db.run_txn(&[(RecordId(i * 23 % 2048), vec![i as u32 + 1; words])])
                .unwrap();
        }
        db.checkpoint().unwrap();
        // committed after the checkpoint: must travel in the log slice
        for i in 0..30u64 {
            db.run_txn(&[(RecordId(i), vec![90_000 + i as u32; words])])
                .unwrap();
        }
        let info = db.dump_archive(&archive).unwrap();
        assert!(info.log_bytes > 0, "the log slice must carry the tail");
        db.fingerprint()
    };

    let (mut db, report) = Mmdb::restore_archive_dir(config, &dst_dir, &archive).unwrap();
    assert!(report.txns_replayed >= 30);
    assert_eq!(db.fingerprint(), fingerprint, "bit-identical restore");

    // the restored database is fully operational: new work, checkpoints,
    // crash recovery
    db.run_txn(&[(RecordId(0), vec![5; db.record_words()])])
        .unwrap();
    db.checkpoint().unwrap();
    let before = db.fingerprint();
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.fingerprint(), before);

    for p in [&src_dir, &dst_dir] {
        let _ = std::fs::remove_dir_all(p);
    }
    let _ = std::fs::remove_file(&archive);
}

#[test]
fn restore_refuses_existing_database() {
    let src_dir = tmp("src2");
    let archive = tmp("file2.mmdbarch");
    let config = MmdbConfig::small(Algorithm::FuzzyCopy);
    {
        let (mut db, _) = Mmdb::open_dir(config, &src_dir).unwrap();
        db.run_txn(&[(RecordId(0), vec![1; db.record_words()])])
            .unwrap();
        db.checkpoint().unwrap();
        db.dump_archive(&archive).unwrap();
    }
    // restoring over the SOURCE directory (which has a database) must fail
    let err = Mmdb::restore_archive_dir(config, &src_dir, &archive).unwrap_err();
    assert!(matches!(err, MmdbError::Invalid(_)));
    let _ = std::fs::remove_dir_all(&src_dir);
    let _ = std::fs::remove_file(&archive);
}

#[test]
fn dump_without_checkpoint_fails() {
    let mut db = Mmdb::open_in_memory(MmdbConfig::small(Algorithm::FuzzyCopy)).unwrap();
    db.run_txn(&[(RecordId(0), vec![1; db.record_words()])])
        .unwrap();
    let archive = tmp("nockpt.mmdbarch");
    assert!(matches!(
        db.dump_archive(&archive),
        Err(MmdbError::NoCompleteBackup)
    ));
    let _ = std::fs::remove_file(&archive);
}

#[test]
fn archive_carries_one_frame_branches() {
    let src_dir = tmp("src3");
    let dst_dir = tmp("dst3");
    let archive = tmp("file3.mmdbarch");
    let config = MmdbConfig::small(Algorithm::FuzzyCopy);
    {
        let (mut db, _) = Mmdb::open_dir(config, &src_dir).unwrap();
        let words = db.record_words();
        db.checkpoint().unwrap();
        // two cross-shard branches, each one `TxnPrepare` frame in the
        // slice: one committed by its coordinator's `TxnDecide` frame (the
        // commit point, on this same log), one aborted
        for (gid, commit) in [(5, true), (6, false)] {
            let branch = db.begin_txn().unwrap();
            db.write(branch, RecordId(gid), &vec![gid as u32; words])
                .unwrap();
            db.prepare_txn(branch, gid).unwrap();
            if commit {
                let coordinator = db.begin_txn().unwrap();
                db.write(coordinator, RecordId(gid + 10), &vec![gid as u32; words])
                    .unwrap();
                db.commit_decide(coordinator, gid).unwrap();
                db.commit_prepared(branch).unwrap();
            } else {
                db.abort_prepared(branch).unwrap();
            }
        }
        db.force_log().unwrap();
    }
    // An explicit abort decision, as an older coordinator logged it: the
    // engine no longer writes `Decide` frames, so it goes on the chunk.
    let mut chunks: Vec<_> = std::fs::read_dir(src_dir.join("log"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    chunks.sort();
    let last = chunks.last().unwrap();
    let mut bytes = std::fs::read(last).unwrap();
    bytes.extend(
        mmdb::log::LogRecord::Decide {
            gid: 6,
            commit: false,
        }
        .encode(),
    );
    std::fs::write(last, bytes).unwrap();
    let fingerprint = {
        let (mut db, _) = Mmdb::open_dir(config, &src_dir).unwrap();
        db.dump_archive(&archive).unwrap();
        db.fingerprint()
    };

    let (db, report) = Mmdb::restore_archive_dir(config, &dst_dir, &archive).unwrap();
    // the commit point and the committed branch
    assert_eq!(report.txns_replayed, 2);
    assert_eq!(report.decisions, vec![(5, true), (6, false)]);
    assert_eq!(db.fingerprint(), fingerprint, "bit-identical restore");
    assert_eq!(db.read_committed(RecordId(5)).unwrap()[0], 5);
    assert_eq!(db.read_committed(RecordId(15)).unwrap()[0], 5);
    assert_ne!(db.read_committed(RecordId(6)).unwrap()[0], 6);

    for p in [&src_dir, &dst_dir] {
        let _ = std::fs::remove_dir_all(p);
    }
    let _ = std::fs::remove_file(&archive);
}
