//! Engine-level tests: transaction lifecycle, checkpointing under load,
//! crash/recovery for every algorithm, and the two-color / COU protocols
//! observed through the public API.

use mmdb_core::{
    Algorithm, CheckpointStart, CkptMode, CommitDurability, LogMode, LogRecord, Lsn, Mmdb,
    MmdbConfig, MmdbError, RecordId, StepOutcome, TxnId, MAX_TXN_FRAME_BYTES,
};
use mmdb_disk::{BackupStore, FileBackup};
use mmdb_storage::Storage;
use mmdb_types::hash::{crc32c, crc32c_append};
use mmdb_types::{CostMeter, DbParams};

fn small(algorithm: Algorithm) -> MmdbConfig {
    let mut c = MmdbConfig::small(algorithm);
    if algorithm == Algorithm::FastFuzzy {
        c.params.log_mode = LogMode::StableTail;
    }
    c
}

fn db(algorithm: Algorithm) -> Mmdb {
    Mmdb::open_in_memory(small(algorithm)).expect("open in memory")
}

fn val(db: &Mmdb, fill: u32) -> Vec<u32> {
    vec![fill; db.record_words()]
}

/// Every frame of the (forced) log, with its LSN.
fn log_frames(db: &mut Mmdb) -> Vec<(Lsn, LogRecord)> {
    db.force_log().expect("force");
    let start = db.log_start_lsn();
    let (_, bytes) = db.read_log_range(start, usize::MAX).expect("read log");
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (rec, used) = LogRecord::decode(&bytes[pos..]).expect("whole frames");
        frames.push((Lsn(start.raw() + pos as u64), rec));
        pos += used;
    }
    frames
}

#[test]
fn txn_read_your_writes_and_isolation() {
    let mut db = db(Algorithm::FuzzyCopy);
    let v1 = val(&db, 1);

    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(5), &v1).unwrap();
    // the writer sees its own staged value
    assert_eq!(db.read(t, RecordId(5)).unwrap(), v1);
    // the database does not, until commit
    assert_eq!(db.read_committed(RecordId(5)).unwrap(), val(&db, 0));
    db.commit(t).unwrap();
    assert_eq!(db.read_committed(RecordId(5)).unwrap(), v1);
}

#[test]
fn abort_discards_staged_writes() {
    let mut db = db(Algorithm::FuzzyCopy);
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(5), &val(&db, 9)).unwrap();
    db.abort(t).unwrap();
    assert_eq!(db.read_committed(RecordId(5)).unwrap(), val(&db, 0));
    // the transaction is gone
    assert!(db.read(t, RecordId(5)).is_err());
    assert_eq!(db.txn_stats().aborted_other, 1);
}

#[test]
fn wrong_record_size_rejected() {
    let mut db = db(Algorithm::FuzzyCopy);
    let t = db.begin_txn().unwrap();
    assert!(matches!(
        db.write(t, RecordId(0), &[1, 2, 3]),
        Err(MmdbError::BadRecordSize { .. })
    ));
}

#[test]
fn crash_recover_roundtrip_every_algorithm() {
    for alg in Algorithm::ALL_EXTENDED {
        let mut db = db(alg);
        // a spread of committed transactions
        for i in 0..40u64 {
            db.run_txn(&[
                (RecordId(i * 50 % 2048), val(&db, i as u32 + 1)),
                (RecordId((i * 97 + 13) % 2048), val(&db, i as u32 + 100)),
            ])
            .unwrap();
        }
        db.checkpoint().unwrap();
        // more transactions after the checkpoint
        for i in 0..25u64 {
            db.run_txn(&[(RecordId((i * 31 + 7) % 2048), val(&db, 7000 + i as u32))])
                .unwrap();
        }
        let before = db.fingerprint();
        db.crash().unwrap();
        assert!(db.is_crashed());
        assert!(
            db.begin_txn().is_err(),
            "{alg}: crashed engine refuses work"
        );
        let report = db.recover().unwrap();
        assert_eq!(db.fingerprint(), before, "{alg}: lost or ghost updates");
        assert!(!db.is_crashed());
        assert!(report.segments_loaded > 0);

        // the engine keeps working after recovery, including checkpoints
        db.run_txn(&[(RecordId(1), val(&db, 424242))]).unwrap();
        db.checkpoint().unwrap();
        let before2 = db.fingerprint();
        db.crash().unwrap();
        db.recover().unwrap();
        assert_eq!(db.fingerprint(), before2, "{alg}: second cycle");
    }
}

#[test]
fn crash_mid_checkpoint_every_algorithm() {
    for alg in Algorithm::ALL_EXTENDED {
        let mut db = db(alg);
        for i in 0..30u64 {
            db.run_txn(&[(RecordId(i * 64 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.checkpoint().unwrap(); // a complete checkpoint exists
        for i in 0..10u64 {
            db.run_txn(&[(RecordId(i * 3 % 2048), val(&db, 500 + i as u32))])
                .unwrap();
        }
        let before = db.fingerprint();
        // begin a second checkpoint and crash partway through its sweep
        match db.try_begin_checkpoint().unwrap() {
            CheckpointStart::Started(_) => {}
            CheckpointStart::Quiescing => unreachable!("no active txns"),
        }
        for _ in 0..5 {
            if let StepOutcome::Done { .. } = db.checkpoint_step().unwrap() {
                break;
            }
        }
        db.crash().unwrap();
        db.recover().unwrap();
        assert_eq!(
            db.fingerprint(),
            before,
            "{alg}: torn checkpoint broke recovery"
        );
    }
}

#[test]
fn interleaved_transactions_and_checkpoint_steps() {
    for alg in Algorithm::ALL_EXTENDED {
        let mut db = db(alg);
        for i in 0..20u64 {
            db.run_txn(&[(RecordId(i * 100 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.try_begin_checkpoint().unwrap();
        // interleave: one transaction, one checkpoint step, repeat
        let mut done = false;
        let mut i = 0u64;
        while !done {
            i += 1;
            db.run_txn(&[(RecordId((i * 37) % 2048), val(&db, 999 + i as u32))])
                .unwrap();
            if db.is_checkpoint_active() {
                match db.checkpoint_step().unwrap() {
                    StepOutcome::Done { .. } => done = true,
                    StepOutcome::WaitingForLog => unreachable!("Force policy"),
                    StepOutcome::Progress { .. } => {}
                }
            } else {
                done = true;
            }
        }
        // crash + recover must still land exactly on the committed state
        let before = db.fingerprint();
        db.crash().unwrap();
        db.recover().unwrap();
        assert_eq!(db.fingerprint(), before, "{alg}");
    }
}

#[test]
fn cou_quiesce_flow() {
    let mut db = db(Algorithm::CouCopy);
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(0), &val(&db, 1)).unwrap();

    // a COU checkpoint cannot begin while t is active: it quiesces
    assert_eq!(
        db.try_begin_checkpoint().unwrap(),
        CheckpointStart::Quiescing
    );
    assert!(db.is_quiescing());
    // new transactions are refused during the drain
    assert!(matches!(db.begin_txn(), Err(MmdbError::Quiesced)));
    assert!(!db.is_checkpoint_active());

    // when the straggler commits, the checkpoint begins automatically
    db.commit(t).unwrap();
    assert!(!db.is_quiescing());
    assert!(db.is_checkpoint_active());
    // and transactions are admitted again immediately (§3.2.2: "once the
    // timestamp is assigned and the begin-checkpoint entry is in the log,
    // transaction processing can begin again")
    let t2 = db.begin_txn().unwrap();
    db.write(t2, RecordId(1), &val(&db, 2)).unwrap();
    db.commit(t2).unwrap();

    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    assert_eq!(db.ckpt_stats().completed, 1);
}

#[test]
fn cou_sync_checkpoint_refuses_open_txns() {
    let mut db = db(Algorithm::CouFlush);
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(0), &val(&db, 1)).unwrap();
    assert!(matches!(db.checkpoint(), Err(MmdbError::Quiesced)));
    // the failed attempt must not leave the engine quiescing forever
    db.commit(t).unwrap();
    db.checkpoint().unwrap();
}

#[test]
fn two_color_violation_aborts_and_rerun_succeeds() {
    let mut db = db(Algorithm::TwoColorCopy);
    // dirty two segments at opposite ends so the sweep separates them
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.run_txn(&[(RecordId(2047), val(&db, 2))]).unwrap();

    db.try_begin_checkpoint().unwrap();
    // sweep past segment 0 only: segment 0 black, segment 31 still white
    loop {
        match db.checkpoint_step().unwrap() {
            StepOutcome::Progress { io_words } if io_words > 0 => break,
            StepOutcome::Done { .. } => panic!("checkpoint finished too early"),
            _ => {}
        }
    }

    // a transaction touching both segment 0 (black) and 31 (white) violates
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(0), &val(&db, 10)).unwrap();
    let err = db.write(t, RecordId(2047), &val(&db, 11)).unwrap_err();
    assert!(matches!(err, MmdbError::TwoColorViolation { .. }));
    // the transaction was auto-aborted
    assert!(db.read(t, RecordId(0)).is_err());
    assert_eq!(db.txn_stats().aborted_two_color, 1);

    // run_txn retries until the checkpoint advances past the conflict
    let run = db
        .run_txn(&[(RecordId(0), val(&db, 10)), (RecordId(2047), val(&db, 11))])
        .unwrap();
    assert!(run.runs >= 1);
    assert_eq!(db.read_committed(RecordId(0)).unwrap(), val(&db, 10));
    assert_eq!(db.read_committed(RecordId(2047)).unwrap(), val(&db, 11));

    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    // two-color checkpoints are transaction-consistent; crash/recover
    let before = db.fingerprint();
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.fingerprint(), before);
}

#[test]
fn two_color_same_color_txns_pass() {
    let mut db = db(Algorithm::TwoColorFlush);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.try_begin_checkpoint().unwrap();
    // all-white access: segments 0 is the only white (dirty) one
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(1), &val(&db, 5)).unwrap(); // segment 0, white
    db.write(t, RecordId(2), &val(&db, 6)).unwrap(); // segment 0, white
    db.commit(t).unwrap();
    // all-black access
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(200), &val(&db, 7)).unwrap(); // clean segment: black
    db.write(t, RecordId(300), &val(&db, 8)).unwrap(); // clean segment: black
    db.commit(t).unwrap();
    assert_eq!(db.txn_stats().aborted_two_color, 0);
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
}

#[test]
fn unforced_group_commit_loses_only_a_suffix() {
    // a bare engine under Group: nobody waits on the watermark
    let mut config = small(Algorithm::FuzzyCopy);
    config.commit_durability = CommitDurability::Group;
    let mut db = Mmdb::open_in_memory(config).unwrap();

    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();
    // two commits that never get forced
    db.run_txn(&[(RecordId(10), val(&db, 2))]).unwrap();
    db.run_txn(&[(RecordId(20), val(&db, 3))]).unwrap();

    db.crash().unwrap();
    db.recover().unwrap();
    // the unforced suffix is gone...
    assert_eq!(db.read_committed(RecordId(10)).unwrap(), val(&db, 0));
    assert_eq!(db.read_committed(RecordId(20)).unwrap(), val(&db, 0));
    // ...but the checkpointed prefix is intact
    assert_eq!(db.read_committed(RecordId(0)).unwrap(), val(&db, 1));
}

#[test]
fn overhead_report_separates_meters() {
    let mut db = db(Algorithm::CouCopy);
    for i in 0..10u64 {
        db.run_txn(&[(RecordId(i), val(&db, i as u32))]).unwrap();
    }
    db.checkpoint().unwrap();
    // updates during an active checkpoint trigger COU copies (sync cost)
    db.try_begin_checkpoint().unwrap();
    db.run_txn(&[(RecordId(2000), val(&db, 9))]).unwrap();
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    let report = db.overhead_report();
    assert!(report.committed >= 11);
    assert!(
        report.async_ckpt.total() > 0,
        "checkpointer work must be metered"
    );
    assert!(
        report.sync_ckpt.total() > 0,
        "the COU copy is synchronous transaction-side work"
    );
    assert!(report.base.total() > 0);
    assert!(report.ckpt_overhead_per_txn() > 0.0);
}

#[test]
fn fastfuzzy_requires_stable_tail_config() {
    let mut c = MmdbConfig::small(Algorithm::FastFuzzy);
    c.params.log_mode = LogMode::VolatileTail;
    assert!(Mmdb::open_in_memory(c).is_err());
}

#[test]
fn full_mode_checkpoints_everything() {
    let mut c = small(Algorithm::FuzzyCopy);
    c.params.ckpt_mode = CkptMode::Full;
    let mut db = Mmdb::open_in_memory(c).unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    // even with no writes, full mode flushes all 32 segments each time
    let report = db.checkpoint().unwrap();
    assert_eq!(report.segments_flushed, 32);
}

#[test]
fn file_backed_engine_survives_process_restart() {
    let dir = std::env::temp_dir().join(format!("mmdb-core-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let config = small(Algorithm::CouCopy);
    let fingerprint = {
        let (mut db, recovered) = Mmdb::open_dir(config, &dir).unwrap();
        assert!(recovered.is_none(), "fresh directory");
        for i in 0..30u64 {
            db.run_txn(&[(RecordId(i * 61 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.checkpoint().unwrap();
        // post-checkpoint transactions, durable via forced commits
        db.run_txn(&[(RecordId(100), val(&db, 777))]).unwrap();
        db.fingerprint()
        // drop = process dies without a clean shutdown
    };

    let (db, recovered) = Mmdb::open_dir(config, &dir).unwrap();
    let report = recovered.expect("should have recovered from files");
    assert!(report.segments_loaded > 0);
    assert_eq!(db.fingerprint(), fingerprint);
    assert_eq!(db.read_committed(RecordId(100)).unwrap(), val(&db, 777));
    std::fs::remove_dir_all(&dir).ok();
}

/// Where every record of the primary database lives.
fn record_addresses(db: &Mmdb) -> Vec<*const std::sync::atomic::AtomicU32> {
    let store = db.read_mirror();
    (0..db.n_records())
        .map(|rid| store.record_addr(RecordId(rid)))
        .collect()
}

#[test]
fn recovery_refills_the_storage_it_holds_and_reader_handles_outlive_it() {
    let mut db = db(Algorithm::CouCopy);
    db.run_txn(&[(RecordId(7), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();
    db.run_txn(&[(RecordId(7), val(&db, 2)), (RecordId(900), val(&db, 3))])
        .unwrap();
    let fingerprint = db.fingerprint();
    let handle = db.read_mirror();
    let before = record_addresses(&db);

    let mut out = val(&db, 0);
    for round in 0..2 {
        db.crash().unwrap();
        assert!(!handle.try_read(RecordId(7), &mut out), "gate closed");
        db.recover().unwrap();
        assert_eq!(db.fingerprint(), fingerprint, "round {round}");
        // the reset was in place: no segment moved, the handle is the
        // engine's mirror still and serves the recovered values
        assert_eq!(record_addresses(&db), before, "round {round}");
        assert!(std::sync::Arc::ptr_eq(&handle, &db.read_mirror()));
        assert!(handle.try_read(RecordId(7), &mut out));
        assert_eq!(out, val(&db, 2));
        assert!(handle.try_read(RecordId(900), &mut out));
        assert_eq!(out, val(&db, 3));
    }
    // and the recovered engine runs on: new installs reach the handle
    db.run_txn(&[(RecordId(900), val(&db, 4))]).unwrap();
    assert!(handle.try_read(RecordId(900), &mut out));
    assert_eq!(out, val(&db, 4));
}

#[test]
fn open_dir_recovery_leaves_the_mirror_in_service() {
    let dir = std::env::temp_dir().join(format!("mmdb-core-mirror-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = small(Algorithm::CouCopy);
    {
        let (mut db, _) = Mmdb::open_dir(config, &dir).unwrap();
        db.run_txn(&[(RecordId(3), val(&db, 5))]).unwrap();
        db.checkpoint().unwrap();
        db.run_txn(&[(RecordId(4), val(&db, 6))]).unwrap();
    }
    let (mut db, recovered) = Mmdb::open_dir(config, &dir).unwrap();
    assert!(recovered.is_some());
    let handle = db.read_mirror();
    let mut out = val(&db, 0);
    for (rid, fill) in [(3, 5), (4, 6), (5, 0)] {
        assert!(handle.try_read(RecordId(rid), &mut out));
        assert_eq!(out, val(&db, fill), "record {rid}");
    }
    // a crash of the reopened engine recovers into the same memory too
    let before = record_addresses(&db);
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(record_addresses(&db), before);
    assert!(handle.try_read(RecordId(4), &mut out));
    assert_eq!(out, val(&db, 6));
    std::fs::remove_dir_all(&dir).ok();
}

/// An engine with record 7 committed on the exclusive path and then
/// records 7 and 900 overwritten on the shared path, nothing drained.
/// One store: those values are what every `&Mmdb` read returns from the
/// moment they commit. (With a second, plain copy beside the store, the
/// three reads below returned the pre-commit values until a drain.)
fn after_two_shared_commits() -> Mmdb {
    let mut db = db(Algorithm::CouCopy);
    db.run_txn(&[(RecordId(7), val(&db, 1))]).expect("commit");
    for (rid, fill) in [(7, 12), (900, 11)] {
        let run = db.try_commit_shared(&[(RecordId(rid), val(&db, fill))]);
        assert!(run.expect("commit").is_some(), "shared path admitted");
    }
    assert_eq!(db.read_mirror().pending_len(), 2, "nothing drained");
    db
}

#[test]
fn read_committed_sees_a_shared_commit_before_any_sync() {
    let db = after_two_shared_commits();
    assert_eq!(db.read_committed(RecordId(7)).unwrap(), val(&db, 12));
    assert_eq!(db.read_committed(RecordId(900)).unwrap(), val(&db, 11));
}

#[test]
fn for_each_record_sees_a_shared_commit_before_any_sync() {
    let db = after_two_shared_commits();
    let mut seen = Vec::new();
    db.for_each_record(|rid, words| {
        if words[0] != 0 {
            seen.push((rid, words.to_vec()));
        }
    })
    .unwrap();
    let expect = vec![(RecordId(7), val(&db, 12)), (RecordId(900), val(&db, 11))];
    assert_eq!(seen, expect);
}

#[test]
fn fingerprint_sees_a_shared_commit_before_any_sync() {
    let mut db = after_two_shared_commits();
    // the fingerprint is the one an exclusive-path twin computes
    let mut twin = self::db(Algorithm::CouCopy);
    twin.run_txn(&[(RecordId(7), val(&db, 12))]).unwrap();
    twin.run_txn(&[(RecordId(900), val(&db, 11))]).unwrap();
    assert_eq!(db.fingerprint(), twin.fingerprint());
    // and a drain changes no data
    assert_eq!(db.sync_pending(), 2);
    assert_eq!(db.fingerprint(), twin.fingerprint());
}

/// What the pending-sync queue still carries: the segment metadata. A
/// shared-path install dirties its segment only when the next exclusive
/// holder drains the queue, once per install.
#[test]
fn shared_commit_metadata_waits_for_sync_pending() {
    let mut db = db(Algorithm::CouCopy);
    db.run_txn(&[(RecordId(7), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    assert_eq!(db.segment_stats().dirty_copy0, 0);
    assert_eq!(db.segment_stats().dirty_copy1, 0);

    let updates = [(RecordId(7), val(&db, 2)), (RecordId(900), val(&db, 3))];
    assert!(db.try_commit_shared(&updates).unwrap().is_some());
    assert!(db.try_commit_shared(&updates[..1]).unwrap().is_some());
    assert_eq!(db.read_mirror().pending_len(), 3);
    assert_eq!(db.segment_stats().dirty_copy0, 0, "metadata still lags");
    assert_eq!(db.sync_pending(), 3, "one note per install");
    let stats = db.segment_stats();
    assert_eq!((stats.dirty_copy0, stats.dirty_copy1), (2, 2));
    assert_eq!(db.sync_pending(), 0);

    // the drained metadata is what makes the next checkpoint flush them
    let fingerprint = db.fingerprint();
    assert_eq!(db.checkpoint().unwrap().segments_flushed, 2);
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.fingerprint(), fingerprint);
}

#[test]
fn recover_on_live_engine_rejected() {
    let mut db = db(Algorithm::FuzzyCopy);
    assert!(db.recover().is_err());
}

#[test]
fn recovery_without_any_checkpoint_fails_cleanly() {
    let mut db = db(Algorithm::FuzzyCopy);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.crash().unwrap();
    assert!(matches!(db.recover(), Err(MmdbError::NoCompleteBackup)));
}

#[test]
fn checkpoints_alternate_copies_across_recovery() {
    let mut db = db(Algorithm::FuzzyCopy);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    let r1 = db.checkpoint().unwrap();
    assert_eq!(r1.copy, 1);
    let r2 = db.checkpoint().unwrap();
    assert_eq!(r2.copy, 0);
    db.crash().unwrap();
    let rec = db.recover().unwrap();
    assert_eq!(rec.ckpt.raw(), 2, "recovered from the newest checkpoint");
    // next checkpoint must NOT overwrite the copy we just recovered from
    let r3 = db.checkpoint().unwrap();
    assert_ne!(r3.copy, rec.copy);
}

#[test]
fn old_copy_buffer_is_bounded_by_database_size() {
    let mut db = db(Algorithm::CouCopy);
    for i in 0..32u64 {
        db.run_txn(&[(RecordId(i * 64), val(&db, 1))]).unwrap();
    }
    db.try_begin_checkpoint().unwrap();
    // touch every segment while the checkpoint is active
    for i in 0..32u64 {
        db.run_txn(&[(RecordId(i * 64 + 1), val(&db, 2))]).unwrap();
    }
    // the snapshot buffer can grow to at most the database size (§3.2.2)
    assert!(db.old_copy_words() <= 32 * 2048);
    assert!(db.old_copy_words() > 0);
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    assert_eq!(db.old_copy_words(), 0, "all old copies consumed");
}

/// Record-granular COU: a pass raced by uniform 5-update transactions
/// (8 per step, as in the benchmark's `embedded_update`) keeps only the
/// records they overwrite — a copy of every segment they touched held
/// the whole database at its peak — and still writes the begin-time
/// snapshot.
#[test]
fn a_raced_cou_pass_holds_only_the_overwritten_records() {
    let dir = std::env::temp_dir().join(format!("mmdb-core-cou-peak-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = small(Algorithm::CouCopy);
    // 16 segments of 256 records
    config.params.db = DbParams {
        s_db: 128 << 10,
        s_rec: 32,
        s_seg: 8192,
    };
    let (mut db, _) = Mmdb::open_dir(config, &dir).unwrap();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut txn = |db: &mut Mmdb| {
        let updates: Vec<_> = (0..5)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (RecordId(x % db.n_records()), val(db, x as u32))
            })
            .collect();
        db.run_txn(&updates).unwrap();
    };
    for _ in 0..400 {
        txn(&mut db);
    }
    let CheckpointStart::Started(begun) = db.try_begin_checkpoint().unwrap() else {
        panic!("no transaction is open")
    };
    let snapshot = db.fingerprint();
    while db.is_checkpoint_active() {
        for _ in 0..8 {
            txn(&mut db);
        }
        db.checkpoint_step().unwrap();
    }

    let m = db.metrics_snapshot();
    let peak = m.gauge("mem.cou_old_copy_peak_bytes").unwrap();
    let records = m.gauge("mem.records_bytes").unwrap();
    assert!(
        peak > 0 && peak * 10 <= records,
        "peak {peak} of {records} B"
    );
    assert!(
        m.counter("ckpt.old_record_saves").unwrap() > m.counter("ckpt.old_copy_saves").unwrap()
    );
    let shape = config.params.db;
    let mut backup = FileBackup::open(&dir.join("backup"), shape, false).unwrap();
    let mut image = Storage::new(shape).unwrap();
    let mut words = vec![0; shape.s_seg as usize];
    let meter = CostMeter::new(config.params.cost);
    for sid in image.segment_ids().collect::<Vec<_>>() {
        backup.read_segment(begun.copy, sid, &mut words).unwrap();
        image.load_segment(sid, &words, None, &meter).unwrap();
    }
    assert_eq!(
        image.fingerprint(),
        snapshot,
        "the backup is the begin-time state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash mid-write leaves a torn frame at the log's end. The next open
/// stops there and cuts it off, so the commits acked after that open are
/// where the open after them reads.
#[test]
fn a_torn_log_tail_is_cut_before_the_next_commit() {
    let dir = std::env::temp_dir().join(format!("mmdb-core-torn-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = small(Algorithm::CouCopy);
    {
        let (mut db, _) = Mmdb::open_dir(config, &dir).unwrap();
        db.run_txn(&[(RecordId(1), val(&db, 1))]).unwrap();
        db.checkpoint().unwrap();
        db.run_txn(&[(RecordId(2), val(&db, 2))]).unwrap();
        db.force_log().unwrap();
    }
    // a frame that declares 169 bytes, of which 64 reached the disk
    let mut chunks: Vec<_> = std::fs::read_dir(dir.join("log"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    chunks.sort();
    let mut torn = 169u32.to_le_bytes().to_vec();
    torn.extend([0xA5; 60]);
    let last = chunks.last().unwrap();
    let mut bytes = std::fs::read(last).unwrap();
    bytes.extend(&torn);
    std::fs::write(last, bytes).unwrap();
    {
        let (mut db, recovered) = Mmdb::open_dir(config, &dir).unwrap();
        assert!(recovered.is_some());
        assert_eq!(db.read_committed(RecordId(2)).unwrap(), val(&db, 2));
        let cut = db.metrics_snapshot().counter("recovery.torn_tail_bytes");
        assert_eq!(cut, Some(torn.len() as u64));
        db.run_txn(&[(RecordId(3), val(&db, 3))]).unwrap();
        db.force_log().unwrap();
    }
    let (db, _) = Mmdb::open_dir(config, &dir).unwrap();
    assert_eq!(
        db.read_committed(RecordId(3)).unwrap(),
        val(&db, 3),
        "the acked commit"
    );
    assert_eq!(
        db.metrics_snapshot().counter("recovery.torn_tail_bytes"),
        Some(0)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn couac_begins_without_quiescing() {
    // The whole point of the AC variant: a checkpoint can begin while
    // transactions are in flight, with no admission stall.
    let mut db = db(Algorithm::CouAc);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();

    let straggler = db.begin_txn().unwrap();
    db.write(straggler, RecordId(100), &val(&db, 7)).unwrap();

    // begins immediately — contrast with CouCopy's Quiescing
    match db.try_begin_checkpoint().unwrap() {
        CheckpointStart::Started(report) => {
            assert_eq!(report.ckpt.raw(), 2);
        }
        CheckpointStart::Quiescing => panic!("COUAC must not quiesce"),
    }
    assert!(db.is_checkpoint_active());
    // new transactions are admitted during the whole window
    db.run_txn(&[(RecordId(200), val(&db, 9))]).unwrap();
    // and the straggler commits mid-checkpoint
    db.commit(straggler).unwrap();

    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    // everything committed must survive a crash
    let before = db.fingerprint();
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.fingerprint(), before);
    assert_eq!(db.read_committed(RecordId(100)).unwrap(), val(&db, 7));
    assert_eq!(db.read_committed(RecordId(200)).unwrap(), val(&db, 9));
}

#[test]
fn marker_lists_no_unprepared_transaction_and_replay_starts_at_it() {
    // A transaction open at a non-quiesced begin has nothing in the log
    // yet: the marker's active list is empty, replay starts *at* the
    // marker, and the transaction's one frame, written at its commit, lies
    // behind the marker and is replayed.
    for algorithm in [
        Algorithm::FuzzyCopy,
        Algorithm::TwoColorCopy,
        Algorithm::CouAc,
    ] {
        let mut db = db(algorithm);
        db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
        db.checkpoint().unwrap();

        let t = db.begin_txn().unwrap();
        db.write(t, RecordId(50), &val(&db, 5)).unwrap();
        let CheckpointStart::Started(begin) = db.try_begin_checkpoint().unwrap() else {
            panic!("{algorithm} must not quiesce");
        };
        db.commit(t).unwrap();
        while db.is_checkpoint_active() {
            if db.checkpoint_step().unwrap() == StepOutcome::WaitingForLog {
                db.force_log().unwrap();
            }
        }
        let marker = log_frames(&mut db)
            .into_iter()
            .find(|(lsn, _)| *lsn == begin.begin_lsn)
            .map(|(_, rec)| rec);
        let Some(LogRecord::BeginCheckpoint { active, .. }) = marker else {
            panic!("{algorithm}: no begin marker at {}", begin.begin_lsn);
        };
        assert!(active.is_empty(), "{algorithm}: {active:?}");

        let before = db.fingerprint();
        db.crash().unwrap();
        let report = db.recover().unwrap();
        assert_eq!(report.ckpt, begin.ckpt, "{algorithm}");
        assert_eq!(report.replay_start, begin.begin_lsn, "{algorithm}");
        assert_eq!(report.txns_replayed, 1, "{algorithm}");
        assert_eq!(db.fingerprint(), before, "{algorithm}");
        assert_eq!(db.read_committed(RecordId(50)).unwrap(), val(&db, 5));
    }
}

#[test]
fn prepared_branch_open_at_the_marker_extends_replay_to_its_begin() {
    let mut db = db(Algorithm::FuzzyCopy);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();

    let branch = db.begin_txn().unwrap();
    db.write(branch, RecordId(60), &val(&db, 6)).unwrap();
    let branch_begin = db.log_durable_lsn();
    db.prepare_txn(branch, 9).unwrap();
    let bystander = db.begin_txn().unwrap();
    let CheckpointStart::Started(begin) = db.try_begin_checkpoint().unwrap() else {
        panic!("fuzzy checkpoints do not quiesce");
    };
    // the coordinator's branch, committed as the decision's frame
    let coordinator = db.begin_txn().unwrap();
    db.write(coordinator, RecordId(61), &val(&db, 7)).unwrap();
    db.commit_decide(coordinator, 9).unwrap();
    db.commit_prepared(branch).unwrap();
    db.abort(bystander).unwrap();
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    let frames = log_frames(&mut db);
    let marker = frames.iter().find(|(lsn, _)| *lsn == begin.begin_lsn);
    let Some((_, LogRecord::BeginCheckpoint { active, .. })) = marker else {
        panic!("no begin marker at {}", begin.begin_lsn);
    };
    assert_eq!(active, &[branch], "only the prepared branch is listed");
    // the branch is one frame, written at prepare
    let run: Vec<&LogRecord> = frames
        .iter()
        .filter(|(lsn, _)| (branch_begin..begin.begin_lsn).contains(lsn))
        .map(|(_, rec)| rec)
        .collect();
    assert_eq!(
        run,
        [&LogRecord::TxnPrepare {
            txn: branch,
            gid: 9,
            writes: vec![(RecordId(60), val(&db, 6))],
        }]
    );

    let before = db.fingerprint();
    db.crash().unwrap();
    let report = db.recover().unwrap();
    assert_eq!(report.replay_start, branch_begin);
    assert!(report.in_doubt.is_empty());
    assert_eq!(db.fingerprint(), before);
    assert_eq!(db.read_committed(RecordId(60)).unwrap(), val(&db, 6));
    assert_eq!(db.read_committed(RecordId(61)).unwrap(), val(&db, 7));
    assert_eq!(report.decisions, [(9, true)]);
}

#[test]
fn the_commit_point_is_one_forced_frame_under_either_durability() {
    for durability in [CommitDurability::Force, CommitDurability::Group] {
        let mut cfg = small(Algorithm::FuzzyCopy);
        cfg.commit_durability = durability;
        let mut db = Mmdb::open_in_memory(cfg).unwrap();
        let before = db.log_stats();
        let t = db.begin_txn().unwrap();
        db.write(t, RecordId(3), &val(&db, 3)).unwrap();
        db.write(t, RecordId(4), &val(&db, 4)).unwrap();
        db.commit_decide(t, 77).unwrap();
        let after = db.log_stats();
        assert_eq!(after.forces - before.forces, 1, "{durability:?}");
        assert_eq!(after.records - before.records, 1, "{durability:?}");
        assert_eq!(db.log_durable_lsn(), db.last_commit_lsn(), "{durability:?}");
        assert_eq!(db.read_committed(RecordId(4)).unwrap(), val(&db, 4));
        let frames = log_frames(&mut db);
        let writes = vec![(RecordId(3), val(&db, 3)), (RecordId(4), val(&db, 4))];
        let decide = LogRecord::TxnDecide {
            txn: t,
            gid: 77,
            writes,
        };
        assert_eq!(frames.last().map(|(_, rec)| rec), Some(&decide));
        // a prepared branch is no coordinator's
        let branch = db.begin_txn().unwrap();
        db.write(branch, RecordId(5), &val(&db, 5)).unwrap();
        db.prepare_txn(branch, 78).unwrap();
        assert!(db.commit_decide(branch, 78).is_err());
    }
}

#[test]
fn a_failed_commit_point_force_fail_stops_the_engine() {
    let (device, control) = mmdb_core::FlakyLogDevice::new();
    let mut db = Mmdb::open_with_log_device(small(Algorithm::FuzzyCopy), Box::new(device)).unwrap();
    db.run_txn(&[(RecordId(1), val(&db, 1))]).unwrap();
    db.checkpoint().unwrap();
    let fingerprint = db.fingerprint();
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(2), &val(&db, 2)).unwrap();
    control.fail_after_next(0);
    assert!(db.commit_decide(t, 5).is_err());
    // nothing claimed: the engine stopped, and serves nothing until the
    // log decides
    assert!(db.is_crashed());
    assert!(db.begin_txn().is_err());
    control.heal();
    let report = db.recover().unwrap();
    assert!(
        report.decisions.is_empty(),
        "the frame never reached the device"
    );
    assert_eq!(db.fingerprint(), fingerprint);
    assert_eq!(db.read_committed(RecordId(2)).unwrap(), val(&db, 0));
}

/// A whole frame that checksums but does not decode was written by a
/// newer build: the open fails with that error and cuts nothing, where
/// cutting it as a torn tail would drop every commit behind it.
#[test]
fn a_frame_from_a_newer_format_fails_the_open_and_cuts_nothing() {
    let dir = std::env::temp_dir().join(format!("mmdb-core-newer-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = small(Algorithm::CouCopy);
    let words;
    {
        let (mut db, _) = Mmdb::open_dir(config, &dir).unwrap();
        words = db.record_words();
        db.run_txn(&[(RecordId(1), val(&db, 1))]).unwrap();
        db.checkpoint().unwrap();
        db.run_txn(&[(RecordId(2), val(&db, 2))]).unwrap();
        db.force_log().unwrap();
    }
    // tag 0xEE, checksummed the way this envelope is, then a commit
    let mut newer = vec![0u8; 8];
    newer.extend([0xEE, 1, 2, 3]);
    let len = newer.len() as u32 | 1 << 31;
    newer[..4].copy_from_slice(&len.to_le_bytes());
    let sum = crc32c_append(crc32c(&newer[..4]), &newer[8..]);
    newer[4..8].copy_from_slice(&sum.to_le_bytes());
    let behind = LogRecord::TxnCommit {
        txn: TxnId(1 << 20),
        writes: vec![(RecordId(3), vec![3; words])],
    };
    newer.extend(behind.encode());
    let log = dir.join("log");
    let mut chunks: Vec<_> = std::fs::read_dir(&log)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    chunks.sort();
    let last = chunks.last().unwrap();
    let mut bytes = std::fs::read(last).unwrap();
    bytes.extend(&newer);
    std::fs::write(last, bytes).unwrap();
    let files = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut all: Vec<_> = std::fs::read_dir(&log)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        all.sort();
        all
    };
    let before = files();

    let err = Mmdb::open_dir(config, &dir).unwrap_err();
    assert!(matches!(err, MmdbError::NewerFormat(_)), "{err:?}");
    assert!(
        err.to_string().contains("frame from a newer log format"),
        "{err}"
    );
    assert_eq!(files(), before, "every chunk byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unprepared_transactions_write_one_frame_each_and_aborts_write_none() {
    for durability in [CommitDurability::Force, CommitDurability::Group] {
        let mut cfg = small(Algorithm::FuzzyCopy);
        cfg.commit_durability = durability;
        let mut db = Mmdb::open_in_memory(cfg).unwrap();
        db.run_txn(&[(RecordId(1), val(&db, 1)), (RecordId(2), val(&db, 1))])
            .unwrap();
        let shared = db.try_commit_shared(&[(RecordId(3), val(&db, 2))]).unwrap();
        assert!(shared.is_some(), "{durability:?}");
        let aborted = db.begin_txn().unwrap();
        db.write(aborted, RecordId(4), &val(&db, 3)).unwrap();
        db.abort(aborted).unwrap();
        let read_only = db.begin_txn().unwrap();
        db.commit(read_only).unwrap();

        let frames = log_frames(&mut db);
        assert_eq!(frames.len(), 3, "{durability:?}");
        for (_, rec) in &frames {
            assert!(matches!(rec, LogRecord::TxnCommit { .. }), "{rec:?}");
        }
        assert_eq!(db.log_stats().bytes, 269 + 140 + 11, "{durability:?}");
    }
}

#[test]
fn commit_over_the_frame_bound_is_refused_with_nothing_appended() {
    let mut db = db(Algorithm::FuzzyCopy);
    // the fewest writes whose frame, under the widest txn id the bound
    // assumes, is longer than the bound
    let frame_len = |n: u64| {
        let records = (0..n).map(|i| RecordId(i % db.n_records()));
        LogRecord::txn_len(TxnId(u64::MAX), None, records, db.record_words())
    };
    let (mut lo, mut hi) = (0, MAX_TXN_FRAME_BYTES as u64);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match frame_len(mid) > MAX_TXN_FRAME_BYTES {
            true => hi = mid,
            false => lo = mid + 1,
        }
    }
    let too_many = lo as usize;
    let image = val(&db, 4);
    let t = db.begin_txn().unwrap();
    for i in 0..too_many as u64 {
        db.write(t, RecordId(i % db.n_records()), &image).unwrap();
    }
    let bytes_before = db.log_stats().bytes;
    let err = db.commit(t).unwrap_err();
    assert!(
        matches!(&err, MmdbError::Invalid(msg) if msg.contains("log frame")),
        "{err}"
    );
    let prepare_err = db.prepare_txn(t, 3).unwrap_err();
    assert!(
        matches!(&prepare_err, MmdbError::Invalid(msg) if msg.contains("log frame")),
        "{prepare_err}"
    );
    assert_eq!(db.log_stats().bytes, bytes_before, "nothing was appended");
    // the shared path refuses it too, and counts the fallback
    let updates: Vec<_> = (0..too_many as u64)
        .map(|i| (RecordId(i % db.n_records()), &image))
        .collect();
    assert!(db.try_commit_shared(&updates).unwrap().is_none());
    assert_eq!(db.log_stats().bytes, bytes_before);
    // the transaction is still open and can be given up
    db.abort(t).unwrap();
    // one write fewer fits
    db.run_txn(&updates[..too_many - 1]).unwrap();
    assert!(db.log_stats().bytes - bytes_before <= MAX_TXN_FRAME_BYTES as u64);
}

#[test]
fn prepare_is_bounded_by_its_own_frame_gid_included() {
    let mut db = db(Algorithm::FuzzyCopy);
    let words = db.record_words();
    // the most writes of record 0 whose `TxnCommit` frame fits the bound
    let commit_len = |records: &[RecordId]| {
        LogRecord::txn_len(TxnId(u64::MAX), None, records.iter().copied(), words)
    };
    let mut records = vec![RecordId(0); MAX_TXN_FRAME_BYTES / (4 * words + 1)];
    while commit_len(&records) > MAX_TXN_FRAME_BYTES {
        records.pop();
    }
    // two-byte record ids use up all but 4 bytes of the slack: the
    // frame fits a `TxnCommit`, but not a `TxnPrepare` with a 10-byte gid
    let slack = MAX_TXN_FRAME_BYTES - commit_len(&records) - 4;
    records[..slack].fill(RecordId(1000));
    let gid = u64::MAX;
    assert_eq!(commit_len(&records), MAX_TXN_FRAME_BYTES - 4);
    let branch_len = LogRecord::txn_len(TxnId(u64::MAX), Some(gid), records.clone(), words);
    assert_eq!(branch_len, MAX_TXN_FRAME_BYTES + 6);

    let image = val(&db, 4);
    let t = db.begin_txn().unwrap();
    for &record in &records {
        db.write(t, record, &image).unwrap();
    }
    let bytes_before = db.log_stats().bytes;
    let err = db.prepare_txn(t, gid).unwrap_err();
    assert!(
        matches!(&err, MmdbError::Invalid(msg) if msg.contains(&format!("{branch_len}-byte"))),
        "{err}"
    );
    assert_eq!(db.log_stats().bytes, bytes_before, "nothing was appended");
    // the branch is still open and unprepared; as a transaction it fits
    db.commit(t).unwrap();
    assert_eq!(db.read_committed(RecordId(1000)).unwrap(), image);
}

/// `core.commit_shared_fallback.<reason>` after one refused shared commit.
fn fallback_count(db: &Mmdb, reason: &str) -> u64 {
    let name = format!("core.commit_shared_fallback.{reason}");
    db.metrics_snapshot().counter(&name).unwrap_or(0)
}

#[test]
fn shared_commit_fallback_counts_a_crashed_engine() {
    let mut db = db(Algorithm::FuzzyCopy);
    let update = [(RecordId(0), val(&db, 1))];
    db.checkpoint().unwrap();
    db.crash().unwrap();
    assert!(db.try_commit_shared(&update).unwrap().is_none());
    assert_eq!(fallback_count(&db, "crashed"), 1);
    db.recover().unwrap();
    assert!(db.try_commit_shared(&update).unwrap().is_some());
    assert_eq!(fallback_count(&db, "crashed"), 1);
}

#[test]
fn shared_commit_fallback_counts_a_pending_quiesce() {
    let mut db = db(Algorithm::CouCopy);
    let update = [(RecordId(0), val(&db, 1))];
    let straggler = db.begin_txn().unwrap();
    assert_eq!(
        db.try_begin_checkpoint().unwrap(),
        CheckpointStart::Quiescing
    );
    assert!(db.try_commit_shared(&update).unwrap().is_none());
    assert_eq!(fallback_count(&db, "quiesce"), 1);
    assert_eq!(fallback_count(&db, "checkpoint_active"), 0);
    db.abort(straggler).unwrap();
}

#[test]
fn shared_commit_fallback_counts_an_active_checkpoint() {
    let mut db = db(Algorithm::FuzzyCopy);
    let update = [(RecordId(0), val(&db, 1))];
    db.try_begin_checkpoint().unwrap();
    assert!(db.try_commit_shared(&update).unwrap().is_none());
    assert!(db.try_commit_shared(&update).unwrap().is_none());
    assert_eq!(fallback_count(&db, "checkpoint_active"), 2);
}

#[test]
fn shared_commit_fallback_counts_a_database_beyond_the_latch_table() {
    // one-word segments: more of them than the lock-rank space has slots
    let mut cfg = small(Algorithm::FuzzyCopy);
    cfg.params.db = mmdb_types::DbParams {
        s_db: 470_016,
        s_rec: 1,
        s_seg: 1,
    };
    let db = Mmdb::open_in_memory(cfg).unwrap();
    assert!(db
        .try_commit_shared(&[(RecordId(0), vec![1])])
        .unwrap()
        .is_none());
    assert_eq!(fallback_count(&db, "latch_table"), 1);
}

#[test]
fn shared_commit_fallback_counts_an_invalid_write_set() {
    let db = db(Algorithm::FuzzyCopy);
    let short = vec![1; db.record_words() - 1];
    assert!(db
        .try_commit_shared(&[(RecordId(0), short)])
        .unwrap()
        .is_none());
    let beyond = RecordId(db.n_records());
    assert!(db
        .try_commit_shared(&[(beyond, val(&db, 1))])
        .unwrap()
        .is_none());
    assert_eq!(fallback_count(&db, "invalid"), 2);
    let log_bytes = db.log_stats().bytes;
    assert_eq!(log_bytes, 0, "a refused commit appends nothing");
}

#[test]
fn wait_policy_blocks_until_commit_forces_the_log() {
    // WalPolicy::Wait + unforced group commits on a bare engine: the
    // checkpointer must not flush a segment image whose log records are
    // still in the volatile tail. It reports WaitingForLog until a
    // group-commit force catches up.
    let mut cfg = small(Algorithm::FuzzyCopy);
    cfg.wal_policy = mmdb_core::WalPolicy::Wait;
    cfg.commit_durability = CommitDurability::Group;
    let mut db = Mmdb::open_in_memory(cfg).unwrap();

    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.force_log().unwrap();
    db.checkpoint().unwrap();
    db.checkpoint().unwrap(); // seed both copies (forces internally)

    // a commit that stays in the tail
    db.run_txn(&[(RecordId(64), val(&db, 2))]).unwrap();
    db.try_begin_checkpoint().unwrap();
    // the only dirty segment's image is gated
    let mut waits = 0;
    loop {
        match db.checkpoint_step().unwrap() {
            StepOutcome::WaitingForLog => {
                waits += 1;
                if waits == 3 {
                    // the group-commit daemon arrives
                    db.force_log().unwrap();
                }
                assert!(waits < 10, "gate never opened");
            }
            StepOutcome::Done { .. } => break,
            StepOutcome::Progress { .. } => {}
        }
    }
    assert!(waits >= 1, "the WAL gate should have closed at least once");

    // durability is intact end to end
    let before = db.fingerprint();
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.fingerprint(), before);
}

#[test]
fn wait_policy_full_cycle_every_algorithm() {
    // Force-commit mode keeps the log durable, so Wait never actually
    // blocks — but every algorithm must run the same protocol paths.
    for alg in Algorithm::ALL_EXTENDED {
        let mut cfg = small(alg);
        cfg.wal_policy = mmdb_core::WalPolicy::Wait;
        let mut db = Mmdb::open_in_memory(cfg).unwrap();
        for i in 0..20u64 {
            db.run_txn(&[(RecordId(i * 100 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.checkpoint().unwrap();
        db.run_txn(&[(RecordId(5), val(&db, 99))]).unwrap();
        let before = db.fingerprint();
        db.crash().unwrap();
        db.recover().unwrap();
        assert_eq!(db.fingerprint(), before, "{alg}");
    }
}

#[test]
fn reads_alone_can_violate_two_color() {
    // §3.2.1: "no transaction is allowed to access both white and black
    // records" — access, not just update. A read-only straddler aborts.
    let mut db = db(Algorithm::TwoColorFlush);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.run_txn(&[(RecordId(2047), val(&db, 2))]).unwrap();
    db.try_begin_checkpoint().unwrap();
    // advance past segment 0 so colors differ
    loop {
        match db.checkpoint_step().unwrap() {
            StepOutcome::Progress { io_words } if io_words > 0 => break,
            StepOutcome::Done { .. } => panic!("too fast"),
            _ => {}
        }
    }
    let t = db.begin_txn().unwrap();
    db.read(t, RecordId(0)).unwrap(); // black now
    let err = db.read(t, RecordId(2047)).unwrap_err(); // still white
    assert!(matches!(err, MmdbError::TwoColorViolation { .. }));
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
}

#[test]
fn corrupted_backup_header_falls_back_to_other_copy() {
    // Media corruption on one ping-pong copy's header: recovery must
    // fall back to the other complete copy rather than fail or restore
    // garbage.
    let dir = std::env::temp_dir().join(format!("mmdb-corrupt-hdr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = small(Algorithm::FuzzyCopy);

    let expected = {
        let (mut db, _) = Mmdb::open_dir(config, &dir).unwrap();
        for i in 0..30u64 {
            db.run_txn(&[(RecordId(i * 11 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.checkpoint().unwrap(); // ckpt 1 → copy 1
        db.run_txn(&[(RecordId(9), val(&db, 999))]).unwrap();
        db.checkpoint().unwrap(); // ckpt 2 → copy 0 (newest)
        db.fingerprint()
    };

    // scribble over copy 0's header (the newest complete copy)
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("backup.0"))
            .unwrap();
        f.seek(SeekFrom::Start(0)).unwrap();
        f.write_all(&[0xAB; 64]).unwrap();
    }

    let (db, recovered) = Mmdb::open_dir(config, &dir).unwrap();
    let report = recovered.expect("copy 1 still recoverable");
    assert_eq!(report.ckpt.raw(), 1, "fell back to the older complete copy");
    // copy 1 + the log (which still has ckpt 2's interval) = same state
    assert_eq!(db.fingerprint(), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_recoverability_passes_on_healthy_engine() {
    for alg in [
        Algorithm::FuzzyCopy,
        Algorithm::CouCopy,
        Algorithm::TwoColorCopy,
    ] {
        let mut db = db(alg);
        for i in 0..25u64 {
            db.run_txn(&[(RecordId(i * 19 % 2048), val(&db, i as u32 + 1))])
                .unwrap();
        }
        db.checkpoint().unwrap();
        db.run_txn(&[(RecordId(3), val(&db, 42))]).unwrap();
        let report = db.verify_recoverability().unwrap();
        assert!(report.segments_loaded > 0, "{alg}");
        // verification must not disturb the live engine
        db.run_txn(&[(RecordId(4), val(&db, 43))]).unwrap();
        assert_eq!(db.read_committed(RecordId(3)).unwrap(), val(&db, 42));
    }
}

#[test]
fn verify_recoverability_fails_without_backup() {
    let mut db = db(Algorithm::FuzzyCopy);
    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    assert!(matches!(
        db.verify_recoverability(),
        Err(MmdbError::NoCompleteBackup)
    ));
}

#[test]
fn same_record_twice_in_one_txn_last_write_wins() {
    let mut db = db(Algorithm::FuzzyCopy);
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(5), &val(&db, 1)).unwrap();
    db.write(t, RecordId(5), &val(&db, 2)).unwrap();
    // read-your-writes sees the latest staged value
    assert_eq!(db.read(t, RecordId(5)).unwrap(), val(&db, 2));
    db.commit(t).unwrap();
    assert_eq!(db.read_committed(RecordId(5)).unwrap(), val(&db, 2));
    // and so does recovery replay
    db.checkpoint().unwrap();
    let t = db.begin_txn().unwrap();
    db.write(t, RecordId(6), &val(&db, 7)).unwrap();
    db.write(t, RecordId(6), &val(&db, 8)).unwrap();
    db.commit(t).unwrap();
    db.crash().unwrap();
    db.recover().unwrap();
    assert_eq!(db.read_committed(RecordId(5)).unwrap(), val(&db, 2));
    assert_eq!(db.read_committed(RecordId(6)).unwrap(), val(&db, 8));
}

#[test]
fn segment_stats_track_the_population() {
    let mut db = db(Algorithm::CouCopy);
    let s = db.segment_stats();
    assert_eq!(s.total, 32);
    assert_eq!(
        (s.dirty_copy0, s.dirty_copy1, s.white, s.with_old_copy),
        (0, 0, 0, 0)
    );

    db.run_txn(&[(RecordId(0), val(&db, 1))]).unwrap();
    db.run_txn(&[(RecordId(100), val(&db, 2))]).unwrap(); // segment 1
    let s = db.segment_stats();
    assert_eq!(s.dirty_copy0, 2);
    assert_eq!(s.dirty_copy1, 2);

    db.checkpoint().unwrap(); // copy 1 (escalated full)
    let s = db.segment_stats();
    assert_eq!(s.dirty_copy1, 0, "copy 1 is now current");
    // "dirty" means modified-since-last-flush-to-that-copy; the two
    // updated segments still owe their content to copy 0 (never-modified
    // segments are not dirty — first-checkpoint seeding is handled by
    // full-escalation, not dirty bits)
    assert_eq!(s.dirty_copy0, 2);

    // mid-COU-checkpoint, an update parks an old copy
    db.checkpoint().unwrap(); // seed copy 0 too
    db.try_begin_checkpoint().unwrap();
    db.run_txn(&[(RecordId(2000), val(&db, 9))]).unwrap();
    assert_eq!(db.segment_stats().with_old_copy, 1);
    while db.is_checkpoint_active() {
        db.checkpoint_step().unwrap();
    }
    assert_eq!(db.segment_stats().with_old_copy, 0);
}

#[test]
fn for_each_record_scans_in_order() {
    let mut db = db(Algorithm::FuzzyCopy);
    db.run_txn(&[(RecordId(5), val(&db, 55)), (RecordId(9), val(&db, 99))])
        .unwrap();
    let mut seen = Vec::new();
    db.for_each_record(|rid, words| {
        if words[0] != 0 {
            seen.push((rid.raw(), words[0]));
        }
    })
    .unwrap();
    assert_eq!(seen, vec![(5, 55), (9, 99)]);
}

#[test]
fn predicted_recovery_time_matches_the_next_recovery() {
    // a single-record `TxnCommit` frame: the slack the prediction is
    // allowed against what recovery then measures
    const FRAME_BYTES: u64 = 140;
    for alg in Algorithm::ALL_EXTENDED {
        let mut cfg = small(alg);
        cfg.commit_durability = CommitDurability::Force;
        let disk = cfg.params.disk;
        let mut db = Mmdb::open_in_memory(cfg).unwrap();
        for i in 0..20u64 {
            db.run_txn(&[(RecordId(i * 61 % 2048), val(&db, 1 + i as u32))])
                .unwrap();
        }
        // both ping-pong copies complete: the newer one's floor counts
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
        for i in 0..15u64 {
            db.run_txn(&[(RecordId(i * 89 % 2048), val(&db, 500 + i as u32))])
                .unwrap();
        }
        let snap = db.metrics_snapshot();
        let replay_bytes = snap.gauge("recovery.replay_log_bytes").unwrap();
        let predicted_us = snap.gauge("recovery.predicted_us").unwrap() as f64;

        db.crash().unwrap();
        let report = db.recover().unwrap();
        assert!(
            replay_bytes.abs_diff(report.log_words * 4) <= FRAME_BYTES,
            "{alg}: gauge {replay_bytes} B, recovery read {} words",
            report.log_words
        );
        let frame_us = FRAME_BYTES as f64 / 4.0 * disk.t_trans / f64::from(disk.n_bdisks) * 1e6;
        let measured_us = report.total_seconds() * 1e6;
        assert!(
            (predicted_us - measured_us).abs() <= frame_us + 1.0,
            "{alg}: predicted {predicted_us} us, modeled recovery took {measured_us} us"
        );
        assert!(replay_bytes >= 15 * FRAME_BYTES, "{alg}: the 15 commits");
    }
}
