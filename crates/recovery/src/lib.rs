//! System-failure recovery (paper §3.3).
//!
//! After a crash, the recovery manager rebuilds the *primary*
//! (memory-resident) database from the backup copy and the REDO log:
//!
//! 1. choose the most recently completed ping-pong backup copy (the
//!    in-progress copy of a torn checkpoint is ineligible by
//!    construction);
//! 2. read every segment of that copy into main memory;
//! 3. locate the checkpoint's begin marker in the log and compute the
//!    replay start — the marker itself, or, for a checkpoint taken with
//!    cross-shard branches prepared (fuzzy and two-color), the first
//!    frame of the oldest branch in the marker's active list;
//! 4. replay the log forward, installing each transaction at the frame
//!    that commits it: a `TxnCommit` frame on sight, a branch's images
//!    (its `TxnPrepare`'s, or an older log's updates) at its commit
//!    record (transactions without a durable commit are discarded —
//!    REDO-only logging means they never touched the database... on
//!    disk).
//!
//! All four steps run on the recovering thread, into the `Storage` the
//! caller holds, through one function: [`recover_observed`] ([`recover`]
//! is it without telemetry, [`dry_run_observed`] into scratch storage).
//!
//! The paper measures recovery time as pure I/O time: reading the backup
//! plus reading the relevant portion of the log (§4). [`RecoveryReport`]
//! carries both the byte counts and that modeled time.

#![warn(missing_docs)]

mod replay;

pub use replay::{recover_observed, replay_frames, Resolver};

use mmdb_disk::BackupStore;
use mmdb_log::LogDevice;
use mmdb_obs::Obs;
use mmdb_storage::Storage;
use mmdb_types::{CheckpointId, CostMeter, DiskParams, Lsn, RecordId, Result, TxnId, Word};

/// A transaction branch left *in doubt* by the crash: its updates and its
/// `Prepare` record are durable in the log, but neither a `Commit` nor an
/// `Abort` follows. Under the sharded engine's two-phase commit the
/// outcome belongs to the coordinator shard's log (`Decide` record);
/// recovery surfaces the branch so the coordinator can resolve it —
/// presumed abort when no commit decision exists anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct InDoubtTxn {
    /// The global transaction id from the `Prepare` record.
    pub gid: u64,
    /// The local (per-shard) transaction id.
    pub txn: TxnId,
    /// The branch's staged after-images, in log order. Not installed by
    /// replay; installing them is the resolver's job iff a commit
    /// decision is found.
    pub writes: Vec<(RecordId, Vec<Word>)>,
}

/// What recovery did, and the modeled time it took.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The checkpoint restored from.
    pub ckpt: CheckpointId,
    /// The ping-pong copy it was read from.
    pub copy: usize,
    /// Segments loaded from the backup.
    pub segments_loaded: u64,
    /// Words read from the backup disks.
    pub backup_words: u64,
    /// LSN replay started from.
    pub replay_start: Lsn,
    /// End of the valid log: where the first torn or corrupt frame
    /// begins, or the device end. Anything past it is cut before the next
    /// append.
    pub log_end: Lsn,
    /// Words of log read and replayed.
    pub log_words: u64,
    /// Update records applied (from committed transactions).
    pub updates_applied: u64,
    /// Committed transactions replayed.
    pub txns_replayed: u64,
    /// Transactions discarded for lack of a durable commit record.
    pub txns_discarded: u64,
    /// Modeled time to read the backup, seconds (paper §4: size of the
    /// database over the array bandwidth).
    pub backup_read_seconds: f64,
    /// Modeled time to read the replayed log, seconds (sequential read
    /// striped across the backup disks).
    pub log_read_seconds: f64,
    /// Prepared-but-undecided transaction branches (sharded two-phase
    /// commit); empty for unsharded databases.
    pub in_doubt: Vec<InDoubtTxn>,
    /// Durable coordinator decisions seen in the replayed window, as
    /// `(gid, commit)` pairs.
    pub decisions: Vec<(u64, bool)>,
    /// Highest global transaction id seen in the replayed window (from
    /// `Prepare` and `Decide` records); the sharded engine seeds its gid
    /// counter above this so resurrected gids can never collide.
    pub max_gid: u64,
}

impl RecoveryReport {
    /// Total modeled recovery time, seconds — the paper's recovery-time
    /// metric.
    pub fn total_seconds(&self) -> f64 {
        self.backup_read_seconds + self.log_read_seconds
    }
}

/// Restores `storage` from the backup and log. `disk` supplies the
/// service-time model for the report's recovery-time figures; `meter`
/// absorbs the (unmodeled, but still counted) CPU cost of the restore.
pub fn recover(
    storage: &mut Storage,
    backup: &mut dyn BackupStore,
    log_device: &mut dyn LogDevice,
    disk: &DiskParams,
    meter: &CostMeter,
) -> Result<RecoveryReport> {
    recover_observed(storage, backup, log_device, disk, meter, &Obs::disabled())
}

/// Dry-run recovery: rebuilds the database into scratch storage from the
/// backup and log, without touching the live engine state, and returns
/// the scratch fingerprint plus the report, with telemetry routed to
/// `obs` (see [`recover_observed`]). This is the deep-verification
/// primitive: under synchronous commit durability, the fingerprint must
/// equal the live committed state's — any divergence means the backup or
/// log could not reproduce the database.
pub fn dry_run_observed(
    shape: mmdb_types::DbParams,
    backup: &mut dyn BackupStore,
    log_device: &mut dyn LogDevice,
    disk: &DiskParams,
    obs: &Obs,
) -> Result<(u64, RecoveryReport)> {
    let mut scratch = Storage::new(shape)?;
    let meter = CostMeter::new(mmdb_types::CostParams::default());
    let report = recover_observed(&mut scratch, backup, log_device, disk, &meter, obs)?;
    Ok((scratch.fingerprint(), report))
}

/// The recovery-time formula alone, for the analytic model: seconds to
/// read `n_segments` backup segments of `s_seg` words plus `log_words` of
/// log, with the paper's disk model.
pub fn recovery_time_model(disk: &DiskParams, n_segments: u64, s_seg: u64, log_words: u64) -> f64 {
    disk.array_time(n_segments, s_seg) + replay::log_read_time(disk, log_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_disk::MemBackup;
    use mmdb_log::{LogManager, LogRecord, MemLogDevice};
    use mmdb_types::{
        Algorithm, CkptMode, CostParams, LogMode, MmdbError, Params, SegmentId, Timestamp,
    };

    /// A miniature engine: storage + log + backup + checkpointer, enough
    /// to produce real crash states for recovery to chew on.
    struct Mini {
        storage: Storage,
        log: LogManager,
        backup: MemBackup,
        ckpt: mmdb_checkpoint::Checkpointer,
        meter: CostMeter,
        next_tau: u64,
        next_txn: u64,
    }

    impl Mini {
        fn new(algorithm: Algorithm) -> Mini {
            let p = Params::small();
            Mini {
                storage: Storage::new(p.db).unwrap(),
                log: LogManager::new(
                    Box::new(MemLogDevice::new()),
                    LogMode::VolatileTail,
                    CostMeter::shared(CostParams::default()),
                ),
                backup: MemBackup::new(p.db),
                ckpt: mmdb_checkpoint::Checkpointer::new(
                    algorithm,
                    CkptMode::Partial,
                    mmdb_checkpoint::WalPolicy::Force,
                    CostMeter::shared(CostParams::default()),
                ),
                meter: CostMeter::new(CostParams::default()),
                next_tau: 0,
                next_txn: 1000,
            }
        }

        fn tau(&mut self) -> Timestamp {
            self.next_tau += 1;
            Timestamp(self.next_tau)
        }

        /// Runs a whole committed transaction updating `records` with
        /// `fill`, with commit-time log force.
        fn txn(&mut self, records: &[u64], fill: u32) {
            let tau = self.tau();
            self.next_txn += 1;
            let txn = TxnId(self.next_txn);
            self.log.append(&LogRecord::TxnBegin { txn, tau });
            let s_rec = self.storage.db_params().s_rec as usize;
            let mut installs = Vec::new();
            for &rid in records {
                let value = vec![fill; s_rec];
                let rec = LogRecord::Update {
                    txn,
                    record: RecordId(rid),
                    value: value.clone(),
                };
                self.log.append(&rec);
                installs.push((RecordId(rid), value, self.log.next_lsn()));
            }
            self.log.append_forced(&LogRecord::Commit { txn }).unwrap();
            for (rid, value, end_lsn) in installs {
                self.ckpt
                    .on_before_install(&mut self.storage, rid, &self.meter)
                    .unwrap();
                self.storage
                    .install_record(rid, &value, end_lsn, tau, &self.meter)
                    .unwrap();
            }
        }

        fn checkpoint(&mut self) {
            let tau = self.tau();
            self.ckpt
                .begin(&mut self.storage, &mut self.log, &mut self.backup, &[], tau)
                .unwrap();
            self.ckpt
                .run_to_completion(&mut self.storage, &mut self.log, &mut self.backup)
                .unwrap();
        }

        /// Simulates the crash and recovers into a fresh storage; returns
        /// the report and the recovered storage.
        fn crash_and_recover(mut self) -> (RecoveryReport, Storage) {
            self.log.crash().unwrap();
            self.ckpt.crash(&mut self.storage);
            let mut fresh = Storage::new(*self.storage.db_params()).unwrap();
            let disk = Params::small().disk;
            let report = recover(
                &mut fresh,
                &mut self.backup,
                self.log.device_mut(),
                &disk,
                &self.meter,
            )
            .unwrap();
            (report, fresh)
        }
    }

    #[test]
    fn recover_without_backup_fails() {
        let mut storage = Storage::new(Params::small().db).unwrap();
        let mut backup = MemBackup::new(Params::small().db);
        let mut dev = MemLogDevice::new();
        let meter = CostMeter::new(CostParams::default());
        let err = recover(
            &mut storage,
            &mut backup,
            &mut dev,
            &Params::small().disk,
            &meter,
        )
        .unwrap_err();
        assert!(matches!(err, MmdbError::NoCompleteBackup));
    }

    #[test]
    fn committed_after_checkpoint_survives() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0, 100], 1);
        m.checkpoint();
        m.txn(&[0, 200], 2); // after the checkpoint, commit forced
        let pre_crash = m.storage.fingerprint();
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(recovered.fingerprint(), pre_crash);
        assert_eq!(report.ckpt, CheckpointId(1));
        assert!(report.updates_applied >= 2);
        assert_eq!(report.txns_discarded, 0);
    }

    #[test]
    fn unforced_tail_commit_is_lost_but_consistent() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();
        let consistent_state = m.storage.fingerprint();

        // A transaction whose commit record stays in the volatile tail:
        // append without forcing, install anyway (a group-commit engine
        // used directly does exactly this until its next force).
        let tau = m.tau();
        let txn = TxnId(9999);
        m.log.append(&LogRecord::TxnBegin { txn, tau });
        let value = vec![77u32; 32];
        let rec = LogRecord::Update {
            txn,
            record: RecordId(500),
            value: value.clone(),
        };
        m.log.append(&rec);
        let end = m.log.next_lsn();
        m.log.append(&LogRecord::Commit { txn });
        m.storage
            .install_record(RecordId(500), &value, end, tau, &m.meter)
            .unwrap();
        assert_ne!(m.storage.fingerprint(), consistent_state);

        let (_, recovered) = m.crash_and_recover();
        // The unforced transaction vanished; the state is the consistent
        // pre-transaction state, not a torn mixture.
        assert_eq!(recovered.fingerprint(), consistent_state);
    }

    #[test]
    fn uncommitted_transaction_is_discarded() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();
        // updates logged and forced, but no commit record
        let tau = m.tau();
        let txn = TxnId(5555);
        m.log.append(&LogRecord::TxnBegin { txn, tau });
        m.log.append(&LogRecord::Update {
            txn,
            record: RecordId(300),
            value: vec![9u32; 32],
        });
        m.log.force().unwrap();

        let pre_crash = m.storage.fingerprint();
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(recovered.fingerprint(), pre_crash);
        assert_eq!(report.txns_discarded, 1);
    }

    #[test]
    fn aborted_transaction_is_not_replayed() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();
        let tau = m.tau();
        let txn = TxnId(4444);
        m.log.append(&LogRecord::TxnBegin { txn, tau });
        m.log.append(&LogRecord::Update {
            txn,
            record: RecordId(300),
            value: vec![9u32; 32],
        });
        m.log.append(&LogRecord::Abort { txn });
        m.log.force().unwrap();
        let pre_crash = m.storage.fingerprint();
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(recovered.fingerprint(), pre_crash);
        assert_eq!(report.txns_discarded, 0);
        // only the pre-checkpoint transaction's update was applied (it is
        // also in the backup; replaying it is harmless idempotence)
        assert!(report.updates_applied <= 1);
    }

    #[test]
    fn crash_mid_checkpoint_recovers_from_previous() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0, 64, 128], 1);
        m.checkpoint(); // ckpt 1 complete on copy 1
        m.txn(&[0], 2);
        // begin ckpt 2 (copy 0) and crash after one step
        let tau = m.tau();
        m.ckpt
            .begin(&mut m.storage, &mut m.log, &mut m.backup, &[], tau)
            .unwrap();
        m.ckpt
            .step(&mut m.storage, &mut m.log, &mut m.backup)
            .unwrap();
        let pre_crash = m.storage.fingerprint();
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(report.ckpt, CheckpointId(1), "torn ckpt 2 ineligible");
        assert_eq!(recovered.fingerprint(), pre_crash);
    }

    #[test]
    fn cou_checkpoint_recovery_from_marker_only() {
        let mut m = Mini::new(Algorithm::CouCopy);
        m.txn(&[0, 500], 3);
        m.checkpoint();
        m.txn(&[700], 4);
        let (report, _) = m.crash_and_recover();
        // COU marker has an empty active list → replay starts at the
        // marker and covers exactly the post-marker transaction.
        assert_eq!(report.updates_applied, 1);
        assert_eq!(report.txns_replayed, 1);
    }

    #[test]
    fn commit_order_beats_update_order() {
        // T1 logs its update first but commits last: the final state must
        // carry T1's value (commit order), not T2's (update-record order).
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();

        let s_rec = 32usize;
        let (t1, t2) = (TxnId(7001), TxnId(7002));
        let tau1 = m.tau();
        let tau2 = m.tau();
        m.log.append(&LogRecord::TxnBegin { txn: t1, tau: tau1 });
        let v1 = vec![111u32; s_rec];
        let r1 = LogRecord::Update {
            txn: t1,
            record: RecordId(50),
            value: v1.clone(),
        };
        m.log.append(&r1);
        let e1 = m.log.next_lsn();
        m.log.append(&LogRecord::TxnBegin { txn: t2, tau: tau2 });
        let v2 = vec![222u32; s_rec];
        let r2 = LogRecord::Update {
            txn: t2,
            record: RecordId(50),
            value: v2.clone(),
        };
        m.log.append(&r2);
        let e2 = m.log.next_lsn();
        // T2 commits first and installs
        m.log.append_forced(&LogRecord::Commit { txn: t2 }).unwrap();
        m.storage
            .install_record(RecordId(50), &v2, e2, tau2, &m.meter)
            .unwrap();
        // then T1 commits and installs
        m.log.append_forced(&LogRecord::Commit { txn: t1 }).unwrap();
        m.storage
            .install_record(RecordId(50), &v1, e1, tau1, &m.meter)
            .unwrap();

        let pre_crash = m.storage.fingerprint();
        let (_, recovered) = m.crash_and_recover();
        assert_eq!(recovered.fingerprint(), pre_crash);
        assert_eq!(recovered.read_record(RecordId(50)).unwrap()[0], 111);
    }

    #[test]
    fn recovered_segments_dirty_for_other_copy() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint(); // copy 1 holds ckpt 1
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(report.copy, 1);
        // every segment is clean w.r.t. copy 1 but dirty w.r.t. copy 0
        assert!(!recovered.is_dirty(SegmentId(0), 1).unwrap());
        assert!(recovered.is_dirty(SegmentId(0), 0).unwrap());
    }

    #[test]
    fn recovery_time_model_shapes() {
        let disk = Params::paper_defaults().disk;
        let t_full = recovery_time_model(&disk, 32_768, 8192, 0);
        assert!(
            (85.0..95.0).contains(&t_full),
            "backup read ≈ 90 s, got {t_full}"
        );
        let t_with_log = recovery_time_model(&disk, 32_768, 8192, 10_000_000);
        assert!(t_with_log > t_full);
        // doubling the disks roughly halves it
        let disk2 = DiskParams {
            n_bdisks: 40,
            ..disk
        };
        let t_fast = recovery_time_model(&disk2, 32_768, 8192, 0);
        assert!((t_full / t_fast - 2.0).abs() < 0.01);
    }

    #[test]
    fn prepared_branch_is_in_doubt_not_installed() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();
        let consistent = m.storage.fingerprint();

        // a prepared-but-undecided branch: updates + Prepare forced
        let tau = m.tau();
        let txn = TxnId(8888);
        m.log.append(&LogRecord::TxnBegin { txn, tau });
        m.log.append(&LogRecord::Update {
            txn,
            record: RecordId(300),
            value: vec![5u32; 32],
        });
        m.log
            .append_forced(&LogRecord::Prepare { txn, gid: 41 })
            .unwrap();

        let (report, recovered) = m.crash_and_recover();
        // replay must NOT install the branch...
        assert_eq!(recovered.fingerprint(), consistent);
        // ...but must surface it for the coordinator, not discard it
        assert_eq!(report.txns_discarded, 0);
        assert_eq!(report.in_doubt.len(), 1);
        assert_eq!(report.in_doubt[0].gid, 41);
        assert_eq!(report.in_doubt[0].txn, txn);
        assert_eq!(
            report.in_doubt[0].writes,
            vec![(RecordId(300), vec![5u32; 32])]
        );
        assert_eq!(report.max_gid, 41);
    }

    #[test]
    fn prepared_then_committed_replays_and_decisions_collected() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();

        let tau = m.tau();
        let txn = TxnId(8889);
        let value = vec![6u32; 32];
        m.log.append(&LogRecord::TxnBegin { txn, tau });
        let rec = LogRecord::Update {
            txn,
            record: RecordId(301),
            value: value.clone(),
        };
        m.log.append(&rec);
        let end = m.log.next_lsn();
        m.log
            .append_forced(&LogRecord::Prepare { txn, gid: 7 })
            .unwrap();
        m.log
            .append_forced(&LogRecord::Decide {
                gid: 7,
                commit: true,
            })
            .unwrap();
        m.log.append_forced(&LogRecord::Commit { txn }).unwrap();
        m.storage
            .install_record(RecordId(301), &value, end, tau, &m.meter)
            .unwrap();

        let pre_crash = m.storage.fingerprint();
        let (report, recovered) = m.crash_and_recover();
        assert_eq!(recovered.fingerprint(), pre_crash);
        assert!(report.in_doubt.is_empty());
        assert_eq!(report.decisions, vec![(7, true)]);
        assert_eq!(report.max_gid, 7);
    }

    #[test]
    fn report_total_is_sum() {
        let mut m = Mini::new(Algorithm::FuzzyCopy);
        m.txn(&[0], 1);
        m.checkpoint();
        let (report, _) = m.crash_and_recover();
        assert!(report.total_seconds() > 0.0);
        assert!(
            (report.total_seconds() - (report.backup_read_seconds + report.log_read_seconds)).abs()
                < 1e-12
        );
        assert_eq!(report.segments_loaded, 32);
        assert_eq!(report.backup_words, 32 * 2048);
    }
}
