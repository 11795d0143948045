//! The `Mmdb` engine: storage + log + transactions + checkpointer +
//! recovery, wired together with the paper's protocols.

use crate::config::{CommitDurability, MmdbConfig};
use crate::metrics::{Meters, OverheadReport};
use mmdb_audit::{Audit, AuditEvent, AuditReport, AuditViolation, PaintColor};
use mmdb_checkpoint::{BeginReport, Checkpointer, CkptReport, CkptStats, StepOutcome};
use mmdb_disk::{summarize, AuditedBackup, BackupStore, FileBackup, MemBackup, ObservedBackup};
use mmdb_log::{
    LogManager, LogRecord, LogStats, MemLogDevice, SegmentedLogDevice, MAX_TXN_FRAME_BYTES,
};
use mmdb_obs::{MetricsSnapshot, Obs, PaperOverhead, Timer};
use mmdb_recovery::{InDoubtTxn, RecoveryReport};
use mmdb_storage::{Color, PendingInstall, ReadMirror, Storage};
use mmdb_sync::{LockRank, RankedMutex};
use mmdb_txn::{SeenColor, StagedWrite, TxnStats, TxnTable};
use mmdb_types::{
    CheckpointId, CostMeter, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, TxnId, Word,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bound on the volatile log tail: an append past this many bytes
/// forces the tail (group commit's backstop).
const LOG_TAIL_FLUSH_BYTES: u64 = 1 << 20;

/// Outcome of [`Mmdb::try_begin_checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointStart {
    /// The checkpoint began.
    Started(BeginReport),
    /// A COU checkpoint is waiting for active transactions to drain
    /// (§3.2.2 quiesce); it will begin automatically when the last one
    /// commits or aborts. New transactions are refused until then.
    Quiescing,
}

/// Segment-population snapshot returned by [`Mmdb::segment_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Total segments in the database.
    pub total: u64,
    /// Segments dirty with respect to ping-pong copy 0.
    pub dirty_copy0: u64,
    /// Segments dirty with respect to ping-pong copy 1.
    pub dirty_copy1: u64,
    /// Segments currently painted white (0 outside a 2C checkpoint).
    pub white: u64,
    /// Segments holding a COU old copy right now.
    pub with_old_copy: u64,
}

/// Outcome of [`Mmdb::run_txn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnRun {
    /// The committed transaction's id (of the successful run).
    pub txn: TxnId,
    /// Number of runs it took (1 = no two-color restart).
    pub runs: u32,
    /// End-LSN of the commit record: the log is durable through this
    /// transaction once `durable_lsn >= commit_lsn`. Under
    /// [`CommitDurability::Group`] the caller acks only after the
    /// watermark passes it; under `Force` it is already durable.
    pub commit_lsn: mmdb_types::Lsn,
}

/// The memory-resident database engine.
///
/// All data lives in main memory ([`Storage`]); a REDO log and two
/// ping-pong backup copies on (simulated or real) disk make it
/// crash-recoverable. The engine is deliberately single-threaded with an
/// explicitly-steppable checkpointer, so every interleaving of
/// transactions, checkpoint steps and crashes is expressible — and
/// therefore testable — deterministically. Wrap it in a mutex for
/// concurrent drivers.
pub struct Mmdb {
    config: MmdbConfig,
    storage: Storage,
    /// The REDO log, behind an interior lock (rank `engine-log`) so
    /// shared-mode committers can serialize at log append — the commit
    /// pipeline's single serial point. Exclusive paths use
    /// [`RankedMutex::get_mut`] (no locking cost).
    log: RankedMutex<LogManager>,
    backup: Box<dyn BackupStore>,
    /// The transaction table, behind an interior lock (rank
    /// `engine-txns`) for the same reason as `log`.
    txns: RankedMutex<TxnTable>,
    ckpt: Checkpointer,
    meters: Meters,
    tau_counter: AtomicU64,
    /// One write latch per segment (ranks `segment[j]`, below the engine
    /// gate and above `engine-txns`/`engine-log`): shared-mode committers
    /// latch their write set in ascending segment order so
    /// disjoint-segment transactions run concurrently. Empty when the
    /// database has more segments than the rank space allows — the
    /// shared path then simply refuses and callers stay on the
    /// exclusive path.
    latches: Vec<RankedMutex<()>>,
    quiesce_pending: bool,
    crashed: bool,
    /// Replay floor of the in-progress checkpoint: the earliest LSN
    /// recovery would need if that checkpoint becomes the one restored
    /// from (its begin marker, extended backward to the begin record of
    /// the oldest branch prepared at the marker).
    pending_floor: Option<(CheckpointId, mmdb_types::Lsn)>,
    /// Replay floors of the newest complete checkpoint per ping-pong
    /// copy; the log before min(both) is unreachable by any future
    /// recovery and is truncated away when `auto_truncate_log` is set.
    replay_floor: [Option<mmdb_types::Lsn>; 2],
    /// Replication truncation pin: when set (a standby is attached),
    /// auto-truncation keeps every byte at or above this LSN readable,
    /// so log shipping can never be outrun by the checkpointer. Advanced
    /// by standby acks; raw LSN in the atomic.
    repl_truncate_pin: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
    /// End-LSN of the most recent commit record, as a raw LSN advanced
    /// with `fetch_max` (what group committers wait on; see
    /// [`TxnRun::commit_lsn`]).
    last_commit_lsn: AtomicU64,
    /// The shared protocol-audit handle (disabled unless
    /// [`MmdbConfig::audit`] is set).
    audit: Audit,
    /// The shared telemetry handle (disabled unless
    /// [`MmdbConfig::telemetry`] is set).
    obs: Obs,
    /// Running while a COU quiesce drain is in progress, so the stall can
    /// be reported as a `ckpt.quiesce` span when the checkpoint begins.
    quiesce_timer: Timer,
}

impl std::fmt::Debug for Mmdb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmdb")
            .field("algorithm", &self.config.algorithm)
            .field("crashed", &self.crashed)
            .field("active_txns", &self.txns.lock().active_count())
            .field("checkpoint_active", &self.ckpt.is_active())
            .finish()
    }
}

impl Mmdb {
    /// An engine over in-memory devices (tests, simulation, examples).
    pub fn open_in_memory(config: MmdbConfig) -> Result<Mmdb> {
        config.validate().map_err(MmdbError::Invalid)?;
        let meters = Meters::new(config.params.cost);
        let storage = Storage::new(config.params.db)?;
        let log = LogManager::new(
            Box::new(MemLogDevice::new()),
            config.params.log_mode,
            meters.logging.clone(),
        );
        let backup = Box::new(MemBackup::new(config.params.db));
        Ok(Self::assemble(config, storage, log, backup, meters))
    }

    /// An engine over a caller-supplied log device (and an in-memory
    /// backup) — fault-injection tests hand in a
    /// [`mmdb_log::FlakyLogDevice`] to exercise the error paths a healthy
    /// device never reaches.
    pub fn open_with_log_device(
        config: MmdbConfig,
        device: Box<dyn mmdb_log::LogDevice>,
    ) -> Result<Mmdb> {
        config.validate().map_err(MmdbError::Invalid)?;
        let meters = Meters::new(config.params.cost);
        let storage = Storage::new(config.params.db)?;
        let log = LogManager::new(device, config.params.log_mode, meters.logging.clone());
        let backup = Box::new(MemBackup::new(config.params.db));
        Ok(Self::assemble(config, storage, log, backup, meters))
    }

    /// An engine over file devices in `dir` (a segmented log under
    /// `log/`, backup copies `backup.0`/`backup.1`). If the directory
    /// already holds a complete backup, the database is recovered from it
    /// before the engine is returned.
    pub fn open_dir(config: MmdbConfig, dir: &Path) -> Result<(Mmdb, Option<RecoveryReport>)> {
        config.validate().map_err(MmdbError::Invalid)?;
        std::fs::create_dir_all(dir)?;
        let meters = Meters::new(config.params.cost);
        let storage = Storage::new(config.params.db)?;
        let log = LogManager::new(
            Box::new(SegmentedLogDevice::open(
                &dir.join("log"),
                config.log_chunk_bytes,
                config.sync_files,
            )?),
            config.params.log_mode,
            meters.logging.clone(),
        );
        let mut file_backup =
            FileBackup::open(&dir.join("backup"), config.params.db, config.sync_files)?;
        file_backup.set_compress(config.compress_backups);
        let mut backup: Box<dyn BackupStore> = Box::new(file_backup);
        let has_backup = backup.recovery_copy().is_ok();
        let mut engine = Self::assemble(config, storage, log, backup, meters);
        let report = if has_backup {
            Some(engine.recover_internal()?)
        } else {
            None
        };
        Ok((engine, report))
    }

    fn assemble(
        config: MmdbConfig,
        storage: Storage,
        mut log: LogManager,
        backup: Box<dyn BackupStore>,
        meters: Meters,
    ) -> Mmdb {
        log.set_tail_threshold(Some(LOG_TAIL_FLUSH_BYTES));
        log.set_force_latency(
            (config.log_force_latency_us > 0)
                .then(|| std::time::Duration::from_micros(u64::from(config.log_force_latency_us))),
        );
        let audit = if config.audit {
            Audit::enabled()
        } else {
            Audit::disabled()
        };
        let obs = if config.telemetry {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        log.set_audit(audit.clone());
        log.set_obs(obs.clone());
        // Observed innermost (device-level latencies), audited outside it.
        let backup: Box<dyn BackupStore> = if obs.is_enabled() {
            Box::new(ObservedBackup::new(backup, obs.clone()))
        } else {
            backup
        };
        let backup: Box<dyn BackupStore> = if audit.is_enabled() {
            Box::new(AuditedBackup::new(backup, audit.clone()))
        } else {
            backup
        };
        let mut ckpt = Checkpointer::new(
            config.algorithm,
            config.params.ckpt_mode,
            config.wal_policy,
            meters.async_ckpt.clone(),
        );
        ckpt.set_audit(audit.clone());
        ckpt.set_obs(obs.clone());
        let n_segments = config.params.db.n_segments() as usize;
        let latches = if n_segments <= LockRank::MAX_SEGMENT_INDEX + 1 {
            (0..n_segments)
                .map(|i| RankedMutex::new("segment", LockRank::segment(i), ()))
                .collect()
        } else {
            Vec::new()
        };
        Mmdb {
            config,
            storage,
            log: RankedMutex::new("engine-log", LockRank::ENGINE_LOG, log),
            backup,
            txns: RankedMutex::new("engine-txns", LockRank::ENGINE_TXNS, TxnTable::new()),
            ckpt,
            meters,
            tau_counter: AtomicU64::new(0),
            latches,
            quiesce_pending: false,
            crashed: false,
            pending_floor: None,
            replay_floor: [None, None],
            repl_truncate_pin: None,
            last_commit_lsn: AtomicU64::new(0),
            audit,
            obs,
            quiesce_timer: Timer::default(),
        }
    }

    // ----- accessors -------------------------------------------------------

    /// The engine configuration.
    pub fn config(&self) -> &MmdbConfig {
        &self.config
    }

    /// Record size in words — values passed to [`Mmdb::write`] must have
    /// exactly this length.
    pub fn record_words(&self) -> usize {
        self.config.params.db.s_rec as usize
    }

    /// Number of records in the database.
    pub fn n_records(&self) -> u64 {
        self.storage.n_records()
    }

    /// Number of segments in the database.
    pub fn n_segments(&self) -> u64 {
        self.storage.n_segments()
    }

    /// Transaction statistics (commits, aborts, restart rate).
    pub fn txn_stats(&self) -> TxnStats {
        self.txns.lock().stats()
    }

    /// Checkpointer statistics.
    pub fn ckpt_stats(&self) -> CkptStats {
        self.ckpt.stats()
    }

    /// Log statistics.
    pub fn log_stats(&self) -> LogStats {
        self.log.lock().stats()
    }

    /// Report of the most recently completed checkpoint.
    pub fn last_ckpt_report(&self) -> Option<CkptReport> {
        self.ckpt.last_report().copied()
    }

    /// The paper's overhead accounting, from the engine's meters.
    pub fn overhead_report(&self) -> OverheadReport {
        OverheadReport {
            committed: self.txns.lock().stats().committed,
            sync_ckpt: self.meters.sync_ckpt.snapshot(),
            async_ckpt: self.meters.async_ckpt.snapshot(),
            logging: self.meters.logging.snapshot(),
            base: self.meters.base.snapshot(),
        }
    }

    /// The engine's cost meters (for simulation harnesses).
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// The shared protocol-audit handle (disabled unless
    /// [`MmdbConfig::audit`] is set). External drivers may clone it to
    /// feed their own events into the same checker stream.
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Is protocol auditing enabled?
    pub fn is_audited(&self) -> bool {
        self.audit.is_enabled()
    }

    /// Coverage/violation snapshot of the protocol audit (`None` when
    /// auditing is disabled).
    pub fn audit_report(&self) -> Option<AuditReport> {
        self.audit.report()
    }

    /// All protocol-invariant violations detected so far (empty when
    /// auditing is disabled — or when the engine behaves).
    pub fn audit_violations(&self) -> Vec<AuditViolation> {
        self.audit.violations()
    }

    /// The shared telemetry handle (disabled unless
    /// [`MmdbConfig::telemetry`] is set). External drivers may clone it
    /// to record their own metrics and spans into the same registry.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Is the telemetry layer enabled?
    pub fn is_observed(&self) -> bool {
        self.obs.is_enabled()
    }

    /// A unified point-in-time metrics snapshot: everything the telemetry
    /// registry accumulated (latency histograms, device counters, spans'
    /// histograms) merged with the engine's own statistics structures
    /// (transactions, checkpointer, log, segment population) and the
    /// paper's overhead accounting — one source of truth for export.
    ///
    /// The counters injected here are *not* double-counted on hot paths:
    /// they come from the same [`TxnStats`]/[`CkptStats`]/[`LogStats`]
    /// structs the engine always maintains, copied in at snapshot time.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::capture(&self.obs);

        let t = self.txn_stats();
        snap.put_counter("txn.begun", t.begun);
        snap.put_counter("txn.committed", t.committed);
        snap.put_counter("txn.aborted_two_color", t.aborted_two_color);
        snap.put_counter("txn.aborted_other", t.aborted_other);

        let c = self.ckpt_stats();
        snap.put_counter("ckpt.completed", c.completed);
        snap.put_counter("ckpt.segments_flushed", c.segments_flushed);
        snap.put_counter("ckpt.segments_skipped", c.segments_skipped);
        snap.put_counter("ckpt.old_copies_flushed", c.old_copies_flushed);
        snap.put_counter("ckpt.log_forces", c.log_forces);
        snap.put_counter("ckpt.wal_waits", c.wal_waits);
        snap.put_counter("ckpt.io_words", c.io_words);

        let l = self.log_stats();
        snap.put_counter("log.records", l.records);
        snap.put_counter("log.bytes", l.bytes);
        snap.put_counter("log.forces", l.forces);
        snap.put_gauge("log.lost_on_crash_bytes", l.lost_on_crash);

        let s = self.segment_stats();
        snap.put_gauge("seg.total", s.total);
        snap.put_gauge("seg.dirty_copy0", s.dirty_copy0);
        snap.put_gauge("seg.dirty_copy1", s.dirty_copy1);
        snap.put_gauge("seg.white", s.white);
        snap.put_gauge("seg.with_old_copy", s.with_old_copy);
        snap.put_gauge("storage.old_copy_words", self.old_copy_words());
        let m = self.storage.resident_bytes();
        snap.put_gauge("mem.records_bytes", m.records);
        snap.put_gauge("mem.seq_bytes", m.seq_counters);
        snap.put_gauge("mem.cou_old_copy_bytes", m.cou_old_copies);
        snap.put_gauge("mem.cou_old_copy_peak_bytes", m.cou_old_copies_peak);
        snap.put_gauge("ckpt.copy_buffer_bytes", self.ckpt.copy_buffer_bytes());

        // What a crash right now would cost: the durable log past the
        // replay floor of the newest complete ping-pong copy, through
        // the paper's recovery-time model (§4) — comparable with the next
        // `RecoveryReport::total_seconds`.
        let (log_end, log_start) = {
            let log = self.log.lock();
            (log.durable_lsn(), log.start_lsn())
        };
        let floor = self.replay_floor.iter().flatten().max();
        let replay_bytes = log_end
            .raw()
            .saturating_sub(floor.unwrap_or(&log_start).raw());
        snap.put_gauge("recovery.replay_log_bytes", replay_bytes);
        let db = &self.config.params.db;
        let predicted = mmdb_recovery::recovery_time_model(
            &self.config.params.disk,
            db.n_segments(),
            db.s_seg,
            replay_bytes.div_ceil(4),
        );
        snap.put_gauge("recovery.predicted_us", (predicted * 1e6) as u64);

        let r = self.overhead_report();
        snap.paper = Some(PaperOverhead {
            committed: r.committed,
            sync_ckpt_total: r.sync_ckpt.total(),
            async_ckpt_total: r.async_ckpt.total(),
            logging_total: r.logging.total(),
            base_total: r.base.total(),
            sync_ckpt_per_txn: r.sync_per_txn(),
            async_ckpt_per_txn: r.async_per_txn(),
            logging_per_txn: if r.committed == 0 {
                0.0
            } else {
                r.logging.total() as f64 / r.committed as f64
            },
            ckpt_overhead_per_txn: r.ckpt_overhead_per_txn(),
        });
        snap
    }

    /// Content fingerprint of the primary database (test aid).
    pub fn fingerprint(&self) -> u64 {
        self.storage.fingerprint()
    }

    /// Words currently held in COU old copies (snapshot buffer footprint).
    pub fn old_copy_words(&self) -> u64 {
        self.storage.old_copy_words()
    }

    /// A point-in-time observability snapshot of the segment population:
    /// how many segments are dirty with respect to each ping-pong copy,
    /// how many are painted white (mid two-color checkpoint), and how
    /// many hold COU old copies. What an operator's dashboard would poll.
    pub fn segment_stats(&self) -> SegmentStats {
        let mut stats = SegmentStats::default();
        for sid in self.storage.segment_ids() {
            if self.storage.is_dirty(sid, 0).expect("in range") {
                stats.dirty_copy0 += 1;
            }
            if self.storage.is_dirty(sid, 1).expect("in range") {
                stats.dirty_copy1 += 1;
            }
            if self.storage.has_old(sid).expect("in range") {
                stats.with_old_copy += 1;
            }
        }
        stats.white = self.storage.white_count();
        stats.total = self.storage.n_segments();
        stats
    }

    /// Visits every record's committed value in id order (index rebuilds,
    /// exports). The callback gets the record id and its words.
    pub fn for_each_record(&self, mut f: impl FnMut(RecordId, &[Word])) -> Result<()> {
        self.ensure_alive()?;
        for rid in 0..self.storage.n_records() {
            f(RecordId(rid), &self.storage.read_record(RecordId(rid))?);
        }
        Ok(())
    }

    /// Has the engine crashed (and not yet recovered)?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Is a checkpoint in progress?
    pub fn is_checkpoint_active(&self) -> bool {
        self.ckpt.is_active()
    }

    /// Is the engine waiting for transactions to drain before a COU
    /// checkpoint can begin?
    pub fn is_quiescing(&self) -> bool {
        self.quiesce_pending
    }

    fn ensure_alive(&self) -> Result<()> {
        if self.crashed {
            return Err(MmdbError::Invalid(
                "the engine has crashed; call recover() first".into(),
            ));
        }
        Ok(())
    }

    fn next_tau(&self) -> Timestamp {
        Timestamp(self.tau_counter.fetch_add(1, Ordering::SeqCst) + 1)
    }

    // ----- transactions ----------------------------------------------------

    /// Begins a transaction. Fails with [`MmdbError::Quiesced`] while a
    /// COU checkpoint begin is draining active transactions.
    pub fn begin_txn(&mut self) -> Result<TxnId> {
        self.begin_txn_run(1)
    }

    fn begin_txn_run(&mut self, run: u32) -> Result<TxnId> {
        self.ensure_alive()?;
        if self.quiesce_pending {
            return Err(MmdbError::Quiesced);
        }
        let t = self.obs.timer();
        let tau = self.next_tau();
        // Nothing is logged until the transaction commits or prepares.
        let id = self.txns.get_mut().begin(tau, Lsn::ZERO, run);
        self.obs
            .phase_hist("txn.begin", "txn.begin_ns", t, id.raw());
        Ok(id)
    }

    /// Reads a record within a transaction (observes two-color state and
    /// the transaction's own staged writes — read-your-writes).
    pub fn read(&mut self, txn: TxnId, rid: RecordId) -> Result<Vec<Word>> {
        self.ensure_alive()?;
        let sid = self.storage.segment_of(rid)?;
        self.check_color(txn, sid)?;
        // read-your-writes: latest staged value wins
        let t = self.txns.get_mut().get(txn)?;
        if let Some(w) = t.writes.iter().rev().find(|w| w.record == rid) {
            return Ok(w.value.clone());
        }
        self.storage.read_record(rid)
    }

    /// Stages a write within a transaction (shadow-copy scheme: nothing
    /// touches the database until commit).
    pub fn write(&mut self, txn: TxnId, rid: RecordId, value: &[Word]) -> Result<()> {
        self.ensure_alive()?;
        if value.len() != self.record_words() {
            return Err(MmdbError::BadRecordSize {
                expected: self.record_words() as u64,
                got: value.len() as u64,
            });
        }
        let sid = self.storage.segment_of(rid)?;
        self.check_color(txn, sid)?;
        self.txns
            .get_mut()
            .stage_write(txn, rid, sid, value.to_vec())
    }

    /// Observes the segment's color for the transaction if a two-color
    /// checkpoint is active; on a violation, aborts the transaction and
    /// returns the violation error.
    fn check_color(&mut self, txn: TxnId, sid: SegmentId) -> Result<()> {
        if !self.ckpt.two_color_active() {
            // still validate the txn exists
            self.txns.get_mut().get(txn)?;
            return Ok(());
        }
        let color = match self.storage.color(sid)? {
            Color::White => SeenColor::White,
            Color::Black => SeenColor::Black,
        };
        let t = self.txns.get_mut().get_mut(txn)?;
        if let Err(e) = t.observe_color(color, sid) {
            self.abort_two_color(txn)?;
            return Err(e);
        }
        Ok(())
    }

    /// Commit-time color revalidation: installs happen (or are promised)
    /// *now*, so the write set must be color-consistent *now* (colors may
    /// have advanced since staging). This closes the race between staging
    /// and the checkpointer's sweep that deferred installs open up.
    fn revalidate_colors(&mut self, txn: TxnId) -> Result<()> {
        if self.ckpt.two_color_active() {
            let t = self.txns.get_mut().get(txn)?;
            let segs: Vec<SegmentId> = t.writes.iter().map(|w| w.segment).collect();
            for sid in segs {
                self.check_color(txn, sid)?;
            }
        }
        Ok(())
    }

    /// Refuses a write set whose `TxnCommit` frame — or, for a branch of
    /// global transaction `gid`, whose `TxnPrepare` frame — could not
    /// cross the wire to a standby. Checked before anything is appended,
    /// and before a shared commit has its id: the widest id stands in for
    /// it.
    fn check_frame_bound(
        words: usize,
        gid: Option<u64>,
        records: impl ExactSizeIterator<Item = RecordId>,
    ) -> Result<()> {
        let n_writes = records.len();
        let len = LogRecord::txn_len(TxnId(u64::MAX), gid, records, words);
        if len > MAX_TXN_FRAME_BYTES {
            return Err(MmdbError::Invalid(format!(
                "a transaction of {n_writes} writes needs a {len}-byte log frame; \
                 the largest is {MAX_TXN_FRAME_BYTES} bytes"
            )));
        }
        Ok(())
    }

    /// Publishes `commit_lsn` as the newest commit, takes `txn` out of
    /// the transaction table and installs its after-images into the
    /// primary database (the shadow-copy "overwrite old with new", §2.6),
    /// running the COU hook first. `commit_lsn` is the end of the frame
    /// that committed it: the log must be durable through it before a
    /// segment holding one of the images is flushed.
    fn install_committed(&mut self, txn: TxnId, commit_lsn: Lsn, timer: Timer) -> Result<()> {
        self.last_commit_lsn
            .fetch_max(commit_lsn.raw(), Ordering::SeqCst);
        let gating = self
            .config
            .algorithm
            .needs_lsn_gating(self.config.params.log_mode);
        let t = self.txns.get_mut().finish_commit(txn)?;
        for w in &t.writes {
            if self.audit.is_enabled() && self.ckpt.two_color_active() {
                let color = match self.storage.color(w.segment)? {
                    Color::White => PaintColor::White,
                    Color::Black => PaintColor::Black,
                };
                self.audit.emit(|| AuditEvent::InstallObserved {
                    txn,
                    sid: w.segment,
                    color,
                });
            }
            self.ckpt
                .on_before_install(&mut self.storage, w.record, &self.meters.sync_ckpt)?;
            self.storage.install_record(
                w.record,
                &w.value,
                commit_lsn,
                t.tau,
                &self.meters.base,
            )?;
            if gating {
                // The transaction maintains the segment's LSN for the
                // checkpointer's write-ahead gate (C_lsn per update, §2.1).
                self.meters.sync_ckpt.lsn_op();
            }
        }
        self.meters.base.txn_body(self.config.params.txn.c_trans);
        self.obs
            .phase_hist("txn.commit", "txn.commit_ns", timer, txn.raw());
        self.maybe_begin_pending_checkpoint()
    }

    /// Commits a transaction: re-validates two-color consistency of the
    /// write set, writes its one `TxnCommit` frame (forced under
    /// [`CommitDurability::Force`]), then installs the updates into the
    /// primary database (running the COU hook first).
    pub fn commit(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_alive()?;
        if self.txns.get_mut().get(txn)?.prepared.is_some() {
            return Err(MmdbError::Invalid(format!(
                "{txn} is prepared; finish it with commit_prepared/abort_prepared"
            )));
        }
        let commit_timer = self.obs.timer();
        self.revalidate_colors(txn)?;
        let words = self.record_words();
        let writes = &self.txns.get_mut().get(txn)?.writes;
        Mmdb::check_frame_bound(words, None, writes.iter().map(|w| w.record))?;

        // The whole transaction is one frame, encoded from the staged
        // images; every install waits on that frame's end for the WAL gate.
        let writes = &self.txns.get_mut().get(txn)?.writes;
        let log = self.log.get_mut();
        log.append_txn(txn, None, writes.iter().map(|w| (w.record, &w.value[..])));
        let commit_lsn = log.next_lsn();
        if self.config.commit_durability == CommitDurability::Force {
            // Group: append only — the caller releases the engine lock and
            // waits on the durable-LSN watermark for a batched force to
            // cover `last_commit_lsn` before acking.
            log.force()?;
        }
        self.install_committed(txn, commit_lsn, commit_timer)
    }

    /// Aborts a transaction (application abort: staged writes are simply
    /// dropped, and nothing of the transaction is in the log).
    pub fn abort(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_alive()?;
        if self.txns.get_mut().get(txn)?.prepared.is_some() {
            return Err(MmdbError::Invalid(format!(
                "{txn} is prepared; only the coordinator's decision may abort it"
            )));
        }
        self.txns.get_mut().finish_abort(txn, false)?;
        self.maybe_begin_pending_checkpoint()?;
        Ok(())
    }

    /// Two-color abort: checkpoint-induced, charged as wasted work to the
    /// synchronous checkpoint meter (the paper: "Most of the cost comes
    /// from rerunning transactions that are aborted for violating the
    /// two-color restriction").
    fn abort_two_color(&mut self, txn: TxnId) -> Result<()> {
        let t = self.obs.timer();
        self.txns.get_mut().finish_abort(txn, true)?;
        self.meters
            .sync_ckpt
            .txn_body(self.config.params.txn.c_trans);
        self.obs
            .phase_hist("txn.abort_rerun", "txn.abort_ns", t, txn.raw());
        self.maybe_begin_pending_checkpoint()?;
        Ok(())
    }

    /// Runs a whole transaction (begin, write every update, commit),
    /// automatically rerunning it after two-color aborts. Between reruns
    /// one checkpoint step is performed so the conflicting checkpoint
    /// makes progress (in a live system the checkpointer runs
    /// concurrently; the rerun would find the colors advanced).
    pub fn run_txn<V: AsRef<[Word]>>(&mut self, updates: &[(RecordId, V)]) -> Result<TxnRun> {
        let max_runs = 10 * self.n_segments().max(10) as u32;
        let mut runs = 0;
        loop {
            runs += 1;
            if runs > max_runs {
                return Err(MmdbError::Invalid(format!(
                    "transaction failed to commit after {max_runs} two-color reruns"
                )));
            }
            match self.try_run_once(runs, updates) {
                Ok(txn) => {
                    self.obs.observe("txn.runs_per_commit", runs as u64);
                    return Ok(TxnRun {
                        txn,
                        runs,
                        commit_lsn: self.last_commit_lsn(),
                    });
                }
                Err(MmdbError::TwoColorViolation { .. }) => {
                    // Let the checkpoint advance, then rerun.
                    if self.ckpt.is_active() {
                        match self.checkpoint_step()? {
                            StepOutcome::WaitingForLog => {
                                self.log.get_mut().force()?;
                            }
                            StepOutcome::Progress { .. } | StepOutcome::Done { .. } => {}
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn try_run_once<V: AsRef<[Word]>>(
        &mut self,
        run: u32,
        updates: &[(RecordId, V)],
    ) -> Result<TxnId> {
        let txn = self.begin_txn_run(run)?;
        for (rid, value) in updates {
            self.write(txn, *rid, value.as_ref())?;
        }
        self.commit(txn)?;
        Ok(txn)
    }

    // ----- sharded two-phase commit ----------------------------------------
    //
    // The sharded engine (`mmdb-shard`) runs cross-shard transactions as
    // one participant branch per shard. Phase one (`prepare_txn`) makes a
    // branch durable-but-undecided; the coordinator's forced `Decide`
    // record (`log_decision`) is the commit point; phase two
    // (`commit_prepared`/`abort_prepared`) finishes each branch. A
    // prepared branch stays in the active-transaction table, so it keeps
    // pinning the checkpoint replay floor and blocking COU quiesce until
    // the decision lands — exactly the window recovery must be able to
    // replay.

    /// Phase one: re-validates two-color consistency, logs the branch as
    /// one forced `TxnPrepare` frame holding every staged update, and
    /// marks the transaction prepared for global transaction `gid`. After
    /// this returns, the branch survives any crash and can no longer
    /// unilaterally abort; finish it with [`Mmdb::commit_prepared`] or
    /// [`Mmdb::abort_prepared`].
    pub fn prepare_txn(&mut self, txn: TxnId, gid: u64) -> Result<()> {
        self.ensure_alive()?;
        if self.txns.get_mut().get(txn)?.prepared.is_some() {
            return Err(MmdbError::Invalid(format!("{txn} is already prepared")));
        }
        self.revalidate_colors(txn)?;
        let words = self.record_words();
        let t = self.txns.get_mut().get_mut(txn)?;
        Mmdb::check_frame_bound(words, Some(gid), t.writes.iter().map(|w| w.record))?;

        let log = self.log.get_mut();
        let images = t.writes.iter().map(|w| (w.record, &w.value[..]));
        t.begin_lsn = log.append_txn(txn, Some(gid), images);
        if let Err(e) = log.force() {
            // the branch's frame is in the log: close it, so the caller's
            // `abort` of the still-unprepared transaction need not
            log.append(&LogRecord::Abort { txn });
            return Err(e);
        }
        t.prepared = Some(gid);
        self.obs.counter("txn.prepared", 1);
        Ok(())
    }

    /// Durably logs the coordinator's decision for global transaction
    /// `gid` (forced — this is the cross-shard commit point).
    pub fn log_decision(&mut self, gid: u64, commit: bool) -> Result<()> {
        self.ensure_alive()?;
        self.log
            .get_mut()
            .append_forced(&LogRecord::Decide { gid, commit })?;
        self.obs.counter("txn.decisions_logged", 1);
        Ok(())
    }

    /// Phase two, commit side: writes a *forced* commit record and
    /// installs the branch's updates. The force is deliberate even under
    /// group durability: once the branch's own log carries the commit, a
    /// later truncation of the coordinator's `Decide` record can never
    /// orphan it.
    pub fn commit_prepared(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_alive()?;
        if self.txns.get_mut().get(txn)?.prepared.is_none() {
            return Err(MmdbError::Invalid(format!("{txn} is not prepared")));
        }
        let commit_timer = self.obs.timer();
        let log = self.log.get_mut();
        log.append_forced(&LogRecord::Commit { txn })?;
        let commit_end = log.next_lsn();
        self.install_committed(txn, commit_end, commit_timer)
    }

    /// Phase two, abort side: drops a prepared branch after the
    /// coordinator decided abort. The branch's staged writes are
    /// dropped; an abort record keeps the log scanner's picture clean
    /// (and, if it reaches the disk, spares recovery the in-doubt
    /// resolution — presumed abort covers it if it does not).
    pub fn abort_prepared(&mut self, txn: TxnId) -> Result<()> {
        self.ensure_alive()?;
        if self.txns.get_mut().get(txn)?.prepared.is_none() {
            return Err(MmdbError::Invalid(format!("{txn} is not prepared")));
        }
        self.log.get_mut().append(&LogRecord::Abort { txn });
        self.txns.get_mut().finish_abort(txn, false)?;
        self.maybe_begin_pending_checkpoint()?;
        Ok(())
    }

    /// Finishes a branch the last recovery left in doubt
    /// ([`RecoveryReport::in_doubt`]) under the branch's own id, forced:
    /// a `Commit` record and the install of its after-images when the
    /// coordinator decided commit, an `Abort` record otherwise (presumed
    /// abort). With the outcome in this log, a later recovery over the
    /// same window resolves the branch at that frame, in log order,
    /// instead of surfacing it again over whatever committed since. Call
    /// it before the engine runs anything else: the id belongs to an
    /// earlier incarnation.
    pub fn resolve_in_doubt(&mut self, branch: &InDoubtTxn, commit: bool) -> Result<()> {
        self.ensure_alive()?;
        let mut writes = Vec::with_capacity(branch.writes.len());
        for (record, value) in &branch.writes {
            writes.push(StagedWrite {
                record: *record,
                segment: self.storage.segment_of(*record)?,
                value: value.clone(),
            });
        }
        let tau = self.next_tau();
        self.txns
            .get_mut()
            .adopt_prepared(branch.txn, branch.gid, tau, writes);
        if commit {
            self.commit_prepared(branch.txn)
        } else {
            self.abort_prepared(branch.txn)?;
            self.force_log()
        }
    }

    // ----- checkpointing ---------------------------------------------------

    /// Requests a checkpoint. Non-COU algorithms start immediately; COU
    /// quiesces first (new transactions are refused, and the checkpoint
    /// begins when the last active transaction finishes).
    pub fn try_begin_checkpoint(&mut self) -> Result<CheckpointStart> {
        self.ensure_alive()?;
        if self.ckpt.is_active() {
            return Err(MmdbError::CheckpointInProgress);
        }
        if self.config.algorithm.requires_quiesce() && !self.txns.get_mut().is_quiescent() {
            self.quiesce_pending = true;
            self.quiesce_timer = self.obs.timer();
            self.audit.emit(|| AuditEvent::QuiesceBegin);
            return Ok(CheckpointStart::Quiescing);
        }
        self.do_begin_checkpoint().map(CheckpointStart::Started)
    }

    fn maybe_begin_pending_checkpoint(&mut self) -> Result<()> {
        if self.quiesce_pending && self.txns.get_mut().is_quiescent() && !self.ckpt.is_active() {
            self.do_begin_checkpoint()?;
        }
        Ok(())
    }

    fn do_begin_checkpoint(&mut self) -> Result<BeginReport> {
        if self.quiesce_pending {
            self.audit.emit(|| AuditEvent::QuiesceEnd);
            let stall = std::mem::take(&mut self.quiesce_timer);
            self.obs
                .phase_hist("ckpt.quiesce", "ckpt.quiesce_stall_ns", stall, 0);
        }
        let tau_ch = self.next_tau();
        if self.config.algorithm.is_two_color() {
            // Color observations from before this checkpoint refer to
            // pre-checkpoint state; wipe them.
            self.txns.get_mut().reset_colors();
        }
        // Only a prepared branch has frames before the marker; any other
        // open transaction logs its one frame when it commits.
        let prepared = self.txns.get_mut().prepared();
        let active: Vec<TxnId> = prepared.iter().map(|&(id, _)| id).collect();
        let report = self.ckpt.begin(
            &mut self.storage,
            self.log.get_mut(),
            &mut *self.backup,
            &active,
            tau_ch,
        )?;
        // The replay floor: recovery from this checkpoint starts at its
        // begin marker, or at the `TxnPrepare` of the oldest branch
        // prepared at the marker (fuzzy/2C recovery, §3.3).
        let begins = prepared.iter().map(|&(_, begin_lsn)| begin_lsn);
        let floor = begins.fold(report.begin_lsn, Lsn::min);
        self.pending_floor = Some((report.ckpt, floor));
        self.quiesce_pending = false;
        Ok(report)
    }

    /// Called after a checkpoint completes: records its replay floor and
    /// truncates the now-unreachable log prefix. Recovery can only ever
    /// use one of the two complete ping-pong copies, so everything before
    /// the older copy's replay floor is dead log.
    fn after_checkpoint_complete(&mut self) -> Result<()> {
        let Some(report) = self.ckpt.last_report().copied() else {
            return Ok(());
        };
        if let Some((ckpt, floor)) = self.pending_floor {
            if ckpt == report.ckpt {
                self.replay_floor[report.copy & 1] = Some(floor);
                self.pending_floor = None;
            }
        }
        if self.config.auto_truncate_log {
            if let (Some(a), Some(b)) = (self.replay_floor[0], self.replay_floor[1]) {
                // A replication pin clamps the cut: a standby still
                // pulling these bytes must not have them truncated out
                // from under it (the pin rises with its acks).
                let mut cut = a.min(b);
                if let Some(pin) = &self.repl_truncate_pin {
                    let pinned = mmdb_types::Lsn(pin.load(std::sync::atomic::Ordering::SeqCst));
                    cut = cut.min(pinned);
                }
                if cut > self.log.get_mut().start_lsn() {
                    self.log.get_mut().truncate_prefix(cut)?;
                }
            }
        }
        Ok(())
    }

    /// Performs one checkpoint step (see
    /// [`mmdb_checkpoint::Checkpointer::step`]).
    pub fn checkpoint_step(&mut self) -> Result<StepOutcome> {
        self.ensure_alive()?;
        let outcome = self
            .ckpt
            .step(&mut self.storage, self.log.get_mut(), &mut *self.backup)?;
        if matches!(outcome, StepOutcome::Done { .. }) {
            self.after_checkpoint_complete()?;
        }
        Ok(outcome)
    }

    /// Takes a complete checkpoint synchronously. For COU algorithms the
    /// engine must be quiescent (commit or abort open transactions
    /// first); otherwise returns [`MmdbError::Quiesced`].
    pub fn checkpoint(&mut self) -> Result<CkptReport> {
        match self.try_begin_checkpoint()? {
            CheckpointStart::Started(_) => {}
            CheckpointStart::Quiescing => {
                self.quiesce_pending = false; // nothing will drain it here
                return Err(MmdbError::Quiesced);
            }
        }
        let report = self.ckpt.run_to_completion(
            &mut self.storage,
            self.log.get_mut(),
            &mut *self.backup,
        )?;
        self.after_checkpoint_complete()?;
        Ok(report)
    }

    // ----- crash and recovery ----------------------------------------------

    /// Simulates a system failure: the primary database, log tail (unless
    /// stable), active transactions and checkpointer state are lost. Only
    /// the backup copies and the durable log survive. Call
    /// [`Mmdb::recover`] to come back.
    pub fn crash(&mut self) -> Result<()> {
        self.audit.emit(|| AuditEvent::Crash);
        // Take the record store out of lock-free service first: from here
        // until recovery has rebuilt it, lock-free readers must fail over
        // to the locked path (which reports the crash properly). Queued
        // shared-mode install notes are discarded — the installs are
        // logged, and recovery replays them.
        let mirror = self.storage.mirror();
        mirror.gate_close();
        mirror.take_pending();
        self.log.get_mut().crash()?;
        self.txns.get_mut().crash();
        self.ckpt.crash(&mut self.storage);
        self.quiesce_pending = false;
        self.pending_floor = None;
        self.crashed = true;
        Ok(())
    }

    /// Recovers from a crash: rebuilds the primary database from the most
    /// recent complete backup plus the log (paper §3.3).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if !self.crashed {
            return Err(MmdbError::Invalid(
                "recover() called on a live engine; call crash() first".into(),
            ));
        }
        self.recover_internal()
    }

    fn recover_internal(&mut self) -> Result<RecoveryReport> {
        // The primary database is lost, not its memory: recovery refills
        // the record store this engine already holds, so reader-held
        // handles stay valid and no second database is ever allocated.
        // The reset leaves the store's gate closed (`open_dir` reaches
        // here without a crash() having closed it); it reopens below,
        // so no lock-free reader sees a zeroed or half-replayed record.
        self.storage.reset();
        let copies = if self.audit.is_enabled() {
            Some([
                summarize(self.backup.copy_status(0)?),
                summarize(self.backup.copy_status(1)?),
            ])
        } else {
            None
        };
        let recovery_meter = CostMeter::new(self.config.params.cost);
        let report = mmdb_recovery::recover_observed(
            &mut self.storage,
            &mut *self.backup,
            self.log.get_mut().device_mut(),
            &self.config.params.disk,
            &recovery_meter,
            &self.obs,
        )?;
        // A torn frame ends the valid log; appending after it would put
        // the next commits where the next recovery never reads.
        let torn = self.log.get_mut().truncate_suffix(report.log_end)?;
        self.obs.counter("recovery.torn_tail_bytes", torn);
        if let Some(copies) = copies {
            self.audit.emit(|| AuditEvent::RecoveryChosen {
                ckpt: report.ckpt,
                copy: report.copy,
                copies,
            });
        }
        // crash() already emptied the transaction table; keep it (and its
        // cumulative statistics — they are measurements, not state).
        debug_assert!(self.txns.get_mut().is_quiescent());
        self.ckpt = Checkpointer::new(
            self.config.algorithm,
            self.config.params.ckpt_mode,
            self.config.wal_policy,
            self.meters.async_ckpt.clone(),
        );
        self.ckpt.set_audit(self.audit.clone());
        self.ckpt.set_obs(self.obs.clone());
        // The next checkpoint targets the copy recovery did NOT restore
        // from, so a crash mid-checkpoint still leaves a complete copy.
        self.ckpt.set_next_ckpt(CheckpointId(report.ckpt.raw() + 1));
        self.tau_counter.store(0, Ordering::SeqCst);
        self.quiesce_pending = false;
        self.pending_floor = None;
        // only the restored copy's floor is known to be valid now; the
        // other copy must complete a fresh checkpoint before truncation
        // may move again
        self.replay_floor = [None, None];
        self.replay_floor[report.copy & 1] = Some(report.replay_start);
        self.crashed = false;
        // Recovery installed every record into the store itself; put it
        // back in lock-free service.
        self.storage.mirror().gate_open();
        Ok(report)
    }

    /// Reads a record outside any transaction (no color checks; test and
    /// tooling aid — a real client should use a transaction).
    pub fn read_committed(&self, rid: RecordId) -> Result<Vec<Word>> {
        self.ensure_alive()?;
        self.storage.read_record(rid)
    }

    // ----- intra-shard concurrency (shared-mode paths) ---------------------

    /// The storage's record store: the seqlock-protected array that holds
    /// every record, readable without any engine lock. Clone the `Arc`
    /// once and keep it — the handle stays valid across crash and
    /// recovery (the gate closes while the content is rebuilt, so stale
    /// reads fail over to the locked path).
    pub fn read_mirror(&self) -> Arc<ReadMirror> {
        self.storage.mirror().clone()
    }

    /// Folds the metadata of queued shared-mode installs into their
    /// segments (see [`mmdb_storage::Storage::sync_pending`]; the data
    /// is in the store since the commit). The sharded engine calls this
    /// on every exclusive acquisition, so the checkpointer, recovery,
    /// 2PC and quiesce always see current versions, `τ(S)` and WAL
    /// gates. Returns the number of installs applied.
    pub fn sync_pending(&mut self) -> u64 {
        self.storage.sync_pending()
    }

    /// Commits a whole single-shard transaction from **shared** engine
    /// access: the caller holds only a read guard on the engine gate, so
    /// disjoint-segment transactions on other threads commit
    /// concurrently, serializing only at log append.
    ///
    /// Returns `Ok(None)` — caller falls back to the exclusive path —
    /// whenever the protocol requires exclusivity: after a crash, while
    /// a COU quiesce is pending, while any checkpoint is active (the
    /// two-color and COU install hooks need `&mut`), when the database
    /// has more segments than the latch rank space covers, or when the
    /// updates are invalid (the exclusive path reports the precise
    /// error). Each reason counts into
    /// `core.commit_shared_fallback.<reason>`. All of those fields only
    /// change under `&mut self`, which the engine gate excludes while a
    /// shared committer is inside — so the admission check cannot race.
    ///
    /// Protocol: latch the write set's segments in ascending id order
    /// (descending lock rank — deadlock-free by construction), append
    /// the transaction's one `TxnCommit` frame under the interior log
    /// lock (the pipeline's single serial point: WAL order is decided
    /// here, and the log reads exactly like a serial execution), publish
    /// into the record store and note the metadata in the pending-sync
    /// queue while still latched, then finish in the transaction table.
    /// Durability matches the exclusive path: `Force` forces inside the
    /// append; `Group` returns immediately and the caller signals
    /// the flusher / waits on the durable watermark *after* releasing
    /// its engine read guard.
    pub fn try_commit_shared<V: AsRef<[Word]>>(
        &self,
        updates: &[(RecordId, V)],
    ) -> Result<Option<TxnRun>> {
        let fallback = |reason: &'static str| {
            self.obs.counter(reason, 1);
            Ok(None)
        };
        if self.crashed {
            return fallback("core.commit_shared_fallback.crashed");
        }
        if self.quiesce_pending {
            return fallback("core.commit_shared_fallback.quiesce");
        }
        if self.ckpt.is_active() {
            return fallback("core.commit_shared_fallback.checkpoint_active");
        }
        if self.latches.len() != self.storage.n_segments() as usize {
            return fallback("core.commit_shared_fallback.latch_table");
        }
        // Validate everything up front: after the log append the commit
        // must run to completion.
        let s_rec = self.record_words();
        let mut latch_order = Vec::with_capacity(updates.len());
        for (rid, value) in updates {
            match self.storage.segment_of(*rid) {
                Ok(sid) if value.as_ref().len() == s_rec => latch_order.push(sid.index()),
                _ => return fallback("core.commit_shared_fallback.invalid"),
            }
        }
        if Mmdb::check_frame_bound(s_rec, None, updates.iter().map(|(rid, _)| *rid)).is_err() {
            return fallback("core.commit_shared_fallback.invalid");
        }
        latch_order.sort_unstable();
        latch_order.dedup();

        let gating = self
            .config
            .algorithm
            .needs_lsn_gating(self.config.params.log_mode);
        let commit_timer = self.obs.timer();
        let tau = self.next_tau();
        let txn = self.txns.lock().begin(tau, Lsn::ZERO, 1);

        let held: Vec<_> = latch_order
            .iter()
            .map(|&i| self.latches[i].lock())
            .collect();

        let commit_lsn = {
            let mut log = self.log.lock();
            log.append_txn(txn, None, updates.iter().map(|(rid, v)| (*rid, v.as_ref())));
            if self.config.commit_durability == CommitDurability::Force {
                log.force()?;
            }
            log.next_lsn()
        };
        self.last_commit_lsn
            .fetch_max(commit_lsn.raw(), Ordering::SeqCst);

        // Publish while still latched (the latch is what serializes
        // publishes per segment, whose records share one seqlock
        // counter); the segment metadata catches up at the next
        // exclusive acquisition via `sync_pending`.
        let mirror = self.storage.mirror();
        for (rid, value) in updates {
            mirror.publish(*rid, value.as_ref());
            mirror.note_pending(PendingInstall {
                rid: *rid,
                tau,
                lsn: commit_lsn,
            });
            self.meters.base.move_words(s_rec as u64);
            if gating {
                self.meters.sync_ckpt.lsn_op();
            }
        }
        drop(held);

        self.txns.lock().finish_commit(txn)?;
        self.meters.base.txn_body(self.config.params.txn.c_trans);
        self.obs
            .phase_hist("txn.commit", "txn.commit_ns", commit_timer, txn.raw());
        Ok(Some(TxnRun {
            txn,
            runs: 1,
            commit_lsn,
        }))
    }

    /// Forces the log tail to the log disks — the group-commit daemon's
    /// hook. On an engine used directly under
    /// [`CommitDurability::Group`], committed transactions become durable
    /// at the next force. Publishes the durable-LSN watermark, so group
    /// committers parked on [`log_watermark`](Self::log_watermark) are
    /// released too.
    pub fn force_log(&mut self) -> Result<()> {
        self.ensure_alive()?;
        self.log.get_mut().force()
    }

    /// The group-commit force: flushes the tail but returns the pending
    /// completion (modeled latency + watermark publish) for the caller —
    /// the per-shard flusher — to run *after* releasing the engine lock.
    /// `Ok(None)` when the tail was empty (the watermark is still
    /// published, so no waiter strands).
    pub fn force_log_group(&mut self) -> Result<Option<mmdb_log::PendingForce>> {
        self.ensure_alive()?;
        self.log.get_mut().force_group()
    }

    /// The log's shared durable-LSN watermark. A group committer clones
    /// this, commits (append-only), drops the engine lock, and waits for
    /// the watermark to pass [`TxnRun::commit_lsn`] before acking.
    pub fn log_watermark(&self) -> std::sync::Arc<mmdb_log::DurableWatermark> {
        self.log.lock().watermark()
    }

    /// Seals the active log chunk so it becomes cold — eligible for
    /// compaction and compression; subsequent appends land in a fresh
    /// chunk. Flushes the volatile tail first. Returns `true` if a
    /// rotation actually happened (`false` on unchunked devices or an
    /// already-empty active chunk).
    pub fn rotate_log(&mut self) -> Result<bool> {
        self.ensure_alive()?;
        self.log.get_mut().rotate()
    }

    /// Runs one compaction pass over the cold log chunks: `TxnCommit`
    /// writes that no future recovery can need (superseded by a later
    /// `TxnCommit` write to the same record) are rewritten as
    /// length-preserving filler, so the REDO window stays
    /// bounded while every LSN survives. The pass is clamped below the
    /// replication truncation pin — a lagging standby stalls compaction
    /// exactly as it stalls truncation — and with
    /// [`MmdbConfig::compress_log_chunks`] set, rewritten chunks are
    /// stored compressed. A no-op (zero report) on unchunked log devices.
    pub fn compact_log(&mut self) -> Result<mmdb_rescale::CompactReport> {
        self.ensure_alive()?;
        // flush the tail so the durable window (and txn outcomes) are
        // current before classification
        self.log.get_mut().force()?;
        let mut pins = Vec::new();
        if let Some(pin) = &self.repl_truncate_pin {
            pins.push(pin.load(std::sync::atomic::Ordering::SeqCst));
        }
        let opts = mmdb_rescale::CompactOptions {
            pins,
            compress: self.config.compress_log_chunks,
        };
        mmdb_rescale::compact_device(self.log.get_mut().device_mut(), &opts, &self.obs)
    }

    /// The log device's chunk layout (oldest first, the last entry being
    /// the active chunk). Empty on unchunked devices.
    pub fn log_chunk_map(&self) -> Vec<mmdb_log::ChunkInfo> {
        self.log.lock().device().chunk_map()
    }

    /// Attaches the replication truncation pin (raw-LSN atomic, shared
    /// with the replication gate): while set, auto-truncation never cuts
    /// at or above the pin, so an attached standby's unshipped log bytes
    /// survive checkpoints. The caller seeds the pin — typically with
    /// [`Mmdb::log_start_lsn`] at attach time — and raises it as the
    /// standby acks.
    pub fn set_repl_truncate_pin(&mut self, pin: std::sync::Arc<std::sync::atomic::AtomicU64>) {
        self.repl_truncate_pin = Some(pin);
    }

    /// The log's durable device LSN (what a shipper may read up to).
    pub fn log_durable_lsn(&self) -> mmdb_types::Lsn {
        self.log.lock().durable_lsn()
    }

    /// The log device's first readable LSN (0 unless truncated).
    pub fn log_start_lsn(&self) -> mmdb_types::Lsn {
        self.log.lock().start_lsn()
    }

    /// Reads durable log bytes starting at `from`, cut to whole record
    /// frames, with the device end the read was cut against — the
    /// replication shipper's read path. Takes only the interior log
    /// lock, so a shared gate holder may call it. See
    /// [`mmdb_log::LogManager::read_range_aligned`].
    pub fn read_log_range(
        &self,
        from: mmdb_types::Lsn,
        max_bytes: usize,
    ) -> Result<(mmdb_types::Lsn, Vec<u8>)> {
        self.ensure_alive()?;
        self.log.lock().read_range_aligned(from, max_bytes)
    }

    /// End-LSN of the most recent commit record this engine wrote (see
    /// [`TxnRun::commit_lsn`]; interactive commits read it while still
    /// holding the engine lock).
    pub fn last_commit_lsn(&self) -> mmdb_types::Lsn {
        Lsn(self.last_commit_lsn.load(Ordering::SeqCst))
    }

    /// Deep verification: performs a *dry-run* recovery (backup + log →
    /// scratch storage) and checks it reproduces the live database
    /// exactly. The log is forced first so the comparison is against the
    /// full committed state. Returns the would-be recovery report.
    ///
    /// This is what an operator runs to answer "if we crashed right now,
    /// would we get everything back?" without crashing anything.
    pub fn verify_recoverability(&mut self) -> Result<RecoveryReport> {
        self.ensure_alive()?;
        self.log.get_mut().force()?;
        let live = self.storage.fingerprint();
        let (recovered, report) = mmdb_recovery::dry_run_observed(
            self.config.params.db,
            &mut *self.backup,
            self.log.get_mut().device_mut(),
            &self.config.params.disk,
            &self.obs,
        )?;
        if recovered != live {
            return Err(MmdbError::Corrupt(format!(
                "dry-run recovery diverges from the live committed state                  (live {live:#x}, recovered {recovered:#x})"
            )));
        }
        Ok(report)
    }

    // ----- archival (cold backups, paper §2.7) -----------------------------

    /// Dumps a point-in-time cold backup: the most recent complete
    /// ping-pong copy plus the REDO-log slice needed to bring it to the
    /// committed state as of this call. The log is forced first, so every
    /// committed transaction is captured.
    pub fn dump_archive(&mut self, path: &Path) -> Result<mmdb_disk::ArchiveInfo> {
        self.ensure_alive()?;
        self.log.get_mut().force()?;
        let (copy, _) = self.backup.recovery_copy()?;
        // replay floor of the archived copy; if unknown (no checkpoint
        // completed this session for that copy), fall back to the whole
        // readable log — replaying extra prefix is safe (complete,
        // in-order suffix), just bulkier.
        let floor = self.replay_floor[copy & 1].unwrap_or(self.log.get_mut().start_lsn());
        let dev = self.log.get_mut().device_mut();
        let start = floor.raw().max(dev.start_offset());
        let mut slice = vec![0u8; (dev.len() - start) as usize];
        dev.read_at(start, &mut slice)?;
        mmdb_disk::dump_archive(&mut *self.backup, path, &slice)
    }

    /// Creates a brand-new database directory from an archive: the image
    /// seeds the backup store, the archived log slice seeds the log, and
    /// ordinary recovery rebuilds the primary database to the exact
    /// committed state the archive captured.
    pub fn restore_archive_dir(
        config: MmdbConfig,
        dir: &Path,
        archive: &Path,
    ) -> Result<(Mmdb, RecoveryReport)> {
        config.validate().map_err(MmdbError::Invalid)?;
        std::fs::create_dir_all(dir)?;
        let meters = Meters::new(config.params.cost);
        let storage = Storage::new(config.params.db)?;
        let mut backup: Box<dyn BackupStore> = Box::new(mmdb_disk::FileBackup::open(
            &dir.join("backup"),
            config.params.db,
            config.sync_files,
        )?);
        if backup.recovery_copy().is_ok() {
            return Err(MmdbError::Invalid(format!(
                "{} already holds a database; refusing to restore over it",
                dir.display()
            )));
        }
        let (_info, log_slice) = mmdb_disk::restore_archive(&mut *backup, archive)?;
        // Seed the fresh log device with the archived slice *before*
        // handing it to the manager, so the manager's LSN space starts
        // past it. The slice's records are self-delimiting; recovery
        // locates the markers by scanning, so placing them at the fresh
        // device's offset 0 is sound.
        let mut device =
            SegmentedLogDevice::open(&dir.join("log"), config.log_chunk_bytes, config.sync_files)?;
        {
            use mmdb_log::LogDevice as _;
            device.append(&log_slice)?;
        }
        let log = LogManager::new(
            Box::new(device),
            config.params.log_mode,
            meters.logging.clone(),
        );
        let mut engine = Self::assemble(config, storage, log, backup, meters);
        let report = engine.recover_internal()?;
        Ok((engine, report))
    }
}
