//! The checkpoint step machine. See the crate docs for the overview.

use mmdb_audit::{Audit, AuditEvent, PaintColor};
use mmdb_disk::BackupStore;
use mmdb_log::{LogManager, LogRecord};
use mmdb_obs::{Obs, Timer};
use mmdb_storage::{Color, Storage};
use mmdb_types::{
    Algorithm, CheckpointId, CkptMode, CostMeter, Lsn, MmdbError, RecordId, Result, SegmentId,
    SharedCostMeter, Timestamp, TxnId, Word,
};

/// What the checkpointer does when a segment image's log records are not
/// yet durable (the write-ahead gate fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalPolicy {
    /// Force the log (charged to the checkpointer) and proceed. This is
    /// the deterministic default.
    #[default]
    Force,
    /// Return [`StepOutcome::WaitingForLog`] and retry on the next step,
    /// letting routine commit forces catch the log up — the paper's
    /// "delay that might be needed to satisfy the LSN condition".
    Wait,
}

/// Result of one checkpointer step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Work was done. `io_words` is the size of the backup-disk write the
    /// step issued (0 when the step only skipped clean/black segments) —
    /// the simulator converts it to disk service time.
    Progress {
        /// Words written to the backup disks by this step.
        io_words: u64,
    },
    /// Blocked on log durability under [`WalPolicy::Wait`]; retry after
    /// the log advances.
    WaitingForLog,
    /// The checkpoint completed during this step.
    Done {
        /// Words written by the final step (usually a trailing pending
        /// flush; the completion header itself is counted as one I/O in
        /// CPU cost but its size is negligible).
        io_words: u64,
    },
}

/// Report returned by [`Checkpointer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeginReport {
    /// The checkpoint that began.
    pub ckpt: CheckpointId,
    /// The ping-pong copy it writes.
    pub copy: usize,
    /// LSN of its begin-checkpoint log record.
    pub begin_lsn: Lsn,
}

/// Per-checkpoint activity report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptReport {
    /// Checkpoint id.
    pub ckpt: CheckpointId,
    /// Ping-pong copy written.
    pub copy: usize,
    /// Segment images written (live or buffered).
    pub segments_flushed: u64,
    /// Segments examined and skipped (clean, or already black).
    pub segments_skipped: u64,
    /// Of the flushed images, how many came from COU old copies.
    pub old_copies_flushed: u64,
    /// Total words written to the backup disks.
    pub io_words: u64,
}

/// Cumulative checkpointer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptStats {
    /// Checkpoints completed.
    pub completed: u64,
    /// Total segment images flushed.
    pub segments_flushed: u64,
    /// Total segments skipped.
    pub segments_skipped: u64,
    /// Total COU old copies flushed.
    pub old_copies_flushed: u64,
    /// Log forces issued by the checkpointer (WAL gate under
    /// [`WalPolicy::Force`], plus checkpoint begin/end forces).
    pub log_forces: u64,
    /// Steps that returned [`StepOutcome::WaitingForLog`].
    pub wal_waits: u64,
    /// Total words written to the backup disks.
    pub io_words: u64,
}

/// A buffered segment image awaiting log durability before it may be
/// flushed (FUZZYCOPY and 2CCOPY under [`WalPolicy::Wait`]).
#[derive(Debug)]
struct PendingFlush {
    sid: SegmentId,
    data: Box<[Word]>,
    version: u64,
    /// The log must be durable through this LSN before the image may be
    /// written (write-ahead rule).
    gate: Lsn,
}

#[derive(Debug)]
struct ActiveCkpt {
    ckpt: CheckpointId,
    copy: usize,
    /// `CUR_SEG`: next position in sweep order. Segments before the
    /// cursor have been processed. For the two-color algorithms the
    /// cursor indexes `white_list`; otherwise it is the segment id
    /// itself.
    cursor: u32,
    n_segments: u32,
    /// The frozen white set, in sweep order (two-color algorithms only).
    /// Built by the paint pass at begin; the sweep visits exactly these
    /// segments instead of re-scanning the whole database.
    white_list: Option<Vec<SegmentId>>,
    /// `τ(CH)` (recorded in the begin marker).
    tau_ch: Timestamp,
    /// The COU snapshot horizon: the storage version counter at begin.
    /// A segment with `version > snapshot_version` has been updated since
    /// the checkpoint began. (Equivalent to the paper's `τ(S) ≤ τ(CH)`
    /// test under quiesce, and — unlike timestamps — still correct for
    /// the non-quiescing `COUAC`, where transactions with `τ(T) < τ(CH)`
    /// may install after the begin.)
    snapshot_version: u64,
    /// True when this checkpoint backs up every segment: either the
    /// configured mode is [`CkptMode::Full`], or the target ping-pong
    /// copy has never completed a checkpoint (a partial image of an
    /// empty copy would not be a complete backup).
    effective_full: bool,
    pending: Option<PendingFlush>,
    report: CkptReport,
    /// Wall-clock timer spanning the whole pass (inert without telemetry).
    timer: Timer,
}

/// The checkpointer. One instance drives all checkpoints of an engine,
/// alternating ping-pong copies.
#[derive(Debug)]
pub struct Checkpointer {
    algorithm: Algorithm,
    mode: CkptMode,
    wal_policy: WalPolicy,
    meter: SharedCostMeter,
    next_ckpt: CheckpointId,
    active: Option<ActiveCkpt>,
    last_report: Option<CkptReport>,
    stats: CkptStats,
    audit: Audit,
    obs: Obs,
}

impl Checkpointer {
    /// A checkpointer running `algorithm` in `mode`, charging its
    /// asynchronous work to `meter`.
    pub fn new(
        algorithm: Algorithm,
        mode: CkptMode,
        wal_policy: WalPolicy,
        meter: SharedCostMeter,
    ) -> Checkpointer {
        Checkpointer {
            algorithm,
            mode,
            wal_policy,
            meter,
            next_ckpt: CheckpointId(1),
            active: None,
            last_report: None,
            stats: CkptStats::default(),
            audit: Audit::disabled(),
            obs: Obs::disabled(),
        }
    }

    /// Routes protocol events to `audit` (disabled by default).
    pub fn set_audit(&mut self, audit: Audit) {
        self.audit = audit;
    }

    /// Routes telemetry (pass/flush spans, lock-hold latency) to `obs`
    /// (disabled by default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Writes a segment image to the backup store, timing the device
    /// operation and emitting a per-segment flush span.
    fn flush_observed(
        &self,
        backup: &mut dyn BackupStore,
        copy: usize,
        sid: SegmentId,
        data: &[Word],
    ) -> Result<()> {
        let t = self.obs.timer();
        backup.write_segment(copy, sid, data)?;
        self.obs
            .phase_hist("ckpt.flush", "ckpt.segment_flush_ns", t, sid.raw().into());
        Ok(())
    }

    /// The algorithm in use.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Full or partial checkpoints.
    pub fn mode(&self) -> CkptMode {
        self.mode
    }

    /// Is a checkpoint in progress?
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Is a *two-color* checkpoint in progress (transactions must obey
    /// the color rule)?
    pub fn two_color_active(&self) -> bool {
        self.algorithm.is_two_color() && self.is_active()
    }

    /// The in-progress checkpoint id, if any.
    pub fn active_ckpt(&self) -> Option<CheckpointId> {
        self.active.as_ref().map(|a| a.ckpt)
    }

    /// The ping-pong copy the in-progress checkpoint writes.
    pub fn active_copy(&self) -> Option<usize> {
        self.active.as_ref().map(|a| a.copy)
    }

    /// The sweep cursor (`CUR_SEG`) of the in-progress checkpoint.
    pub fn cursor(&self) -> Option<SegmentId> {
        self.active.as_ref().map(|a| SegmentId(a.cursor))
    }

    /// `τ(CH)` of the in-progress checkpoint.
    pub fn tau_ch(&self) -> Option<Timestamp> {
        self.active.as_ref().map(|a| a.tau_ch)
    }

    /// Report of the most recently completed checkpoint.
    pub fn last_report(&self) -> Option<&CkptReport> {
        self.last_report.as_ref()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CkptStats {
        self.stats
    }

    /// Bytes held right now in a buffered segment image awaiting the log
    /// (COPY variants under the WAL gate; 0 between steps otherwise).
    pub fn copy_buffer_bytes(&self) -> u64 {
        let pending = self.active.as_ref().and_then(|a| a.pending.as_ref());
        pending.map_or(0, |p| std::mem::size_of_val(&*p.data) as u64)
    }

    /// The id the next checkpoint will get.
    pub fn next_ckpt(&self) -> CheckpointId {
        self.next_ckpt
    }

    /// Sets the next checkpoint id (recovery: the id after the restored
    /// checkpoint, so the next checkpoint targets the ping-pong copy that
    /// is *not* the one recovery restored from).
    ///
    /// # Panics
    /// Panics if a checkpoint is in progress.
    pub fn set_next_ckpt(&mut self, next: CheckpointId) {
        assert!(
            self.active.is_none(),
            "cannot renumber checkpoints mid-checkpoint"
        );
        self.next_ckpt = next;
    }

    /// The copy-on-update transaction hook (Figure 3.2): called by the
    /// engine *before* installing a committed update into record `rid`.
    /// If a COU checkpoint is active and the segment has not yet been
    /// swept (`S > CUR_SEG` — here `sid ≥ cursor`, since the cursor points
    /// at the next unprocessed segment and steps are atomic), the
    /// transaction saves the record's old value — not, as the paper, the
    /// whole segment — opening the segment's old copy if it has not been
    /// updated since the checkpoint began (`τ(S) ≤ τ(CH)`).
    ///
    /// The copy is *synchronous* work done on behalf of the transaction,
    /// so it is charged to `sync_meter`, not the checkpointer's meter.
    pub fn on_before_install(
        &self,
        storage: &mut Storage,
        rid: RecordId,
        sync_meter: &CostMeter,
    ) -> Result<()> {
        if !self.algorithm.is_cou() {
            return Ok(());
        }
        let Some(active) = &self.active else {
            return Ok(());
        };
        let sid = storage.segment_of(rid)?;
        if sid.raw() < active.cursor {
            return Ok(()); // already swept: the snapshot no longer needs it
        }
        if !storage.has_old(sid)? {
            if storage.segment_meta(sid)?.version > active.snapshot_version {
                return Ok(()); // updated since begin with no copy: the sweep reports it
            }
            storage.cou_save_old(sid, sync_meter)?;
            self.obs.counter("ckpt.old_copy_saves", 1);
            self.audit.emit(|| AuditEvent::OldCopyCreated { sid });
        }
        if storage.cou_save_record(rid, sync_meter)? {
            self.obs.counter("ckpt.old_record_saves", 1);
        }
        Ok(())
    }

    /// Begins a checkpoint (paper §3.1/§3.2): writes the begin-checkpoint
    /// marker (with the active-transaction list), durably marks the target
    /// ping-pong copy in-progress, and for the two-color algorithms paints
    /// the white set. `active_txns` names the transactions with log frames
    /// before the marker and no outcome yet — the prepared branches; one
    /// that is not prepared logs nothing until it commits. For COU the
    /// caller must have quiesced transaction processing; `tau_ch` is the
    /// fresh checkpoint timestamp.
    pub fn begin(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        active_txns: &[TxnId],
        tau_ch: Timestamp,
    ) -> Result<BeginReport> {
        if self.active.is_some() {
            return Err(MmdbError::CheckpointInProgress);
        }
        if !self.algorithm.sound_under(log.mode()) {
            return Err(MmdbError::UnsoundConfiguration(format!(
                "{} requires a stable log tail",
                self.algorithm
            )));
        }
        if self.algorithm.requires_quiesce() && !active_txns.is_empty() {
            return Err(MmdbError::Invalid(
                "COU checkpoints must begin quiesced (active transactions present)".into(),
            ));
        }
        let ckpt = self.next_ckpt;
        let copy = ckpt.pingpong_copy();
        // The pass timer starts here so it covers the begin marker, the
        // paint pass and every sweep step through the end-marker force.
        let pass_timer = self.obs.timer();

        // Quiesced (TC) COU checkpoints are consistent as of the begin
        // marker and carry no active list (the quiesce guarantees it is
        // empty); everything else records the open prepared branches so
        // recovery can extend its replay window back to them (§3.3).
        let active_list = if self.algorithm.requires_quiesce() {
            Vec::new()
        } else {
            active_txns.to_vec()
        };
        let begin_lsn = log.append(&LogRecord::BeginCheckpoint {
            ckpt,
            tau: tau_ch,
            active: active_list,
        });
        if self.algorithm.is_cou() {
            // §3.2.2: "a begin-checkpoint record is written to the log,
            // and the log tail is flushed to stable storage". This force
            // is what exempts COU from per-segment LSN gating.
            self.stats.log_forces += 1;
            log.force_charged_to(&self.meter)?;
        }

        // A partial checkpoint against a copy that has never completed a
        // checkpoint would leave holes; escalate it to full (this is how
        // the ping-pong pair gets seeded on a fresh database).
        let effective_full = self.mode == CkptMode::Full
            || !matches!(
                backup.copy_status(copy)?,
                mmdb_disk::CopyStatus::Complete(_)
            );

        // Durably mark the target copy in-progress before any segment of
        // it is overwritten (ping-pong discipline).
        self.meter.io_op();
        backup.begin_checkpoint(copy, ckpt)?;

        let n_segments = storage.n_segments() as u32;
        let white_list = if self.algorithm.is_two_color() {
            // Paint the white set: the segments this checkpoint will
            // process, frozen at begin (segments dirtied *after* begin
            // stay black and wait for the next checkpoint — flipping
            // them white mid-checkpoint would break the color
            // serialization). Clean segments are immediately black: their
            // backup image already matches their live content. One
            // instruction per segment of paint/dirty-check sweep; the
            // sweep then visits exactly the white list rather than
            // re-scanning the whole database.
            let full = effective_full;
            self.meter.scan(n_segments as u64);
            let dirty: Vec<bool> = (0..n_segments)
                .map(|i| {
                    full || storage
                        .is_dirty(SegmentId(i), copy)
                        .expect("segment in range")
                })
                .collect();
            storage.paint_for_checkpoint(|sid| dirty[sid.index()]);
            Some(
                (0..n_segments)
                    .map(SegmentId)
                    .filter(|sid| dirty[sid.index()])
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };

        let whites = white_list.as_ref().map_or(0, |list| list.len() as u64);
        self.active = Some(ActiveCkpt {
            ckpt,
            copy,
            cursor: 0,
            n_segments,
            white_list,
            tau_ch,
            snapshot_version: storage.current_version(),
            effective_full,
            pending: None,
            report: CkptReport {
                ckpt,
                copy,
                ..CkptReport::default()
            },
            timer: pass_timer,
        });
        self.next_ckpt = ckpt.next();
        let algorithm = self.algorithm;
        self.audit.emit(|| AuditEvent::CkptBegun {
            ckpt,
            copy,
            algorithm,
            quiesced: algorithm.requires_quiesce(),
            whites,
        });
        Ok(BeginReport {
            ckpt,
            copy,
            begin_lsn,
        })
    }

    /// Performs one unit of checkpoint work: flushes (or copies) at most
    /// one segment, skipping over clean/black segments on the way. See
    /// [`StepOutcome`].
    pub fn step(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
    ) -> Result<StepOutcome> {
        if self.active.is_none() {
            return Err(MmdbError::NoCheckpointInProgress);
        }

        // A pending buffered image blocks everything else: flush it first.
        if self
            .active
            .as_ref()
            .expect("checkpoint active")
            .pending
            .is_some()
        {
            return match self.try_flush_pending(storage, log, backup)? {
                Some(io_words) => {
                    if self.sweep_finished() {
                        self.finish(storage, log, backup, io_words)
                    } else {
                        Ok(StepOutcome::Progress { io_words })
                    }
                }
                None => {
                    self.stats.wal_waits += 1;
                    Ok(StepOutcome::WaitingForLog)
                }
            };
        }

        // Skip forward to the next segment needing work.
        loop {
            if self.sweep_finished() {
                return self.finish(storage, log, backup, 0);
            }
            let sid = self.sweep_current();
            // Examining a segment (dirty bit / paint bit / τ check) costs
            // one instruction of scanning.
            self.meter.scan(1);
            match self.process_segment(storage, log, backup, sid)? {
                SegmentAction::Skipped => {
                    let a = self.active.as_mut().expect("checkpoint active");
                    a.cursor += 1;
                    a.report.segments_skipped += 1;
                    self.stats.segments_skipped += 1;
                    continue;
                }
                SegmentAction::Flushed { io_words } => {
                    let a = self.active.as_mut().expect("checkpoint active");
                    a.cursor += 1;
                    if self.sweep_finished()
                        && self
                            .active
                            .as_ref()
                            .expect("checkpoint active")
                            .pending
                            .is_none()
                    {
                        return self.finish(storage, log, backup, io_words);
                    }
                    return Ok(StepOutcome::Progress { io_words });
                }
                SegmentAction::CopiedPendingWal => {
                    // The segment is processed (copied, and for 2CCOPY
                    // painted black); the image waits for the log.
                    let a = self.active.as_mut().expect("checkpoint active");
                    a.cursor += 1;
                    self.stats.wal_waits += 1;
                    return Ok(StepOutcome::WaitingForLog);
                }
                SegmentAction::WaitingForLog => {
                    // 2CFLUSH under Wait: cursor unchanged, retry later.
                    self.stats.wal_waits += 1;
                    return Ok(StepOutcome::WaitingForLog);
                }
            }
        }
    }

    /// Runs the in-progress checkpoint to completion (convenience for
    /// tests and non-simulated use). Returns the completed report.
    pub fn run_to_completion(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
    ) -> Result<CkptReport> {
        loop {
            match self.step(storage, log, backup)? {
                StepOutcome::Done { .. } => {
                    return Ok(*self.last_report().expect("just completed"));
                }
                StepOutcome::WaitingForLog => {
                    // Nothing else will advance the log in this loop;
                    // force it (charged to the checkpointer) to make
                    // progress.
                    self.stats.log_forces += 1;
                    log.force_charged_to(&self.meter)?;
                }
                StepOutcome::Progress { .. } => {}
            }
        }
    }

    /// Abandons the in-progress checkpoint (crash handling): volatile
    /// checkpointer state is dropped. The target ping-pong copy stays
    /// marked in-progress on disk, which is exactly what makes recovery
    /// choose the other copy.
    pub fn crash(&mut self, storage: &mut Storage) {
        if let Some(active) = self.active.take() {
            // COU old copies live in volatile memory; drop them without
            // cost accounting (the machine is dead).
            let _ = active;
            let silent = CostMeter::new(*self.meter.costs());
            storage.drop_all_old(&silent);
        }
    }

    fn sweep_finished(&self) -> bool {
        let a = self.active.as_ref().expect("active checkpoint");
        match &a.white_list {
            Some(list) => a.cursor as usize >= list.len(),
            None => a.cursor >= a.n_segments,
        }
    }

    /// The segment the sweep will process next.
    fn sweep_current(&self) -> SegmentId {
        let a = self.active.as_ref().expect("active checkpoint");
        match &a.white_list {
            Some(list) => list[a.cursor as usize],
            None => SegmentId(a.cursor),
        }
    }

    fn finish(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        io_words: u64,
    ) -> Result<StepOutcome> {
        let a = self.active.as_ref().expect("active checkpoint");
        let (ckpt, copy) = (a.ckpt, a.copy);

        let old_copies_left = if self.algorithm.is_cou() {
            // Every old copy should have been consumed by the sweep; the
            // COU-lifetime audit checker verifies this in release builds.
            storage.drop_all_old(&self.meter)
        } else {
            0
        };
        debug_assert_eq!(old_copies_left, 0, "COU old copies leaked past the sweep");

        // Log the end marker and force it durable *before* marking the
        // backup copy complete: a complete header must imply that both
        // checkpoint markers are findable in the durable log (§3.3 and
        // its footnote) — otherwise a crash in between would leave
        // recovery with a backup it cannot position the replay for.
        log.append(&LogRecord::EndCheckpoint { ckpt });
        self.stats.log_forces += 1;
        log.force_charged_to(&self.meter)?;
        self.meter.io_op();
        backup.complete_checkpoint(copy, ckpt)?;
        self.audit.emit(|| AuditEvent::CkptCompleted {
            ckpt,
            copy,
            old_copies_left,
        });

        let a = self.active.take().expect("active checkpoint");
        let report = a.report; // io_words of the final flush were already
                               // accumulated by record_flush
        self.stats.completed += 1;
        self.stats.segments_flushed += report.segments_flushed;
        self.stats.old_copies_flushed += report.old_copies_flushed;
        self.stats.io_words += report.io_words;
        self.obs.observe("ckpt.pass_io_words", report.io_words);
        self.obs
            .phase_hist("ckpt.pass", "ckpt.pass_ns", a.timer, ckpt.raw());
        self.last_report = Some(report);
        Ok(StepOutcome::Done { io_words })
    }

    fn record_flush(&mut self, io_words: u64, old_copy: bool) {
        let a = self.active.as_mut().expect("active checkpoint");
        a.report.segments_flushed += 1;
        a.report.io_words += io_words;
        if old_copy {
            a.report.old_copies_flushed += 1;
        }
    }

    /// Attempts to flush the pending buffered image. `Ok(None)` means the
    /// WAL gate is still closed (only under [`WalPolicy::Wait`]).
    fn try_flush_pending(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
    ) -> Result<Option<u64>> {
        let a = self.active.as_mut().expect("active checkpoint");
        let (ckpt, copy) = (a.ckpt, a.copy);
        let p = a.pending.as_ref().expect("pending image");
        let (sid, gate) = (p.sid, p.gate);

        self.meter.lsn_op();
        let open = log.is_durable(gate);
        let durable = log.durable_lsn();
        self.audit.emit(|| AuditEvent::WalGateChecked {
            sid,
            gate,
            durable,
            open,
        });
        if !open {
            match self.wal_policy {
                WalPolicy::Wait => return Ok(None),
                WalPolicy::Force => {
                    self.stats.log_forces += 1;
                    log.force_charged_to(&self.meter)?;
                }
            }
        }
        let pending = self
            .active
            .as_mut()
            .expect("checkpoint active")
            .pending
            .take()
            .expect("pending image");
        self.meter.io_op();
        self.flush_observed(backup, copy, pending.sid, &pending.data)?;
        storage.mark_flushed(pending.sid, copy, pending.version)?;
        let durable = log.durable_lsn();
        self.audit.emit(|| AuditEvent::SegmentFlushed {
            ckpt,
            copy,
            sid,
            image_max_lsn: gate,
            durable,
            from_old_copy: false,
        });
        self.meter.alloc_op(); // free the I/O buffer
        let words = pending.data.len() as u64;
        self.record_flush(words, false);
        Ok(Some(words))
    }

    fn process_segment(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        match self.algorithm {
            Algorithm::FastFuzzy => self.step_fastfuzzy(storage, log, backup, sid),
            Algorithm::FuzzyCopy => self.step_fuzzycopy(storage, log, backup, sid),
            Algorithm::TwoColorFlush => self.step_2cflush(storage, log, backup, sid),
            Algorithm::TwoColorCopy => self.step_2ccopy(storage, log, backup, sid),
            Algorithm::CouFlush | Algorithm::CouCopy | Algorithm::CouAc => {
                self.step_cou(storage, log, backup, sid)
            }
        }
    }

    /// Copies the segment into a freshly allocated I/O buffer (the COPY
    /// variants' memory copy), charging the allocation and the movement.
    fn copy_out(&self, storage: &mut Storage, sid: SegmentId) -> Result<PendingFlush> {
        let cap = storage.capture_copy(sid)?;
        self.meter.alloc_op();
        self.meter.move_words(cap.data.len() as u64);
        Ok(PendingFlush {
            sid,
            data: cap.data,
            version: cap.version,
            gate: cap.max_lsn,
        })
    }

    fn is_included(&self, storage: &Storage, sid: SegmentId, copy: usize) -> Result<bool> {
        let full = self
            .active
            .as_ref()
            .expect("active checkpoint")
            .effective_full;
        Ok(full || storage.is_dirty(sid, copy)?)
    }

    /// FASTFUZZY (§4): flush the live segment in place. No locks, no
    /// copies, no LSNs — sound because the stable tail makes every log
    /// record durable at append time.
    fn step_fastfuzzy(
        &mut self,
        storage: &mut Storage,
        log: &LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        let (ckpt, copy) = {
            let a = self.active.as_ref().expect("checkpoint active");
            (a.ckpt, a.copy)
        };
        if !self.is_included(storage, sid, copy)? {
            return Ok(SegmentAction::Skipped);
        }
        let (version, words, image_max_lsn) = {
            let cap = storage.capture(sid)?;
            self.meter.io_op();
            self.flush_observed(backup, copy, sid, cap.data)?;
            (cap.version, cap.data.len() as u64, cap.max_lsn)
        };
        storage.mark_flushed(sid, copy, version)?;
        let durable = log.durable_lsn();
        self.audit.emit(|| AuditEvent::SegmentFlushed {
            ckpt,
            copy,
            sid,
            image_max_lsn,
            durable,
            from_old_copy: false,
        });
        self.record_flush(words, false);
        Ok(SegmentAction::Flushed { io_words: words })
    }

    /// FUZZYCOPY (§3.1): copy the segment to an I/O buffer, then flush
    /// the buffer once the log is durable past the segment's updates.
    fn step_fuzzycopy(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        let copy = self.active.as_ref().expect("checkpoint active").copy;
        if !self.is_included(storage, sid, copy)? {
            return Ok(SegmentAction::Skipped);
        }
        let pending = self.copy_out(storage, sid)?;
        self.active.as_mut().expect("checkpoint active").pending = Some(pending);
        match self.try_flush_pending(storage, log, backup)? {
            Some(io_words) => Ok(SegmentAction::Flushed { io_words }),
            None => Ok(SegmentAction::CopiedPendingWal),
        }
    }

    /// 2CFLUSH (§3.2.1): lock the white segment across its disk flush
    /// (plus any LSN delay), then paint it black.
    fn step_2cflush(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        let (ckpt, copy) = {
            let a = self.active.as_ref().expect("checkpoint active");
            (a.ckpt, a.copy)
        };
        if storage.color(sid)? == Color::Black {
            return Ok(SegmentAction::Skipped);
        }
        self.meter.lock_op(); // lock (shared)
        let lock_t = self.obs.timer();
        let gate = storage.segment_meta(sid)?.max_lsn;
        self.meter.lsn_op();
        let open = log.is_durable(gate);
        let probe_durable = log.durable_lsn();
        self.audit.emit(|| AuditEvent::WalGateChecked {
            sid,
            gate,
            durable: probe_durable,
            open,
        });
        if !open {
            match self.wal_policy {
                WalPolicy::Wait => {
                    self.meter.lock_op(); // unlock and retry later
                    self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
                    return Ok(SegmentAction::WaitingForLog);
                }
                WalPolicy::Force => {
                    self.stats.log_forces += 1;
                    log.force_charged_to(&self.meter)?;
                }
            }
        }
        let (version, words) = {
            let cap = storage.capture(sid)?;
            self.meter.io_op();
            self.flush_observed(backup, copy, sid, cap.data)?;
            (cap.version, cap.data.len() as u64)
        };
        storage.mark_flushed(sid, copy, version)?;
        storage.paint_black(sid)?;
        self.meter.lock_op(); // unlock
        self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
        let durable = log.durable_lsn();
        self.audit.emit(|| AuditEvent::SegmentFlushed {
            ckpt,
            copy,
            sid,
            image_max_lsn: gate,
            durable,
            from_old_copy: false,
        });
        self.audit.emit(|| AuditEvent::PaintFlipped {
            sid,
            to: PaintColor::Black,
        });
        self.record_flush(words, false);
        Ok(SegmentAction::Flushed { io_words: words })
    }

    /// 2CCOPY (§3.2.1): copy the white segment under lock (so the lock is
    /// held only for the memory copy, not the I/O), paint it black, then
    /// flush the buffer under the LSN gate.
    fn step_2ccopy(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        if storage.color(sid)? == Color::Black {
            return Ok(SegmentAction::Skipped);
        }
        self.meter.lock_op(); // lock (shared)
        let lock_t = self.obs.timer();
        let pending = self.copy_out(storage, sid)?;
        storage.paint_black(sid)?;
        self.meter.lock_op(); // unlock — before the I/O, the whole point
        self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
        self.audit.emit(|| AuditEvent::PaintFlipped {
            sid,
            to: PaintColor::Black,
        });
        self.active.as_mut().expect("checkpoint active").pending = Some(pending);
        match self.try_flush_pending(storage, log, backup)? {
            Some(io_words) => Ok(SegmentAction::Flushed { io_words }),
            None => Ok(SegmentAction::CopiedPendingWal),
        }
    }

    /// COUFLUSH / COUCOPY (§3.2.2, Figure 3.3) and the beyond-paper
    /// COUAC: segments updated since the checkpoint began are flushed
    /// from their transaction-saved old copies; untouched segments are
    /// flushed live (in place for COUFLUSH, via a buffer otherwise).
    ///
    /// The quiesced variants need no LSN gate — every update in their
    /// snapshot predates the begin-checkpoint log force. COUAC does not
    /// quiesce, so a live segment may contain installs whose log records
    /// are still volatile: its live flushes gate like FUZZYCOPY's.
    fn step_cou(
        &mut self,
        storage: &mut Storage,
        log: &mut LogManager,
        backup: &mut dyn BackupStore,
        sid: SegmentId,
    ) -> Result<SegmentAction> {
        let (ckpt, copy, snapshot_version, full) = {
            let a = self.active.as_ref().expect("checkpoint active");
            (a.ckpt, a.copy, a.snapshot_version, a.effective_full)
        };

        // Dirty-bit pre-check, without locking: a segment that is clean
        // with respect to the target copy cannot have been updated since
        // the checkpoint began (an update would have dirtied it), so it
        // has no old copy and nothing to flush. Figure 3.3 locks every
        // CUR_SEG before examining it; skipping clean segments lock-free
        // is a safe refinement that spares partial checkpoints two
        // `C_lock` per clean segment.
        if !full && !storage.is_dirty(sid, copy)? {
            // A clean segment must have no old copy; the COU-lifetime
            // audit checker verifies this in release builds.
            let has_old = storage.has_old(sid)?;
            debug_assert!(!has_old, "clean segment with old copy");
            self.audit
                .emit(|| AuditEvent::CleanSegmentSkipped { sid, has_old });
            return Ok(SegmentAction::Skipped);
        }

        // Figure 3.3 locks CUR_SEG exclusively to examine it.
        self.meter.lock_op();
        let lock_t = self.obs.timer();
        let seg_version = storage.segment_meta(sid)?.version;

        if seg_version > snapshot_version {
            // Updated since the checkpoint began: the snapshot content is
            // in the old copy. Its log records predate the begin force,
            // so no LSN gate.
            let flushed = storage.segment_meta(sid)?.flushed_version[copy & 1];
            let old = storage.take_old(sid, &self.meter)?;
            self.meter.lock_op(); // unlock; the snapshot image is private
            self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
            self.audit.emit(|| AuditEvent::OldCopySwept { sid });
            let (version, image_max_lsn, words) = (old.version, old.max_lsn, old.data.len() as u64);
            if !full && version <= flushed {
                // Old copy predates the last flush to this ping-pong
                // copy: the backup already has this content.
                return Ok(SegmentAction::Skipped);
            }
            self.meter.io_op();
            self.flush_observed(backup, copy, sid, old.data)?;
            self.obs.counter("ckpt.old_copy_flush_words", words);
            storage.mark_flushed(sid, copy, version)?;
            let durable = log.durable_lsn();
            self.audit.emit(|| AuditEvent::SegmentFlushed {
                ckpt,
                copy,
                sid,
                image_max_lsn,
                durable,
                from_old_copy: true,
            });
            self.record_flush(words, true);
            return Ok(SegmentAction::Flushed { io_words: words });
        }

        // Untouched since the checkpoint began (and dirty, per the
        // pre-check): live content *is* the snapshot content.
        match self.algorithm {
            Algorithm::CouFlush => {
                // Hold the lock across the flush.
                let (version, words, image_max_lsn) = {
                    let cap = storage.capture(sid)?;
                    self.meter.io_op();
                    self.flush_observed(backup, copy, sid, cap.data)?;
                    (cap.version, cap.data.len() as u64, cap.max_lsn)
                };
                storage.mark_flushed(sid, copy, version)?;
                self.meter.lock_op(); // unlock
                self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
                let durable = log.durable_lsn();
                self.audit.emit(|| AuditEvent::SegmentFlushed {
                    ckpt,
                    copy,
                    sid,
                    image_max_lsn,
                    durable,
                    from_old_copy: false,
                });
                self.record_flush(words, false);
                Ok(SegmentAction::Flushed { io_words: words })
            }
            Algorithm::CouCopy => {
                // Copy under lock, flush unlocked.
                let buf = self.copy_out(storage, sid)?;
                self.meter.lock_op(); // unlock
                self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
                self.meter.io_op();
                self.flush_observed(backup, copy, sid, &buf.data)?;
                storage.mark_flushed(sid, copy, buf.version)?;
                self.meter.alloc_op(); // free the buffer
                let durable = log.durable_lsn();
                self.audit.emit(|| AuditEvent::SegmentFlushed {
                    ckpt,
                    copy,
                    sid,
                    image_max_lsn: buf.gate,
                    durable,
                    from_old_copy: false,
                });
                let words = buf.data.len() as u64;
                self.record_flush(words, false);
                Ok(SegmentAction::Flushed { io_words: words })
            }
            Algorithm::CouAc => {
                // Copy under lock, then flush through the WAL gate: the
                // live content may include post-begin installs whose log
                // records are not yet durable.
                let pending = self.copy_out(storage, sid)?;
                self.meter.lock_op(); // unlock before the I/O
                self.obs.observe_timer("ckpt.lock_hold_ns", lock_t);
                self.active.as_mut().expect("checkpoint active").pending = Some(pending);
                match self.try_flush_pending(storage, log, backup)? {
                    Some(io_words) => Ok(SegmentAction::Flushed { io_words }),
                    None => Ok(SegmentAction::CopiedPendingWal),
                }
            }
            _ => unreachable!("step_cou dispatched for non-COU algorithm"),
        }
    }
}

#[derive(Debug)]
enum SegmentAction {
    Skipped,
    Flushed {
        io_words: u64,
    },
    /// Copied and processed, but the buffered image awaits the log.
    CopiedPendingWal,
    /// Nothing processed; retry the same segment later (2CFLUSH + Wait).
    WaitingForLog,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_disk::{BackupStore, CopyStatus, MemBackup};
    use mmdb_log::{LogManager, MemLogDevice};
    use mmdb_storage::Storage;
    use mmdb_types::{CostCategory, CostParams, LogMode, Params};

    struct Rig {
        storage: Storage,
        log: LogManager,
        backup: MemBackup,
        ckpt: Checkpointer,
        sync_meter: CostMeter,
        next_tau: u64,
    }

    fn rig(algorithm: Algorithm, mode: CkptMode, log_mode: LogMode, policy: WalPolicy) -> Rig {
        let p = Params::small();
        Rig {
            storage: Storage::new(p.db).unwrap(),
            log: LogManager::new(
                Box::new(MemLogDevice::new()),
                log_mode,
                CostMeter::shared(CostParams::default()),
            ),
            backup: MemBackup::new(p.db),
            ckpt: Checkpointer::new(
                algorithm,
                mode,
                policy,
                CostMeter::shared(CostParams::default()),
            ),
            sync_meter: CostMeter::new(CostParams::default()),
            next_tau: 0,
        }
    }

    impl Rig {
        fn tau(&mut self) -> Timestamp {
            self.next_tau += 1;
            Timestamp(self.next_tau)
        }

        /// Writes one record through the full protocol: log the update,
        /// run the COU hook, install.
        fn write_record(&mut self, rid: u64, fill: u32) {
            let tau = self.tau();
            let s_rec = self.storage.db_params().s_rec as usize;
            let value = vec![fill; s_rec];
            let rec = LogRecord::Update {
                txn: TxnId(tau.raw()),
                record: RecordId(rid),
                value: value.clone(),
            };
            self.log.append(&rec);
            let end_lsn = self.log.next_lsn();
            self.ckpt
                .on_before_install(&mut self.storage, RecordId(rid), &self.sync_meter)
                .unwrap();
            self.storage
                .install_record(RecordId(rid), &value, end_lsn, tau, &self.sync_meter)
                .unwrap();
        }

        fn begin(&mut self) -> BeginReport {
            let tau = self.tau();
            self.ckpt
                .begin(&mut self.storage, &mut self.log, &mut self.backup, &[], tau)
                .unwrap()
        }

        fn run(&mut self) -> CkptReport {
            self.ckpt
                .run_to_completion(&mut self.storage, &mut self.log, &mut self.backup)
                .unwrap()
        }

        fn checkpoint(&mut self) -> CkptReport {
            self.begin();
            self.run()
        }

        /// Seeds both ping-pong copies (two checkpoints, escalated to
        /// full automatically) so that later checkpoints are genuinely
        /// partial.
        fn seed(&mut self) {
            self.checkpoint();
            self.checkpoint();
        }

        fn read_back(&mut self, copy: usize, sid: u32) -> Vec<u32> {
            let mut buf = vec![0u32; self.storage.db_params().s_seg as usize];
            self.backup
                .read_segment(copy, SegmentId(sid), &mut buf)
                .unwrap();
            buf
        }
    }

    fn all_sound(log_mode: LogMode) -> Vec<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .filter(|a| a.sound_under(log_mode))
            .collect()
    }

    #[test]
    fn full_checkpoint_copies_whole_database_every_algorithm() {
        for log_mode in [LogMode::VolatileTail, LogMode::StableTail] {
            for alg in all_sound(log_mode) {
                let mut r = rig(alg, CkptMode::Full, log_mode, WalPolicy::Force);
                r.write_record(10, 0xAA);
                r.write_record(700, 0xBB);
                let report = r.checkpoint();
                assert_eq!(
                    report.segments_flushed, 32,
                    "{alg}: full checkpoint flushes all segments"
                );
                assert_eq!(report.segments_skipped, 0, "{alg}");
                assert_eq!(
                    r.backup.copy_status(1).unwrap(),
                    CopyStatus::Complete(CheckpointId(1)),
                    "{alg}: first checkpoint goes to copy 1"
                );
                // backup content equals live content for every segment
                for sid in 0..32 {
                    assert_eq!(
                        r.read_back(1, sid),
                        r.storage.segment_data(SegmentId(sid)).unwrap(),
                        "{alg}: segment {sid}"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_checkpoint_flushes_only_dirty() {
        for log_mode in [LogMode::VolatileTail, LogMode::StableTail] {
            for alg in all_sound(log_mode) {
                let mut r = rig(alg, CkptMode::Partial, log_mode, WalPolicy::Force);
                r.seed();
                r.write_record(0, 1); // segment 0
                r.write_record(64, 2); // segment 1
                r.write_record(65, 3); // segment 1 again
                let report = r.checkpoint();
                assert_eq!(report.segments_flushed, 2, "{alg}");
                // the two-color sweep visits only the white list, so it
                // never sees (or "skips") the clean segments
                let expect_skipped = if alg.is_two_color() { 0 } else { 30 };
                assert_eq!(report.segments_skipped, expect_skipped, "{alg}");
            }
        }
    }

    #[test]
    fn pingpong_alternates_and_tracks_dirtiness_per_copy() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.seed(); // ckpts 1 and 2 seed both copies (escalated to full)
        r.write_record(0, 1);
        let rep3 = r.checkpoint(); // ckpt 3 → copy 1
        assert_eq!(rep3.copy, 1);
        assert_eq!(rep3.segments_flushed, 1);

        // No new writes: ckpt 4 → copy 0, which has not seen segment 0's
        // update yet
        let rep4 = r.checkpoint();
        assert_eq!(rep4.copy, 0);
        assert_eq!(rep4.segments_flushed, 1, "copy 0 still needs segment 0");

        // Still no new writes: ckpt 5 → copy 1, already has everything
        let rep5 = r.checkpoint();
        assert_eq!(rep5.copy, 1);
        assert_eq!(rep5.segments_flushed, 0);
        assert_eq!(rep5.segments_skipped, 32);
    }

    #[test]
    fn begin_twice_fails() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.begin();
        let tau = r.tau();
        let err = r
            .ckpt
            .begin(&mut r.storage, &mut r.log, &mut r.backup, &[], tau)
            .unwrap_err();
        assert!(matches!(err, MmdbError::CheckpointInProgress));
    }

    #[test]
    fn step_without_begin_fails() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        let err = r
            .ckpt
            .step(&mut r.storage, &mut r.log, &mut r.backup)
            .unwrap_err();
        assert!(matches!(err, MmdbError::NoCheckpointInProgress));
    }

    #[test]
    fn fastfuzzy_rejected_without_stable_tail() {
        let mut r = rig(
            Algorithm::FastFuzzy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        let tau = r.tau();
        let err = r
            .ckpt
            .begin(&mut r.storage, &mut r.log, &mut r.backup, &[], tau)
            .unwrap_err();
        assert!(matches!(err, MmdbError::UnsoundConfiguration(_)));
    }

    #[test]
    fn cou_rejects_non_quiescent_begin() {
        let mut r = rig(
            Algorithm::CouCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        let tau = r.tau();
        let err = r
            .ckpt
            .begin(&mut r.storage, &mut r.log, &mut r.backup, &[TxnId(1)], tau)
            .unwrap_err();
        assert!(matches!(err, MmdbError::Invalid(_)));
    }

    #[test]
    fn wal_gate_blocks_fuzzycopy_under_wait_policy() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Wait,
        );
        r.write_record(0, 7); // log record sits in the volatile tail
        r.begin();
        // first step copies the segment but cannot flush: log not durable
        let out = r
            .ckpt
            .step(&mut r.storage, &mut r.log, &mut r.backup)
            .unwrap();
        assert_eq!(out, StepOutcome::WaitingForLog);
        // a commit-style force unblocks it
        r.log.force().unwrap();
        let out = r
            .ckpt
            .step(&mut r.storage, &mut r.log, &mut r.backup)
            .unwrap();
        assert!(matches!(out, StepOutcome::Progress { io_words: 2048 }));
        assert!(r.ckpt.stats().wal_waits >= 1);
    }

    #[test]
    fn wal_gate_forces_under_force_policy() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.seed();
        r.write_record(0, 7);
        r.begin();
        let report = r.run();
        assert_eq!(report.segments_flushed, 1);
        assert!(r.ckpt.stats().log_forces >= 1);
        // the flushed image matches the updated content
        assert_eq!(r.read_back(1, 0)[0], 7);
    }

    #[test]
    fn two_color_paints_dirty_white_and_sweeps_black() {
        let mut r = rig(
            Algorithm::TwoColorCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.seed();
        r.write_record(0, 1);
        r.write_record(300, 2); // segment 4
        r.begin();
        assert_eq!(r.storage.white_count(), 2);
        assert_eq!(r.storage.color(SegmentId(0)).unwrap(), Color::White);
        assert_eq!(r.storage.color(SegmentId(1)).unwrap(), Color::Black);
        r.run();
        assert_eq!(r.storage.white_count(), 0, "all white segments processed");
    }

    #[test]
    fn cou_snapshot_is_preserved_against_concurrent_updates() {
        for alg in [Algorithm::CouFlush, Algorithm::CouCopy] {
            let mut r = rig(
                alg,
                CkptMode::Partial,
                LogMode::VolatileTail,
                WalPolicy::Force,
            );
            // Pre-checkpoint state: record 0 (seg 0) = 5, record 2000 (seg 31) = 6.
            r.write_record(0, 5);
            r.write_record(2000, 6);
            let snap_seg0 = r.storage.segment_data(SegmentId(0)).unwrap().to_vec();
            let snap_seg31 = r.storage.segment_data(SegmentId(31)).unwrap().to_vec();

            r.begin();
            // Concurrent updates touch both segments before they are swept.
            r.write_record(1, 99); // seg 0: not yet swept → old copy saved
            assert!(r.storage.has_old(SegmentId(0)).unwrap(), "{alg}");
            r.write_record(2001, 98); // seg 31
            assert!(r.storage.has_old(SegmentId(31)).unwrap(), "{alg}");

            let report = r.run();
            assert_eq!(report.old_copies_flushed, 2, "{alg}");
            // The backup holds the *snapshot* content, not the concurrent updates.
            assert_eq!(r.read_back(1, 0), snap_seg0, "{alg}: segment 0 snapshot");
            assert_eq!(r.read_back(1, 31), snap_seg31, "{alg}: segment 31 snapshot");
            // And no old copies linger.
            assert_eq!(r.storage.old_copy_words(), 0, "{alg}");
        }
    }

    #[test]
    fn cou_update_behind_cursor_does_not_copy() {
        let mut r = rig(
            Algorithm::CouCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.begin();
        // Sweep past segment 0.
        loop {
            let out = r
                .ckpt
                .step(&mut r.storage, &mut r.log, &mut r.backup)
                .unwrap();
            assert!(!matches!(out, StepOutcome::Done { .. }), "too fast");
            if r.ckpt.cursor().unwrap() > SegmentId(0) {
                break;
            }
        }
        // An update to the already-swept segment 0 must NOT save an old copy.
        r.write_record(0, 42);
        assert!(!r.storage.has_old(SegmentId(0)).unwrap());
        // But an update ahead of the cursor must.
        r.write_record(2000, 43);
        assert!(r.storage.has_old(SegmentId(31)).unwrap());
        r.run();
    }

    #[test]
    fn cou_second_update_to_same_segment_copies_once() {
        let mut r = rig(
            Algorithm::CouCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.write_record(2000, 1);
        r.begin();
        r.write_record(2000, 2);
        r.write_record(2001, 3); // same segment 31
        assert!(r.storage.has_old(SegmentId(31)).unwrap());
        let report = r.run();
        assert_eq!(report.old_copies_flushed, 1);
        // backup holds the snapshot value 1, not 2 or 3
        assert_eq!(r.read_back(1, 31)[512], 1);
    }

    #[test]
    fn cou_old_copy_of_clean_segment_is_skipped_for_partial() {
        // A segment that was clean w.r.t. the target copy at begin but is
        // updated mid-checkpoint: the old copy exists but matches what the
        // backup already has, so a partial checkpoint skips the flush.
        let mut r = rig(
            Algorithm::CouCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.write_record(2000, 1);
        r.checkpoint(); // ckpt 1 → copy 1: segment 31 flushed with value 1
        r.checkpoint(); // ckpt 2 → copy 0: segment 31 flushed with value 1

        // ckpt 3 → copy 1. Segment 31 is clean w.r.t. copy 1.
        r.begin();
        r.write_record(2000, 2); // updated mid-checkpoint → old copy saved
        let report = r.run();
        assert_eq!(
            report.old_copies_flushed, 0,
            "snapshot content already in copy 1"
        );
        assert_eq!(r.read_back(1, 31)[512], 1);
        // The live update (value 2) is still dirty for the *next* checkpoint.
        let rep4 = r.checkpoint(); // ckpt 4 → copy 0
        assert_eq!(rep4.segments_flushed, 1);
        assert_eq!(r.read_back(0, 31)[512], 2);
    }

    #[test]
    fn cost_accounting_2cflush_vs_2ccopy() {
        // 2CCOPY pays alloc + segment move that 2CFLUSH does not; both pay
        // two lock ops, one LSN check and one I/O per flushed segment.
        let run = |alg: Algorithm| -> mmdb_types::CostBreakdown {
            let mut r = rig(alg, CkptMode::Full, LogMode::VolatileTail, WalPolicy::Force);
            r.checkpoint();
            r.ckpt.meter.snapshot()
        };
        let flush = run(Algorithm::TwoColorFlush);
        let copy = run(Algorithm::TwoColorCopy);
        assert_eq!(flush.get(CostCategory::Move), 0, "2CFLUSH never copies");
        assert_eq!(
            copy.get(CostCategory::Move),
            32 * 2048,
            "2CCOPY copies every segment"
        );
        assert_eq!(flush.get(CostCategory::Io), copy.get(CostCategory::Io));
        assert_eq!(flush.get(CostCategory::Lock), copy.get(CostCategory::Lock));
        assert!(copy.total() > flush.total());
    }

    #[test]
    fn fastfuzzy_is_cheapest() {
        let mut costs = Vec::new();
        for alg in all_sound(LogMode::StableTail) {
            let mut r = rig(alg, CkptMode::Full, LogMode::StableTail, WalPolicy::Force);
            r.checkpoint();
            costs.push((alg, r.ckpt.meter.total()));
        }
        let fast = costs
            .iter()
            .find(|(a, _)| *a == Algorithm::FastFuzzy)
            .unwrap()
            .1;
        for (alg, cost) in &costs {
            assert!(
                fast <= *cost,
                "FASTFUZZY ({fast}) should not cost more than {alg} ({cost})"
            );
        }
    }

    #[test]
    fn crash_abandons_checkpoint_and_drops_old_copies() {
        let mut r = rig(
            Algorithm::CouCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.write_record(2000, 1);
        r.begin();
        r.write_record(2000, 2);
        assert!(r.storage.old_copy_words() > 0);
        r.ckpt.crash(&mut r.storage);
        assert!(!r.ckpt.is_active());
        assert_eq!(r.storage.old_copy_words(), 0);
        // the torn checkpoint's copy is still marked in-progress
        assert_eq!(
            r.backup.copy_status(1).unwrap(),
            CopyStatus::InProgress(CheckpointId(1))
        );
        assert!(r.backup.recovery_copy().is_err(), "no complete backup yet");
    }

    #[test]
    fn end_marker_and_header_agree() {
        let mut r = rig(
            Algorithm::FuzzyCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.checkpoint();
        r.checkpoint();
        // backup headers: ckpt 1 on copy 1, ckpt 2 on copy 0
        assert_eq!(r.backup.recovery_copy().unwrap(), (0, CheckpointId(2)));
        // the log contains matching begin/end markers
        let scanner = mmdb_log::LogScanner::from_device(r.log.device_mut()).unwrap();
        let mark = scanner.last_complete_checkpoint().unwrap();
        assert_eq!(mark.ckpt, CheckpointId(2));
    }

    #[test]
    fn two_color_begin_records_active_transactions() {
        let mut r = rig(
            Algorithm::TwoColorCopy,
            CkptMode::Full,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        let tau = r.tau();
        r.ckpt
            .begin(
                &mut r.storage,
                &mut r.log,
                &mut r.backup,
                &[TxnId(7), TxnId(9)],
                tau,
            )
            .unwrap();
        r.run();
        let scanner = mmdb_log::LogScanner::from_device(r.log.device_mut()).unwrap();
        let mark = scanner.last_complete_checkpoint().unwrap();
        assert_eq!(mark.active, vec![TxnId(7), TxnId(9)]);
    }

    #[test]
    fn reports_accumulate_into_stats() {
        let mut r = rig(
            Algorithm::FastFuzzy,
            CkptMode::Partial,
            LogMode::StableTail,
            WalPolicy::Force,
        );
        r.seed(); // ckpts 1+2: full, 32 segments each
        r.write_record(0, 1);
        r.checkpoint(); // ckpt 3: seg 0 → copy 1
        r.write_record(64, 2);
        r.checkpoint(); // ckpt 4: segs 0 and 1 → copy 0
        let s = r.ckpt.stats();
        assert_eq!(s.completed, 4);
        assert_eq!(s.segments_flushed, 64 + 1 + 2);
        assert_eq!(s.io_words, 67 * 2048);
        assert_eq!(r.ckpt.last_report().unwrap().ckpt, CheckpointId(4));
    }
    #[test]
    fn couac_begins_with_active_transactions_listed() {
        let mut r = rig(
            Algorithm::CouAc,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.write_record(0, 1);
        let tau = r.tau();
        // unlike COUCOPY/COUFLUSH, begin succeeds with active txns...
        r.ckpt
            .begin(
                &mut r.storage,
                &mut r.log,
                &mut r.backup,
                &[TxnId(41), TxnId(42)],
                tau,
            )
            .unwrap();
        r.run();
        // ...and the marker records them for recovery's replay window
        let scanner = mmdb_log::LogScanner::from_device(r.log.device_mut()).unwrap();
        let mark = scanner.last_complete_checkpoint().unwrap();
        assert_eq!(mark.active, vec![TxnId(41), TxnId(42)]);
    }

    #[test]
    fn couac_snapshot_preserved_and_gated() {
        let mut r = rig(
            Algorithm::CouAc,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Wait,
        );
        r.write_record(0, 5);
        r.log.force().unwrap();
        r.begin();
        // under Wait policy, the live flush of segment 0 must gate on the
        // log if an unflushed update lands first... here the log is
        // durable, so the first step flushes.
        let out = r
            .ckpt
            .step(&mut r.storage, &mut r.log, &mut r.backup)
            .unwrap();
        assert!(matches!(
            out,
            StepOutcome::Progress { io_words: 2048 } | StepOutcome::Done { io_words: 2048 }
        ));

        // a post-begin update to a not-yet-swept segment saves an old copy
        r.write_record(2000, 7); // segment 31
        assert!(r.storage.has_old(SegmentId(31)).unwrap());
        r.run();
        assert_eq!(r.storage.old_copy_words(), 0);
    }

    #[test]
    fn couac_gate_is_open_after_the_begin_force() {
        // COUAC checks the WAL gate on live flushes, but in this engine
        // the gate never actually closes: the begin-checkpoint log force
        // covers every pre-begin update, and post-begin installs are
        // intercepted by the COU hook (the sweep then writes the old
        // copy, not the live content). The gate check remains as a
        // safety net — and a metered cost — for engines whose installs
        // could bypass the hook.
        let mut r = rig(
            Algorithm::CouAc,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Wait,
        );
        // seed so later checkpoints are genuinely partial
        r.checkpoint();
        r.checkpoint();
        // an update whose log record stays in the volatile tail
        r.write_record(0, 9);
        // (no explicit force: the checkpoint begin performs one)
        r.begin();
        assert!(
            r.log.is_durable(r.log.next_lsn()),
            "the begin force made the tail durable"
        );
        let out = r
            .ckpt
            .step(&mut r.storage, &mut r.log, &mut r.backup)
            .unwrap();
        assert!(
            matches!(out, StepOutcome::Progress { io_words: 2048 }),
            "gate open → the live flush proceeds: {out:?}"
        );
        r.run();
        assert_eq!(r.read_back(1, 0)[0], 9);
    }

    #[test]
    fn two_color_white_list_freezes_at_begin() {
        let mut r = rig(
            Algorithm::TwoColorCopy,
            CkptMode::Partial,
            LogMode::VolatileTail,
            WalPolicy::Force,
        );
        r.seed();
        r.write_record(0, 1); // segment 0 dirty at begin
        r.begin();
        assert_eq!(r.storage.white_count(), 1);
        // a segment dirtied AFTER begin stays black and is NOT flushed by
        // this checkpoint (flipping it white would break the color
        // serialization argument)
        r.write_record(2000, 2); // segment 31
        assert_eq!(r.storage.color(SegmentId(31)).unwrap(), Color::Black);
        let report = r.run();
        assert_eq!(report.segments_flushed, 1, "only the frozen white set");
        // the next checkpoint picks it up
        let report = r.checkpoint();
        assert!(report.segments_flushed >= 1);
    }

    #[test]
    fn effective_full_only_escalates_unseeded_copies() {
        let mut r = rig(
            Algorithm::FastFuzzy,
            CkptMode::Partial,
            LogMode::StableTail,
            WalPolicy::Force,
        );
        // ckpt 1 (copy 1): empty copy → escalated to full
        let rep = r.checkpoint();
        assert_eq!(rep.segments_flushed, 32);
        // ckpt 2 (copy 0): also empty → full
        let rep = r.checkpoint();
        assert_eq!(rep.segments_flushed, 32);
        // ckpt 3 (copy 1, seeded): genuinely partial
        let rep = r.checkpoint();
        assert_eq!(rep.segments_flushed, 0);
    }
}
