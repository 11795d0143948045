//! The log manager: a volatile (or stable) in-memory tail in front of a
//! durable log device.
//!
//! Records are appended to the tail and become durable when the tail is
//! *forced* to the device — except in [`LogMode::StableTail`] mode, where
//! the tail lives in stable RAM and records are durable the moment they
//! are appended (paper §4). The distinction is exactly what separates
//! `FASTFUZZY` from the LSN-gated algorithms: with a volatile tail, a
//! segment image may only be flushed once the log is durable past every
//! update the image contains.

use crate::device::LogDevice;
use crate::record::{LogRecord, TxnFrame, MAX_TXN_FRAME_BYTES};
use crate::watermark::DurableWatermark;
use mmdb_audit::{Audit, AuditEvent};
use mmdb_obs::{Obs, Timer};
use mmdb_types::{
    CostMeter, LogMode, Lsn, MmdbError, RecordId, Result, SharedCostMeter, TxnId, Word,
};
use std::sync::Arc;

/// Statistics maintained by the log manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended since creation.
    pub records: u64,
    /// Bytes appended since creation.
    pub bytes: u64,
    /// Forces (tail flushes) performed.
    pub forces: u64,
    /// Bytes lost by the most recent crash (volatile tail discarded).
    pub lost_on_crash: u64,
}

/// The log manager. See the module docs.
pub struct LogManager {
    device: Box<dyn LogDevice>,
    tail: Vec<u8>,
    /// LSN of the first byte of the tail (== durable device length).
    tail_start: Lsn,
    mode: LogMode,
    meter: SharedCostMeter,
    stats: LogStats,
    /// Auto-force when the tail grows past this many bytes (group
    /// commit's backstop: bounds both tail memory and the window of
    /// commits a crash can lose on an engine that commits without
    /// forcing and nobody waits on).
    tail_threshold: Option<u64>,
    /// Modeled log-device latency added to every non-empty force,
    /// standing in for the paper-era rotational log disk (see
    /// [`LogManager::set_force_latency`]).
    force_latency: Option<std::time::Duration>,
    /// Shared durable-LSN watermark: published after every force so group
    /// committers parked outside the engine lock can ack (see
    /// [`DurableWatermark`]).
    watermark: Arc<DurableWatermark>,
    /// A tail-threshold force failure recorded inside [`append`]
    /// (which cannot return `Err`); surfaced by the next explicit force.
    sticky_error: Option<String>,
    /// Commit and `TxnCommit` records currently sitting in the tail — the
    /// group size of the next force.
    commits_in_tail: u64,
    audit: Audit,
    obs: Obs,
}

/// A force whose device write already happened but whose completion —
/// the modeled-latency sleep, the `log.force` span, and the watermark
/// publish — has not. [`LogManager::force_group`] returns one so the
/// flusher can drop the engine lock before sleeping and publishing;
/// inline forces complete it immediately.
#[must_use = "completing the force publishes the watermark that releases group committers"]
pub struct PendingForce {
    durable: Lsn,
    latency: Option<std::time::Duration>,
    commits: u64,
    bytes: u64,
    watermark: Arc<DurableWatermark>,
    obs: Obs,
    timer: Timer,
}

impl PendingForce {
    /// The durable LSN this force established.
    pub fn durable(&self) -> Lsn {
        self.durable
    }

    /// Commit records covered by this force (the group size).
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Tail bytes this force moved to the device.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Finishes the force: sleeps any modeled device latency, ends the
    /// `log.force` span, and publishes the watermark (waking waiters).
    /// Call this *outside* the engine lock on the group-commit path.
    pub fn complete(self) {
        if let Some(latency) = self.latency {
            std::thread::sleep(latency);
        }
        self.obs
            .phase_hist("log.force", "log.force_ns", self.timer, self.bytes);
        self.watermark.advance(self.durable);
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("tail_start", &self.tail_start)
            .field("tail_len", &self.tail.len())
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .finish()
    }
}

impl LogManager {
    /// A log manager over `device`. `meter` is the *logging* cost meter:
    /// the paper excludes base logging costs from checkpointing overhead
    /// (§4: "we do not include the other recovery costs, such as data
    /// movement for the creation of the log"), so the engine gives the
    /// log manager its own meter, separate from the checkpointing meters.
    pub fn new(device: Box<dyn LogDevice>, mode: LogMode, meter: SharedCostMeter) -> LogManager {
        let tail_start = Lsn(device.len());
        // the tail is empty at construction, so the durable LSN is
        // tail_start in either mode
        let durable = tail_start;
        LogManager {
            device,
            tail: Vec::new(),
            tail_start,
            mode,
            meter,
            stats: LogStats::default(),
            tail_threshold: None,
            force_latency: None,
            watermark: Arc::new(DurableWatermark::new(durable)),
            sticky_error: None,
            commits_in_tail: 0,
            audit: Audit::disabled(),
            obs: Obs::disabled(),
        }
    }

    /// Reads durable log bytes starting at `from`, cut back to the last
    /// whole record frame, returning at most `max_bytes` raw bytes — or
    /// the one frame at `from`, whole, when that frame alone is longer
    /// and within [`MAX_TXN_FRAME_BYTES`] (a transaction is one frame
    /// however large; a cut one would never ship). The one frame that can
    /// be longer than that bound is a `Compacted` filler an older
    /// compactor coalesced from more than 6 MiB of superseded frames (the
    /// compactor now splits such a run): it cannot cross the wire either,
    /// and a window short of it still reads empty. Returns the device end
    /// the read was cut against with the bytes: the replication
    /// shipper's only read path. Fails if `from` has been truncated away
    /// (the reader must re-seed); empty at or past the device end.
    pub fn read_range_aligned(&mut self, from: Lsn, max_bytes: usize) -> Result<(Lsn, Vec<u8>)> {
        let start = self.start_lsn();
        if from < start {
            return Err(MmdbError::Invalid(format!(
                "log position {} already truncated (log starts at {})",
                from.raw(),
                start.raw()
            )));
        }
        let durable = self.tail_start;
        if from >= durable {
            return Ok((durable, Vec::new()));
        }
        let available = (durable.raw() - from.raw()) as usize;
        let mut buf = vec![0u8; available.min(max_bytes.max(4))];
        self.device.read_at(from.raw(), &mut buf)?;
        let first = LogRecord::declared_len(&buf).unwrap_or(0);
        if first > buf.len() && first <= available.min(MAX_TXN_FRAME_BYTES) {
            buf.resize(first, 0);
            self.device.read_at(from.raw(), &mut buf)?;
        }
        // cut back to whole frames so the receiver never sees a torn record
        let mut end = 0;
        while end < buf.len() {
            match LogRecord::decode(&buf[end..]) {
                Ok((_, used)) => end += used,
                Err(_) => break,
            }
        }
        buf.truncate(end);
        Ok((durable, buf))
    }

    /// The shared durable-LSN watermark. Group committers clone this
    /// handle, append their commit record, release the engine lock, and
    /// wait here for the flusher's next force to cover their LSN.
    pub fn watermark(&self) -> Arc<DurableWatermark> {
        Arc::clone(&self.watermark)
    }

    /// Models a slow log device: every force or drain that actually
    /// moves tail bytes to the device additionally sleeps for `latency`.
    /// The paper's evaluation parameterizes I/O costs instead of timing
    /// real hardware; this is the wall-clock counterpart for studying
    /// commit serialization (the device write happens inside the
    /// engine's critical section, so its latency bounds single-log
    /// commit throughput). `None` (the default) adds nothing; empty
    /// forces never touch the modeled device.
    pub fn set_force_latency(&mut self, latency: Option<std::time::Duration>) {
        self.force_latency = latency;
    }

    /// Routes protocol events (durable-horizon advances) to `audit`.
    pub fn set_audit(&mut self, audit: Audit) {
        self.audit = audit;
    }

    /// Routes telemetry (force latency, truncations) to `obs`, and points
    /// the watermark lock's contention counters at the same registry.
    pub fn set_obs(&mut self, obs: Obs) {
        if let Some(sink) = obs.contention_sink() {
            self.watermark.set_sink(sink);
        }
        self.obs = obs;
    }

    /// Bounds the volatile tail: once an append pushes it past
    /// `bytes`, the tail is forced to the device (charged to the logging
    /// meter, like any routine force). `None` disables the bound.
    pub fn set_tail_threshold(&mut self, bytes: Option<u64>) {
        self.tail_threshold = bytes;
    }

    /// The log-tail mode.
    pub fn mode(&self) -> LogMode {
        self.mode
    }

    /// LSN that the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.tail_start.advance(self.tail.len() as u64)
    }

    /// The LSN up to which the log is durable. Appends at or past this
    /// LSN would be lost by a crash (volatile tail) — with a stable tail,
    /// everything appended is durable.
    pub fn durable_lsn(&self) -> Lsn {
        match self.mode {
            LogMode::VolatileTail => self.tail_start,
            LogMode::StableTail => self.next_lsn(),
        }
    }

    /// Is the log durable through `lsn` (exclusive)? This is the WAL gate
    /// the LSN-using checkpointers check before flushing a segment image.
    pub fn is_durable(&self, lsn: Lsn) -> bool {
        self.durable_lsn() >= lsn
    }

    /// Appends a record to the tail, returning its LSN. Charges the data
    /// movement of copying the record into the tail to the logging meter.
    /// If a tail threshold is set and exceeded, the tail is forced; a
    /// failure of that force is recorded as a *sticky* error surfaced by
    /// the next explicit force or commit — never silently dropped (the
    /// device keeps its durable length consistent either way).
    pub fn append(&mut self, rec: &LogRecord) -> Lsn {
        let commit = matches!(
            rec,
            LogRecord::Commit { .. } | LogRecord::TxnCommit { .. } | LogRecord::TxnDecide { .. }
        );
        self.append_frame(commit, |tail| rec.encode_into(tail))
    }

    /// [`append`](Self::append) of the `kind` frame of `txn`, encoded
    /// straight from the transaction's staged images.
    pub fn append_txn<'a>(
        &mut self,
        txn: TxnId,
        kind: TxnFrame,
        writes: impl ExactSizeIterator<Item = (RecordId, &'a [Word])> + Clone,
    ) -> Lsn {
        self.append_frame(kind.commits(), |tail| {
            LogRecord::encode_txn(txn, kind, writes, tail)
        })
    }

    fn append_frame(&mut self, commit: bool, encode: impl FnOnce(&mut Vec<u8>)) -> Lsn {
        let lsn = self.next_lsn();
        let before = self.tail.len();
        encode(&mut self.tail);
        let len = (self.tail.len() - before) as u64;
        self.meter.move_words(len.div_ceil(4));
        self.stats.records += 1;
        self.stats.bytes += len;
        self.commits_in_tail += u64::from(commit);
        if let Some(limit) = self.tail_threshold {
            if self.tail.len() as u64 >= limit {
                if let Err(e) = self.force() {
                    self.sticky_error = Some(format!("deferred tail-threshold force: {e}"));
                    self.obs.counter("log.deferred_force_errors", 1);
                }
            }
        }
        lsn
    }

    /// Rethrows a tail-threshold force failure recorded by
    /// [`append`](Self::append), exactly once.
    fn take_sticky(&mut self) -> Result<()> {
        match self.sticky_error.take() {
            Some(msg) => Err(MmdbError::Io(std::io::Error::other(msg))),
            None => Ok(()),
        }
    }

    /// Appends a record and forces the tail (commit with synchronous
    /// durability).
    pub fn append_forced(&mut self, rec: &LogRecord) -> Result<Lsn> {
        let lsn = self.append(rec);
        self.force()?;
        Ok(lsn)
    }

    /// Forces the tail to the device: everything appended so far becomes
    /// durable. Charges one I/O initiation (to the logging meter) when
    /// there is anything to flush. With a stable tail the contents are
    /// already durable (battery-backed RAM), so nothing is charged — but
    /// the tail is still drained to the device, which stands in for the
    /// stable RAM across process restarts.
    pub fn force(&mut self) -> Result<()> {
        if self.mode == LogMode::StableTail {
            return self.drain_stable_tail();
        }
        if let Some(pending) = self.flush_tail_begin(true)? {
            pending.complete();
        }
        Ok(())
    }

    /// The group-commit force: flushes the tail to the device but defers
    /// the completion (modeled latency + watermark publish) to the
    /// returned [`PendingForce`], which the flusher completes *after*
    /// releasing the engine lock. `Ok(None)` means there was nothing to
    /// flush (the watermark is published anyway, so a waiter whose LSN is
    /// already durable never strands). With a stable tail, appends are
    /// durable immediately and this degenerates to a drain.
    pub fn force_group(&mut self) -> Result<Option<PendingForce>> {
        if self.mode == LogMode::StableTail {
            self.drain_stable_tail()?;
            return Ok(None);
        }
        self.flush_tail_begin(true)
    }

    /// Like [`force`](Self::force) but callable by the *checkpointer*,
    /// charging the I/O to the checkpointer's own meter (a checkpoint-
    /// induced log force is checkpointing overhead, unlike routine commit
    /// forces). Free with a stable tail.
    pub fn force_charged_to(&mut self, meter: &CostMeter) -> Result<()> {
        if self.mode == LogMode::StableTail {
            return self.drain_stable_tail();
        }
        self.take_sticky()?;
        if self.tail.is_empty() {
            self.watermark.advance(self.durable_lsn());
            return Ok(());
        }
        meter.io_op();
        if let Some(pending) = self.flush_tail_begin(false)? {
            pending.complete();
        }
        Ok(())
    }

    /// First half of a force: surfaces any sticky append-path error,
    /// writes the tail to the device, advances the durable horizon and
    /// emits the `LogForced` audit event. The second half — modeled
    /// latency, span, watermark publish — lives in
    /// [`PendingForce::complete`] so the group-commit flusher can run it
    /// outside the engine lock.
    fn flush_tail_begin(&mut self, charge: bool) -> Result<Option<PendingForce>> {
        self.take_sticky()?;
        if self.tail.is_empty() {
            // nothing new to make durable, but publish the watermark so a
            // group waiter whose commit an earlier force already covered
            // is released immediately
            self.watermark.advance(self.durable_lsn());
            return Ok(None);
        }
        if charge {
            self.meter.io_op();
        }
        let bytes = self.tail.len() as u64;
        let timer = self.obs.timer();
        self.device.append(&self.tail)?;
        self.tail_start = self.tail_start.advance(bytes);
        self.tail.clear();
        self.stats.forces += 1;
        let commits = std::mem::take(&mut self.commits_in_tail);
        self.audit.emit(|| AuditEvent::LogForced {
            durable: self.durable_lsn(),
        });
        Ok(Some(PendingForce {
            durable: self.durable_lsn(),
            latency: self.force_latency,
            commits,
            bytes,
            watermark: Arc::clone(&self.watermark),
            obs: self.obs.clone(),
            timer,
        }))
    }

    /// In stable-tail mode, migrates the (already durable) tail contents
    /// to the device so that scanners can read them. Represents the
    /// stable RAM being drained to the log disks in the background; not
    /// charged as checkpointing work.
    pub fn drain_stable_tail(&mut self) -> Result<()> {
        debug_assert_eq!(self.mode, LogMode::StableTail);
        self.take_sticky()?;
        if self.tail.is_empty() {
            self.watermark.advance(self.durable_lsn());
            return Ok(());
        }
        let drained = self.tail.len() as u64;
        let t = self.obs.timer();
        self.device.append(&self.tail)?;
        if let Some(latency) = self.force_latency {
            std::thread::sleep(latency);
        }
        self.obs.phase_hist("log.force", "log.force_ns", t, drained);
        self.tail_start = self.tail_start.advance(self.tail.len() as u64);
        self.tail.clear();
        self.commits_in_tail = 0;
        self.audit.emit(|| AuditEvent::LogForced {
            durable: self.durable_lsn(),
        });
        self.watermark.advance(self.durable_lsn());
        Ok(())
    }

    /// Simulates a system failure: the volatile tail is lost; a stable
    /// tail survives (it is drained to the device so recovery can scan
    /// it). Returns the number of bytes lost.
    pub fn crash(&mut self) -> Result<u64> {
        match self.mode {
            LogMode::VolatileTail => {
                let lost = self.tail.len() as u64;
                self.tail.clear();
                self.commits_in_tail = 0;
                self.stats.lost_on_crash = lost;
                Ok(lost)
            }
            LogMode::StableTail => {
                self.drain_stable_tail()?;
                self.stats.lost_on_crash = 0;
                Ok(0)
            }
        }
    }

    /// Discards the log before `lsn` (typically the replay floor of the
    /// older of the two complete ping-pong checkpoints — everything
    /// before it can never be needed by recovery again). The truncation
    /// point is clamped to the durable portion; the volatile tail is
    /// never affected. Actual space reclamation depends on the device
    /// (segmented logs delete whole chunks; a device may ignore the call).
    pub fn truncate_prefix(&mut self, lsn: Lsn) -> Result<()> {
        let point = lsn.min(self.tail_start);
        let t = self.obs.timer();
        self.device.truncate_prefix(point.raw())?;
        self.obs.counter("log.truncations", 1);
        self.obs
            .phase_hist("log.truncate", "log.truncate_ns", t, point.raw());
        Ok(())
    }

    /// Cuts the durable log back to `end`, recovery's valid end (where
    /// the first torn or corrupt frame began), so the next append
    /// continues the valid log instead of landing after garbage that the
    /// next recovery would stop at. Returns the bytes cut. Call with
    /// nothing appended since the crash.
    pub fn truncate_suffix(&mut self, end: Lsn) -> Result<u64> {
        debug_assert!(self.tail.is_empty(), "a cut under an unforced tail");
        let cut = self.device.len().saturating_sub(end.raw());
        self.device.truncate_suffix(end.raw())?;
        self.tail_start = end;
        self.watermark.cut_back(end);
        Ok(cut)
    }

    /// The device's first readable LSN (0 unless truncated).
    pub fn start_lsn(&self) -> Lsn {
        Lsn(self.device.start_offset())
    }

    /// Current statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Bytes currently sitting in the (volatile or stable) tail.
    pub fn tail_len(&self) -> u64 {
        self.tail.len() as u64
    }

    /// Forces the tail down and seals the device's active chunk so it
    /// becomes cold (compaction- and compression-eligible). Returns
    /// `true` if the device actually rotated; unchunked devices always
    /// report `false`.
    pub fn rotate(&mut self) -> Result<bool> {
        self.force()?;
        let rotated = self.device.rotate()?;
        if rotated {
            self.obs.counter("log.rotations", 1);
        }
        Ok(rotated)
    }

    /// Access to the underlying device (recovery scans it after a crash).
    pub fn device_mut(&mut self) -> &mut dyn LogDevice {
        &mut *self.device
    }

    /// Immutable access to the underlying device (chunk-map inspection).
    pub fn device(&self) -> &dyn LogDevice {
        &*self.device
    }

    /// Consumes the manager, returning the device.
    pub fn into_device(self) -> Box<dyn LogDevice> {
        self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemLogDevice;
    use mmdb_types::{CostCategory, CostMeter, CostParams, TxnId};

    fn mgr(mode: LogMode) -> LogManager {
        LogManager::new(
            Box::new(MemLogDevice::new()),
            mode,
            CostMeter::shared(CostParams::default()),
        )
    }

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(txn) }
    }

    #[test]
    fn lsns_are_byte_offsets() {
        let mut m = mgr(LogMode::VolatileTail);
        let a = m.append(&commit(1));
        let b = m.append(&commit(2));
        assert_eq!(a, Lsn(0));
        assert_eq!(b, Lsn(commit(1).encoded_len() as u64));
        assert_eq!(m.next_lsn(), b.advance(commit(2).encoded_len() as u64));
    }

    #[test]
    fn volatile_tail_durability_gate() {
        let mut m = mgr(LogMode::VolatileTail);
        let a = m.append(&commit(1));
        assert_eq!(m.durable_lsn(), Lsn::ZERO);
        assert!(!m.is_durable(a.advance(1)));
        m.force().unwrap();
        assert_eq!(m.durable_lsn(), m.next_lsn());
        assert!(m.is_durable(m.next_lsn()));
    }

    #[test]
    fn stable_tail_is_immediately_durable() {
        let mut m = mgr(LogMode::StableTail);
        m.append(&commit(1));
        assert_eq!(m.durable_lsn(), m.next_lsn());
        assert!(m.is_durable(m.next_lsn()));
    }

    #[test]
    fn crash_loses_volatile_tail_only() {
        let mut m = mgr(LogMode::VolatileTail);
        m.append(&commit(1));
        m.force().unwrap();
        m.append(&commit(2));
        let lost = m.crash().unwrap();
        assert_eq!(lost, commit(2).encoded_len() as u64);
        assert_eq!(m.device_mut().len(), commit(1).encoded_len() as u64);
    }

    #[test]
    fn crash_preserves_stable_tail() {
        let mut m = mgr(LogMode::StableTail);
        m.append(&commit(1));
        m.append(&commit(2));
        let lost = m.crash().unwrap();
        assert_eq!(lost, 0);
        assert_eq!(m.device_mut().len(), 2 * commit(1).encoded_len() as u64);
    }

    #[test]
    fn force_charges_one_io_when_nonempty() {
        let meter = CostMeter::shared(CostParams::default());
        let mut m = LogManager::new(
            Box::new(MemLogDevice::new()),
            LogMode::VolatileTail,
            meter.clone(),
        );
        m.force().unwrap(); // empty: no io
        assert_eq!(meter.op_count(CostCategory::Io), 0);
        m.append(&commit(1));
        m.force().unwrap();
        assert_eq!(meter.op_count(CostCategory::Io), 1);
    }

    #[test]
    fn force_charged_to_bills_the_checkpointer() {
        let log_meter = CostMeter::shared(CostParams::default());
        let ckpt_meter = CostMeter::new(CostParams::default());
        let mut m = LogManager::new(
            Box::new(MemLogDevice::new()),
            LogMode::VolatileTail,
            log_meter.clone(),
        );
        m.append(&commit(1));
        let log_io_before = log_meter.op_count(CostCategory::Io);
        m.force_charged_to(&ckpt_meter).unwrap();
        assert_eq!(ckpt_meter.op_count(CostCategory::Io), 1);
        assert_eq!(log_meter.op_count(CostCategory::Io), log_io_before);
        assert_eq!(m.durable_lsn(), m.next_lsn());
    }

    #[test]
    fn append_charges_move_to_logging_meter() {
        let meter = CostMeter::shared(CostParams::default());
        let mut m = LogManager::new(
            Box::new(MemLogDevice::new()),
            LogMode::VolatileTail,
            meter.clone(),
        );
        let rec = commit(1);
        m.append(&rec);
        assert_eq!(
            meter.snapshot().get(CostCategory::Move),
            rec.encoded_len().div_ceil(4) as u64
        );
    }

    #[test]
    fn stats_track_activity() {
        let mut m = mgr(LogMode::VolatileTail);
        m.append(&commit(1));
        m.append(&commit(2));
        m.force().unwrap();
        let s = m.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.bytes, 2 * commit(1).encoded_len() as u64);
        assert_eq!(s.forces, 1);
    }

    #[test]
    fn force_latency_models_a_slow_log_device() {
        let mut m = mgr(LogMode::VolatileTail);
        m.set_force_latency(Some(std::time::Duration::from_millis(5)));
        let start = std::time::Instant::now();
        m.append_forced(&commit(1)).unwrap();
        m.append_forced(&commit(2)).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(10));
        // an empty force never touches the modeled device
        let start = std::time::Instant::now();
        m.force().unwrap();
        assert!(start.elapsed() < std::time::Duration::from_millis(5));
    }

    #[test]
    fn append_forced_is_durable() {
        let mut m = mgr(LogMode::VolatileTail);
        let lsn = m.append_forced(&commit(9)).unwrap();
        assert!(m.is_durable(lsn.advance(commit(9).encoded_len() as u64)));
        assert_eq!(m.tail_len(), 0);
    }

    #[test]
    fn tail_threshold_bounds_the_tail() {
        let mut m = mgr(LogMode::VolatileTail);
        m.set_tail_threshold(Some(40));
        // each commit record is 17 bytes; the third append crosses 40
        m.append(&commit(1));
        m.append(&commit(2));
        assert_eq!(
            m.durable_lsn(),
            Lsn::ZERO,
            "below threshold: still volatile"
        );
        m.append(&commit(3));
        assert_eq!(m.tail_len(), 0, "threshold forced the tail");
        assert_eq!(m.durable_lsn(), m.next_lsn());
        // disabling stops the auto-force
        m.set_tail_threshold(None);
        for i in 0..10 {
            m.append(&commit(100 + i));
        }
        assert!(m.tail_len() > 0);
    }

    #[test]
    fn threshold_force_failure_is_sticky_not_swallowed() {
        let (dev, control) = crate::device::FlakyLogDevice::new();
        let mut m = LogManager::new(
            Box::new(dev),
            LogMode::VolatileTail,
            CostMeter::shared(CostParams::default()),
        );
        m.set_tail_threshold(Some(30));
        control.fail_after_next(0); // every append now fails
        m.append(&commit(1));
        m.append(&commit(2)); // crosses 30 bytes: deferred force fails
        assert!(m.tail_len() > 0, "failed force must keep the tail intact");
        // the failure surfaces exactly once, on the next explicit force
        let err = m.force().expect_err("sticky error must surface");
        assert!(err.to_string().contains("deferred tail-threshold force"));
        // the device healed: the retry makes everything durable again
        control.heal();
        m.force().unwrap();
        assert_eq!(m.durable_lsn(), m.next_lsn());
        assert_eq!(m.tail_len(), 0);
    }

    #[test]
    fn sticky_error_surfaces_through_force_charged_to() {
        let (dev, control) = crate::device::FlakyLogDevice::new();
        let mut m = LogManager::new(
            Box::new(dev),
            LogMode::VolatileTail,
            CostMeter::shared(CostParams::default()),
        );
        m.set_tail_threshold(Some(10));
        control.fail_after_next(0);
        m.append(&commit(1)); // 17 bytes ≥ 10: deferred force fails
        let ckpt_meter = CostMeter::new(CostParams::default());
        assert!(m.force_charged_to(&ckpt_meter).is_err());
        assert_eq!(
            ckpt_meter.op_count(CostCategory::Io),
            0,
            "surfacing a sticky error must not charge the checkpointer"
        );
    }

    #[test]
    fn force_group_defers_the_watermark_publish() {
        let mut m = mgr(LogMode::VolatileTail);
        let w = m.watermark();
        let a = m.append(&commit(1));
        m.append(&commit(2));
        let end = m.next_lsn();
        let pending = m.force_group().unwrap().expect("non-empty tail");
        // device-side durability is immediate...
        assert_eq!(m.durable_lsn(), end);
        assert_eq!(pending.durable(), end);
        assert_eq!(pending.commits(), 2, "group size counts commit records");
        // ...but waiters are only released by complete()
        assert_eq!(w.get(), Lsn::ZERO);
        assert!(!w.wait_for(a.advance(1), std::time::Duration::ZERO).unwrap());
        pending.complete();
        assert_eq!(w.get(), end);
        assert!(w.wait_for(end, std::time::Duration::ZERO).unwrap());
    }

    #[test]
    fn txn_commit_frames_append_from_borrowed_images_and_count_as_commits() {
        let mut m = mgr(LogMode::VolatileTail);
        let image = [7 as Word; 32];
        let writes = [(RecordId(1), &image[..]), (RecordId(2), &image[..])];
        let lsn = m.append_txn(TxnId(5), TxnFrame::Commit, writes.iter().copied());
        assert_eq!(lsn, Lsn::ZERO);
        assert_eq!(m.next_lsn(), Lsn(269));
        assert_eq!(m.stats().bytes, 269);
        m.append(&commit(6));
        let pending = m.force_group().unwrap().expect("non-empty tail");
        assert_eq!(pending.commits(), 2);
        pending.complete();
        let (rec, used) = LogRecord::decode(&m.device_mut().read_all().unwrap()).unwrap();
        assert_eq!(used, 269);
        let expected = writes.map(|(r, image)| (r, image.to_vec())).to_vec();
        assert_eq!(
            rec,
            LogRecord::TxnCommit {
                txn: TxnId(5),
                writes: expected
            }
        );
    }

    #[test]
    fn read_range_aligned_grows_to_the_transaction_frame_it_starts_at() {
        let mut m = mgr(LogMode::VolatileTail);
        let image = [1 as Word; 64];
        let big = m.append_txn(
            TxnId(1),
            TxnFrame::Commit,
            [(RecordId(0), &image[..])].into_iter(),
        );
        let small = m.append(&commit(2));
        m.append(&commit(3));
        m.force().unwrap();
        // a window smaller than the frame it starts at grows to that one
        // frame, whole and alone
        let (durable, bytes) = m.read_range_aligned(big, 10).unwrap();
        assert_eq!(durable, m.next_lsn(), "cut against the device end");
        assert_eq!(bytes.len() as u64, small.raw());
        assert!(LogRecord::decode(&bytes).is_ok());
        // otherwise: as many whole frames as fit
        assert_eq!(m.read_range_aligned(small, 30).unwrap().1.len(), 17);
        assert_eq!(m.read_range_aligned(small, 64).unwrap().1.len(), 34);
        assert!(m.read_range_aligned(m.next_lsn(), 64).unwrap().1.is_empty());
    }

    #[test]
    fn empty_force_group_publishes_the_watermark() {
        let mut m = mgr(LogMode::VolatileTail);
        m.append_forced(&commit(1)).unwrap();
        let end = m.next_lsn();
        // a fresh watermark observer would miss the inline force above
        // only if an empty group force failed to publish
        assert!(m.force_group().unwrap().is_none());
        assert_eq!(m.watermark().get(), end);
    }

    #[test]
    fn inline_force_publishes_the_watermark() {
        let mut m = mgr(LogMode::VolatileTail);
        let w = m.watermark();
        m.append(&commit(7));
        m.force().unwrap();
        assert_eq!(w.get(), m.durable_lsn());
    }

    #[test]
    fn reopen_continues_lsn_space() {
        let mut dev = MemLogDevice::new();
        dev.append(b"x".repeat(100).as_slice()).unwrap();
        let m = LogManager::new(
            Box::new(dev),
            LogMode::VolatileTail,
            CostMeter::shared(CostParams::default()),
        );
        assert_eq!(m.next_lsn(), Lsn(100));
        assert_eq!(m.durable_lsn(), Lsn(100));
    }
}
