//! The one REDO-replay core (paper §3.3; specified in DESIGN.md §6.9.1).
//!
//! Three pieces live here and nowhere else:
//!
//! * [`Stager`] — per log stream, buffers the writes of each transaction
//!   that logs them ahead of its outcome (a prepared branch; every
//!   transaction of a log older than `TxnCommit`), remembering where the
//!   transaction started. Crash recovery and the standby's continuous
//!   replay (`mmdb-repl`) both stage through it.
//! * the resolver — a `TxnCommit` installs on sight; a staged
//!   transaction's commit installs, abort drops, `Prepare` parks the
//!   branch, `Decide` is remembered, and whatever is still parked at the
//!   end of the log is *in doubt* (presumed abort unless a coordinator
//!   decision says otherwise).
//! * window and report — the valid log window, the restored checkpoint's
//!   begin marker, the replay start, and the paper's §4 recovery-time
//!   terms.
//!
//! [`recover_observed`] drives them on the recovering thread: it loads
//! each backup segment and installs each committed after-image, in commit
//! order, straight into the `Storage` it holds.

use crate::{InDoubtTxn, RecoveryReport};
use mmdb_disk::BackupStore;
use mmdb_log::{LogDevice, LogRecord, LogStream};
use mmdb_obs::Obs;
use mmdb_storage::Storage;
use mmdb_types::{
    CostMeter, DiskParams, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, TxnId, Word,
};
use std::collections::HashMap;

/// One log stream's undecided transactions: the LSN each was first seen
/// at and the writes staged for it so far, in log order.
#[derive(Debug)]
pub struct Stager<W> {
    open: HashMap<TxnId, (Lsn, Vec<W>)>,
}

impl<W> Default for Stager<W> {
    fn default() -> Self {
        Stager {
            open: HashMap::new(),
        }
    }
}

impl<W> Stager<W> {
    /// Starts (or restarts, on a re-read stream) `txn` at `lsn` with no
    /// writes.
    pub fn begin(&mut self, txn: TxnId, lsn: Lsn) {
        self.open.insert(txn, (lsn, Vec::new()));
    }

    /// Stages one write. A transaction whose begin frame was never seen
    /// starts at this write's `lsn`.
    pub fn update(&mut self, txn: TxnId, lsn: Lsn, write: W) {
        self.open
            .entry(txn)
            .or_insert_with(|| (lsn, Vec::new()))
            .1
            .push(write);
    }

    /// Removes `txn`, handing back its first LSN and staged writes.
    pub fn take(&mut self, txn: TxnId) -> Option<(Lsn, Vec<W>)> {
        self.open.remove(&txn)
    }

    /// Drops `txn` and its writes.
    pub fn discard(&mut self, txn: TxnId) {
        self.open.remove(&txn);
    }

    /// The oldest first-LSN among the staged transactions: re-reading the
    /// stream from here rebuilds every one of them.
    pub fn first_lsn(&self) -> Option<Lsn> {
        self.open.values().map(|(lsn, _)| *lsn).min()
    }

    /// Number of staged transactions.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Drops every staged transaction.
    pub fn clear(&mut self) {
        self.open.clear();
    }
}

/// An after-image: the record and its new value.
type Write = (RecordId, Vec<Word>);

/// Commit resolution over one log's replay window.
#[derive(Default)]
struct Resolver {
    staged: Stager<Write>,
    /// Prepared branches with no outcome yet: local txn → gid.
    prepared: HashMap<TxnId, u64>,
    /// Coordinator decisions seen: gid → commit.
    decided: HashMap<u64, bool>,
    max_gid: u64,
    updates_applied: u64,
    txns_replayed: u64,
}

impl Resolver {
    /// Feeds the record at `lsn`. A commit returns the transaction's
    /// writes, to be installed now: install order is commit order. A
    /// `TxnCommit` is its own outcome and is never staged; only the
    /// frames of prepared branches (and of logs older than `TxnCommit`)
    /// are.
    fn feed(&mut self, lsn: Lsn, rec: LogRecord) -> Vec<Write> {
        let (txn, writes) = match rec {
            LogRecord::TxnCommit { txn, writes } => (txn, writes),
            LogRecord::Commit { txn } => {
                (txn, self.staged.take(txn).map_or_else(Vec::new, |(_, w)| w))
            }
            undecided => {
                self.stage(lsn, undecided);
                return Vec::new();
            }
        };
        // Ids are unique within an engine incarnation, and each one
        // resolves its in-doubt branches before running anything: a
        // branch still parked under a committing id is a resolved one.
        self.prepared.remove(&txn);
        self.txns_replayed += 1;
        self.updates_applied += writes.len() as u64;
        writes
    }

    fn stage(&mut self, lsn: Lsn, rec: LogRecord) {
        match rec {
            // whatever an earlier incarnation left open under this id
            // stays without an outcome
            LogRecord::TxnBegin { txn, .. } => self.staged.begin(txn, lsn),
            LogRecord::Update { txn, record, value } => {
                self.staged.update(txn, lsn, (record, value));
            }
            LogRecord::Abort { txn } => {
                self.staged.discard(txn);
                self.prepared.remove(&txn);
            }
            LogRecord::Prepare { txn, gid } => {
                self.prepared.insert(txn, gid);
                self.max_gid = self.max_gid.max(gid);
            }
            LogRecord::Decide { gid, commit } => {
                self.decided.insert(gid, commit);
                self.max_gid = self.max_gid.max(gid);
            }
            _ => {}
        }
    }

    /// End of the log: prepared branches without an outcome are in doubt
    /// (kept, with their writes, for the coordinator), everything else
    /// still staged is discarded. Returns `(in_doubt, decisions,
    /// txns_discarded)`.
    fn finish(mut self) -> (Vec<InDoubtTxn>, Vec<(u64, bool)>, u64) {
        let mut in_doubt: Vec<InDoubtTxn> = self
            .prepared
            .iter()
            .map(|(&txn, &gid)| InDoubtTxn {
                gid,
                txn,
                writes: self.staged.take(txn).map_or_else(Vec::new, |(_, w)| w),
            })
            .collect();
        in_doubt.sort_by_key(|t| (t.gid, t.txn));
        let mut decisions: Vec<(u64, bool)> = self.decided.into_iter().collect();
        decisions.sort_unstable();
        (in_doubt, decisions, self.staged.len() as u64)
    }
}

pub(crate) fn log_read_time(disk: &DiskParams, log_words: u64) -> f64 {
    if log_words == 0 {
        0.0
    } else {
        disk.t_seek + log_words as f64 * disk.t_trans / disk.n_bdisks as f64
    }
}

/// [`recover`](crate::recover) with telemetry: the restore itself (crate
/// docs, steps 1–4), on the calling thread.
///
/// Emits `recovery.backup_load` and `recovery.redo_replay` spans and
/// records the report's modeled total into the
/// `recovery.total_modeled_us` histogram.
pub fn recover_observed(
    storage: &mut Storage,
    backup: &mut dyn BackupStore,
    log_device: &mut dyn LogDevice,
    disk: &DiskParams,
    meter: &CostMeter,
    obs: &Obs,
) -> Result<RecoveryReport> {
    let (copy, ckpt) = backup.recovery_copy()?;
    let db = backup.shape();

    // 1–2: read the backup into main memory through one reused image.
    let load_timer = obs.timer();
    let segments_loaded = db.n_segments();
    let mut image: Vec<Word> = vec![0; db.s_seg as usize];
    for sid in (0..segments_loaded as u32).map(SegmentId) {
        meter.io_op();
        backup.read_segment(copy, sid, &mut image)?;
        storage.load_segment(sid, &image, Some(copy), meter)?;
    }
    let backup_words = segments_loaded * db.s_seg;
    obs.phase_hist(
        "recovery.backup_load",
        "recovery.backup_load_ns",
        load_timer,
        segments_loaded,
    );

    // 3: the valid log window (the first bad frame ends the log), the
    // restored checkpoint's begin marker and the replay start — one pass
    // of the stream, which keeps a window of the log and nothing else.
    let replay_timer = obs.timer();
    let mut stream = LogStream::new(log_device);
    let window = stream.validate()?;
    let (_, replay_start) = window.checkpoint_mark(ckpt).ok_or_else(|| {
        MmdbError::Corrupt(format!(
            "backup copy {copy} is complete for {ckpt} but the log has no begin marker for it"
        ))
    })?;

    // 4: forward replay, a second pass of the stream, installing each
    // transaction's updates at the frame that commits it (shadow-copy
    // install order = commit order).
    let mut resolver = Resolver::default();
    stream.replay(&window, replay_start, |lsn, rec| {
        let end_lsn = rec.end_lsn(lsn);
        for (record, value) in resolver.feed(lsn, rec) {
            storage.install_record(record, &value, end_lsn, Timestamp::ZERO, meter)?;
        }
        Ok(())
    })?;
    obs.gauge("recovery.log_window_peak_bytes", stream.window_peak_bytes());
    obs.counter("recovery.log_bytes_read", stream.bytes_read());
    let (updates_applied, txns_replayed, max_gid) = (
        resolver.updates_applied,
        resolver.txns_replayed,
        resolver.max_gid,
    );
    let (in_doubt, decisions, txns_discarded) = resolver.finish();
    obs.phase_hist(
        "recovery.redo_replay",
        "recovery.redo_replay_ns",
        replay_timer,
        txns_replayed,
    );

    // Recovery-time model (paper §4): backup read at array bandwidth in
    // segment-sized I/Os, log read sequentially striped across the disks.
    let log_words = window.words_from(replay_start);
    let backup_read_seconds = disk.array_time(segments_loaded, db.s_seg);
    let log_read_seconds = log_read_time(disk, log_words);
    obs.observe(
        "recovery.total_modeled_us",
        ((backup_read_seconds + log_read_seconds) * 1e6) as u64,
    );
    obs.counter("recovery.runs", 1);

    Ok(RecoveryReport {
        ckpt,
        copy,
        segments_loaded,
        backup_words,
        replay_start,
        log_words,
        updates_applied,
        txns_replayed,
        txns_discarded,
        backup_read_seconds,
        log_read_seconds,
        in_doubt,
        decisions,
        max_gid,
    })
}
