//! The one REDO-replay core (paper §3.3; specified in DESIGN.md §6.9.1).
//!
//! Three pieces live here and nowhere else:
//!
//! * [`Resolver`] — the only commit-resolution state machine. A
//!   `TxnCommit` installs on sight, and so does a `TxnDecide`: the
//!   coordinator's branch of a cross-shard transaction, whose frame is
//!   also that transaction's commit decision. A transaction that logs its
//!   writes ahead of its outcome (a participant branch; every transaction
//!   of a log older than `TxnCommit`) is staged under the LSN it was
//!   first seen at and installs at its own `Commit` frame, or drops at
//!   its `Abort`. `TxnPrepare` (an older log's `Prepare`) parks a branch,
//!   decisions (`TxnDecide`, an older log's `Decide`) are remembered, and
//!   whatever is still parked at the end of the stream is *in doubt*
//!   (presumed abort unless a coordinator decision says otherwise). Crash recovery drives one over its replay window; the
//!   standby (`mmdb-repl`) drives one per shard stream and holds its
//!   persisted progress back to [`Resolver::first_lsn`].
//! * [`replay_frames`] — the one replay loop, the only code that feeds a
//!   `Resolver`: frames off a [`LogStream`] in, each commit's writes out
//!   to a sink. Recovery's sink installs them; a standby's re-executes
//!   them.
//! * window and report — the valid log window, the restored checkpoint's
//!   begin marker, the replay start, and the paper's §4 recovery-time
//!   terms.
//!
//! [`recover_observed`] drives them on the recovering thread: it loads
//! each backup segment and installs each committed after-image, in commit
//! order, straight into the `Storage` it holds.

use crate::{InDoubtTxn, RecoveryReport};
use mmdb_disk::BackupStore;
use mmdb_log::{LogDevice, LogRecord, LogStream, Stop};
use mmdb_obs::Obs;
use mmdb_storage::Storage;
use mmdb_types::{
    CostMeter, DiskParams, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, TxnId, Word,
};
use std::collections::HashMap;

/// An after-image: the record and its new value.
type Write = (RecordId, Vec<Word>);

/// Commit resolution over one log stream, fed in log order: crash
/// recovery drives one over its replay window, the standby one per
/// shard stream, for as long as it is attached.
#[derive(Default)]
pub struct Resolver {
    /// Transactions whose writes precede their outcome (prepared
    /// branches; every transaction of a log older than `TxnCommit`): the
    /// LSN each instance was first seen at and its writes, in log order.
    staged: HashMap<TxnId, (Lsn, Vec<Write>)>,
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
    /// `TxnCommit` or `TxnDecide` is its own outcome and is never staged
    /// (a `TxnDecide` is also the decision for its gid); a staged
    /// transaction (a prepared branch included) installs at its own
    /// `Commit` frame and nowhere else.
    fn feed(&mut self, lsn: Lsn, rec: LogRecord) -> Vec<Write> {
        let (txn, writes) = match rec {
            LogRecord::TxnCommit { txn, writes } => (txn, writes),
            LogRecord::TxnDecide { txn, gid, writes } => {
                self.decide(gid, true);
                (txn, writes)
            }
            LogRecord::Commit { txn } => (
                txn,
                self.staged.remove(&txn).map_or_else(Vec::new, |(_, w)| w),
            ),
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
            LogRecord::TxnBegin { txn, .. } => {
                self.staged.insert(txn, (lsn, Vec::new()));
            }
            // an instance whose begin frame was never seen starts here
            LogRecord::Update { txn, record, value } => self
                .staged
                .entry(txn)
                .or_insert_with(|| (lsn, Vec::new()))
                .1
                .push((record, value)),
            LogRecord::Abort { txn } => {
                self.staged.remove(&txn);
                self.prepared.remove(&txn);
            }
            LogRecord::TxnPrepare { txn, gid, writes } => {
                self.staged.insert(txn, (lsn, writes));
                self.park(txn, gid);
            }
            LogRecord::Prepare { txn, gid } => self.park(txn, gid),
            LogRecord::Decide { gid, commit } => self.decide(gid, commit),
            _ => {}
        }
    }

    fn decide(&mut self, gid: u64, commit: bool) {
        self.decided.insert(gid, commit);
        self.max_gid = self.max_gid.max(gid);
    }

    fn park(&mut self, txn: TxnId, gid: u64) {
        self.prepared.insert(txn, gid);
        self.max_gid = self.max_gid.max(gid);
    }

    /// The oldest first-LSN among the staged instances: re-reading the
    /// stream from here rebuilds every one of them, so it is a stream
    /// consumer's holdback for what it may call applied.
    pub fn first_lsn(&self) -> Option<Lsn> {
        self.staged.values().map(|(lsn, _)| *lsn).min()
    }

    /// The coordinator decisions fed so far, as `(gid, commit)` pairs.
    pub fn decisions(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.decided.iter().map(|(&gid, &commit)| (gid, commit))
    }

    /// End of the stream: prepared branches without an outcome are in
    /// doubt (kept, with their writes, for the coordinator), everything
    /// else still staged is discarded. Returns `(in_doubt, decisions,
    /// txns_discarded)`.
    pub fn finish(mut self) -> (Vec<InDoubtTxn>, Vec<(u64, bool)>, u64) {
        let mut in_doubt: Vec<InDoubtTxn> = self
            .prepared
            .iter()
            .map(|(&txn, &gid)| InDoubtTxn {
                gid,
                txn,
                writes: self.staged.remove(&txn).map_or_else(Vec::new, |(_, w)| w),
            })
            .collect();
        in_doubt.sort_by_key(|t| (t.gid, t.txn));
        let mut decisions: Vec<(u64, bool)> = self.decided.into_iter().collect();
        decisions.sort_unstable();
        (in_doubt, decisions, self.staged.len() as u64)
    }
}

/// Feeds `resolver` the frames of `stream` from `from` on, in log order,
/// and hands `sink` the writes of each commit that has any, with the LSN
/// its frame ends at: install order is commit order. Returns where and
/// why the frames stopped (see [`LogStream::read`]).
pub fn replay_frames(
    stream: &mut LogStream,
    from: Lsn,
    resolver: &mut Resolver,
    mut sink: impl FnMut(Vec<Write>, Lsn) -> Result<()>,
) -> Result<(Lsn, Stop)> {
    stream.read(from, |lsn, rec, end| match resolver.feed(lsn, rec) {
        writes if writes.is_empty() => Ok(()),
        writes => sink(writes, end),
    })
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
    let window = stream.validate(|_, _, _| {})?;
    let (_, replay_start) = window.checkpoint_mark(ckpt).ok_or_else(|| {
        MmdbError::Corrupt(format!(
            "backup copy {copy} is complete for {ckpt} but the log has no begin marker for it"
        ))
    })?;

    // 4: forward replay, a second pass of the stream, installing each
    // transaction's updates at the frame that commits it (shadow-copy
    // install order = commit order).
    let mut resolver = Resolver::default();
    let install = |writes: Vec<Write>, end_lsn| -> Result<()> {
        for (record, value) in writes {
            storage.install_record(record, &value, end_lsn, Timestamp::ZERO, meter)?;
        }
        Ok(())
    };
    replay_frames(&mut stream, replay_start, &mut resolver, install)?;
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
        log_end: window.end_lsn(),
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
