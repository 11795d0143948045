//! Log scanning for recovery.
//!
//! After a system failure the recovery manager scans the durable log
//! (paper §3.3) to locate the begin-checkpoint marker of the checkpoint it
//! restores and the begin record of the oldest transaction active at that
//! marker (fuzzy checkpoints), then replays committed updates from there.
//! Frames carry no trailing length, so every pass is a forward one: the
//! first remembers, at each marker, where its replay would start.
//!
//! Scanning tolerates a torn final flush: the log is walked forward and
//! the first torn or corrupt frame is the end of the durable log.
//! Everything before it is intact (each frame is checksummed). A whole
//! frame that checksums but does not decode is not an end: a newer build
//! wrote it, and every pass fails there with
//! [`MmdbError::NewerFormat`] rather than drop it and the commits after
//! it. [`LogStream`] is the
//! one reader: of a device, or of a standby's pulled batch at its base
//! LSN, through one reused window, so a pass costs a window of memory
//! however long the log is. Recovery reads a device twice:
//! [`LogStream::validate`] finds the end, the markers and the replay
//! starts, and the replay core [`read`](LogStream::read)s the frames in
//! between. Compaction and `fsck` watch the validation pass; a standby
//! reads each batch once. [`LogScanner`] is a shim over it that only
//! `benchmark/` uses.

use crate::device::LogDevice;
use crate::record::LogRecord;
use mmdb_types::{CheckpointId, Lsn, MmdbError, Result, Timestamp, TxnId};
use std::collections::HashMap;

/// Bytes of log a [`LogStream`] holds at a time. Large enough that a
/// refill is rare next to the checksum work on what it read; recovery's
/// memory is the database plus this.
const STREAM_WINDOW_BYTES: usize = 1 << 20;

/// Identity and position of a completed checkpoint found in the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMark {
    /// The checkpoint id.
    pub ckpt: CheckpointId,
    /// LSN of its begin-checkpoint record.
    pub begin_lsn: Lsn,
    /// The checkpoint timestamp `τ(CH)`.
    pub tau: Timestamp,
    /// Transactions active when the begin marker was written.
    pub active: Vec<TxnId>,
}

/// Why a pass over a [`LogStream`] stopped.
#[derive(Debug)]
pub enum Stop {
    /// At the end of its input, on a frame boundary.
    End,
    /// Inside a frame the input ends before: a device's torn tail, or a
    /// frame the next pulled batch completes.
    Cut,
    /// At a whole frame that fails its checks: the log ends here. (A
    /// whole frame that checksums but does not decode ends no log: the
    /// pass fails with [`MmdbError::NewerFormat`] instead.)
    Bad(MmdbError),
}

/// The one rule for reading log bytes: the frame at the head of `bytes`
/// and its length, or why there is none (never `End`), summing its
/// checksum when `verify` (a frame that passed once is not summed again).
fn step(bytes: &[u8], verify: bool) -> std::result::Result<(LogRecord, usize), Stop> {
    let decoded = if verify {
        LogRecord::decode(bytes)
    } else {
        LogRecord::decode_verified(bytes)
    };
    decoded.map_err(|e| match LogRecord::frame_len(bytes) {
        None => Stop::Cut,
        Some(_) => Stop::Bad(e),
    })
}

/// The validated window of a log: where it starts and ends, and the
/// checkpoint markers inside it.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LogWindow {
    base: u64,
    end: u64,
    /// Every begin-checkpoint marker, oldest first, with the LSN replay
    /// from it starts at.
    marks: Vec<(CheckpointMark, Lsn)>,
    /// The newest of `marks` an end marker of the same checkpoint follows.
    complete: Option<usize>,
}

impl LogWindow {
    /// Global LSN of the first scannable record.
    pub fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Global LSN just past the last intact record.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.end)
    }

    /// The newest begin marker of checkpoint `ckpt` — where recovery from
    /// the backup copy holding `ckpt` starts looking (paper §3.3) — and
    /// the LSN to start forward replay from: the smallest begin-LSN among
    /// the transactions the marker lists as active, or the marker itself
    /// when it lists none (fuzzy checkpoints must scan "until the
    /// beginning of the earliest transaction in the active transaction
    /// list").
    pub fn checkpoint_mark(&self, ckpt: CheckpointId) -> Option<(&CheckpointMark, Lsn)> {
        let (mark, start) = self.marks.iter().rev().find(|(m, _)| m.ckpt == ckpt)?;
        Some((mark, *start))
    }

    /// The most recently *completed* checkpoint: the newest begin marker
    /// an end marker of the same checkpoint follows (paper §3.3 and its
    /// footnote).
    pub fn last_complete_checkpoint(&self) -> Option<&CheckpointMark> {
        Some(&self.marks[self.complete?].0)
    }

    /// Words of log from `from` to the end of the window — the portion
    /// recovery must read and replay.
    pub fn words_from(&self, from: Lsn) -> u64 {
        self.end.saturating_sub(from.raw()).div_ceil(4)
    }

    /// Notes the frame validation accepted at `lsn`, with `begins` where
    /// each open transaction id began. Walking forward with that map
    /// answers "where does replay from this marker start" at the marker,
    /// with no walk back over frames that may have left memory. Only a
    /// prepared, undecided branch can be on a later marker's list, so an
    /// id leaves the map at its outcome.
    fn note(&mut self, begins: &mut HashMap<TxnId, Lsn>, lsn: Lsn, rec: &LogRecord) {
        match rec {
            LogRecord::TxnBegin { txn, .. } | LogRecord::TxnPrepare { txn, .. } => {
                begins.insert(*txn, lsn);
            }
            LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::TxnCommit { txn, .. }
            | LogRecord::TxnDecide { txn, .. } => {
                begins.remove(txn);
            }
            LogRecord::BeginCheckpoint { ckpt, tau, active } => {
                let start = active
                    .iter()
                    .filter_map(|txn| begins.get(txn).copied())
                    .min()
                    .unwrap_or(lsn);
                let mark = CheckpointMark {
                    ckpt: *ckpt,
                    begin_lsn: lsn,
                    tau: *tau,
                    active: active.clone(),
                };
                self.marks.push((mark, start));
            }
            LogRecord::EndCheckpoint { ckpt } => {
                let begun = self.marks.iter().rposition(|(m, _)| m.ckpt == *ckpt);
                self.complete = self.complete.max(begun);
            }
            _ => {}
        }
    }
}

/// Where a [`LogStream`] reads from.
enum Source<'a> {
    Device(&'a mut dyn LogDevice),
    /// Log bytes whose first byte sits at the LSN given.
    Bytes(u64, &'a [u8]),
}

impl Source<'_> {
    fn read_at(&mut self, at: u64, buf: &mut [u8]) -> Result<()> {
        match self {
            Source::Device(device) => device.read_at(at, buf),
            Source::Bytes(base, bytes) => {
                buf.copy_from_slice(&bytes[(at - *base) as usize..][..buf.len()]);
                Ok(())
            }
        }
    }
}

/// The log's one reader: a device's durable log, or a byte string at a
/// base LSN, one window at a time.
pub struct LogStream<'a> {
    source: Source<'a>,
    /// The input's first readable offset and its end.
    start: u64,
    limit: u64,
    /// Where validation found the log to end, once it has run.
    valid_end: Option<u64>,
    /// The window, reused from refill to refill.
    buf: Vec<u8>,
    window: usize,
    peak: usize,
    bytes_read: u64,
}

impl<'a> LogStream<'a> {
    /// A stream over the readable log of `device`.
    pub fn new(device: &'a mut dyn LogDevice) -> LogStream<'a> {
        LogStream::with_window(Source::Device(device), STREAM_WINDOW_BYTES)
    }

    /// A stream over `bytes`, whose first byte sits at LSN `base` (a
    /// frame boundary): a standby's pulled batch.
    pub fn over(base: Lsn, bytes: &'a [u8]) -> LogStream<'a> {
        LogStream::with_window(Source::Bytes(base.raw(), bytes), STREAM_WINDOW_BYTES)
    }

    fn with_window(source: Source<'a>, window: usize) -> LogStream<'a> {
        let (start, limit) = match &source {
            Source::Device(device) => (device.start_offset(), device.len()),
            Source::Bytes(base, bytes) => (*base, base + bytes.len() as u64),
        };
        LogStream {
            source,
            start,
            limit,
            valid_end: None,
            buf: Vec::new(),
            window,
            peak: 0,
            bytes_read: 0,
        }
    }

    /// First pass: checksums the input up to the first torn or corrupt
    /// frame, showing `each` every frame it accepts, in log order, with
    /// where it starts and ends.
    pub fn validate(&mut self, mut each: impl FnMut(Lsn, &LogRecord, Lsn)) -> Result<LogWindow> {
        let (mut window, mut begins) = (LogWindow::default(), HashMap::new());
        self.valid_end = None;
        let (end, _) = self.read(Lsn::ZERO, |lsn, rec, end| {
            each(lsn, &rec, end);
            window.note(&mut begins, lsn, &rec);
            Ok(())
        })?;
        (window.base, window.end) = (self.start, end.raw());
        self.valid_end = Some(window.end);
        Ok(window)
    }

    /// The largest window held so far, in bytes.
    pub fn window_peak_bytes(&self) -> u64 {
        self.peak as u64
    }

    /// Bytes read from the source so far, every pass counted.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Hands `each` the frames from `from` (a frame boundary; the input's
    /// start at most) on, in log order, with where each starts and ends,
    /// and returns where and why they stop. Before
    /// [`validate`](Self::validate) it sums every frame up to the end of
    /// the input; after, it reads only what validation accepted, without
    /// summing it again, and a frame there that no longer decodes is an
    /// error.
    pub fn read(
        &mut self,
        from: Lsn,
        mut each: impl FnMut(Lsn, LogRecord, Lsn) -> Result<()>,
    ) -> Result<(Lsn, Stop)> {
        let to = self.valid_end.unwrap_or(self.limit);
        // `buf[pos..]` is the unconsumed log from offset `at + pos` on.
        let (mut at, mut pos) = (from.raw().max(self.start), 0usize);
        self.buf.clear();
        let (end, stop) = loop {
            match step(&self.buf[pos..], self.valid_end.is_none()) {
                Ok((rec, used)) => {
                    let start = at + pos as u64;
                    each(Lsn(start), rec, Lsn(start + used as u64))?;
                    pos += used;
                    continue;
                }
                Err(Stop::Cut) => {}
                // whole and checksummed: the log does not end here
                Err(Stop::Bad(MmdbError::NewerFormat(msg))) => {
                    let at = at + pos as u64;
                    return Err(MmdbError::NewerFormat(format!("log frame at {at}: {msg}")));
                }
                Err(stop) => break (at + pos as u64, stop),
            }
            // carry the cut frame's head to the front, read on
            self.buf.drain(..pos);
            at += pos as u64;
            pos = 0;
            let have = self.buf.len();
            let ahead = to.saturating_sub(at);
            if ahead == have as u64 {
                // nothing left to read: the end, or the torn tail
                break (at, if have == 0 { Stop::End } else { Stop::Cut });
            }
            // Fill the window — or, when the frame at its head is longer,
            // grow to that one frame: to whatever length its header says
            // (at most `MAX_TXN_FRAME_BYTES`, or `step` has called it
            // bad), once an older frame's last four bytes say so too.
            let mut fill = self.window.max(4) as u64;
            if let Some(total) = LogRecord::declared_len(&self.buf) {
                let total = total as u64;
                if total > ahead {
                    break (at, Stop::Cut); // can never be whole
                }
                if total > fill && LogRecord::is_legacy(&self.buf) {
                    let mut trailer = [0u8; 4];
                    self.source.read_at(at + total - 4, &mut trailer)?;
                    self.bytes_read += 4;
                    if u64::from(u32::from_le_bytes(trailer)) != total {
                        let e = format!("log frame at {at}: its trailer disagrees with its length");
                        break (at, Stop::Bad(MmdbError::Corrupt(e)));
                    }
                }
                fill = fill.max(total);
            }
            let fill = fill.min(ahead) as usize;
            self.buf.reserve_exact(fill - have);
            self.buf.resize(fill, 0);
            self.source
                .read_at(at + have as u64, &mut self.buf[have..])?;
            self.bytes_read += (fill - have) as u64;
            self.peak = self.peak.max(fill);
        };
        if self.valid_end.is_some() && end < to {
            return Err(MmdbError::Corrupt(format!(
                "log frame at {end} passed validation and no longer decodes"
            )));
        }
        Ok((Lsn(end), stop))
    }
}

/// A device's validated log, decoded whole: a shim over [`LogStream`]
/// that only `benchmark/` uses (its scan-rate probe names it).
#[derive(Debug)]
pub struct LogScanner {
    window: LogWindow,
    frames: Vec<(Lsn, LogRecord)>,
}

impl LogScanner {
    /// Reads and validates the durable log of `device`.
    pub fn from_device(device: &mut dyn LogDevice) -> Result<LogScanner> {
        let mut frames = Vec::new();
        let window =
            LogStream::new(device).validate(|lsn, rec, _| frames.push((lsn, rec.clone())))?;
        Ok(LogScanner { window, frames })
    }

    /// Global LSN of the first record.
    pub fn base_lsn(&self) -> Lsn {
        self.window.base_lsn()
    }

    /// Bytes of the validated log.
    pub fn valid_len(&self) -> u64 {
        self.window.end - self.window.base
    }

    /// The records from `from` on, with their LSNs.
    pub fn forward_from(&self, from: Lsn) -> impl Iterator<Item = &(Lsn, LogRecord)> {
        self.frames.iter().skip_while(move |(lsn, _)| *lsn < from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{tests::legacy, MAX_TXN_FRAME_BYTES};
    use mmdb_types::RecordId;

    /// The frames of `records`, every other one in the older envelope: a
    /// log an older binary began and this one carried on. A `TxnPrepare`
    /// or `TxnDecide` has only the new one.
    fn build(records: &[LogRecord]) -> (Vec<u8>, Vec<Lsn>) {
        let mut buf = Vec::new();
        let mut lsns = Vec::new();
        for (i, r) in records.iter().enumerate() {
            lsns.push(Lsn(buf.len() as u64));
            match (i % 2, r) {
                (0, _) | (_, LogRecord::TxnPrepare { .. } | LogRecord::TxnDecide { .. }) => {
                    r.encode_into(&mut buf)
                }
                _ => buf.extend_from_slice(&legacy(r)),
            }
        }
        (buf, lsns)
    }

    fn sample_log() -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin {
                txn: TxnId(1),
                tau: Timestamp(1),
            },
            LogRecord::Update {
                txn: TxnId(1),
                record: RecordId(10),
                value: vec![1, 2],
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(1),
                tau: Timestamp(2),
                active: vec![TxnId(1)],
            },
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(1),
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(2),
                tau: Timestamp(3),
                active: vec![],
            },
            // checkpoint 2 never completes (crash mid-checkpoint)
        ]
    }

    #[test]
    fn forward_scan_of_a_mixed_format_log_round_trips() {
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let (_, fwd) = scan(&buf);
        let want: Vec<_> = lsns.into_iter().zip(recs).collect();
        assert_eq!(fwd, want);
    }

    #[test]
    fn forward_from_mid_lsn() {
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let (window, _) = scan(&buf);
        let fwd = replayed(&buf, 0, &window, lsns[3]);
        assert_eq!(fwd.len(), 3);
        assert_eq!(fwd[0].1, recs[3]);
    }

    #[test]
    fn skips_incomplete_checkpoint() {
        let (buf, lsns) = build(&sample_log());
        let (window, _) = scan(&buf);
        let mark = window.last_complete_checkpoint().unwrap();
        assert_eq!(mark.ckpt, CheckpointId(1), "ckpt 2 has no end marker");
        assert_eq!(mark.begin_lsn, lsns[2]);
        assert_eq!(mark.active, vec![TxnId(1)]);
    }

    #[test]
    fn replay_start_extends_to_oldest_active_txn() {
        let (buf, lsns) = build(&sample_log());
        let (window, _) = scan(&buf);
        let mark = window.last_complete_checkpoint().unwrap();
        // txn 1 was active at the marker; its begin is record 0
        assert_eq!(window.checkpoint_mark(mark.ckpt).unwrap().1, lsns[0]);
    }

    #[test]
    fn replay_start_is_marker_when_no_active() {
        let recs = vec![
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(5),
                tau: Timestamp(9),
                active: vec![],
            },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(5),
            },
        ];
        let (buf, lsns) = build(&recs);
        let (window, _) = scan(&buf);
        let mark = window.last_complete_checkpoint().unwrap();
        assert_eq!(window.checkpoint_mark(mark.ckpt).unwrap().1, lsns[0]);
    }

    #[test]
    fn no_checkpoint_returns_none() {
        let (buf, _) = build(&[LogRecord::Commit { txn: TxnId(1) }]);
        assert!(scan(&buf).0.last_complete_checkpoint().is_none());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let recs = sample_log();
        let (mut buf, _) = build(&recs);
        let full = buf.len();
        // append a record and tear it
        LogRecord::Commit { txn: TxnId(99) }.encode_into(&mut buf);
        buf.truncate(full + 5);
        let (window, frames) = scan(&buf);
        assert_eq!(window.end_lsn(), Lsn(full as u64));
        assert_eq!(frames.len(), recs.len());
    }

    /// Every kind of frame a log can hold: whole-transaction frames, the
    /// older begin/update/commit runs (one id used twice), a prepared
    /// branch open across a marker and decided after it, markers with and
    /// without active transactions, a filler longer than its neighbours.
    fn mixed_log() -> Vec<LogRecord> {
        let image = |fill: u32| vec![fill; 6];
        let update = |txn: u64, record: u64| LogRecord::Update {
            txn: TxnId(txn),
            record: RecordId(record),
            value: image(record as u32),
        };
        let begin = |txn: u64| LogRecord::TxnBegin {
            txn: TxnId(txn),
            tau: Timestamp(txn),
        };
        vec![
            LogRecord::TxnCommit {
                txn: TxnId(1),
                writes: vec![(RecordId(1), image(1)), (RecordId(2), image(2))],
            },
            begin(2),
            update(2, 3),
            LogRecord::Commit { txn: TxnId(2) },
            begin(7),
            update(7, 4),
            LogRecord::Abort { txn: TxnId(7) },
            LogRecord::Compacted { span: 150 },
            begin(2), // the id again, as after a reopen
            begin(9),
            update(9, 5),
            update(2, 6),
            LogRecord::Prepare {
                txn: TxnId(9),
                gid: 70,
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(4),
                tau: Timestamp(20),
                active: vec![TxnId(9), TxnId(2), TxnId(55)],
            },
            LogRecord::TxnCommit {
                txn: TxnId(10),
                writes: vec![(RecordId(8), image(8))],
            },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(4),
            },
            LogRecord::Decide {
                gid: 70,
                commit: true,
            },
            LogRecord::Commit { txn: TxnId(9) },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(5),
                tau: Timestamp(30),
                active: vec![],
            },
            LogRecord::TxnCommit {
                txn: TxnId(11),
                writes: vec![
                    (RecordId(9), image(9)),
                    (RecordId(1), image(7)),
                    (RecordId(3), image(5)),
                ],
            },
            LogRecord::Commit { txn: TxnId(2) },
            // a branch in one frame; ids 7 and 2 on the marker's list
            // have their outcomes behind them, so its frame opens replay
            LogRecord::TxnPrepare {
                txn: TxnId(12),
                gid: 71,
                writes: vec![(RecordId(7), image(7))],
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(6),
                tau: Timestamp(40),
                active: vec![TxnId(7), TxnId(12), TxnId(2)],
            },
            LogRecord::Commit { txn: TxnId(12) },
        ]
    }

    fn longest_frame(records: &[LogRecord]) -> usize {
        let (buf, lsns) = build(records);
        let ends = lsns.iter().skip(1).map(|l| l.raw() as usize);
        let starts = lsns.iter().map(|l| l.raw() as usize);
        starts
            .zip(ends.chain([buf.len()]))
            .map(|(s, e)| e - s)
            .max()
            .unwrap()
    }

    /// Validates `bytes`, read as a batch whose first byte sits at LSN
    /// `base`: the window and every frame it accepted.
    fn scan_at(bytes: &[u8], base: u64) -> (LogWindow, Vec<(Lsn, LogRecord)>) {
        let mut frames = Vec::new();
        let mut stream = LogStream::over(Lsn(base), bytes);
        let window = stream.validate(|lsn, rec, _| frames.push((lsn, rec.clone())));
        (window.unwrap(), frames)
    }

    fn scan(bytes: &[u8]) -> (LogWindow, Vec<(Lsn, LogRecord)>) {
        scan_at(bytes, 0)
    }

    /// The records of `window` from `from` on, read as the replay pass
    /// reads them, out of `bytes` read as a batch at `base`.
    fn replayed(bytes: &[u8], base: u64, window: &LogWindow, from: Lsn) -> Vec<(Lsn, LogRecord)> {
        let mut frames = Vec::new();
        let mut stream = LogStream::over(Lsn(base), bytes);
        assert_eq!(&stream.validate(|_, _, _| {}).unwrap(), window);
        let (end, stop) = stream
            .read(from, |lsn, rec, _| {
                frames.push((lsn, rec));
                Ok(())
            })
            .unwrap();
        assert!(matches!(stop, Stop::End) && end == window.end_lsn());
        frames
    }

    /// The resident reference: a plain `step` loop over the whole of
    /// `bytes` (read from LSN `base` on). The frames it accepts with where
    /// each ends, why it stopped, and the window their markers make.
    fn resident(bytes: &[u8], base: u64) -> (Vec<(Lsn, LogRecord, Lsn)>, Stop, LogWindow) {
        let (mut frames, mut pos) = (Vec::new(), 0);
        let (mut window, mut begins) = (LogWindow::default(), HashMap::new());
        let stop = loop {
            match step(&bytes[pos..], true) {
                Ok((rec, used)) => {
                    let at = Lsn(base + pos as u64);
                    window.note(&mut begins, at, &rec);
                    frames.push((at, rec, at.advance(used as u64)));
                    pos += used;
                }
                Err(Stop::Cut) if pos == bytes.len() => break Stop::End,
                Err(stop) => break stop,
            }
        };
        (window.base, window.end) = (base, base + pos as u64);
        (frames, stop, window)
    }

    /// Streams `bytes` (readable from `base` on) through a window of
    /// `window` bytes, from a device and as a pulled batch, and holds
    /// every pass against the resident reference.
    fn assert_stream_matches_resident(bytes: &[u8], base: u64, window: usize) {
        let (frames, resident_stop, resident_window) = resident(&bytes[base as usize..], base);
        let end = resident_window.end;
        let longest = (frames.iter())
            .map(|(lsn, _, end)| (end.raw() - lsn.raw()) as usize)
            .max()
            .unwrap_or(0);
        // the window only ever grows to the one intact frame at its head,
        // or to the length a new frame that ends the log claims (it has no
        // trailer to refute that length before it is read)
        let rest = &bytes[end as usize..];
        let claimed = match LogRecord::declared_len(rest) {
            Some(len) if !LogRecord::is_legacy(rest) && len <= rest.len() => len,
            _ => 0,
        };
        let bound = window.max(4).max(longest).max(claimed) as u64;

        let mut dev = crate::MemLogDevice::new();
        dev.append(bytes).unwrap();
        dev.truncate_prefix(base).unwrap();
        let mut stream = LogStream::with_window(Source::Device(&mut dev), window);
        let mut seen = Vec::new();
        let found = stream.validate(|lsn, rec, end| seen.push((lsn, rec.clone(), end)));
        let found = found.unwrap();
        assert_eq!(found, resident_window, "window {window}");
        assert_eq!(seen, frames, "window {window}");
        let mut starts = vec![found.base_lsn()];
        for (mark, start) in &found.marks {
            // the newest begin of each listed transaction before the
            // marker, unless an outcome of it follows that begin
            let begins = |txn: &TxnId| {
                let before = frames.iter().take_while(|(lsn, ..)| *lsn < mark.begin_lsn);
                before.fold(None, |begin, (lsn, rec, _)| match rec {
                    _ if rec.txn() != Some(*txn) => begin,
                    LogRecord::TxnBegin { .. } | LogRecord::TxnPrepare { .. } => Some(*lsn),
                    LogRecord::Commit { .. }
                    | LogRecord::Abort { .. }
                    | LogRecord::TxnCommit { .. }
                    | LogRecord::TxnDecide { .. } => None,
                    _ => begin,
                })
            };
            let oldest = mark.active.iter().filter_map(begins).min();
            assert_eq!(*start, oldest.unwrap_or(mark.begin_lsn), "window {window}");
            assert_eq!(found.checkpoint_mark(mark.ckpt), Some((mark, *start)));
            starts.push(*start);
        }
        for from in starts {
            let mut streamed = Vec::new();
            let (at, stop) = stream
                .read(from, |lsn, rec, end| {
                    streamed.push((lsn, rec, end));
                    Ok(())
                })
                .unwrap();
            assert!(matches!(stop, Stop::End) && at == found.end_lsn());
            let want = frames.iter().filter(|(lsn, ..)| *lsn >= from);
            let want: Vec<_> = want.cloned().collect();
            assert_eq!(streamed, want, "window {window} from {from}");
        }
        let peak = stream.window_peak_bytes();
        assert!(peak <= bound, "window {window} grew to {peak}");

        // the same bytes as a pulled batch: the same frames, stopping at
        // the same place for the same reason
        let mut batch =
            LogStream::with_window(Source::Bytes(base, &bytes[base as usize..]), window);
        let mut pulled = Vec::new();
        let (at, stop) = batch
            .read(Lsn::ZERO, |lsn, rec, end| {
                pulled.push((lsn, rec, end));
                Ok(())
            })
            .unwrap();
        assert_eq!(pulled, frames, "window {window}");
        assert_eq!(at, Lsn(end), "window {window}");
        let same = std::mem::discriminant(&stop) == std::mem::discriminant(&resident_stop);
        assert!(same, "window {window}: {stop:?} vs {resident_stop:?}");
        let peak = batch.window_peak_bytes();
        assert!(peak <= bound, "window {window} grew to {peak}");
    }

    #[test]
    fn stream_equals_resident_on_an_intact_log_at_every_window_size() {
        let (buf, lsns) = build(&mixed_log());
        let two_frames = 2 * longest_frame(&mixed_log());
        for window in 1..=two_frames {
            assert_stream_matches_resident(&buf, 0, window);
            // truncated in front of the second use of id 2: the marker's
            // window opens at that begin, the first readable frame
            assert_stream_matches_resident(&buf, lsns[8].raw(), window);
        }
        assert_stream_matches_resident(&buf, 0, buf.len());
        assert_stream_matches_resident(&buf, 0, STREAM_WINDOW_BYTES);
        assert_stream_matches_resident(&[], 0, 16);
    }

    #[test]
    fn stream_equals_resident_on_a_log_torn_at_every_byte_of_its_last_frame() {
        let (buf, lsns) = build(&mixed_log());
        let last = lsns.last().unwrap().raw() as usize;
        let two_frames = 2 * longest_frame(&mixed_log());
        for torn_len in last..buf.len() {
            let torn = &buf[..torn_len];
            // every window up to two frames, and the windows whose first
            // edge falls just before, on and just after the tear
            let near = [
                last - 1,
                last,
                last + 1,
                torn_len - 1,
                torn_len,
                torn_len + 1,
            ];
            for window in (1..=two_frames).chain(near) {
                assert_stream_matches_resident(torn, 0, window);
            }
        }
    }

    #[test]
    fn stream_equals_resident_with_one_byte_flipped_around_every_window_edge() {
        let (buf, lsns) = build(&mixed_log());
        let frame = |i: usize| lsns[i].raw() as usize;
        // (offset, bit): length headers made shorter, longer than the log
        // and longer but still inside it (the stream checks an older
        // frame's trailer before it grows to such a length); an envelope
        // bit; a tag; payload bytes; a checksum; a trailer; the older
        // filler's unsummed padding (harmless)
        let damage = [
            (frame(2), 0x08),
            (frame(5) + 2, 0x01),
            (frame(0) + 1, 0x02),
            (frame(13) + 1, 0x01),
            (frame(10) + 4, 0x02),
            (frame(5) + 20, 0x40),
            (frame(14) + 40, 0x01),
            (frame(3) - 6, 0x10),
            (frame(16) - 1, 0x04),
            (frame(7) + 60, 0xFF),
            (frame(6) + 3, 0x80),
            (frame(9) + 3, 0x80),
        ];
        for (at, bit) in damage {
            let mut bad = buf.clone();
            bad[at] ^= bit;
            // every window size puts an edge before, on and after `at`
            for window in 1..=buf.len() + 1 {
                assert_stream_matches_resident(&bad, 0, window);
            }
        }
    }

    #[test]
    fn a_branch_frame_opens_replay_and_decided_ids_are_forgotten() {
        let recs = mixed_log();
        let (buf, lsns) = build(&recs);
        let (window, _) = scan(&buf);
        let (_, start) = window.checkpoint_mark(CheckpointId(6)).unwrap();
        assert_eq!(start, lsns[recs.len() - 3], "the TxnPrepare frame");
        let (_, start) = window.checkpoint_mark(CheckpointId(4)).unwrap();
        assert_eq!(start, lsns[8], "the second begin of id 2");
    }

    #[test]
    fn begins_hold_only_transactions_without_an_outcome() {
        // 10 000 transactions in the frames of a log older than
        // `TxnCommit`, every seventh aborted, one branch left prepared
        let mut buf = Vec::new();
        for t in 0..10_000u64 {
            let txn = TxnId(t % 4_000);
            let outcome = match t % 7 {
                0 => LogRecord::Abort { txn },
                _ => LogRecord::Commit { txn },
            };
            for rec in [
                LogRecord::TxnBegin {
                    txn,
                    tau: Timestamp(t),
                },
                LogRecord::Update {
                    txn,
                    record: RecordId(t),
                    value: vec![1; 2],
                },
                outcome,
            ] {
                buf.extend_from_slice(&legacy(&rec));
            }
        }
        let open = [
            LogRecord::TxnBegin {
                txn: TxnId(1),
                tau: Timestamp(1),
            },
            LogRecord::Prepare {
                txn: TxnId(1),
                gid: 3,
            },
            LogRecord::TxnPrepare {
                txn: TxnId(2),
                gid: 4,
                writes: vec![],
            },
        ];
        let at = buf.len() as u64;
        for rec in &open {
            rec.encode_into(&mut buf);
        }
        let (mut window, mut begins) = (LogWindow::default(), HashMap::new());
        let mut pos = 0;
        while let Ok((rec, used)) = step(&buf[pos..], true) {
            window.note(&mut begins, Lsn(pos as u64), &rec);
            pos += used;
        }
        assert_eq!(pos, buf.len());
        let branch_at = at
            + open[..2]
                .iter()
                .map(|r| r.encoded_len() as u64)
                .sum::<u64>();
        let want = HashMap::from([(TxnId(1), Lsn(at)), (TxnId(2), Lsn(branch_at))]);
        assert_eq!(begins, want);
    }

    #[test]
    fn stream_counts_what_it_reads_and_the_largest_window_it_held() {
        let (buf, _) = build(&mixed_log());
        let mut dev = crate::MemLogDevice::new();
        dev.append(&buf).unwrap();
        let mut stream = LogStream::with_window(Source::Device(&mut dev), 140);
        let found = stream.validate(|_, _, _| {}).unwrap();
        // the 150-byte older filler is the one frame longer than the
        // window; growing to it costs one 4-byte look at its trailer
        assert_eq!(stream.window_peak_bytes(), 150);
        assert_eq!(stream.bytes_read(), buf.len() as u64 + 4);
        stream.read(found.base_lsn(), |_, _, _| Ok(())).unwrap();
        assert_eq!(stream.bytes_read(), 2 * (buf.len() as u64 + 4));

        // a new frame has no trailer to look at: its header alone
        let mut buf = Vec::new();
        for rec in [
            LogRecord::Commit { txn: TxnId(1) },
            LogRecord::Compacted { span: 150 },
            LogRecord::Commit { txn: TxnId(2) },
        ] {
            rec.encode_into(&mut buf);
        }
        let mut dev = crate::MemLogDevice::new();
        dev.append(&buf).unwrap();
        let mut stream = LogStream::with_window(Source::Device(&mut dev), 140);
        let found = stream.validate(|_, _, _| {}).unwrap();
        assert_eq!(found.end_lsn(), Lsn(buf.len() as u64));
        assert_eq!(stream.window_peak_bytes(), 150);
        assert_eq!(stream.bytes_read(), buf.len() as u64);
    }

    #[test]
    fn a_new_frame_declaring_more_than_the_bound_ends_the_log() {
        let (mut buf, _) = build(&sample_log());
        let intact = buf.len() as u64;
        let len = (MAX_TXN_FRAME_BYTES as u32 + 1) | 1 << 31;
        buf.extend_from_slice(&len.to_le_bytes());
        buf.resize(buf.len() + 64, 0);
        let mut dev = crate::MemLogDevice::new();
        dev.append(&buf).unwrap();
        let mut stream = LogStream::with_window(Source::Device(&mut dev), 16);
        assert_eq!(
            stream.validate(|_, _, _| {}).unwrap().end_lsn(),
            Lsn(intact)
        );
        assert!(stream.window_peak_bytes() <= 64);
        assert!(matches!(
            step(&buf[intact as usize..], true),
            Err(Stop::Bad(_))
        ));
    }

    #[test]
    fn a_newer_frame_fails_every_pass_instead_of_ending_the_log() {
        let (mut buf, _) = build(&sample_log());
        let at = buf.len();
        // a frame of a tag this build does not know, checksummed as a
        // newer writer would, then one more commit behind it
        crate::record::tests::sealed(&mut buf, &[0xEE, 1, 2, 3]);
        LogRecord::Commit { txn: TxnId(1) }.encode_into(&mut buf);
        let mut dev = crate::MemLogDevice::new();
        dev.append(&buf).unwrap();
        for window in [7, 64, STREAM_WINDOW_BYTES] {
            let mut stream = LogStream::with_window(Source::Device(&mut dev), window);
            let err = stream.validate(|_, _, _| {}).unwrap_err();
            assert!(matches!(err, MmdbError::NewerFormat(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("log frame at {at}")),
                "{err}"
            );
            let err = stream.read(Lsn::ZERO, |_, _, _| Ok(())).unwrap_err();
            assert!(matches!(err, MmdbError::NewerFormat(_)), "{err}");
        }
        let mut batch = LogStream::over(Lsn::ZERO, &buf);
        assert!(matches!(
            batch.read(Lsn::ZERO, |_, _, _| Ok(())),
            Err(MmdbError::NewerFormat(_))
        ));
    }

    #[test]
    fn a_commit_point_frame_is_an_outcome_of_its_id() {
        let recs = vec![
            LogRecord::TxnBegin {
                txn: TxnId(3),
                tau: Timestamp(1),
            },
            LogRecord::TxnDecide {
                txn: TxnId(3),
                gid: 8,
                writes: vec![(RecordId(1), vec![5])],
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(1),
                tau: Timestamp(2),
                active: vec![TxnId(3)],
            },
        ];
        let (buf, lsns) = build(&recs);
        let (window, frames) = scan(&buf);
        assert_eq!(frames.len(), 3);
        assert_eq!(window.checkpoint_mark(CheckpointId(1)).unwrap().1, lsns[2]);
    }

    #[test]
    fn checkpoint_mark_finds_the_newest_marker_of_that_checkpoint() {
        let mut recs = sample_log();
        recs.push(LogRecord::BeginCheckpoint {
            ckpt: CheckpointId(1),
            tau: Timestamp(9),
            active: vec![],
        });
        let (buf, lsns) = build(&recs);
        let (window, _) = scan(&buf);
        let begin = |ckpt| {
            window
                .checkpoint_mark(CheckpointId(ckpt))
                .map(|(m, _)| m.begin_lsn)
        };
        assert_eq!(begin(1), Some(lsns[6]));
        assert_eq!(begin(2), Some(lsns[5]));
        assert_eq!(begin(7), None);
    }

    #[test]
    fn empty_log() {
        let (window, frames) = scan(&[]);
        assert_eq!(window.end_lsn(), Lsn::ZERO);
        assert!(frames.is_empty());
        assert!(window.last_complete_checkpoint().is_none());
    }

    #[test]
    fn words_from_measures_replay_bulk() {
        let (buf, lsns) = build(&sample_log());
        let total = buf.len() as u64;
        let (window, _) = scan(&buf);
        assert_eq!(window.words_from(Lsn::ZERO), total.div_ceil(4));
        assert_eq!(
            window.words_from(lsns[5]),
            (total - lsns[5].raw()).div_ceil(4)
        );
    }

    #[test]
    fn base_offset_preserves_global_lsns() {
        // Simulate a truncated log: the same records, but the scanner is
        // told the bytes start at global LSN 1000.
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let (window, fwd) = scan_at(&buf, 1000);
        assert_eq!(window.base_lsn(), Lsn(1000));

        assert_eq!(fwd.len(), recs.len());
        for ((lsn, _), want) in fwd.iter().zip(&lsns) {
            assert_eq!(lsn.raw(), want.raw() + 1000);
        }
        // replay from a global LSN lands mid-stream correctly
        let from_third = replayed(&buf, 1000, &window, Lsn(lsns[3].raw() + 1000));
        assert_eq!(from_third.len(), recs.len() - 3);
        // marker location and replay bulk use the global space
        let mark = window.last_complete_checkpoint().unwrap();
        assert_eq!(mark.begin_lsn.raw(), lsns[2].raw() + 1000);
        assert_eq!(
            window.words_from(mark.begin_lsn),
            (window.end_lsn().raw() - mark.begin_lsn.raw()).div_ceil(4)
        );
    }

    #[test]
    fn multiple_complete_checkpoints_newest_wins() {
        let recs = vec![
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(1),
                tau: Timestamp(1),
                active: vec![],
            },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(1),
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(2),
                tau: Timestamp(2),
                active: vec![],
            },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(2),
            },
        ];
        let (buf, lsns) = build(&recs);
        let (window, _) = scan(&buf);
        let mark = window.last_complete_checkpoint().unwrap();
        assert_eq!(mark.ckpt, CheckpointId(2));
        assert_eq!(mark.begin_lsn, lsns[2]);
    }
}
