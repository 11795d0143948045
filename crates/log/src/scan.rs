//! Log scanning for recovery.
//!
//! After a system failure the recovery manager scans the durable log
//! (paper §3.3): *backward* to locate the begin-checkpoint marker of the
//! most recently completed checkpoint (skipping incomplete ones), possibly
//! further backward to the begin record of the oldest transaction active
//! at that marker (fuzzy checkpoints), then *forward* to replay committed
//! updates.
//!
//! The scanner tolerates a torn final flush: on construction it walks the
//! log forward and treats the first undecodable frame as the end of the
//! durable log. Everything before it is intact (each frame is
//! checksummed). That rule is the same however many threads share the
//! checksum work ([`LogScanner::from_device_lanes`]).

use crate::device::LogDevice;
use crate::record::{LogRecord, FRAME_OVERHEAD};
use mmdb_types::{CheckpointId, Lsn, Result, Timestamp, TxnId};

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

/// An in-memory view of the durable log, validated up to the first torn
/// or corrupt frame.
#[derive(Debug)]
pub struct LogScanner {
    bytes: Vec<u8>,
    /// Length of the validated prefix of `bytes` (ends at the last
    /// intact record).
    valid_len: usize,
    /// Global LSN of `bytes[0]` — non-zero when the log's obsolete
    /// prefix has been truncated away.
    base: u64,
    /// Every begin-checkpoint marker of the validated window, oldest
    /// first (noted by the validation pass, which decodes them anyway).
    marks: Vec<CheckpointMark>,
}

/// Decodes `bytes` (whose first byte sits at global LSN `at`) frame by
/// frame up to the first torn or corrupt one: the intact length and the
/// begin-checkpoint markers inside it.
fn validate(bytes: &[u8], at: u64) -> (usize, Vec<CheckpointMark>) {
    let mut pos = 0usize;
    let mut marks = Vec::new();
    while pos < bytes.len() {
        match LogRecord::decode(&bytes[pos..]) {
            Ok((rec, used)) => {
                if let LogRecord::BeginCheckpoint { ckpt, tau, active } = rec {
                    marks.push(CheckpointMark {
                        ckpt,
                        begin_lsn: Lsn(at + pos as u64),
                        tau,
                        active,
                    });
                }
                pos += used;
            }
            Err(_) => break, // torn tail: stop here
        }
    }
    (pos, marks)
}

impl LogScanner {
    /// Reads and validates the durable log from `device` (honoring its
    /// truncation point: LSNs stay global).
    pub fn from_device(device: &mut dyn LogDevice) -> Result<LogScanner> {
        LogScanner::from_device_lanes(device, 1)
    }

    /// [`LogScanner::from_device`] with the frame checksums shared among
    /// `lanes` threads. The validated window is the same at every lane
    /// count: it ends at the first bad frame.
    pub fn from_device_lanes(device: &mut dyn LogDevice, lanes: usize) -> Result<LogScanner> {
        let base = device.start_offset();
        Ok(LogScanner::validated(device.read_all()?, base, lanes))
    }

    /// Builds a scanner over raw log bytes starting at LSN 0.
    pub fn from_bytes(bytes: Vec<u8>) -> LogScanner {
        LogScanner::from_bytes_at(bytes, 0)
    }

    /// Builds a scanner over raw log bytes whose first byte sits at
    /// global LSN `base` (must be a record boundary).
    pub fn from_bytes_at(bytes: Vec<u8>, base: u64) -> LogScanner {
        LogScanner::validated(bytes, base, 1)
    }

    fn validated(bytes: Vec<u8>, base: u64, lanes: usize) -> LogScanner {
        // Cut the log into one share per lane at frame boundaries, found
        // from the length headers alone. A damaged header can only lead
        // this walk astray at or after the frame whose checksum fails,
        // and everything from that frame on is discarded below.
        let mut cuts = vec![0usize];
        if lanes > 1 {
            let share = bytes.len().div_ceil(lanes);
            let mut pos = 0usize;
            while let Some(total) =
                LogRecord::frame_len(&bytes[pos..]).filter(|&t| t >= FRAME_OVERHEAD)
            {
                pos += total;
                if pos >= cuts.len() * share {
                    cuts.push(pos);
                }
            }
            if cuts.last() != Some(&pos) {
                cuts.push(pos);
            }
        } else {
            cuts.push(bytes.len());
        }
        let spans = || {
            cuts.windows(2)
                .map(|w| (&bytes[w[0]..w[1]], base + w[0] as u64))
        };
        let shares: Vec<(usize, Vec<CheckpointMark>)> = if lanes > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = spans()
                    .map(|(part, at)| scope.spawn(move || validate(part, at)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        } else {
            spans().map(|(part, at)| validate(part, at)).collect()
        };
        let mut valid_len = 0usize;
        let mut marks = Vec::new();
        for (w, (len, found)) in cuts.windows(2).zip(shares) {
            valid_len = w[0] + len;
            marks.extend(found);
            if valid_len < w[1] {
                break; // the first bad frame ends the log
            }
        }
        LogScanner {
            bytes,
            valid_len,
            base,
            marks,
        }
    }

    /// Length in bytes of the validated log window.
    pub fn valid_len(&self) -> u64 {
        self.valid_len as u64
    }

    /// Global LSN of the first scannable record.
    pub fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Global LSN just past the last intact record.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.base + self.valid_len as u64)
    }

    /// Log bulk in words of the validated prefix — the recovery-time
    /// metric the paper uses (§4: recovery reads the backup plus "the
    /// appropriate portion of the log").
    pub fn valid_words(&self) -> u64 {
        (self.valid_len as u64).div_ceil(4)
    }

    /// Iterates records forward starting at `from` (must be a record
    /// boundary; [`Lsn::ZERO`] is always valid). The window was
    /// checksummed once, at construction; iteration does not repeat it.
    pub fn forward_from(&self, from: Lsn) -> ForwardIter<'_> {
        ForwardIter {
            scanner: self,
            pos: (from.raw().saturating_sub(self.base) as usize).min(self.valid_len),
        }
    }

    /// Iterates records backward starting from the end of the validated
    /// prefix.
    pub fn backward(&self) -> BackwardIter<'_> {
        self.backward_before(self.end_lsn())
    }

    /// Iterates backward over the records that end at or before `lsn`
    /// (a record boundary).
    fn backward_before(&self, lsn: Lsn) -> BackwardIter<'_> {
        BackwardIter {
            scanner: self,
            end: (lsn.raw().saturating_sub(self.base) as usize).min(self.valid_len),
        }
    }

    /// The newest begin marker of checkpoint `ckpt` — where recovery from
    /// the backup copy holding `ckpt` starts looking (paper §3.3).
    pub fn checkpoint_mark(&self, ckpt: CheckpointId) -> Option<&CheckpointMark> {
        self.marks.iter().rev().find(|m| m.ckpt == ckpt)
    }

    /// Finds the most recently *completed* checkpoint: scans backward,
    /// remembering end-checkpoint markers, and returns the first
    /// begin-checkpoint marker whose end marker has been seen
    /// (paper §3.3 and its footnote).
    pub fn last_complete_checkpoint(&self) -> Option<CheckpointMark> {
        let mut completed: Vec<CheckpointId> = Vec::new();
        for (lsn, rec) in self.backward() {
            match rec {
                LogRecord::EndCheckpoint { ckpt } => completed.push(ckpt),
                LogRecord::BeginCheckpoint { ckpt, tau, active } if completed.contains(&ckpt) => {
                    return Some(CheckpointMark {
                        ckpt,
                        begin_lsn: lsn,
                        tau,
                        active,
                    });
                }
                // an incomplete checkpoint: skip and keep scanning
                _ => {}
            }
        }
        None
    }

    /// Finds the LSN to start forward replay from, for a checkpoint whose
    /// begin marker listed `active` transactions: the smallest begin-LSN
    /// among those transactions, or the marker itself when the list is
    /// empty (paper §3.3: fuzzy checkpoints must scan "until the beginning
    /// of the earliest transaction in the active transaction list").
    pub fn replay_start(&self, mark: &CheckpointMark) -> Lsn {
        if mark.active.is_empty() {
            return mark.begin_lsn;
        }
        let mut remaining: Vec<TxnId> = mark.active.clone();
        let mut earliest = mark.begin_lsn;
        for (lsn, rec) in self.backward_before(mark.begin_lsn) {
            if let LogRecord::TxnBegin { txn, .. } = rec {
                if let Some(i) = remaining.iter().position(|t| *t == txn) {
                    remaining.swap_remove(i);
                    earliest = lsn;
                    if remaining.is_empty() {
                        break;
                    }
                }
            }
        }
        earliest
    }

    /// Words of log from `from` to the end of the validated window — the
    /// portion recovery must read and replay.
    pub fn words_from(&self, from: Lsn) -> u64 {
        (self.base + self.valid_len as u64)
            .saturating_sub(from.raw())
            .div_ceil(4)
    }
}

/// Forward record iterator. Yields `(lsn, record)`.
#[derive(Debug)]
pub struct ForwardIter<'a> {
    scanner: &'a LogScanner,
    pos: usize,
}

impl Iterator for ForwardIter<'_> {
    type Item = (Lsn, LogRecord);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.scanner.valid_len {
            return None;
        }
        // inside the window every frame passed `validate`
        match LogRecord::decode_verified(&self.scanner.bytes[self.pos..self.scanner.valid_len]) {
            Ok((rec, used)) => {
                let lsn = Lsn(self.scanner.base + self.pos as u64);
                self.pos += used;
                Some((lsn, rec))
            }
            Err(_) => {
                // `from` was not a record boundary: there is nothing more.
                self.pos = self.scanner.valid_len;
                None
            }
        }
    }
}

/// Backward record iterator. Yields `(lsn, record)` from newest to oldest.
#[derive(Debug)]
pub struct BackwardIter<'a> {
    scanner: &'a LogScanner,
    end: usize,
}

impl Iterator for BackwardIter<'_> {
    type Item = (Lsn, LogRecord);

    fn next(&mut self) -> Option<Self::Item> {
        if self.end == 0 {
            return None;
        }
        let start = LogRecord::frame_start_before(&self.scanner.bytes, self.end).ok()?;
        let (rec, _) = LogRecord::decode_verified(&self.scanner.bytes[start..self.end]).ok()?;
        self.end = start;
        Some((Lsn(self.scanner.base + start as u64), rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::RecordId;

    fn build(records: &[LogRecord]) -> (Vec<u8>, Vec<Lsn>) {
        let mut buf = Vec::new();
        let mut lsns = Vec::new();
        for r in records {
            lsns.push(Lsn(buf.len() as u64));
            r.encode_into(&mut buf);
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
    fn forward_and_backward_agree() {
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let sc = LogScanner::from_bytes(buf);

        let fwd: Vec<_> = sc.forward_from(Lsn::ZERO).collect();
        assert_eq!(fwd.len(), recs.len());
        for ((lsn, rec), (want_lsn, want_rec)) in fwd.iter().zip(lsns.iter().zip(&recs)) {
            assert_eq!(lsn, want_lsn);
            assert_eq!(rec, want_rec);
        }

        let mut bwd: Vec<_> = sc.backward().collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn forward_from_mid_lsn() {
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let sc = LogScanner::from_bytes(buf);
        let fwd: Vec<_> = sc.forward_from(lsns[3]).collect();
        assert_eq!(fwd.len(), 3);
        assert_eq!(fwd[0].1, recs[3]);
    }

    #[test]
    fn skips_incomplete_checkpoint() {
        let (buf, lsns) = build(&sample_log());
        let sc = LogScanner::from_bytes(buf);
        let mark = sc.last_complete_checkpoint().unwrap();
        assert_eq!(mark.ckpt, CheckpointId(1), "ckpt 2 has no end marker");
        assert_eq!(mark.begin_lsn, lsns[2]);
        assert_eq!(mark.active, vec![TxnId(1)]);
    }

    #[test]
    fn replay_start_extends_to_oldest_active_txn() {
        let (buf, lsns) = build(&sample_log());
        let sc = LogScanner::from_bytes(buf);
        let mark = sc.last_complete_checkpoint().unwrap();
        // txn 1 was active at the marker; its begin is record 0
        assert_eq!(sc.replay_start(&mark), lsns[0]);
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
        let sc = LogScanner::from_bytes(buf);
        let mark = sc.last_complete_checkpoint().unwrap();
        assert_eq!(sc.replay_start(&mark), lsns[0]);
    }

    #[test]
    fn no_checkpoint_returns_none() {
        let (buf, _) = build(&[LogRecord::Commit { txn: TxnId(1) }]);
        let sc = LogScanner::from_bytes(buf);
        assert!(sc.last_complete_checkpoint().is_none());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let recs = sample_log();
        let (mut buf, _) = build(&recs);
        let full = buf.len();
        // append a record and tear it
        LogRecord::Commit { txn: TxnId(99) }.encode_into(&mut buf);
        buf.truncate(full + 5);
        let sc = LogScanner::from_bytes(buf);
        assert_eq!(sc.valid_len() as usize, full);
        assert_eq!(sc.forward_from(Lsn::ZERO).count(), recs.len());
        assert_eq!(sc.backward().count(), recs.len());
    }

    #[test]
    fn validated_window_is_the_same_at_every_lane_count() {
        let mut recs = sample_log();
        for i in 0..40u64 {
            recs.push(LogRecord::Update {
                txn: TxnId(i),
                record: RecordId(i),
                value: vec![i as u32; 8],
            });
        }
        let (buf, lsns) = build(&recs);
        // intact, torn mid-frame, a flipped payload byte, a flipped
        // length header (the header walk that cuts the shares derails)
        let mut damaged = vec![buf.clone(), buf[..buf.len() - 7].to_vec()];
        for at in [lsns[20].raw() as usize + 30, lsns[12].raw() as usize] {
            let mut bad = buf.clone();
            bad[at] ^= 0x04;
            damaged.push(bad);
        }
        for bytes in damaged {
            let serial = LogScanner::from_bytes_at(bytes.clone(), 500);
            for lanes in [2, 3, 64] {
                let fanned = LogScanner::validated(bytes.clone(), 500, lanes);
                assert_eq!(fanned.valid_len(), serial.valid_len(), "{lanes} lanes");
                assert_eq!(fanned.marks, serial.marks, "{lanes} lanes");
            }
        }
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
        let sc = LogScanner::from_bytes(buf);
        assert_eq!(
            sc.checkpoint_mark(CheckpointId(1)).unwrap().begin_lsn,
            lsns[6]
        );
        assert_eq!(
            sc.checkpoint_mark(CheckpointId(2)).unwrap().begin_lsn,
            lsns[5]
        );
        assert!(sc.checkpoint_mark(CheckpointId(7)).is_none());
    }

    #[test]
    fn empty_log() {
        let sc = LogScanner::from_bytes(Vec::new());
        assert_eq!(sc.valid_len(), 0);
        assert_eq!(sc.forward_from(Lsn::ZERO).count(), 0);
        assert_eq!(sc.backward().count(), 0);
        assert!(sc.last_complete_checkpoint().is_none());
    }

    #[test]
    fn words_from_measures_replay_bulk() {
        let (buf, lsns) = build(&sample_log());
        let total = buf.len() as u64;
        let sc = LogScanner::from_bytes(buf);
        assert_eq!(sc.words_from(Lsn::ZERO), total.div_ceil(4));
        assert_eq!(sc.words_from(lsns[5]), (total - lsns[5].raw()).div_ceil(4));
        assert_eq!(sc.valid_words(), total.div_ceil(4));
    }

    #[test]
    fn base_offset_preserves_global_lsns() {
        // Simulate a truncated log: the same records, but the scanner is
        // told the bytes start at global LSN 1000.
        let recs = sample_log();
        let (buf, lsns) = build(&recs);
        let sc = LogScanner::from_bytes_at(buf, 1000);
        assert_eq!(sc.base_lsn(), Lsn(1000));

        let fwd: Vec<_> = sc.forward_from(Lsn::ZERO).collect();
        assert_eq!(fwd.len(), recs.len());
        for ((lsn, _), want) in fwd.iter().zip(&lsns) {
            assert_eq!(lsn.raw(), want.raw() + 1000);
        }
        // forward_from with a global LSN lands mid-stream correctly
        let from_third: Vec<_> = sc.forward_from(Lsn(lsns[3].raw() + 1000)).collect();
        assert_eq!(from_third.len(), recs.len() - 3);
        // backward scan reports global LSNs too
        let (last_lsn, _) = sc.backward().next().unwrap();
        assert_eq!(last_lsn.raw(), lsns.last().unwrap().raw() + 1000);
        // marker location and replay bulk use the global space
        let mark = sc.last_complete_checkpoint().unwrap();
        assert_eq!(mark.begin_lsn.raw(), lsns[2].raw() + 1000);
        assert_eq!(
            sc.words_from(mark.begin_lsn),
            (sc.end_lsn().raw() - mark.begin_lsn.raw()).div_ceil(4)
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
        let sc = LogScanner::from_bytes(buf);
        let mark = sc.last_complete_checkpoint().unwrap();
        assert_eq!(mark.ckpt, CheckpointId(2));
        assert_eq!(mark.begin_lsn, lsns[2]);
    }
}
