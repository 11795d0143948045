//! Transaction management: the active-transaction table, shadow-copy
//! write buffering, and two-color conflict tracking.
//!
//! Per the paper's load model (§2.5–2.6):
//!
//! * updates are stored in a buffer local to the updating transaction
//!   until commit (*shadow-copy* scheme, as in IMS/Fastpath) — this crate
//!   holds each transaction's buffer as one run of after-images with a
//!   [`StagedWrite`] per image;
//! * at commit the engine installs the staged writes into the primary
//!   database and writes REDO log records — installation is orchestrated
//!   by `mmdb-core`, which owns the storage and log;
//! * during an active two-color checkpoint, "no transaction is allowed to
//!   access both white and black records" (§3.2.1) — the table tracks the
//!   colors each transaction has observed and reports violations as
//!   transient errors, which the engine converts into abort + rerun.
//!
//! The table also maintains the statistics the performance study needs:
//! commits, aborts by cause, and restart counts (`p_restart`, §2.7/§4).

#![warn(missing_docs)]

use mmdb_types::{Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, TxnId, Word};
use std::collections::BTreeMap;

/// The paint color a transaction observed (mirrors
/// `mmdb_storage::Color`, duplicated here to keep this crate free of a
/// storage dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeenColor {
    /// Accessed a white (not yet checkpointed) segment.
    White,
    /// Accessed a black (already checkpointed) segment.
    Black,
}

/// A buffered (pre-commit) update of one record; its after-image is in
/// the transaction's [`ActiveTxn::images`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedWrite {
    /// The record to be overwritten at commit.
    pub record: RecordId,
    /// The segment containing it (cached for commit-time color checks).
    pub segment: SegmentId,
}

/// An active transaction.
#[derive(Debug)]
pub struct ActiveTxn {
    /// The transaction id.
    pub id: TxnId,
    /// The transaction timestamp `τ(T)` (assigned at begin; used by the
    /// copy-on-update protocol).
    pub tau: Timestamp,
    /// LSN of the branch's `TxnPrepare` frame once it is prepared — the
    /// replay floor a checkpoint begun while it is open must keep; a
    /// transaction that is not prepared has nothing in the log.
    pub begin_lsn: Lsn,
    /// Buffered updates, in program order.
    pub writes: Vec<StagedWrite>,
    /// Their after-images, end to end in the same order: write `i`'s
    /// (full record, `S_rec` words) is `images[i * S_rec..(i + 1) * S_rec]`.
    /// One buffer per transaction, however many records it writes.
    pub images: Vec<Word>,
    /// The color this transaction has observed during the current
    /// two-color checkpoint, if any.
    pub color_seen: Option<SeenColor>,
    /// How many times this logical transaction has been started
    /// (1 = first run; >1 after two-color restarts).
    pub run: u32,
    /// When `Some(gid)`, the transaction is a *prepared* branch of the
    /// global transaction `gid` (sharded two-phase commit): its updates
    /// are durable in the log and it may no longer unilaterally abort —
    /// only `finish_commit` or an explicit coordinator-decided abort may
    /// remove it.
    pub prepared: Option<u64>,
}

impl ActiveTxn {
    /// Records that the transaction observed `color`; errors if it has
    /// already observed the opposite color (the two-color rule).
    pub fn observe_color(&mut self, color: SeenColor, segment: SegmentId) -> Result<()> {
        match self.color_seen {
            None => {
                self.color_seen = Some(color);
                Ok(())
            }
            Some(seen) if seen == color => Ok(()),
            Some(_) => Err(MmdbError::TwoColorViolation {
                txn: self.id,
                segment,
            }),
        }
    }

    /// Total words buffered in the shadow copy.
    pub fn staged_words(&self) -> u64 {
        self.images.len() as u64
    }

    /// Words per after-image (0 while nothing is staged).
    fn image_words(&self) -> usize {
        self.images
            .len()
            .checked_div(self.writes.len())
            .unwrap_or(0)
    }

    /// Every staged write with its after-image, in program order.
    pub fn staged(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&StagedWrite, &[Word])> + ExactSizeIterator + Clone {
        let images = self.images.chunks_exact(self.image_words().max(1));
        self.writes.iter().zip(images)
    }

    /// Makes room for `writes` more writes of `image_words` words each,
    /// so that staging them allocates nothing.
    pub fn reserve(&mut self, writes: usize, image_words: usize) {
        self.writes.reserve_exact(writes);
        self.images.reserve_exact(writes * image_words);
    }

    /// Buffers an update: `value` (a whole record, as long as every other
    /// image of the transaction) is copied onto the end of [`images`](Self::images).
    pub fn stage(&mut self, record: RecordId, segment: SegmentId, value: &[Word]) -> Result<()> {
        if value.is_empty() || (!self.writes.is_empty() && value.len() != self.image_words()) {
            return Err(MmdbError::BadRecordSize {
                expected: self.image_words() as u64,
                got: value.len() as u64,
            });
        }
        self.writes.push(StagedWrite { record, segment });
        self.images.extend_from_slice(value);
        Ok(())
    }
}

/// Counters for the transaction-failure statistics of §2.7/§4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun (including reruns).
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Aborts caused by the two-color rule (checkpoint-induced failures).
    pub aborted_two_color: u64,
    /// Aborts for any other reason (explicit application aborts).
    pub aborted_other: u64,
}

impl TxnStats {
    /// The empirical checkpoint-induced restart probability
    /// `p_restart = two-color aborts / begun`.
    pub fn p_restart(&self) -> f64 {
        if self.begun == 0 {
            0.0
        } else {
            self.aborted_two_color as f64 / self.begun as f64
        }
    }
}

/// The active-transaction table.
#[derive(Debug, Default)]
pub struct TxnTable {
    next_id: u64,
    active: BTreeMap<TxnId, ActiveTxn>,
    stats: TxnStats,
}

impl TxnTable {
    /// An empty table.
    pub fn new() -> TxnTable {
        TxnTable::default()
    }

    /// Begins a transaction with the given timestamp and begin LSN (see
    /// [`ActiveTxn::begin_lsn`]); returns its id. `run` is 1 for a fresh transaction, >1 for a
    /// two-color rerun of the same logical work.
    pub fn begin(&mut self, tau: Timestamp, begin_lsn: Lsn, run: u32) -> TxnId {
        self.next_id += 1;
        let id = TxnId(self.next_id);
        self.active.insert(
            id,
            ActiveTxn {
                id,
                tau,
                begin_lsn,
                writes: Vec::new(),
                images: Vec::new(),
                color_seen: None,
                run,
                prepared: None,
            },
        );
        self.stats.begun += 1;
        id
    }

    /// Re-enters a prepared branch of global transaction `gid` that
    /// recovery found in doubt, under the id an earlier incarnation gave
    /// it, so that it can be finished like any prepared branch (and is
    /// counted as begun, like one); returns it with nothing staged, for
    /// the caller to [`stage`](ActiveTxn::stage) its after-images. The
    /// caller finishes it before beginning anything else: `id` is not
    /// reserved against [`TxnTable::begin`].
    pub fn adopt_prepared(&mut self, id: TxnId, gid: u64, tau: Timestamp) -> &mut ActiveTxn {
        self.stats.begun += 1;
        let txn = ActiveTxn {
            id,
            tau,
            begin_lsn: Lsn::ZERO,
            writes: Vec::new(),
            images: Vec::new(),
            color_seen: None,
            run: 1,
            prepared: Some(gid),
        };
        self.active.insert(id, txn);
        self.active.get_mut(&id).expect("just inserted")
    }

    /// The active transaction with the given id.
    pub fn get(&self, id: TxnId) -> Result<&ActiveTxn> {
        self.active.get(&id).ok_or(MmdbError::NoSuchTxn(id))
    }

    /// Mutable access to an active transaction.
    pub fn get_mut(&mut self, id: TxnId) -> Result<&mut ActiveTxn> {
        self.active.get_mut(&id).ok_or(MmdbError::NoSuchTxn(id))
    }

    /// Buffers an update in the transaction's shadow copy (see
    /// [`ActiveTxn::stage`]).
    pub fn stage_write(
        &mut self,
        id: TxnId,
        record: RecordId,
        segment: SegmentId,
        value: &[Word],
    ) -> Result<()> {
        self.get_mut(id)?.stage(record, segment, value)
    }

    /// Removes the transaction for commit, returning its state. The
    /// engine installs the writes and logs the commit; the table only
    /// counts it.
    pub fn finish_commit(&mut self, id: TxnId) -> Result<ActiveTxn> {
        let txn = self.active.remove(&id).ok_or(MmdbError::NoSuchTxn(id))?;
        self.stats.committed += 1;
        Ok(txn)
    }

    /// Removes the transaction for an abort. `two_color` distinguishes
    /// checkpoint-induced aborts (which the study counts as restarts)
    /// from application aborts.
    pub fn finish_abort(&mut self, id: TxnId, two_color: bool) -> Result<ActiveTxn> {
        let txn = self.active.remove(&id).ok_or(MmdbError::NoSuchTxn(id))?;
        if two_color {
            self.stats.aborted_two_color += 1;
        } else {
            self.stats.aborted_other += 1;
        }
        Ok(txn)
    }

    /// The prepared branches and the LSN each one's frames begin at (the
    /// begin-checkpoint marker's active list, §3.1: only they have
    /// frames before the marker).
    pub fn prepared(&self) -> Vec<(TxnId, Lsn)> {
        let prepared = self.active.values().filter(|t| t.prepared.is_some());
        prepared.map(|t| (t.id, t.begin_lsn)).collect()
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// True when no transactions are active (the COU quiesce condition,
    /// §3.2.2).
    pub fn is_quiescent(&self) -> bool {
        self.active.is_empty()
    }

    /// Clears the color observations of all active transactions (called
    /// when a two-color checkpoint begins: observations from before the
    /// checkpoint refer to pre-checkpoint state and must not trigger
    /// spurious aborts).
    pub fn reset_colors(&mut self) {
        for txn in self.active.values_mut() {
            txn.color_seen = None;
        }
    }

    /// Discards all active transactions (a crash loses the volatile
    /// transaction table; their staged writes were never installed).
    pub fn crash(&mut self) {
        self.active.clear();
    }

    /// The statistics so far.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TxnTable {
        TxnTable::new()
    }

    #[test]
    fn begin_assigns_unique_ids() {
        let mut t = table();
        let a = t.begin(Timestamp(1), Lsn(0), 1);
        let b = t.begin(Timestamp(2), Lsn(10), 1);
        assert_ne!(a, b);
        assert_eq!(t.active_count(), 2);
        assert_eq!(t.stats().begun, 2);
    }

    #[test]
    fn stage_and_commit_returns_writes_in_order() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        t.stage_write(id, RecordId(5), SegmentId(0), &[1, 2])
            .unwrap();
        t.stage_write(id, RecordId(9), SegmentId(1), &[3, 4])
            .unwrap();
        let txn = t.finish_commit(id).unwrap();
        assert_eq!(txn.writes.len(), 2);
        assert_eq!(txn.writes[0].record, RecordId(5));
        assert_eq!(txn.writes[1].record, RecordId(9));
        let staged: Vec<_> = txn.staged().map(|(w, v)| (w.record, v.to_vec())).collect();
        assert_eq!(
            staged,
            [(RecordId(5), vec![1, 2]), (RecordId(9), vec![3, 4])]
        );
        assert_eq!(txn.staged_words(), 4);
        assert!(t.is_quiescent());
        assert_eq!(t.stats().committed, 1);
        assert!(t.get(id).is_err());
    }

    #[test]
    fn every_image_of_a_transaction_has_one_length() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        assert!(t.stage_write(id, RecordId(1), SegmentId(0), &[]).is_err());
        t.stage_write(id, RecordId(1), SegmentId(0), &[7, 8, 9])
            .unwrap();
        let err = t
            .stage_write(id, RecordId(2), SegmentId(0), &[1, 2])
            .unwrap_err();
        assert!(matches!(
            err,
            MmdbError::BadRecordSize {
                expected: 3,
                got: 2
            }
        ));
        let staged: Vec<_> = t
            .get(id)
            .unwrap()
            .staged()
            .map(|(_, v)| v.to_vec())
            .collect();
        assert_eq!(staged, [vec![7, 8, 9]]);
    }

    #[test]
    fn an_adopted_branch_is_prepared_and_takes_its_images() {
        let mut t = table();
        let txn = t.adopt_prepared(TxnId(40), 9, Timestamp(3));
        txn.stage(RecordId(4), SegmentId(1), &[5, 6]).unwrap();
        assert_eq!(t.get(TxnId(40)).unwrap().prepared, Some(9));
        let (w, image) = t.get(TxnId(40)).unwrap().staged().next().unwrap();
        assert_eq!((w.record, image), (RecordId(4), &[5, 6][..]));
        assert_eq!(t.stats().begun, 1);
    }

    #[test]
    fn two_color_rule_enforced() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        t.get_mut(id)
            .unwrap()
            .observe_color(SeenColor::White, SegmentId(0))
            .unwrap();
        t.get_mut(id)
            .unwrap()
            .observe_color(SeenColor::White, SegmentId(1))
            .unwrap();
        let err = t
            .get_mut(id)
            .unwrap()
            .observe_color(SeenColor::Black, SegmentId(2))
            .unwrap_err();
        assert!(matches!(err, MmdbError::TwoColorViolation { .. }));
    }

    #[test]
    fn same_color_repeatedly_is_fine() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        for i in 0..10 {
            t.get_mut(id)
                .unwrap()
                .observe_color(SeenColor::Black, SegmentId(i))
                .unwrap();
        }
    }

    #[test]
    fn abort_classification() {
        let mut t = table();
        let a = t.begin(Timestamp(1), Lsn(0), 1);
        let b = t.begin(Timestamp(2), Lsn(5), 1);
        t.finish_abort(a, true).unwrap();
        t.finish_abort(b, false).unwrap();
        let s = t.stats();
        assert_eq!(s.aborted_two_color, 1);
        assert_eq!(s.aborted_other, 1);
        assert_eq!(s.p_restart(), 0.5);
    }

    #[test]
    fn p_restart_empty_table() {
        assert_eq!(TxnStats::default().p_restart(), 0.0);
    }

    #[test]
    fn reset_colors_clears_observations() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        t.get_mut(id)
            .unwrap()
            .observe_color(SeenColor::White, SegmentId(0))
            .unwrap();
        t.reset_colors();
        // now observing black is fine: the white observation predates the
        // (new) checkpoint
        t.get_mut(id)
            .unwrap()
            .observe_color(SeenColor::Black, SegmentId(1))
            .unwrap();
    }

    #[test]
    fn crash_empties_table_without_counting_aborts() {
        let mut t = table();
        t.begin(Timestamp(1), Lsn(0), 1);
        t.begin(Timestamp(2), Lsn(5), 1);
        t.crash();
        assert!(t.is_quiescent());
        let s = t.stats();
        assert_eq!(s.aborted_two_color + s.aborted_other, 0);
    }

    #[test]
    fn operations_on_unknown_txn_fail() {
        let mut t = table();
        let ghost = TxnId(99);
        assert!(t.get(ghost).is_err());
        assert!(t
            .stage_write(ghost, RecordId(0), SegmentId(0), &[1])
            .is_err());
        assert!(t.finish_commit(ghost).is_err());
        assert!(t.finish_abort(ghost, true).is_err());
    }

    #[test]
    fn run_counter_carried() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 3);
        assert_eq!(t.get(id).unwrap().run, 3);
    }

    #[test]
    fn prepared_flag_defaults_off_and_is_settable() {
        let mut t = table();
        let id = t.begin(Timestamp(1), Lsn(0), 1);
        assert_eq!(t.get(id).unwrap().prepared, None);
        t.get_mut(id).unwrap().prepared = Some(77);
        assert_eq!(t.get(id).unwrap().prepared, Some(77));
        // commit still drains it like any other transaction
        // only prepared branches are on the begin-checkpoint marker's list
        let other = t.begin(Timestamp(2), Lsn(0), 1);
        t.get_mut(id).unwrap().begin_lsn = Lsn(40);
        assert_eq!(t.prepared(), vec![(id, Lsn(40))]);
        t.finish_abort(other, false).unwrap();
        let txn = t.finish_commit(id).unwrap();
        assert_eq!(txn.prepared, Some(77));
    }
}
