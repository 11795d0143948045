//! Transaction management: the active-transaction table, shadow-copy
//! write buffering, and two-color conflict tracking.
//!
//! Per the paper's load model (§2.5–2.6):
//!
//! * updates are stored in a buffer local to the updating transaction
//!   until commit (*shadow-copy* scheme, as in IMS/Fastpath) — this crate
//!   holds those buffers as [`StagedWrite`]s;
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

/// A buffered (pre-commit) update: the after-image of one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedWrite {
    /// The record to be overwritten at commit.
    pub record: RecordId,
    /// The segment containing it (cached for commit-time color checks).
    pub segment: SegmentId,
    /// The new value (full record image, `S_rec` words).
    pub value: Vec<Word>,
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
        self.writes.iter().map(|w| w.value.len() as u64).sum()
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
    /// counted as begun, like one). The caller finishes it before
    /// beginning anything else: `id` is not reserved against
    /// [`TxnTable::begin`].
    pub fn adopt_prepared(
        &mut self,
        id: TxnId,
        gid: u64,
        tau: Timestamp,
        writes: Vec<StagedWrite>,
    ) {
        self.active.insert(
            id,
            ActiveTxn {
                id,
                tau,
                begin_lsn: Lsn::ZERO,
                writes,
                color_seen: None,
                run: 1,
                prepared: Some(gid),
            },
        );
        self.stats.begun += 1;
    }

    /// The active transaction with the given id.
    pub fn get(&self, id: TxnId) -> Result<&ActiveTxn> {
        self.active.get(&id).ok_or(MmdbError::NoSuchTxn(id))
    }

    /// Mutable access to an active transaction.
    pub fn get_mut(&mut self, id: TxnId) -> Result<&mut ActiveTxn> {
        self.active.get_mut(&id).ok_or(MmdbError::NoSuchTxn(id))
    }

    /// Buffers an update in the transaction's shadow copy.
    pub fn stage_write(
        &mut self,
        id: TxnId,
        record: RecordId,
        segment: SegmentId,
        value: Vec<Word>,
    ) -> Result<()> {
        let txn = self.get_mut(id)?;
        txn.writes.push(StagedWrite {
            record,
            segment,
            value,
        });
        Ok(())
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
        t.stage_write(id, RecordId(5), SegmentId(0), vec![1, 2])
            .unwrap();
        t.stage_write(id, RecordId(9), SegmentId(1), vec![3, 4])
            .unwrap();
        let txn = t.finish_commit(id).unwrap();
        assert_eq!(txn.writes.len(), 2);
        assert_eq!(txn.writes[0].record, RecordId(5));
        assert_eq!(txn.writes[1].record, RecordId(9));
        assert_eq!(txn.staged_words(), 4);
        assert!(t.is_quiescent());
        assert_eq!(t.stats().committed, 1);
        assert!(t.get(id).is_err());
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
            .stage_write(ghost, RecordId(0), SegmentId(0), vec![])
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
