//! Per-segment checkpointing metadata (the segment's words live in the
//! record store, [`crate::ReadMirror`]).

use mmdb_types::{Lsn, Timestamp, Word};

/// The two-color paint state of a segment (paper §3.2.1, after Pu).
///
/// Outside an active two-color checkpoint every segment is black; a
/// checkpoint begin paints its to-be-processed set white, and the
/// checkpointer repaints each segment black as it processes it. No
/// transaction may access both a white and a black record while a
/// checkpoint is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Color {
    /// Not yet included in the current checkpoint.
    White,
    /// Included in the current checkpoint (or not participating).
    #[default]
    Black,
}

/// A copy-on-update "old copy" (Figure 3.2's special buffer, reached
/// through `p(S)`), kept per record: each update after a COU checkpoint
/// began saves the pre-image of the record it overwrites, once. The live
/// segment overlaid with the saved records is the snapshot image.
#[derive(Debug, Clone)]
pub struct OldRecords {
    /// `τ(S)` when the copy opened: the newest updater before the begin.
    pub tau: Timestamp,
    /// The segment version when the copy opened; used for ping-pong
    /// dirty accounting when the old copy is flushed.
    pub version: u64,
    /// Highest LSN in the snapshot image. All of it predates the
    /// checkpoint's begin-log force, so flushing an old copy never needs
    /// the WAL gate — this field lets the audit stream verify that.
    pub max_lsn: Lsn,
    /// One bit per record slot, set once the slot's pre-image is saved.
    pub(crate) saved: Box<[u64]>,
    /// Each saved record's slot, then its `S_rec` words, in save order.
    pub(crate) records: Vec<Word>,
}

impl OldRecords {
    /// Words held, by capacity: the saved records and the bitset.
    pub(crate) fn words(&self) -> u64 {
        (self.records.capacity() + 2 * self.saved.len()) as u64
    }
}

/// Per-segment checkpointing metadata.
#[derive(Debug, Clone, Default)]
pub struct SegmentMeta {
    /// Version of the latest installed update (0 = never updated since
    /// load). Draws from the storage-wide monotonic counter, so versions
    /// are comparable across segments.
    pub version: u64,
    /// Version captured by the last flush to each ping-pong backup copy.
    /// `version > flushed_version[c]` ⇔ the segment is dirty w.r.t. copy
    /// `c` — the generalized dirty bit of paper §3.
    pub flushed_version: [u64; 2],
    /// Highest LSN of any update installed in this segment; the WAL gate
    /// for flushing it.
    pub max_lsn: Lsn,
    /// `τ(S)`: timestamp of the most recent updating transaction
    /// (copy-on-update protocol, §3.2.2).
    pub tau: Timestamp,
    /// Two-color paint bit.
    pub color: Color,
    /// `p(S)`: the COU old copy, if one exists.
    pub old: Option<OldRecords>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_meta_is_black_and_clean() {
        assert_eq!(Color::default(), Color::Black);
        let m = SegmentMeta::default();
        assert_eq!(m.color, Color::Black);
        assert_eq!(m.version, 0);
        assert_eq!(m.flushed_version, [0, 0]);
        assert_eq!(m.max_lsn, Lsn::ZERO);
        assert!(m.old.is_none());
    }
}
