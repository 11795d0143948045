//! The memory-resident (primary) database.
//!
//! Storage is an array of fixed-size *segments*, each holding a fixed
//! number of fixed-size *records* (paper §2.4). The record is the granule
//! of the transaction interface; the segment is the granule of transfer
//! to the backup disks and of every checkpointing protocol:
//!
//! * each segment carries a **version** (bumped on every record install)
//!   and a per-ping-pong-copy **flushed version**, which together implement
//!   dirty tracking for partial checkpoints (§3: "database segments can
//!   include a dirty bit which is set by transaction updates and cleared
//!   by the checkpointer" — generalized to two backup copies);
//! * each segment carries a **max LSN**, the log sequence number of the
//!   latest update installed in it, used by the LSN-gated algorithms to
//!   respect the write-ahead-log protocol (§3.1);
//! * each segment carries a **paint bit** for the two-color algorithms
//!   (§3.2.1, after Pu);
//! * each segment carries a **timestamp `τ(S)`** and an **old-copy
//!   pointer `p(S)`** for the copy-on-update algorithms (§3.2.2).
//!
//! The records exist once, in the seqlock-protected word array
//! ([`ReadMirror`]) that lock-free readers share through an `Arc`. The
//! metadata is deliberately *not* internally synchronized: the engine
//! serializes access (see `mmdb-core`), which keeps crash/interleaving
//! tests deterministic. All data movement is charged to a
//! caller-supplied [`CostMeter`] at 1 instruction/word.

#![warn(missing_docs)]

mod mirror;
mod segment;

pub use mirror::{PendingInstall, ReadMirror};
pub use segment::{Color, OldRecords, SegmentMeta};

use mmdb_types::{
    hash::Fnv1a, CostMeter, DbParams, Lsn, MmdbError, RecordId, Result, SegmentId, Timestamp, Word,
};
use std::sync::Arc;

/// The memory-resident database: the record store, the per-segment
/// metadata and the global version counter that dirty tracking is built
/// on.
#[derive(Debug)]
pub struct Storage {
    db: DbParams,
    /// The only copy of the record data, shared with lock-free readers.
    /// Every install path publishes into it; exclusive holders read it
    /// back with plain loads.
    mirror: Arc<ReadMirror>,
    segments: Vec<SegmentMeta>,
    /// Monotonic counter bumped on every record install; segment versions
    /// are draws from this counter.
    version_counter: u64,
    /// Words held in COU old copies, by capacity, and the most ever held.
    old_words: u64,
    old_words_peak: u64,
    /// One segment image, reused by every capture and `take_old`.
    scratch: Vec<Word>,
}

/// A segment's content captured for flushing, together with the metadata
/// the checkpointer needs to gate and account the flush. `D` is
/// `&[Word]` for an image in the storage's reused scratch buffer
/// ([`Storage::capture`]) and `Box<[Word]>` for one the caller owns
/// ([`Storage::capture_copy`]).
#[derive(Debug, Clone, Copy)]
pub struct Capture<D> {
    /// The segment's words at capture time.
    pub data: D,
    /// The segment version at capture time; pass to
    /// [`Storage::mark_flushed`] once the image is on disk.
    pub version: u64,
    /// Highest LSN of any update reflected in the data — the image must
    /// not reach the backup disks until the log is durable through this
    /// LSN (write-ahead rule).
    pub max_lsn: Lsn,
}

/// Where a storage's memory is (bytes): [`Storage::resident_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentBytes {
    /// The record words — the database itself, held once.
    pub records: u64,
    /// The seqlock sequence counters, one per segment.
    pub seq_counters: u64,
    /// COU old copies held right now.
    pub cou_old_copies: u64,
    /// The most `cou_old_copies` has been since the storage was created.
    pub cou_old_copies_peak: u64,
    /// The reused capture image.
    pub capture_scratch: u64,
}

/// Records of room an old copy opens with, so that saves rarely regrow it.
const OLD_COPY_RESERVE: usize = 8;

/// The index of the segment containing `rid`.
fn segment_index(db: &DbParams, rid: RecordId) -> Result<usize> {
    if rid.raw() >= db.n_records() {
        return Err(MmdbError::RecordOutOfRange {
            record: rid,
            n_records: db.n_records(),
        });
    }
    Ok((rid.raw() / db.records_per_segment()) as usize)
}

/// Checks an install's shape; returns the record's segment index.
fn check_install(db: &DbParams, rid: RecordId, value: &[Word]) -> Result<usize> {
    if value.len() as u64 != db.s_rec {
        return Err(MmdbError::BadRecordSize {
            expected: db.s_rec,
            got: value.len() as u64,
        });
    }
    segment_index(db, rid)
}

impl SegmentMeta {
    /// The bookkeeping of one record install: a fresh version, and the
    /// installer's `τ` and LSN folded into the segment's maxima.
    fn note_install(&mut self, version: u64, lsn: Lsn, tau: Timestamp) {
        self.version = version;
        self.tau = self.tau.max(tau);
        self.max_lsn = self.max_lsn.max(lsn);
    }
}

impl Storage {
    /// Creates a zero-filled database of the given shape.
    pub fn new(db: DbParams) -> Result<Storage> {
        db.validate().map_err(MmdbError::Invalid)?;
        Ok(Storage {
            mirror: Arc::new(ReadMirror::new(&db)),
            segments: vec![SegmentMeta::default(); db.n_segments() as usize],
            version_counter: 0,
            old_words: 0,
            old_words_peak: 0,
            scratch: vec![0; db.s_seg as usize],
            db,
        })
    }

    /// The record store. Clone the `Arc` to read lock-free from other
    /// threads; the handle stays valid across [`Storage::reset`] and the
    /// recovery that follows it.
    pub fn mirror(&self) -> &Arc<ReadMirror> {
        &self.mirror
    }

    /// Returns the storage, in place, to the state [`Storage::new`] makes:
    /// zeroed records, default metadata (COU old copies dropped), the
    /// version counter at zero, the pending-sync queue empty — what a
    /// system failure leaves of the primary database. Nothing is
    /// reallocated: recovery refills the memory it already holds, and
    /// reader-held handles stay the storage's own. The store's gate is
    /// closed (if a crash has not closed it already) before the first
    /// word is wiped; the caller reopens it once the records are rebuilt.
    pub fn reset(&mut self) {
        self.mirror.wipe();
        self.segments.fill(SegmentMeta::default());
        self.version_counter = 0;
        self.old_words = 0;
        // those installs were logged, and recovery replays them
        self.mirror.take_pending();
    }

    /// Folds the queued shared-mode installs into the segment metadata.
    /// Shared-mode committers publish their records into the store
    /// directly but hold no `&mut Storage` (see
    /// [`ReadMirror::note_pending`]); the next exclusive holder calls
    /// this before relying on versions, `τ(S)` or the WAL gate. Each
    /// entry bumps the version once, so dirty tracking sees every
    /// commit. Returns the number of entries applied.
    pub fn sync_pending(&mut self) -> u64 {
        let entries = self.mirror.take_pending();
        let rps = self.db.records_per_segment();
        for p in &entries {
            self.version_counter += 1;
            let seg = &mut self.segments[(p.rid.raw() / rps) as usize];
            seg.note_install(self.version_counter, p.lsn, p.tau);
        }
        entries.len() as u64
    }

    /// The database shape.
    pub fn db_params(&self) -> &DbParams {
        &self.db
    }

    /// Number of segments.
    pub fn n_segments(&self) -> u64 {
        self.db.n_segments()
    }

    /// Number of records.
    pub fn n_records(&self) -> u64 {
        self.db.n_records()
    }

    /// The current value of the global version counter. Captured by COU
    /// checkpoints as the snapshot horizon.
    pub fn current_version(&self) -> u64 {
        self.version_counter
    }

    /// The segment containing `rid`.
    pub fn segment_of(&self, rid: RecordId) -> Result<SegmentId> {
        Ok(SegmentId(segment_index(&self.db, rid)? as u32))
    }

    fn check_segment(&self, sid: SegmentId) -> Result<()> {
        if sid.raw() as u64 >= self.n_segments() {
            return Err(MmdbError::SegmentOutOfRange {
                segment: sid,
                n_segments: self.n_segments(),
            });
        }
        Ok(())
    }

    /// Reads a record's current value. Safe beside latched shared-mode
    /// committers: the read waits out a publish in progress and is never
    /// torn.
    // `vec![0; n]` is `calloc`, which this glibc serves without its thread
    // cache: 55 ns of a 140 ns read, against 82 ns this way.
    #[allow(clippy::slow_vector_initialization)]
    pub fn read_record(&self, rid: RecordId) -> Result<Vec<Word>> {
        self.segment_of(rid)?;
        let mut out = Vec::with_capacity(self.db.s_rec as usize);
        out.resize(self.db.s_rec as usize, 0);
        self.mirror.read(rid, &mut out);
        Ok(out)
    }

    /// Installs a committed update into the primary database, bumping the
    /// segment version and recording the update's LSN and the updating
    /// transaction's timestamp. Charges `S_rec` words of data movement.
    ///
    /// This is the *install* half of the shadow-copy scheme (§2.6): the
    /// transaction manager calls it only at commit.
    pub fn install_record(
        &mut self,
        rid: RecordId,
        value: &[Word],
        lsn: Lsn,
        tau: Timestamp,
        meter: &CostMeter,
    ) -> Result<()> {
        let seg = check_install(&self.db, rid, value)?;
        self.version_counter += 1;
        self.mirror.publish(rid, value);
        meter.move_words(value.len() as u64);
        self.segments[seg].note_install(self.version_counter, lsn, tau);
        Ok(())
    }

    /// A copy of the segment's words (tests and recovery verification),
    /// record-wise consistent like [`Storage::read_record`].
    pub fn segment_data(&self, sid: SegmentId) -> Result<Vec<Word>> {
        self.check_segment(sid)?;
        let mut data = vec![0; self.db.s_seg as usize];
        self.read_segment(sid, &mut data);
        Ok(data)
    }

    /// Record-wise consistent read of a whole segment into `out`.
    fn read_segment(&self, sid: SegmentId, out: &mut [Word]) {
        let first = sid.raw() as u64 * self.db.records_per_segment();
        for (k, rec) in out.chunks_exact_mut(self.db.s_rec as usize).enumerate() {
            self.mirror.read(RecordId(first + k as u64), rec);
        }
    }

    /// Segment metadata (version, LSN, paint, COU state).
    pub fn segment_meta(&self, sid: SegmentId) -> Result<&SegmentMeta> {
        self.check_segment(sid)?;
        Ok(&self.segments[sid.index()])
    }

    /// Is the segment dirty with respect to ping-pong copy `copy`
    /// (i.e. modified since it was last flushed there)?
    pub fn is_dirty(&self, sid: SegmentId, copy: usize) -> Result<bool> {
        let m = self.segment_meta(sid)?;
        Ok(m.version > m.flushed_version[copy & 1])
    }

    /// Captures the live segment content for flushing, into the storage's
    /// reused scratch image (valid until the next capture).
    pub fn capture(&mut self, sid: SegmentId) -> Result<Capture<&[Word]>> {
        self.check_segment(sid)?;
        let s_seg = self.db.s_seg as usize;
        let words = self.mirror.load(sid.index() * s_seg, s_seg);
        for (o, w) in self.scratch.iter_mut().zip(words) {
            *o = w;
        }
        let m = &self.segments[sid.index()];
        Ok(Capture {
            data: &self.scratch,
            version: m.version,
            max_lsn: m.max_lsn,
        })
    }

    /// Captures the live segment content into a buffer of the caller's
    /// own (the COPY checkpointers' I/O buffer): one copy, no scratch.
    pub fn capture_copy(&mut self, sid: SegmentId) -> Result<Capture<Box<[Word]>>> {
        self.check_segment(sid)?;
        let (m, s_seg) = (&self.segments[sid.index()], self.db.s_seg as usize);
        Ok(Capture {
            data: self.mirror.load(sid.index() * s_seg, s_seg).collect(),
            version: m.version,
            max_lsn: m.max_lsn,
        })
    }

    /// Records that an image of `sid` at `version` has reached ping-pong
    /// copy `copy` (clears the dirty state up to that version).
    pub fn mark_flushed(&mut self, sid: SegmentId, copy: usize, version: u64) -> Result<()> {
        self.check_segment(sid)?;
        let slot = &mut self.segments[sid.index()].flushed_version[copy & 1];
        *slot = (*slot).max(version);
        Ok(())
    }

    // ----- two-color (paint) protocol ------------------------------------

    /// Paints every segment for a two-color checkpoint begin: segments in
    /// the white set become white (to be processed), all others are
    /// immediately black (they are already consistent with the backup).
    pub fn paint_for_checkpoint(&mut self, white: impl Fn(SegmentId) -> bool) {
        for (i, meta) in self.segments.iter_mut().enumerate() {
            meta.color = if white(SegmentId(i as u32)) {
                Color::White
            } else {
                Color::Black
            };
        }
    }

    /// Paints one segment black (the checkpointer has processed it).
    pub fn paint_black(&mut self, sid: SegmentId) -> Result<()> {
        self.check_segment(sid)?;
        self.segments[sid.index()].color = Color::Black;
        Ok(())
    }

    /// The segment's current color.
    pub fn color(&self, sid: SegmentId) -> Result<Color> {
        Ok(self.segment_meta(sid)?.color)
    }

    /// Number of white segments remaining (test/diagnostic aid).
    pub fn white_count(&self) -> u64 {
        self.segments
            .iter()
            .filter(|m| m.color == Color::White)
            .count() as u64
    }

    // ----- copy-on-update protocol ----------------------------------------

    /// Opens the segment's old copy for the COU snapshot, empty, and hangs
    /// it off `p(S)` (Figure 3.2); [`Storage::cou_save_record`] fills it.
    /// Charges one allocation.
    ///
    /// Returns an error if an old copy already exists — the COU update
    /// protocol guarantees at most one copy per segment per checkpoint,
    /// and a second copy would clobber the snapshot.
    pub fn cou_save_old(&mut self, sid: SegmentId, meter: &CostMeter) -> Result<()> {
        self.check_segment(sid)?;
        let m = &mut self.segments[sid.index()];
        if m.old.is_some() {
            return Err(MmdbError::Invalid(format!(
                "COU old copy already exists for {sid}"
            )));
        }
        meter.alloc_op();
        let old = OldRecords {
            tau: m.tau,
            version: m.version,
            max_lsn: m.max_lsn,
            saved: vec![0; (self.db.records_per_segment() as usize).div_ceil(64)].into(),
            records: Vec::with_capacity(OLD_COPY_RESERVE * (1 + self.db.s_rec as usize)),
        };
        self.old_words += old.words();
        m.old = Some(old);
        self.old_words_peak = self.old_words_peak.max(self.old_words);
        Ok(())
    }

    /// Saves the pre-image of `rid`, which an install is about to
    /// overwrite, into its segment's old copy, unless it is saved already.
    /// Returns whether it saved, charging `S_rec` words of movement if so.
    /// Fails if the segment has no old copy open.
    pub fn cou_save_record(&mut self, rid: RecordId, meter: &CostMeter) -> Result<bool> {
        let seg = segment_index(&self.db, rid)?;
        let s_rec = self.db.s_rec as usize;
        let slot = (rid.raw() % self.db.records_per_segment()) as usize;
        let old = self.segments[seg].old.as_mut().ok_or_else(|| {
            MmdbError::Invalid(format!("no COU old copy open for the segment of {rid}"))
        })?;
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if old.saved[word] & bit != 0 {
            return Ok(false);
        }
        old.saved[word] |= bit;
        let before = old.words();
        old.records.push(slot as Word);
        old.records
            .extend(self.mirror.load(rid.raw() as usize * s_rec, s_rec));
        meter.move_words(s_rec as u64);
        self.old_words += old.words() - before;
        self.old_words_peak = self.old_words_peak.max(self.old_words);
        Ok(true)
    }

    /// Does the segment currently have a COU old copy?
    pub fn has_old(&self, sid: SegmentId) -> Result<bool> {
        Ok(self.segment_meta(sid)?.old.is_some())
    }

    /// Detaches the segment's COU old copy and returns the snapshot image
    /// — the live words overlaid with the saved records — in the scratch
    /// image (valid until the next capture). Charges the deallocation and
    /// `S_seg` words of movement. Fails if the segment has no old copy.
    pub fn take_old(&mut self, sid: SegmentId, meter: &CostMeter) -> Result<Capture<&[Word]>> {
        self.capture(sid)?; // the live words into the scratch image
        let old = self.segments[sid.index()].old.take().ok_or_else(|| {
            MmdbError::Invalid(format!("COU protocol violation: {sid} has no old copy"))
        })?;
        meter.alloc_op();
        meter.move_words(self.db.s_seg);
        self.old_words -= old.words();
        let s_rec = self.db.s_rec as usize;
        for saved in old.records.chunks_exact(1 + s_rec) {
            let at = saved[0] as usize * s_rec;
            self.scratch[at..at + s_rec].copy_from_slice(&saved[1..]);
        }
        Ok(Capture {
            data: &self.scratch,
            version: old.version,
            max_lsn: old.max_lsn,
        })
    }

    /// Drops any leftover old copies (end of a COU checkpoint). Returns
    /// how many were dropped; each dropped buffer charges a deallocation.
    pub fn drop_all_old(&mut self, meter: &CostMeter) -> u64 {
        let mut n = 0;
        for m in &mut self.segments {
            if m.old.take().is_some() {
                meter.alloc_op();
                n += 1;
            }
        }
        self.old_words = 0;
        n
    }

    /// Total words currently held in COU old copies, by capacity (the
    /// snapshot-buffer footprint the paper warns about: "Potentially, the
    /// snapshot could grow to be as large as the database itself", §3.2.2).
    pub fn old_copy_words(&self) -> u64 {
        self.old_words
    }

    /// Where this storage's memory is, term by term.
    pub fn resident_bytes(&self) -> ResidentBytes {
        let word = std::mem::size_of::<Word>() as u64;
        let (records, seq_counters) = self.mirror.resident_bytes();
        ResidentBytes {
            records,
            seq_counters,
            cou_old_copies: self.old_words * word,
            cou_old_copies_peak: self.old_words_peak * word,
            capture_scratch: self.scratch.len() as u64 * word,
        }
    }

    // ----- recovery support ------------------------------------------------

    /// Overwrites a segment's content wholesale (recovery loading a backup
    /// image) and resets the segment metadata, dropping any COU old copy.
    ///
    /// When `source_copy` is given, the segment is marked clean with
    /// respect to that ping-pong copy but *dirty* with respect to the
    /// other one — the other copy does not hold this image, so the next
    /// partial checkpoint targeting it must not skip the segment.
    pub fn load_segment(
        &mut self,
        sid: SegmentId,
        data: &[Word],
        source_copy: Option<usize>,
        meter: &CostMeter,
    ) -> Result<()> {
        // the image comes from disk: its size is not the caller's promise
        if data.len() as u64 != self.db.s_seg {
            return Err(MmdbError::Invalid(format!(
                "segment image has {} words, expected {}",
                data.len(),
                self.db.s_seg
            )));
        }
        self.check_segment(sid)?;
        self.version_counter += 1;
        let meta = &mut self.segments[sid.index()];
        if let Some(old) = &meta.old {
            self.old_words -= old.words();
        }
        *meta = SegmentMeta::default();
        if let Some(copy) = source_copy {
            meta.version = self.version_counter;
            meta.flushed_version[copy & 1] = self.version_counter;
        }
        let first = sid.raw() as u64 * self.db.records_per_segment();
        for (k, value) in data.chunks_exact(self.db.s_rec as usize).enumerate() {
            self.mirror.publish(RecordId(first + k as u64), value);
        }
        meter.move_words(data.len() as u64);
        Ok(())
    }

    /// A content fingerprint of the whole database — used by tests to
    /// compare pre-crash and post-recovery states.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut image = vec![0; self.db.s_seg as usize];
        for sid in self.segment_ids() {
            self.read_segment(sid, &mut image);
            h.update_words(&image);
        }
        h.finish()
    }

    /// Iterator over all segment ids in sweep order.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.n_segments() as u32).map(SegmentId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{CostCategory, CostParams, Params};

    fn small() -> Storage {
        Storage::new(Params::small().db).unwrap()
    }

    fn meter() -> CostMeter {
        CostMeter::new(CostParams::default())
    }

    fn rec(storage: &Storage, fill: Word) -> Vec<Word> {
        vec![fill; storage.db_params().s_rec as usize]
    }

    #[test]
    fn geometry_small() {
        let s = small();
        assert_eq!(s.n_segments(), 32);
        assert_eq!(s.n_records(), 2048);
        assert_eq!(s.segment_of(RecordId(0)).unwrap(), SegmentId(0));
        assert_eq!(s.segment_of(RecordId(63)).unwrap(), SegmentId(0));
        assert_eq!(s.segment_of(RecordId(64)).unwrap(), SegmentId(1));
        assert_eq!(s.segment_of(RecordId(2047)).unwrap(), SegmentId(31));
        assert!(s.segment_of(RecordId(2048)).is_err());
    }

    #[test]
    fn install_and_read_roundtrip() {
        let mut s = small();
        let m = meter();
        let v = rec(&s, 0xABCD);
        s.install_record(RecordId(100), &v, Lsn(10), Timestamp(1), &m)
            .unwrap();
        assert_eq!(s.read_record(RecordId(100)).unwrap(), &v[..]);
        // neighbours untouched
        assert_eq!(s.read_record(RecordId(99)).unwrap(), &rec(&s, 0)[..]);
        assert_eq!(s.read_record(RecordId(101)).unwrap(), &rec(&s, 0)[..]);
    }

    #[test]
    fn install_charges_move_cost() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert_eq!(m.snapshot().get(CostCategory::Move), 32);
    }

    #[test]
    fn install_rejects_wrong_size() {
        let mut s = small();
        let m = meter();
        let err = s
            .install_record(RecordId(0), &[1, 2, 3], Lsn(1), Timestamp(1), &m)
            .unwrap_err();
        assert!(matches!(
            err,
            MmdbError::BadRecordSize {
                expected: 32,
                got: 3
            }
        ));
    }

    #[test]
    fn versions_bump_and_track_dirtiness() {
        let mut s = small();
        let m = meter();
        assert!(!s.is_dirty(SegmentId(0), 0).unwrap());
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert!(s.is_dirty(SegmentId(0), 0).unwrap());
        assert!(s.is_dirty(SegmentId(0), 1).unwrap());

        let ver = s.capture(SegmentId(0)).unwrap().version;
        s.mark_flushed(SegmentId(0), 0, ver).unwrap();
        assert!(!s.is_dirty(SegmentId(0), 0).unwrap());
        assert!(
            s.is_dirty(SegmentId(0), 1).unwrap(),
            "other copy still dirty"
        );

        // an update after the flush re-dirties copy 0
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(2), &m)
            .unwrap();
        assert!(s.is_dirty(SegmentId(0), 0).unwrap());
    }

    #[test]
    fn mark_flushed_never_regresses() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        let v1 = s.capture(SegmentId(0)).unwrap().version;
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(2), &m)
            .unwrap();
        let v2 = s.capture(SegmentId(0)).unwrap().version;
        s.mark_flushed(SegmentId(0), 0, v2).unwrap();
        // a stale flush completion must not clear the newer version
        s.mark_flushed(SegmentId(0), 0, v1).unwrap();
        assert_eq!(s.segment_meta(SegmentId(0)).unwrap().flushed_version[0], v2);
    }

    #[test]
    fn capture_carries_max_lsn() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(500), Timestamp(1), &m)
            .unwrap();
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(300), Timestamp(2), &m)
            .unwrap();
        let cap = s.capture(SegmentId(0)).unwrap();
        assert_eq!(cap.max_lsn, Lsn(500), "max, not latest");
    }

    #[test]
    fn tau_is_max_of_updaters() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(9), &m)
            .unwrap();
        s.install_record(RecordId(1), &rec(&s, 2), Lsn(2), Timestamp(4), &m)
            .unwrap();
        assert_eq!(s.segment_meta(SegmentId(0)).unwrap().tau, Timestamp(9));
    }

    #[test]
    fn paint_protocol() {
        let mut s = small();
        s.paint_for_checkpoint(|sid| sid.raw() < 4);
        assert_eq!(s.white_count(), 4);
        assert_eq!(s.color(SegmentId(0)).unwrap(), Color::White);
        assert_eq!(s.color(SegmentId(4)).unwrap(), Color::Black);
        s.paint_black(SegmentId(0)).unwrap();
        assert_eq!(s.color(SegmentId(0)).unwrap(), Color::Black);
        assert_eq!(s.white_count(), 3);
    }

    /// Words of an open old copy on the small shape before it regrows: 8
    /// reserved records of slot + 32 words, and a one-`u64` bitset.
    const OPEN_COPY_WORDS: u64 = 8 * 33 + 2;

    /// Saves `rid`'s pre-image, then installs `fill` over it: the COU
    /// hook's order.
    fn save_and_install(s: &mut Storage, rid: u64, fill: Word, m: &CostMeter) {
        s.cou_save_record(RecordId(rid), m).unwrap();
        let v = rec(s, fill);
        s.install_record(RecordId(rid), &v, Lsn(9), Timestamp(9), m)
            .unwrap();
    }

    #[test]
    fn cou_old_copy_lifecycle() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 7), Lsn(1), Timestamp(3), &m)
            .unwrap();
        let before = s.segment_data(SegmentId(0)).unwrap();

        s.cou_save_old(SegmentId(0), &m).unwrap();
        assert!(s.has_old(SegmentId(0)).unwrap());
        assert_eq!(s.old_copy_words(), OPEN_COPY_WORDS);
        // double-open is a protocol violation
        assert!(s.cou_save_old(SegmentId(0), &m).is_err());

        // overwrite records of the live segment, one twice; the old copy
        // keeps each pre-image once, and the snapshot with them
        save_and_install(&mut s, 1, 9, &m);
        save_and_install(&mut s, 0, 8, &m);
        save_and_install(&mut s, 1, 10, &m);
        let old = s.segment_meta(SegmentId(0)).unwrap().old.as_ref().unwrap();
        assert_eq!((old.tau, old.version), (Timestamp(3), 1));
        assert_eq!(old.records.len(), 2 * 33, "two records saved, once each");
        let image = s.take_old(SegmentId(0), &m).unwrap();
        assert_eq!(image.data, &before[..], "the begin-time segment");
        assert_eq!((image.version, image.max_lsn), (1, Lsn(1)));
        assert!(!s.has_old(SegmentId(0)).unwrap());
        assert_eq!(s.old_copy_words(), 0);
        assert_eq!(s.read_record(RecordId(1)).unwrap(), rec(&s, 10));
        // with no copy open, a record save is a protocol violation
        assert!(s.cou_save_record(RecordId(1), &m).is_err());
    }

    #[test]
    fn cou_save_charges_alloc_and_copy() {
        let mut s = small();
        let m = meter();
        s.cou_save_old(SegmentId(0), &m).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.get(CostCategory::Alloc), 100);
        assert_eq!(snap.get(CostCategory::Move), 0, "an empty copy opens");
        assert!(s.cou_save_record(RecordId(5), &m).unwrap());
        assert_eq!(m.snapshot().get(CostCategory::Move), 32, "one record");
        assert!(!s.cou_save_record(RecordId(5), &m).unwrap());
        assert_eq!(
            m.snapshot().get(CostCategory::Move),
            32,
            "a re-save is free"
        );
        // take_old charges the deallocation and the S_seg image
        s.take_old(SegmentId(0), &m).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.get(CostCategory::Alloc), 200);
        assert_eq!(snap.get(CostCategory::Move), 32 + 2048);
    }

    #[test]
    fn drop_all_old_counts_and_charges() {
        let mut s = small();
        let m = meter();
        s.cou_save_old(SegmentId(1), &m).unwrap();
        s.cou_save_old(SegmentId(2), &m).unwrap();
        let before = m.snapshot().get(CostCategory::Alloc);
        assert_eq!(s.drop_all_old(&m), 2);
        assert_eq!(m.snapshot().get(CostCategory::Alloc) - before, 200);
        assert_eq!(s.drop_all_old(&m), 0);
    }

    #[test]
    fn load_segment_resets_meta() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(5), Timestamp(2), &m)
            .unwrap();
        let image = vec![42 as Word; 2048];
        s.load_segment(SegmentId(0), &image, None, &m).unwrap();
        assert_eq!(s.segment_data(SegmentId(0)).unwrap(), &image[..]);
        let meta = s.segment_meta(SegmentId(0)).unwrap();
        assert_eq!(meta.version, 0);
        assert_eq!(meta.max_lsn, Lsn::ZERO);
        assert!(meta.old.is_none());
    }

    #[test]
    fn load_segment_from_copy_stays_dirty_for_other_copy() {
        let mut s = small();
        let m = meter();
        let image = vec![7 as Word; 2048];
        s.load_segment(SegmentId(3), &image, Some(1), &m).unwrap();
        assert!(
            !s.is_dirty(SegmentId(3), 1).unwrap(),
            "clean w.r.t. the copy it was read from"
        );
        assert!(
            s.is_dirty(SegmentId(3), 0).unwrap(),
            "dirty w.r.t. the copy that lacks this image"
        );
    }

    #[test]
    fn load_segment_rejects_wrong_size() {
        let mut s = small();
        let m = meter();
        assert!(s.load_segment(SegmentId(0), &[1, 2, 3], None, &m).is_err());
    }

    #[test]
    fn load_segment_uncounts_the_old_copy_it_drops() {
        let mut s = small();
        let m = meter();
        s.cou_save_old(SegmentId(2), &m).unwrap();
        save_and_install(&mut s, 130, 4, &m);
        assert_eq!(s.old_copy_words(), OPEN_COPY_WORDS);
        s.load_segment(SegmentId(2), &[5; 2048], Some(0), &m)
            .unwrap();
        assert!(!s.has_old(SegmentId(2)).unwrap());
        assert_eq!(s.old_copy_words(), 0);
        assert_eq!(s.resident_bytes().cou_old_copies, 0);
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let mut s = small();
        let m = meter();
        let f0 = s.fingerprint();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert_ne!(s.fingerprint(), f0);
    }

    #[test]
    fn mirror_tracks_installs() {
        let mut s = small();
        let m = meter();
        let v = rec(&s, 0xBEEF);
        s.install_record(RecordId(7), &v, Lsn(3), Timestamp(1), &m)
            .unwrap();
        let mirror = s.mirror().clone();
        let mut out = vec![0; 32];
        assert!(mirror.try_read(RecordId(7), &mut out));
        assert_eq!(out, v);
        assert!(mirror.try_read(RecordId(8), &mut out));
        assert_eq!(out, rec(&s, 0), "neighbour untouched");
        assert!(!mirror.try_read(RecordId(9999), &mut out), "out of range");
        assert!(!mirror.try_read(RecordId(7), &mut [0; 3]), "bad size");
    }

    #[test]
    fn mirror_gate_blocks_reads() {
        let s = small();
        let mirror = s.mirror().clone();
        let mut out = vec![0; 32];
        assert!(mirror.try_read(RecordId(0), &mut out));
        mirror.gate_close();
        assert!(mirror.gate_closed());
        assert!(!mirror.try_read(RecordId(0), &mut out));
        mirror.gate_open();
        assert!(!mirror.gate_closed());
        assert!(mirror.try_read(RecordId(0), &mut out));
    }

    #[test]
    fn shared_installs_are_read_at_once_and_their_metadata_syncs_back() {
        let mut s = small();
        let mirror = s.mirror().clone();
        // Two shared-mode installs to one record, as a latch-holding
        // committer would do: publish + pending note, no &mut.
        for (fill, lsn, tau) in [(4u32, 10u64, 2u64), (6, 20, 5)] {
            let v = vec![fill as Word; 32];
            mirror.publish(RecordId(5), &v);
            mirror.note_pending(PendingInstall {
                rid: RecordId(5),
                tau: Timestamp(tau),
                lsn: Lsn(lsn),
            });
        }
        assert_eq!(mirror.pending_len(), 2);
        // One store: the storage reads the new value before any drain,
        // but the segment's metadata still lags.
        assert_eq!(s.read_record(RecordId(5)).unwrap(), vec![6 as Word; 32]);
        assert_eq!(s.capture(SegmentId(0)).unwrap().data[5 * 32], 6);
        assert_eq!(s.segment_meta(SegmentId(0)).unwrap().version, 0);
        assert!(!s.is_dirty(SegmentId(0), 0).unwrap());
        assert_eq!(s.sync_pending(), 2);
        assert_eq!(mirror.pending_len(), 0);
        assert_eq!(s.read_record(RecordId(5)).unwrap(), vec![6 as Word; 32]);
        let meta = s.segment_meta(SegmentId(0)).unwrap();
        assert_eq!(meta.version, 2, "one version per install");
        assert_eq!(meta.max_lsn, Lsn(20));
        assert_eq!(meta.tau, Timestamp(5));
        assert!(s.is_dirty(SegmentId(0), 0).unwrap());
        assert_eq!(s.sync_pending(), 0, "drain is idempotent");
    }

    #[test]
    fn reset_is_in_place_and_the_mirror_handle_survives_it() {
        let mut s = small();
        let m = meter();
        s.install_record(RecordId(0), &rec(&s, 1), Lsn(7), Timestamp(3), &m)
            .unwrap();
        s.cou_save_old(SegmentId(0), &m).unwrap();
        s.paint_for_checkpoint(|_| true);
        let handle = s.mirror().clone();
        handle.note_pending(PendingInstall {
            rid: RecordId(5),
            tau: Timestamp(4),
            lsn: Lsn(9),
        });
        let addresses = |s: &Storage| -> Vec<_> {
            (0..s.n_records())
                .map(|r| s.mirror().record_addr(RecordId(r)))
                .collect()
        };
        let before = addresses(&s);

        // Crash: gate closes, readers refuse, the records are wiped.
        handle.gate_close();
        let mut out = vec![0; 32];
        assert!(!handle.try_read(RecordId(0), &mut out));
        s.reset();
        assert_eq!(addresses(&s), before, "no record was reallocated");
        assert_eq!(s.fingerprint(), small().fingerprint());
        assert_eq!(s.current_version(), 0);
        assert_eq!(s.old_copy_words(), 0);
        assert_eq!(s.white_count(), 0);
        assert_eq!(handle.pending_len(), 0);
        let meta = s.segment_meta(SegmentId(0)).unwrap();
        assert_eq!((meta.version, meta.max_lsn), (0, Lsn::ZERO));
        assert_eq!((meta.tau, meta.flushed_version), (Timestamp::ZERO, [0, 0]));

        // Recovery rebuilds and reopens: the old handle serves the
        // recovered content, and nothing before the reopening.
        s.install_record(RecordId(0), &rec(&s, 9), Lsn(1), Timestamp(1), &m)
            .unwrap();
        assert!(!handle.try_read(RecordId(0), &mut out), "gate still closed");
        handle.gate_open();
        assert!(handle.try_read(RecordId(0), &mut out));
        assert_eq!(out, rec(&s, 9));
        assert!(Arc::ptr_eq(&handle, s.mirror()));
    }

    #[test]
    fn resident_bytes_name_one_copy_of_the_records() {
        let mut s = small();
        let m = meter();
        let db_bytes = 32 * 2048 * 4;
        let r = s.resident_bytes();
        assert_eq!(r.records, db_bytes);
        assert_eq!(r.seq_counters, s.db.n_segments() * 8);
        assert_eq!(r.capture_scratch, 2048 * 4);
        assert_eq!((r.cou_old_copies, r.cou_old_copies_peak), (0, 0));
        s.cou_save_old(SegmentId(1), &m).unwrap();
        s.cou_save_old(SegmentId(2), &m).unwrap();
        let open = OPEN_COPY_WORDS * 4;
        assert_eq!(s.resident_bytes().cou_old_copies, 2 * open);
        // a ninth saved record regrows segment 2's copy: counted by
        // capacity, so the bytes exceed the nine records' own
        for rid in 128..137 {
            save_and_install(&mut s, rid, 3, &m);
        }
        let grown = s.resident_bytes().cou_old_copies - open;
        assert!(grown > 9 * 33 * 4 + 8, "{grown}");
        assert_eq!(s.old_copy_words() * 4, open + grown);
        s.take_old(SegmentId(1), &m).unwrap();
        let r = s.resident_bytes();
        assert_eq!(
            (r.cou_old_copies, r.cou_old_copies_peak),
            (grown, open + grown)
        );
        s.drop_all_old(&m);
        let r = s.resident_bytes();
        assert_eq!((r.cou_old_copies, r.cou_old_copies_peak), (0, open + grown));
    }

    /// The engine's real discipline under fire: one thread owns
    /// `&mut Storage` (as under the exclusive gate) and works on the low
    /// half of the segments, two lock-free readers read those same
    /// records through the `Arc`, and a latched committer publishes to
    /// the *other* half. Every capture and old copy must equal what the
    /// owner last installed, and no successful read may be torn. With
    /// `racing_readers_never_see_a_torn_publish` this is the TSan target.
    #[test]
    fn exclusive_captures_race_readers_and_foreign_publishers() {
        let mut s = small();
        let m = meter();
        let mirror = s.mirror().clone();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        let mine = 16 * 64; // records of segments 0..16
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let (mirror, stop) = (&mirror, &stop);
                    scope.spawn(move || {
                        let (mut out, mut ok, mut rid) = (vec![0; 32], 0u64, r);
                        while !stop.load(relaxed) || ok == 0 {
                            rid = (rid + 7919) % mine;
                            if mirror.try_read(RecordId(rid), &mut out) {
                                assert!(out.iter().all(|&w| w == out[0]), "torn: {out:?}");
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            let publisher = scope.spawn(|| {
                let mut k = 0u32;
                while !stop.load(relaxed) {
                    k += 1;
                    let rid = mine + u64::from(k) % mine;
                    mirror.publish(RecordId(rid), &[k; 32]);
                }
            });
            for k in 1..=3_000u32 {
                let sid = SegmentId(k % 16);
                let rid = RecordId(u64::from(sid.raw()) * 64 + u64::from(k) % 64);
                s.install_record(rid, &[k; 32], Lsn(u64::from(k)), Timestamp(1), &m)
                    .unwrap();
                let at = (rid.raw() % 64) as usize * 32;
                let cap = s.capture(sid).unwrap();
                assert_eq!(cap.data[at..at + 32], [k; 32], "capture lags install");
                let (image, version) = (cap.data.to_vec(), cap.version);
                assert_eq!(s.capture_copy(sid).unwrap().data[..], image[..]);
                // a racing update saves the record it overwrites
                s.cou_save_old(sid, &m).unwrap();
                s.cou_save_record(rid, &m).unwrap();
                s.install_record(rid, &[!k; 32], Lsn(u64::from(k)), Timestamp(1), &m)
                    .unwrap();
                let old = s.take_old(sid, &m).unwrap();
                assert_eq!(old.data, &image[..], "old copy differs from capture");
                assert_eq!(old.version, version);
                assert_eq!(s.read_record(rid).unwrap(), [!k; 32]);
                if k % 500 == 0 {
                    s.fingerprint(); // whole-store read beside the publisher
                }
            }
            stop.store(true, relaxed);
            publisher.join().unwrap();
            for r in readers {
                assert!(r.join().unwrap() > 0, "reader starved");
            }
        });
    }

    #[test]
    fn mirror_readers_never_observe_torn_records() {
        let s = small();
        let mirror = s.mirror().clone();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                // Uniform-fill records: any mix of two versions is torn.
                for k in 1..=20_000u32 {
                    mirror.publish(RecordId(3), &[k as Word; 32]);
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            let mut out = vec![0; 32];
            let mut hits = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) || hits == 0 {
                if mirror.try_read(RecordId(3), &mut out) {
                    hits += 1;
                    assert!(
                        out.iter().all(|&w| w == out[0]),
                        "torn read: {:?}",
                        &out[..4]
                    );
                }
            }
            writer.join().unwrap();
            assert!(hits > 0);
        });
    }

    #[test]
    fn out_of_range_segment_ops_fail() {
        let mut s = small();
        let m = meter();
        let bad = SegmentId(32);
        assert!(s.segment_data(bad).is_err());
        assert!(s.capture(bad).is_err());
        assert!(s.paint_black(bad).is_err());
        assert!(s.cou_save_old(bad, &m).is_err());
        assert!(s.cou_save_record(RecordId(2048), &m).is_err());
        assert!(s.is_dirty(bad, 0).is_err());
    }
}
