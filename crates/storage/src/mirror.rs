//! The record store: one flat, seqlock-protected array of atomic words
//! holding every record of the database, exactly once. [`crate::Storage`]
//! keeps the per-segment metadata; the words live here, behind an `Arc`,
//! so lock-free readers on other threads and the engine's exclusive
//! paths work on the same memory:
//!
//! * each segment has one **sequence counter** (odd = a writer is
//!   mid-copy into one of its records), shared by the segment's records;
//! * record words are `AtomicU32` (`Word` is `u32`), written with the
//!   classic seqlock writer protocol (odd → relaxed word stores behind a
//!   release fence → even with release) and read with the matching
//!   reader protocol (acquire seq, relaxed word loads, acquire fence,
//!   re-check seq);
//! * a store-global **gate** counter (odd = closed) lets crash and
//!   recovery take the store out of lock-free service, so no reader is
//!   served a pre-crash, zeroed or half-replayed value during a rebuild.
//!
//! Writers to any one segment must be serialized externally: a shared
//! committer publishes only under the latches of its write set's
//! segments, and a holder of `&mut Storage` is alone in the engine. The
//! seqlock only protects readers from writers, and a reader loses its
//! race to a writer on any record of its segment, not only its own
//! (it retries, and never returns a torn value). A holder of
//! `&mut Storage` under the engine's exclusive gate has no concurrent
//! writer at all — every earlier publish happens-before the gate's
//! acquisition — so it reads with plain `Relaxed` loads and no sequence
//! check ([`ReadMirror::load`]).
//!
//! The store also carries the **pending-sync queue**: shared-mode
//! commits publish their records here directly (they hold no
//! `&mut Storage`) and enqueue one *metadata* note per install, which
//! the next exclusive holder folds into the segment metadata
//! ([`crate::Storage::sync_pending`]). The queue mutex is a leaf: nothing
//! is ever acquired while it is held, so it sits outside the ranked
//! hierarchy by construction.

use mmdb_types::{DbParams, Lsn, MmdbError, RecordId, Result, Timestamp, Word};
use std::mem::size_of_val;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Failed seqlock passes a blocking read spins through before it starts
/// yielding its core to the writer it waits on.
const SPINS_BEFORE_YIELD: u32 = 64;

/// How long a blocking read waits out a writer before it fails: far
/// beyond any publish (a copy of one record's words), so only a counter
/// left odd — a writer that died mid-publish, or a broken writer
/// discipline — ever reaches it.
pub(crate) const STUCK_READ_AFTER: Duration = Duration::from_secs(1);

/// The metadata of one shared-mode install (its data is already in the
/// store), awaiting [`crate::Storage::sync_pending`].
#[derive(Debug, Clone, Copy)]
pub struct PendingInstall {
    /// The installed record.
    pub rid: RecordId,
    /// Timestamp of the installing transaction (for `τ(S)` maintenance).
    pub tau: Timestamp,
    /// LSN of the install's log record (for the segment WAL gate).
    pub lsn: Lsn,
}

/// The seqlock record store (the name predates it being the only copy).
/// Create via `Storage`; share via `Arc`.
#[derive(Debug)]
pub struct ReadMirror {
    n_records: u64,
    s_rec: usize,
    records_per_segment: u64,
    /// Flat record data: record `r` occupies words `[r*s_rec, (r+1)*s_rec)`,
    /// so segment `j` occupies `[j*s_seg, (j+1)*s_seg)`.
    words: Box<[AtomicU32]>,
    /// Per-segment sequence counters; odd while a writer is copying
    /// into one of the segment's records.
    seqs: Box<[AtomicU64]>,
    /// Store-global gate; odd while crash/recovery has lock-free reads off.
    gate: AtomicU64,
    pending: Mutex<Vec<PendingInstall>>,
}

impl ReadMirror {
    pub(crate) fn new(db: &DbParams) -> ReadMirror {
        let n_records = db.n_records();
        let s_rec = db.s_rec as usize;
        let total = n_records as usize * s_rec;
        ReadMirror {
            n_records,
            s_rec,
            records_per_segment: db.records_per_segment(),
            words: (0..total).map(|_| AtomicU32::new(0)).collect(),
            seqs: (0..db.n_segments()).map(|_| AtomicU64::new(0)).collect(),
            gate: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Record size in words.
    pub fn s_rec(&self) -> usize {
        self.s_rec
    }

    /// Number of records stored.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    fn span(&self, rid: RecordId) -> std::ops::Range<usize> {
        let i = rid.raw() as usize * self.s_rec;
        i..i + self.s_rec
    }

    /// The sequence counter of `rid`'s segment.
    fn seq(&self, rid: RecordId) -> &AtomicU64 {
        &self.seqs[(rid.raw() / self.records_per_segment) as usize]
    }

    /// One pass of the seqlock reader protocol over record `rid`; `false`
    /// when a writer was, or came, mid-publish in `rid`'s segment.
    fn read_once(&self, rid: RecordId, out: &mut [Word]) -> bool {
        let seq = self.seq(rid);
        let seq0 = seq.load(Ordering::Acquire);
        if seq0 & 1 == 1 {
            return false;
        }
        for (o, w) in out.iter_mut().zip(&self.words[self.span(rid)]) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        seq.load(Ordering::Relaxed) == seq0
    }

    /// One optimistic read attempt. On success `out` holds a consistent
    /// committed value and `true` is returned; `false` means a writer or
    /// the gate interfered (or `rid` is out of range) and the caller
    /// should retry or fall back to the locked path.
    pub fn try_read(&self, rid: RecordId, out: &mut [Word]) -> bool {
        if rid.raw() >= self.n_records || out.len() != self.s_rec {
            return false;
        }
        let gate0 = self.gate.load(Ordering::Acquire);
        gate0 & 1 == 0 && self.read_once(rid, out) && self.gate.load(Ordering::Relaxed) == gate0
    }

    /// Reads a record's committed value, waiting out a writer that is
    /// mid-publish. Ignores the gate: this is the path of callers inside
    /// the engine (`&Storage`), who may share it with latched committers
    /// but never with a crash or a recovery. Fails with
    /// [`MmdbError::Corrupt`] — a server-side fault, not the caller's —
    /// naming the record and its segment, once its segment's counter has
    /// stayed odd for [`STUCK_READ_AFTER`].
    pub(crate) fn read(&self, rid: RecordId, out: &mut [Word]) -> Result<()> {
        assert_eq!(out.len(), self.s_rec, "record buffer of the wrong width");
        if self.read_once(rid, out) {
            return Ok(());
        }
        self.read_contended(rid, out)
    }

    /// [`read`](Self::read) once its first pass lost to a writer: spin a
    /// little, then yield, and read the clock only from then on.
    #[cold]
    fn read_contended(&self, rid: RecordId, out: &mut [Word]) -> Result<()> {
        let mut spins = 0;
        let mut waiting_since = None;
        while !self.read_once(rid, out) {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let since = *waiting_since.get_or_insert_with(Instant::now);
            if since.elapsed() > STUCK_READ_AFTER {
                let segment = rid.raw() / self.records_per_segment;
                return Err(MmdbError::Corrupt(format!(
                    "in-memory record {} of segment {segment}: the segment's sequence counter \
                     stayed odd for over {STUCK_READ_AFTER:?}, longer than any publish takes",
                    rid.raw()
                )));
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Publishes a record value — the only way a record changes. The
    /// caller must hold whatever serializes writers to this record's
    /// *segment* (its latch or `&mut Storage`): concurrent publishes to
    /// any two records of one segment are a protocol violation, because
    /// they share one sequence counter.
    pub fn publish(&self, rid: RecordId, value: &[Word]) {
        debug_assert!(rid.raw() < self.n_records);
        debug_assert_eq!(value.len(), self.s_rec);
        let seq = self.seq(rid);
        let seq0 = seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq0 & 1, 0, "concurrent publish to one segment");
        seq.store(seq0 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in self.words[self.span(rid)].iter().zip(value) {
            w.store(*v, Ordering::Relaxed);
        }
        seq.store(seq0 + 2, Ordering::Release);
    }

    /// The words `[start, start + len)` by plain `Relaxed` loads, no
    /// sequence check: only for a caller with no concurrent publisher to
    /// these words (see the module docs), whom every store happens-before.
    pub(crate) fn load(&self, start: usize, len: usize) -> impl Iterator<Item = Word> + '_ {
        self.words[start..start + len]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
    }

    /// Closes the gate and zeroes every record (a system failure's effect
    /// on the primary database). A lock-free reader that overlaps the
    /// wipe fails its gate re-check: the fence orders the closing — even
    /// an earlier one, by the thread that crashed — before every zero.
    pub(crate) fn wipe(&self) {
        self.gate_close();
        fence(Ordering::Release);
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Bytes held by the record words and by the sequence counters.
    pub(crate) fn resident_bytes(&self) -> (u64, u64) {
        let (words, seqs) = (&*self.words, &*self.seqs);
        (size_of_val(words) as u64, size_of_val(seqs) as u64)
    }

    /// Where record `rid`'s first word lives (tests pinning that crash
    /// and recovery refill this memory instead of replacing it).
    pub fn record_addr(&self, rid: RecordId) -> *const AtomicU32 {
        self.words[self.span(rid)].as_ptr()
    }

    // ----- gate ------------------------------------------------------------

    /// Closes the gate (crash; a no-op on a closed one): every `try_read`
    /// fails until the gate reopens. Caller must hold exclusive access.
    pub fn gate_close(&self) {
        let g = self.gate.load(Ordering::Relaxed);
        if g & 1 == 0 {
            self.gate.store(g + 1, Ordering::Relaxed);
            fence(Ordering::Release);
        }
    }

    /// Reopens the gate (end of recovery, once every record is rebuilt).
    pub fn gate_open(&self) {
        let g = self.gate.load(Ordering::Relaxed);
        debug_assert_eq!(g & 1, 1, "gate not closed");
        self.gate.store(g + 1, Ordering::Release);
    }

    /// Is the gate currently closed?
    pub fn gate_closed(&self) -> bool {
        self.gate.load(Ordering::Acquire) & 1 == 1
    }

    // ----- pending-sync queue ----------------------------------------------

    fn pending_lock(&self) -> std::sync::MutexGuard<'_, Vec<PendingInstall>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues the metadata of a shared-mode install.
    pub fn note_pending(&self, p: PendingInstall) {
        self.pending_lock().push(p);
    }

    /// Takes the whole pending queue (exclusive holders drain it via
    /// [`crate::Storage::sync_pending`]; crash discards it — the installs
    /// are logged and recovery replays them).
    pub fn take_pending(&self) -> Vec<PendingInstall> {
        std::mem::take(&mut *self.pending_lock())
    }

    /// Number of queued installs (diagnostics).
    pub fn pending_len(&self) -> usize {
        self.pending_lock().len()
    }

    /// Leaves `rid`'s segment counter odd, as a writer that died
    /// mid-publish would.
    #[cfg(test)]
    pub(crate) fn wedge(&self, rid: RecordId) {
        self.seq(rid).fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    /// Sets its flag when dropped: a test thread that panics still stops
    /// the threads racing it, so the scope that joins them ends.
    pub(crate) struct StopOnDrop<'a>(pub(crate) &'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    /// Runs a racing reader's `attempt` until `stop` is set, and after
    /// that until one attempt has succeeded or a thousand more have
    /// failed: a reader starved by a counter left odd returns, and its
    /// caller's `ok > 0` check fails, instead of spinning for ever.
    /// Returns the number of successful attempts.
    pub(crate) fn race_reads(stop: &AtomicBool, mut attempt: impl FnMut() -> bool) -> u64 {
        let (mut ok, mut late) = (0u64, 0u32);
        loop {
            if stop.load(Ordering::Acquire) {
                if ok > 0 || late == 1_000 {
                    return ok;
                }
                late += 1;
            }
            ok += u64::from(attempt());
        }
    }

    /// 256 records of 16 words, in 16 segments of 16 records.
    const DB: DbParams = DbParams {
        s_db: 4096,
        s_rec: 16,
        s_seg: 256,
    };

    fn mirror() -> Arc<ReadMirror> {
        Arc::new(ReadMirror::new(&DB))
    }

    /// The raw seqlock under fire: two writers on disjoint record halves
    /// (the external-serialization contract), two readers racing them.
    /// Writers publish uniform values, so any successful read with
    /// unequal words is a torn read — the one thing the protocol exists
    /// to prevent. This is the TSan target for the mirror in isolation.
    #[test]
    fn racing_readers_never_see_a_torn_publish() {
        let m = mirror();
        let n = m.n_records();
        let s_rec = m.s_rec();
        for r in 0..n {
            m.publish(RecordId(r), &vec![1; s_rec]);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let m = Arc::clone(&m);
                let half = (w * n / 2)..((w + 1) * n / 2);
                std::thread::spawn(move || {
                    for i in 0..20_000u32 {
                        let r = half.start + u64::from(i) % (half.end - half.start);
                        m.publish(RecordId(r), &vec![i | 1; s_rec]);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 0x243F_6A88_85A3_08D3u64 ^ (r + 1);
                    let mut out = vec![0; s_rec];
                    race_reads(&stop, || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let ok = m.try_read(RecordId(x % n), &mut out);
                        assert!(
                            !ok || out.iter().all(|&w| w == out[0]),
                            "torn read: {out:?}"
                        );
                        ok
                    })
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        // With the writers gone every counter is even: each record reads
        // at once.
        let mut out = vec![0; s_rec];
        for r in 0..n {
            assert!(m.try_read(RecordId(r), &mut out), "counter left odd");
        }
        for r in readers {
            let ok = r.join().unwrap();
            assert!(ok > 0, "reader starved — every optimistic read failed");
        }
    }

    /// The per-segment writer contract under fire: two writers publish to
    /// different records of one segment, each under a mutex that stands
    /// for the segment latch, while two readers race them on that
    /// segment. Both writers move the one counter the readers check, so
    /// a reader loses to either; it must still never see a torn value.
    #[test]
    fn latched_writers_sharing_a_segment_never_tear_a_read() {
        let m = mirror();
        let s_rec = m.s_rec();
        let rps = DB.records_per_segment();
        let first = 3 * rps; // segment 3
        let latch = Arc::new(Mutex::new(()));
        let start = Arc::new(Barrier::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (m, latch) = (Arc::clone(&m), Arc::clone(&latch));
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait(); // the two writers overlap
                    for i in 0..200_000u32 {
                        let r = first + w + 2 * (u64::from(i) % (rps / 2));
                        let _held = latch.lock().unwrap_or_else(PoisonError::into_inner);
                        m.publish(RecordId(r), &vec![i | 1; s_rec]);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut k = r;
                    let mut out = vec![0; s_rec];
                    race_reads(&stop, || {
                        k = (k + 5) % rps;
                        let ok = m.try_read(RecordId(first + k), &mut out);
                        assert!(
                            !ok || out.iter().all(|&w| w == out[0]),
                            "torn read: {out:?}"
                        );
                        ok
                    })
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        // With the writers gone the counter must be even again; two
        // unserialized publishes could leave it odd and starve every
        // reader for good.
        let mut out = vec![0; s_rec];
        for k in 0..rps {
            assert!(
                m.try_read(RecordId(first + k), &mut out),
                "counter left odd"
            );
        }
        for r in readers {
            let ok = r.join().unwrap();
            assert!(ok > 0, "reader starved — every optimistic read failed");
        }
    }

    /// A record's counter is its segment's: one per segment, and a
    /// publish advances its own segment's counter by 2 and no other.
    #[test]
    fn a_publish_advances_only_its_segments_counter() {
        let m = mirror();
        let (s_rec, rps) = (m.s_rec(), DB.records_per_segment());
        assert_eq!(
            m.seqs.len() as u64,
            DB.n_segments(),
            "one counter per segment"
        );
        let seqs = |m: &ReadMirror| -> Vec<u64> {
            m.seqs.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let j = 5;
        let mut want = seqs(&m);
        m.publish(RecordId((j + 1) * rps - 1), &vec![7; s_rec]);
        want[j as usize] += 2;
        assert_eq!(seqs(&m), want, "last record of segment {j}");
        m.publish(RecordId((j + 1) * rps), &vec![8; s_rec]);
        want[j as usize + 1] += 2;
        assert_eq!(seqs(&m), want, "first record of segment {}", j + 1);
    }

    #[test]
    fn a_counter_left_odd_fails_a_blocking_read_within_the_bound() {
        let m = mirror();
        let s_rec = m.s_rec();
        let rps = DB.records_per_segment();
        m.publish(RecordId(rps + 1), &vec![4; s_rec]);
        m.wedge(RecordId(2 * rps - 1));
        let mut out = vec![0; s_rec];
        let t = Instant::now();
        let err = m.read(RecordId(rps + 1), &mut out).unwrap_err();
        let waited = t.elapsed();
        assert!(matches!(err, MmdbError::Corrupt(_)), "{err}");
        assert!(waited >= STUCK_READ_AFTER, "gave up after {waited:?}");
        assert!(waited < STUCK_READ_AFTER * 5, "hung for {waited:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("record {} of segment 1", rps + 1)),
            "{msg}"
        );
        // another segment's records still read at once
        m.read(RecordId(0), &mut out).unwrap();
        assert!(!m.try_read(RecordId(rps), &mut out));
    }

    #[test]
    fn closed_gate_fails_every_read_until_reopened() {
        let m = mirror();
        let s_rec = m.s_rec();
        m.publish(RecordId(3), &vec![9; s_rec]);
        let mut out = vec![0; s_rec];
        assert!(m.try_read(RecordId(3), &mut out));
        assert_eq!(out, vec![9; s_rec]);

        m.gate_close();
        assert!(m.gate_closed());
        assert!(!m.try_read(RecordId(3), &mut out), "closed gate must fail");
        m.gate_open();
        assert!(!m.gate_closed());
        assert!(m.try_read(RecordId(3), &mut out));
    }

    #[test]
    fn out_of_range_and_wrong_width_reads_fail() {
        let m = mirror();
        let s_rec = m.s_rec();
        let n = m.n_records();
        let mut out = vec![0; s_rec];
        assert!(!m.try_read(RecordId(n), &mut out));
        let mut short = vec![0; s_rec - 1];
        assert!(!m.try_read(RecordId(0), &mut short));
    }
}
