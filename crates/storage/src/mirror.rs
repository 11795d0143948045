//! Lock-free read mirror: a seqlock-protected copy of every record that
//! readers can consult without taking the engine lock.
//!
//! The authoritative database (`Storage`'s `Vec<Segment>`) is plain,
//! unsynchronized memory and stays that way — the engine serializes all
//! access to it. The mirror is a second, flat copy of the record data
//! built from atomics, kept up to date by every install path:
//!
//! * each record has a **sequence counter** (odd = a writer is mid-copy);
//! * record words are `AtomicU32` (`Word` is `u32`), written with the
//!   classic seqlock writer protocol (odd → relaxed word stores behind a
//!   release fence → even with release) and read with the matching
//!   reader protocol (acquire seq, relaxed word loads, acquire fence,
//!   re-check seq);
//! * a mirror-global **gate** counter (odd = closed) lets crash and
//!   recovery take the whole mirror out of service so no reader can be
//!   served a pre-crash value while the authoritative copy is being
//!   rebuilt.
//!
//! Writers to any one record must be serialized externally (the engine's
//! per-segment latches, `&mut Storage`, or lane disjointness all provide
//! this); the seqlock only protects readers from writers.
//!
//! The mirror also carries the **pending-sync queue**: shared-mode
//! commits install into the mirror only (they hold no `&mut Storage`)
//! and enqueue a note per install; the next holder of exclusive access
//! drains the queue into the authoritative segments via
//! [`crate::Storage::sync_pending`]. The queue mutex is a leaf: nothing
//! else is ever acquired while it is held, so it sits outside the ranked
//! hierarchy by construction.

use mmdb_types::{DbParams, Lsn, RecordId, Timestamp, Word};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One shared-mode install awaiting copy-back into the authoritative
/// segments (see [`crate::Storage::sync_pending`]).
#[derive(Debug, Clone, Copy)]
pub struct PendingInstall {
    /// The installed record.
    pub rid: RecordId,
    /// Timestamp of the installing transaction (for `τ(S)` maintenance).
    pub tau: Timestamp,
    /// LSN of the install's log record (for the segment WAL gate).
    pub lsn: Lsn,
}

/// The seqlock read mirror. Create via `Storage`; share via `Arc`.
#[derive(Debug)]
pub struct ReadMirror {
    n_records: u64,
    s_rec: usize,
    records_per_segment: u64,
    /// Flat record data: record `r` occupies words `[r*s_rec, (r+1)*s_rec)`.
    words: Vec<AtomicU32>,
    /// Per-record sequence counters; odd while a writer is copying.
    seqs: Vec<AtomicU64>,
    /// Mirror-global gate; odd while crash/recovery has the mirror closed.
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
            seqs: (0..n_records).map(|_| AtomicU64::new(0)).collect(),
            gate: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Record size in words.
    pub fn s_rec(&self) -> usize {
        self.s_rec
    }

    /// Number of records mirrored.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    fn span(&self, rid: RecordId) -> std::ops::Range<usize> {
        let i = rid.raw() as usize * self.s_rec;
        i..i + self.s_rec
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
        if gate0 & 1 == 1 {
            return false;
        }
        let seq = &self.seqs[rid.raw() as usize];
        let seq0 = seq.load(Ordering::Acquire);
        if seq0 & 1 == 1 {
            return false;
        }
        for (o, w) in out.iter_mut().zip(&self.words[self.span(rid)]) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        seq.load(Ordering::Relaxed) == seq0 && self.gate.load(Ordering::Relaxed) == gate0
    }

    /// Publishes a record value to the mirror. The caller must hold
    /// whatever serializes writers to this record (segment latch,
    /// `&mut Storage`, or lane ownership) — concurrent publishes to the
    /// *same* record are a protocol violation.
    pub fn publish(&self, rid: RecordId, value: &[Word]) {
        debug_assert!(rid.raw() < self.n_records);
        debug_assert_eq!(value.len(), self.s_rec);
        let seq = &self.seqs[rid.raw() as usize];
        let seq0 = seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq0 & 1, 0, "concurrent publish to one record");
        seq.store(seq0 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for (w, v) in self.words[self.span(rid)].iter().zip(value) {
            w.store(*v, Ordering::Relaxed);
        }
        seq.store(seq0 + 2, Ordering::Release);
    }

    /// Publishes a whole segment image (recovery loading a backup).
    pub fn publish_segment(&self, first_record: RecordId, data: &[Word]) {
        debug_assert_eq!(data.len() % self.s_rec, 0);
        for (k, chunk) in data.chunks_exact(self.s_rec).enumerate() {
            self.publish(RecordId(first_record.raw() + k as u64), chunk);
        }
    }

    /// First record of segment `sid` (publish_segment helper).
    pub fn segment_first_record(&self, sid: u32) -> RecordId {
        RecordId(sid as u64 * self.records_per_segment)
    }

    /// Reads a record's current mirror value without the seqlock dance.
    /// Only sound while the caller holds exclusive access (no concurrent
    /// publishers) — used by the pending-sync drain.
    pub fn snapshot_record(&self, rid: RecordId, out: &mut [Word]) {
        debug_assert!(rid.raw() < self.n_records);
        for (o, w) in out.iter_mut().zip(&self.words[self.span(rid)]) {
            *o = w.load(Ordering::Relaxed);
        }
    }

    // ----- gate ------------------------------------------------------------

    /// Closes the gate (crash): every `try_read` fails until the gate
    /// reopens. Caller must hold exclusive access.
    pub fn gate_close(&self) {
        let g = self.gate.load(Ordering::Relaxed);
        debug_assert_eq!(g & 1, 0, "gate already closed");
        self.gate.store(g + 1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Reopens the gate (end of recovery, after the mirror has been
    /// republished from the authoritative copy).
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

    /// Enqueues a shared-mode install for later copy-back into the
    /// authoritative segments.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn mirror() -> Arc<ReadMirror> {
        Arc::new(ReadMirror::new(&DbParams {
            s_db: 4096,
            s_rec: 16,
            s_seg: 256,
        }))
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
                    let mut ok = 0u64;
                    let mut out = vec![0; s_rec];
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if m.try_read(RecordId(x % n), &mut out) {
                            assert!(out.iter().all(|&w| w == out[0]), "torn read: {out:?}");
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let ok = r.join().unwrap();
            assert!(ok > 0, "reader starved — every optimistic read failed");
        }
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
