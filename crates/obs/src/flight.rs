//! The always-on flight recorder: per-thread ring buffers of typed
//! phase events.
//!
//! Every enabled [`crate::Obs`] handle owns one recorder. Each thread
//! that records gets its *own* fixed-capacity ring behind its own
//! [`RankedMutex`] — uncontended on the hot path (the snapshotter is
//! the only other taker), so recording is one uncontended lock, no
//! allocation, no clock read beyond the caller's timer. Memory is
//! bounded: `threads × capacity × size_of::<FlightEvent>()`.
//!
//! Request scoping rides on a thread-local scope installed by
//! [`crate::Obs::request_scope`]: the request's trace id and root span
//! id are installed for the duration of its dispatch, and every phase
//! event recorded on that thread while the scope is active becomes a
//! child of the request's root span — *whichever* `Obs` handle recorded
//! it, so a per-shard engine's `log.force` lands in the router's
//! request tree. Threads working outside any request (group-commit
//! flushers, checkpointers) record with a zero trace id and attribute
//! to the `"system"` pseudo-opcode.

use mmdb_sync::{leak_name, LockRank, RankedMutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default per-thread ring capacity (events retained per thread).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Attribution bucket for work done outside any request scope
/// (flusher forces, checkpoint passes, connection-level queueing).
pub const SYSTEM_OP: &str = "system";

/// One recorded phase event. Fixed-size and `Copy`: the hot path never
/// allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// This event's span id (process-unique, never reused).
    pub span_id: u64,
    /// The span this event is a child of (0 = root / unparented).
    pub parent_span: u64,
    /// The request's trace id (0 = not request-scoped).
    pub trace_id: u64,
    /// Static phase name, e.g. `engine.lock_wait`.
    pub name: &'static str,
    /// Opcode of the enclosing request (or [`SYSTEM_OP`]).
    pub op: &'static str,
    /// Start offset in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free numeric detail (shard index, byte count, ...).
    pub detail: u64,
}

/// The request identity carried by a thread-local scope (see
/// `registry::SCOPE`): every phase event recorded while it is installed
/// becomes a child of `span_id` under `trace_id`, attributed to `op`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CurrentCtx {
    pub trace_id: u64,
    pub span_id: u64,
    pub op: &'static str,
}

thread_local! {
    /// This thread's rings, keyed by recorder id (a process can host
    /// several recorders — one per enabled `Obs` — in tests).
    static RINGS: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Fixed-capacity event storage: a preallocated vector with a wrapping
/// write cursor once full.
#[derive(Debug)]
struct RingBuf {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Oldest slot (and next overwrite target) once the ring is full.
    cursor: usize,
    recorded: u64,
}

impl RingBuf {
    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.cursor] = ev;
            self.cursor = (self.cursor + 1) % self.cap;
        }
        self.recorded += 1;
    }

    /// Events in chronological (recording) order.
    fn chronological(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.cursor..]);
        out.extend_from_slice(&self.buf[..self.cursor]);
        out
    }

    fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }
}

/// One thread's ring. The owning thread is the only pusher; snapshots
/// from other threads take the same (uncontended) lock briefly.
#[derive(Debug)]
pub(crate) struct ThreadRing {
    events: RankedMutex<RingBuf>,
}

impl ThreadRing {
    fn new(name: &'static str, cap: usize) -> ThreadRing {
        ThreadRing {
            events: RankedMutex::new(
                name,
                LockRank::OBS_FLIGHT,
                RingBuf {
                    buf: Vec::with_capacity(cap.min(DEFAULT_FLIGHT_CAPACITY)),
                    cap: cap.max(1),
                    cursor: 0,
                    recorded: 0,
                },
            ),
        }
    }

    fn push(&self, ev: FlightEvent) {
        self.events.lock().push(ev);
    }
}

/// Hands each recorder a process-unique id so thread-local ring caches
/// never alias across recorders (Arc addresses can be reused).
static RECORDER_SEQ: AtomicU64 = AtomicU64::new(1);

/// The span-id allocator, shared by every recorder so that dumps merged
/// from several recorders never see one id twice.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// The per-`Obs` flight recorder: a registry of per-thread rings.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    id: u64,
    capacity: usize,
    /// All rings ever registered (threads are never unregistered; a
    /// ring is a few KiB and thread counts are bounded in this system).
    rings: RankedMutex<Vec<Arc<ThreadRing>>>,
}

impl FlightRecorder {
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        let id = RECORDER_SEQ.fetch_add(1, Ordering::Relaxed);
        FlightRecorder {
            id,
            capacity,
            rings: RankedMutex::new(
                leak_name(format!("obs.flight_registry.{id}")),
                LockRank::OBS_FLIGHT,
                Vec::new(),
            ),
        }
    }

    /// Allocate a fresh, process-unique span id (lock-free).
    pub(crate) fn next_span_id(&self) -> u64 {
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's ring for this recorder, creating and
    /// registering it on first use.
    fn ring(&self) -> Arc<ThreadRing> {
        RINGS.with(|rings| {
            let mut cached = rings.borrow_mut();
            if let Some((_, ring)) = cached.iter().find(|(id, _)| *id == self.id) {
                return ring.clone();
            }
            let seq = {
                // registration is rare (once per thread per recorder)
                let mut all = self.rings.lock();
                let ring = Arc::new(ThreadRing::new(
                    leak_name(format!("obs.flight.{}.{}", self.id, all.len())),
                    self.capacity,
                ));
                all.push(ring.clone());
                ring
            };
            cached.push((self.id, seq.clone()));
            seq
        })
    }

    /// Record one event into the calling thread's ring.
    pub(crate) fn record(&self, ev: FlightEvent) {
        self.ring().push(ev);
    }

    /// Events recorded by the calling thread whose parent (or self) is
    /// `span_id`, chronologically — the slow-request extraction path.
    pub(crate) fn thread_events_under(&self, span_id: u64) -> Vec<FlightEvent> {
        self.ring()
            .events
            .lock()
            .chronological()
            .into_iter()
            .filter(|e| e.span_id == span_id || e.parent_span == span_id)
            .collect()
    }

    /// Merge every thread's ring into one chronological view, plus
    /// `(recorded, dropped)` totals. Takes each ring lock briefly, one
    /// at a time.
    pub(crate) fn snapshot(&self) -> (Vec<FlightEvent>, u64, u64) {
        let rings: Vec<Arc<ThreadRing>> = self.rings.lock().clone();
        let mut events = Vec::new();
        let (mut recorded, mut dropped) = (0u64, 0u64);
        for ring in rings {
            let buf = ring.events.lock();
            recorded += buf.recorded;
            dropped += buf.dropped();
            events.extend(buf.chronological());
        }
        events.sort_by_key(|e| (e.start_ns, e.span_id));
        (events, recorded, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let mut rb = RingBuf {
            buf: Vec::new(),
            cap: 3,
            cursor: 0,
            recorded: 0,
        };
        for i in 1..=5u64 {
            rb.push(FlightEvent {
                span_id: i,
                parent_span: 0,
                trace_id: 0,
                name: "x",
                op: SYSTEM_OP,
                start_ns: i * 10,
                dur_ns: 1,
                detail: 0,
            });
        }
        assert_eq!(rb.recorded, 5);
        assert_eq!(rb.dropped(), 2);
        let chron: Vec<u64> = rb.chronological().iter().map(|e| e.span_id).collect();
        assert_eq!(chron, vec![3, 4, 5]);
    }

    #[test]
    fn recorder_merges_across_threads() {
        let rec = Arc::new(FlightRecorder::new(16));
        let ev = |span_id, start_ns| FlightEvent {
            span_id,
            parent_span: 0,
            trace_id: 7,
            name: "t",
            op: "put",
            start_ns,
            dur_ns: 5,
            detail: 0,
        };
        rec.record(ev(rec.next_span_id(), 30));
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            rec2.record(ev(rec2.next_span_id(), 10));
        })
        .join()
        .expect("recorder thread");
        let (events, recorded, dropped) = rec.snapshot();
        assert_eq!(recorded, 2);
        assert_eq!(dropped, 0);
        let starts: Vec<u64> = events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![10, 30], "merged view is chronological");
    }

    #[test]
    fn thread_events_under_filters_by_parent() {
        let rec = FlightRecorder::new(16);
        let root = rec.next_span_id();
        let other = rec.next_span_id();
        for (span_id, parent_span) in [(root, 0), (rec.next_span_id(), root), (other, 999)] {
            rec.record(FlightEvent {
                span_id,
                parent_span,
                trace_id: 1,
                name: "p",
                op: "get",
                start_ns: span_id,
                dur_ns: 1,
                detail: 0,
            });
        }
        let under = rec.thread_events_under(root);
        assert_eq!(under.len(), 2, "root itself plus its one child");
        assert!(under.iter().all(|e| e.span_id != other));
    }
}
