//! The metrics registry and the cloneable [`Obs`] handle.
//!
//! [`Obs`] follows the same idiom as the audit handle: a disabled handle
//! is an `Option::None` and every operation on it is a no-op that never
//! takes a lock, allocates, or reads the clock. An enabled handle shares
//! one registry + flight recorder across every component it is cloned
//! into (engine, checkpointer, log manager, recovery, simulator), so a
//! snapshot sees the whole system.

use crate::flight::{CurrentCtx, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, SYSTEM_OP};
use crate::hist::Histogram;
use mmdb_sync::{ContentionSink, LockRank, RankedMutex};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default slow-request threshold: a request slower than this gets its
/// span tree copied into the slow-request log.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 1_000;

/// Default slow-request log capacity (entries retained).
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// Sorted `(name, counter)`, `(name, gauge)` and `(name, histogram
/// summary)` triple produced by [`Obs::dump`].
pub type RegistryDump = (
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<(String, crate::HistSummary)>,
);

/// Named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// One request's span tree, extracted into the slow-request log when
/// its end-to-end latency crossed the threshold.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// The request's trace id (client-supplied or locally generated).
    pub trace_id: u64,
    /// Wire opcode (or local pseudo-opcode) of the request.
    pub op: &'static str,
    /// Root-span start offset in ns since the process's telemetry epoch.
    pub start_ns: u64,
    /// End-to-end duration in ns.
    pub total_ns: u64,
    /// The root span plus every phase recorded under it on the
    /// dispatching thread, chronologically.
    pub spans: Vec<FlightEvent>,
}

/// Bounded slow-request log (oldest evicted first).
#[derive(Debug)]
struct SlowLog {
    entries: VecDeque<RequestTrace>,
    capacity: usize,
    recorded: u64,
}

impl SlowLog {
    fn push(&mut self, t: RequestTrace) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(t);
        self.recorded += 1;
    }
}

/// Per-phase aggregate inside one opcode's attribution row.
#[derive(Clone, Copy, Debug, Default)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
}

/// Per-opcode attribution row.
#[derive(Debug, Default)]
struct OpAttr {
    requests: u64,
    total_ns: u64,
    phases: BTreeMap<&'static str, PhaseAgg>,
}

/// The latency-attribution table: per opcode, end-to-end request time
/// plus per-phase time recorded under that opcode's request scopes.
/// Phase spans may nest (`txn.commit` contains `log.force`), so phase
/// totals are *not* a partition of the request total.
#[derive(Debug, Default)]
struct AttrTable {
    ops: BTreeMap<&'static str, OpAttr>,
}

impl AttrTable {
    fn add_phase(&mut self, op: &'static str, phase: &'static str, dur_ns: u64) {
        let agg = self
            .ops
            .entry(op)
            .or_default()
            .phases
            .entry(phase)
            .or_default();
        agg.count += 1;
        agg.total_ns += dur_ns;
    }
}

/// One opcode's row of the exported attribution report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttributionEntry {
    /// Wire opcode, or `"system"` for work outside any request.
    pub op: String,
    /// Request scopes finished under this opcode.
    pub requests: u64,
    /// Summed end-to-end request time in ns (matches the corresponding
    /// histogram's `sum` exactly — both record the same measurement).
    pub total_ns: u64,
    /// Per-phase `(name, count, total_ns)`, sorted by name.
    pub phases: Vec<(String, u64, u64)>,
}

struct ObsInner {
    // The registry locks sit at the very bottom of the lock hierarchy
    // (DESIGN.md §6.6): every subsystem records telemetry while holding
    // its own locks, so nothing may be acquired below these. They carry
    // no contention sink of their own — the sink *is* this registry, and
    // instrumenting it with itself would recurse.
    metrics: RankedMutex<Registry>,
    flight: FlightRecorder,
    slow: RankedMutex<SlowLog>,
    attr: RankedMutex<AttrTable>,
    /// Slow-request threshold in ns (0 disables the slow log).
    slow_threshold_ns: AtomicU64,
}

/// The thread-local request scope. It carries the owning handle's inner
/// alongside the request identity so phase events recorded through *any*
/// enabled handle (a per-shard engine's, the log manager's) route to the
/// scope owner's recorder and attribution table — one coherent timeline
/// per request no matter which subsystem recorded.
struct ScopeState {
    ctx: CurrentCtx,
    inner: Arc<ObsInner>,
}

thread_local! {
    static SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// The trace id of the request scope active on the calling thread
/// (0 = none) — lets subsystems hand work to another thread (a flusher
/// doorbell) tagged with the requester's trace.
pub fn current_trace_id() -> u64 {
    SCOPE.with(|s| s.borrow().as_ref().map_or(0, |sc| sc.ctx.trace_id))
}

/// Record one phase event: into the active scope's recorder as a child
/// of the request's root span when one is installed on this thread,
/// else into `inner`'s own recorder as an unparented system event.
fn record_flight(
    inner: &Arc<ObsInner>,
    name: &'static str,
    started: Instant,
    dur_ns: u64,
    detail: u64,
) {
    SCOPE.with(|s| {
        let borrow = s.borrow();
        let (target, ctx) = match borrow.as_ref() {
            Some(scope) => (&scope.inner, Some(scope.ctx)),
            None => (inner, None),
        };
        let ev = FlightEvent {
            span_id: target.flight.next_span_id(),
            parent_span: ctx.map_or(0, |c| c.span_id),
            trace_id: ctx.map_or(0, |c| c.trace_id),
            name,
            op: ctx.map_or(SYSTEM_OP, |c| c.op),
            start_ns: rel_ns(started),
            dur_ns,
            detail,
        };
        target.flight.record(ev);
        target.attr.lock().add_phase(ev.op, name, dur_ns);
    });
}

/// Deterministic local trace id for requests that arrived without one
/// (splitmix64 of the root span id, never zero).
fn local_trace_id(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

impl std::fmt::Debug for ObsInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsInner").finish_non_exhaustive()
    }
}

/// A started wall-clock measurement. Disabled handles hand out inert
/// timers, so the clock is only read when telemetry is on.
#[derive(Debug, Default)]
pub struct Timer(Option<Instant>);

/// Cloneable telemetry handle; see module docs.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A live handle.
    pub fn enabled() -> Obs {
        epoch();
        Obs {
            inner: Some(Arc::new(ObsInner {
                metrics: RankedMutex::new(
                    "obs.metrics",
                    LockRank::OBS_METRICS,
                    Registry::default(),
                ),
                flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
                slow: RankedMutex::new(
                    "obs.slow",
                    LockRank::OBS_SLOW,
                    SlowLog {
                        entries: VecDeque::new(),
                        capacity: DEFAULT_SLOW_CAPACITY,
                        recorded: 0,
                    },
                ),
                attr: RankedMutex::new("obs.attr", LockRank::OBS_ATTR, AttrTable::default()),
                slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US * 1_000),
            })),
        }
    }

    /// The no-op handle.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a wall-clock measurement (inert when disabled).
    pub fn timer(&self) -> Timer {
        Timer(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Add `delta` to the counter `name`.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.metrics.lock();
            *m.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.metrics.lock();
            m.gauges.insert(name, value);
        }
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut m = inner.metrics.lock();
            m.hists.entry(name).or_default().record(value);
        }
    }

    /// Record a duration in microseconds into the histogram `name` —
    /// for intervals measured by the caller rather than a [`Timer`].
    pub fn observe_duration_us(&self, name: &'static str, d: std::time::Duration) {
        self.observe(name, u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Record the elapsed time of `timer` (in ns) into the histogram
    /// `hist` without emitting a span.
    pub fn observe_timer(&self, hist: &'static str, timer: Timer) {
        if let (Some(inner), Some(started)) = (&self.inner, timer.0) {
            let ns = elapsed_ns(started);
            let mut m = inner.metrics.lock();
            m.hists.entry(hist).or_default().record(ns);
        }
    }

    /// Record a typed phase event carrying a free numeric detail
    /// (shard index, byte count, ...) into the flight recorder (routed
    /// to the active request scope, if any) without touching any
    /// histogram.
    pub fn phase_detail(&self, name: &'static str, timer: Timer, detail: u64) {
        if let (Some(inner), Some(started)) = (&self.inner, timer.0) {
            record_flight(inner, name, started, elapsed_ns(started), detail);
        }
    }

    /// Finish a timed span: [`Obs::phase_detail`] plus the duration into
    /// the histogram `hist`. Every span is a flight-recorder phase routed
    /// to the request scope active on this thread, so an inline
    /// `log.force` inside commit becomes a child of the request that
    /// paid for it.
    pub fn phase_hist(&self, name: &'static str, hist: &'static str, timer: Timer, detail: u64) {
        if let (Some(inner), Some(started)) = (&self.inner, timer.0) {
            let dur_ns = elapsed_ns(started);
            record_flight(inner, name, started, dur_ns, detail);
            let mut m = inner.metrics.lock();
            m.hists.entry(hist).or_default().record(dur_ns);
        }
    }

    /// Record a phase that started at `started` (an interval measured
    /// by the caller rather than a [`Timer`] — the accept-queue delay).
    pub fn phase_from(&self, name: &'static str, started: Instant, detail: u64) {
        if let Some(inner) = &self.inner {
            record_flight(inner, name, started, elapsed_ns(started), detail);
        }
    }

    /// Record a phase on behalf of a request running on *another*
    /// thread: the event lands in this handle's own recorder as a
    /// system event tagged with `trace_id` (a flusher forcing the log
    /// for the requester that rang its doorbell).
    pub fn phase_for_trace(&self, name: &'static str, timer: Timer, detail: u64, trace_id: u64) {
        if let (Some(inner), Some(started)) = (&self.inner, timer.0) {
            let dur_ns = elapsed_ns(started);
            inner.flight.record(FlightEvent {
                span_id: inner.flight.next_span_id(),
                parent_span: 0,
                trace_id,
                name,
                op: SYSTEM_OP,
                start_ns: rel_ns(started),
                dur_ns,
                detail,
            });
            inner.attr.lock().add_phase(SYSTEM_OP, name, dur_ns);
        }
    }

    /// Open a request scope: allocates the root span, installs it as
    /// this thread's active scope (routing every subsequent phase on
    /// this thread into the request's tree), and on [`RequestScope::finish`]
    /// (or drop) records the root span into the flight recorder, the
    /// histogram `hist` and the attribution table — all
    /// from the *same* duration measurement, so attribution totals and
    /// the end-to-end histogram reconcile exactly. A request slower
    /// than the slow threshold gets its span tree copied into the
    /// slow-request log. `trace_id` 0 (an untraced client) generates a
    /// local id so the tree is still linked.
    pub fn request_scope(
        &self,
        span: &'static str,
        hist: &'static str,
        op: &'static str,
        trace_id: u64,
        parent_span: u64,
    ) -> RequestScope {
        let Some(inner) = &self.inner else {
            return RequestScope { active: None };
        };
        let root_span = inner.flight.next_span_id();
        let trace_id = if trace_id == 0 {
            local_trace_id(root_span)
        } else {
            trace_id
        };
        let prev = SCOPE.with(|s| {
            s.borrow_mut().replace(ScopeState {
                ctx: CurrentCtx {
                    trace_id,
                    span_id: root_span,
                    op,
                },
                inner: inner.clone(),
            })
        });
        RequestScope {
            active: Some(ActiveScope {
                inner: inner.clone(),
                span,
                hist,
                op,
                trace_id,
                parent_span,
                root_span,
                started: Instant::now(),
                prev,
            }),
        }
    }

    /// Set the slow-request threshold (0 disables the slow log).
    pub fn set_slow_threshold_us(&self, us: u64) {
        if let Some(inner) = &self.inner {
            inner
                .slow_threshold_ns
                .store(us.saturating_mul(1_000), Ordering::Relaxed);
        }
    }

    /// The current slow-request threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.slow_threshold_ns.load(Ordering::Relaxed) / 1_000,
            None => 0,
        }
    }

    /// The most recent `limit` slow requests, oldest first, plus the
    /// total ever recorded.
    pub fn slow_requests(&self, limit: usize) -> (Vec<RequestTrace>, u64) {
        match &self.inner {
            Some(inner) => {
                let log = inner.slow.lock();
                let skip = log.entries.len().saturating_sub(limit);
                (
                    log.entries.iter().skip(skip).cloned().collect(),
                    log.recorded,
                )
            }
            None => (Vec::new(), 0),
        }
    }

    /// Merge every thread's flight-recorder ring into one chronological
    /// view (most recent `limit` events), plus `(recorded, dropped)`.
    pub fn flight_spans(&self, limit: usize) -> (Vec<FlightEvent>, u64, u64) {
        match &self.inner {
            Some(inner) => {
                let (mut events, recorded, dropped) = inner.flight.snapshot();
                events.drain(..events.len().saturating_sub(limit));
                (events, recorded, dropped)
            }
            None => (Vec::new(), 0, 0),
        }
    }

    /// The latency-attribution report: one row per opcode, sorted by
    /// opcode, phases sorted by name.
    pub fn attribution(&self) -> Vec<AttributionEntry> {
        match &self.inner {
            Some(inner) => {
                let t = inner.attr.lock();
                t.ops
                    .iter()
                    .map(|(op, row)| AttributionEntry {
                        op: op.to_string(),
                        requests: row.requests,
                        total_ns: row.total_ns,
                        phases: row
                            .phases
                            .iter()
                            .map(|(name, agg)| (name.to_string(), agg.count, agg.total_ns))
                            .collect(),
                    })
                    .collect()
            }
            None => Vec::new(),
        }
    }

    /// Run `f` against the registry (no-op when disabled).
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&inner.metrics.lock()))
    }

    /// Dump the registry contents for snapshotting: sorted counters,
    /// gauges and histogram summaries.
    pub fn dump(&self) -> RegistryDump {
        match &self.inner {
            Some(inner) => {
                let m = inner.metrics.lock();
                (
                    m.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                    m.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                    m.hists
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.summary()))
                        .collect(),
                )
            }
            None => (Vec::new(), Vec::new(), Vec::new()),
        }
    }
}

struct ActiveScope {
    inner: Arc<ObsInner>,
    span: &'static str,
    hist: &'static str,
    op: &'static str,
    trace_id: u64,
    parent_span: u64,
    root_span: u64,
    started: Instant,
    prev: Option<ScopeState>,
}

/// RAII guard for one request's scope — see [`Obs::request_scope`].
/// Inert (a no-op on finish/drop) when the handle was disabled.
#[must_use = "the request scope records on finish/drop"]
pub struct RequestScope {
    active: Option<ActiveScope>,
}

impl RequestScope {
    /// The request's trace id (0 when the handle was disabled).
    pub fn trace_id(&self) -> u64 {
        self.active.as_ref().map_or(0, |a| a.trace_id)
    }

    /// Finish the scope now (equivalent to dropping it).
    pub fn finish(self) {}

    fn end(&mut self) {
        let Some(a) = self.active.take() else { return };
        let dur_ns = elapsed_ns(a.started);
        // Restore the previous scope first: the bookkeeping below must
        // not attribute to the request that just ended.
        SCOPE.with(|s| *s.borrow_mut() = a.prev);
        let start_ns = rel_ns(a.started);
        a.inner.flight.record(FlightEvent {
            span_id: a.root_span,
            parent_span: a.parent_span,
            trace_id: a.trace_id,
            name: a.span,
            op: a.op,
            start_ns,
            dur_ns,
            detail: 0,
        });
        {
            let mut m = a.inner.metrics.lock();
            m.hists.entry(a.hist).or_default().record(dur_ns);
        }
        {
            let mut t = a.inner.attr.lock();
            let row = t.ops.entry(a.op).or_default();
            row.requests += 1;
            row.total_ns += dur_ns;
        }
        let threshold = a.inner.slow_threshold_ns.load(Ordering::Relaxed);
        if threshold > 0 && dur_ns >= threshold {
            // The dispatching thread recorded every phase of this
            // request into its own ring, so the extraction never
            // crosses threads.
            let spans = a.inner.flight.thread_events_under(a.root_span);
            a.inner.slow.lock().push(RequestTrace {
                trace_id: a.trace_id,
                op: a.op,
                start_ns,
                total_ns: dur_ns,
                spans,
            });
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        self.end();
    }
}

impl Registry {
    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if any value was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }
}

/// The registry doubles as the [`ContentionSink`] for every
/// [`RankedMutex`] in the system: a contended acquisition becomes a
/// `sync.<name>.contended` counter bump and hold intervals land in the
/// `sync.<name>.held_us` histogram. Sinks are invoked only *after* the
/// instrumented guard is released, so recording here (rank
/// `OBS_METRICS`, the hierarchy floor) can never invert the order.
impl ContentionSink for Obs {
    fn contended(&self, metric: &'static str) {
        self.counter(metric, 1);
    }

    fn held_us(&self, metric: &'static str, us: u64) {
        self.observe(metric, us);
    }
}

impl Obs {
    /// This handle as a contention sink for `RankedMutex::set_sink`, or
    /// `None` when disabled (leaving instrumented locks on their
    /// zero-overhead fast path).
    pub fn contention_sink(&self) -> Option<Arc<dyn ContentionSink>> {
        self.inner
            .as_ref()
            .map(|_| Arc::new(self.clone()) as Arc<dyn ContentionSink>)
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The process's telemetry epoch, fixed when the first handle is
/// enabled. Every handle shares it, so spans from different recorders
/// lie on one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Offset of `t` from the telemetry epoch in ns (0 when `t` predates it).
fn rel_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("c", 1);
        obs.observe("h", 42);
        obs.phase_hist("s", "s_ns", obs.timer(), 1);
        assert_eq!(obs.flight_spans(10), (Vec::new(), 0, 0));
        assert_eq!(obs.with_registry(|r| r.counter_value("c")), None);
    }

    #[test]
    fn enabled_handle_shares_state_across_clones() {
        let a = Obs::enabled();
        let b = a.clone();
        a.counter("txn.committed", 2);
        b.counter("txn.committed", 3);
        b.gauge("seg.total", 32);
        b.observe("lat", 100);
        assert_eq!(
            a.with_registry(|r| r.counter_value("txn.committed")),
            Some(5)
        );
        assert_eq!(
            a.with_registry(|r| r.gauge_value("seg.total")),
            Some(Some(32))
        );
        assert_eq!(
            a.with_registry(|r| r.hist("lat").map(|h| h.count())),
            Some(Some(1))
        );
    }

    #[test]
    fn phase_hist_records_one_event_and_histogram() {
        let obs = Obs::enabled();
        let t = obs.timer();
        obs.phase_hist("ckpt.pass", "ckpt.pass_ns", t, 7);
        let (spans, recorded, dropped) = obs.flight_spans(10);
        assert_eq!((spans.len(), recorded, dropped), (1, 1, 0));
        assert_eq!((spans[0].name, spans[0].detail), ("ckpt.pass", 7));
        let sum = obs
            .with_registry(|r| r.hist("ckpt.pass_ns").map(|h| h.summary()))
            .flatten()
            .expect("histogram");
        assert_eq!(
            (sum.count, sum.sum),
            (1, spans[0].dur_ns),
            "one measurement"
        );
    }

    #[test]
    fn flight_spans_keeps_the_most_recent_limit() {
        let obs = Obs::enabled();
        for detail in 1..=5 {
            obs.phase_detail("p", obs.timer(), detail);
        }
        let (spans, recorded, dropped) = obs.flight_spans(2);
        assert_eq!((recorded, dropped), (5, 0));
        let details: Vec<u64> = spans.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![4, 5]);
    }

    #[test]
    fn stale_default_timer_is_ignored() {
        let obs = Obs::enabled();
        obs.phase_hist("x", "x_ns", Timer::default(), 0);
        obs.phase_detail("p", Timer::default(), 0);
        assert_eq!(obs.flight_spans(10).1, 0);
        assert_eq!(obs.with_registry(|r| r.hist("x_ns").is_some()), Some(false));
    }

    #[test]
    fn request_scope_builds_a_span_tree_and_feeds_the_slow_log() {
        let obs = Obs::enabled();
        let scope = obs.request_scope("net.request", "net.request_ns", "batch", 0xABCD, 7);
        assert_eq!(scope.trace_id(), 0xABCD);
        let t = obs.timer();
        std::thread::sleep(std::time::Duration::from_millis(2));
        obs.phase_detail("engine.lock_wait", t, 3);
        scope.finish();

        let (spans, recorded, dropped) = obs.flight_spans(16);
        assert_eq!((recorded, dropped), (2, 0));
        let root = spans
            .iter()
            .find(|s| s.name == "net.request")
            .expect("root");
        let phase = spans
            .iter()
            .find(|s| s.name == "engine.lock_wait")
            .expect("phase");
        assert_eq!(root.trace_id, 0xABCD);
        assert_eq!(root.parent_span, 7);
        assert_eq!(phase.trace_id, 0xABCD);
        assert_eq!(
            phase.parent_span, root.span_id,
            "phase is a child of the root"
        );
        assert_eq!((phase.op, phase.detail), ("batch", 3));
        assert_eq!(crate::DumpSpan::from(phase).label, "batch detail=3");
        assert_eq!(crate::DumpSpan::from(root).label, "batch");

        // >= 2 ms end to end beats the default 1 ms threshold
        let (slow, slow_recorded) = obs.slow_requests(8);
        assert_eq!(slow_recorded, 1);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].op, "batch");
        assert_eq!(slow[0].trace_id, 0xABCD);
        assert_eq!(slow[0].spans, [*phase, *root], "in recording order");
    }

    #[test]
    fn attribution_totals_match_the_request_histogram_exactly() {
        let obs = Obs::enabled();
        obs.set_slow_threshold_us(0);
        for _ in 0..5 {
            let scope = obs.request_scope("net.request", "net.request_ns", "put", 0, 0);
            let t = obs.timer();
            obs.phase_detail("txn.exec", t, 0);
            scope.finish();
        }
        let attr = obs.attribution();
        let row = attr.iter().find(|e| e.op == "put").expect("put row");
        assert_eq!(row.requests, 5);
        let hist_sum = obs
            .with_registry(|r| r.hist("net.request_ns").map(|h| h.summary().sum))
            .flatten()
            .expect("histogram");
        assert_eq!(row.total_ns, hist_sum, "same measurement feeds both");
        let (name, count, _) = &row.phases[0];
        assert_eq!((name.as_str(), *count), ("txn.exec", 5));
    }

    #[test]
    fn phases_route_to_the_scope_owner_across_handles() {
        let router = Obs::enabled();
        let engine = Obs::enabled();
        router.set_slow_threshold_us(0);
        {
            let _scope = router.request_scope("net.request", "net.request_ns", "commit", 99, 0);
            // recorded via a different handle, as the engine does for
            // an inline log force
            engine.phase_hist("log.force", "log.force_ns", engine.timer(), 512);
        }
        let (spans, _, _) = router.flight_spans(16);
        let force = spans
            .iter()
            .find(|s| s.name == "log.force")
            .expect("routed");
        assert_eq!(force.trace_id, 99);
        assert_eq!((force.op, force.detail), ("commit", 512));
        // the engine's own recorder saw nothing; its histogram did
        assert_eq!(engine.flight_spans(16).1, 0);
        assert_eq!(
            engine.with_registry(|r| r.hist("log.force_ns").map(|h| h.count())),
            Some(Some(1))
        );
        // attribution for the phase landed on the router under the op
        let row = router
            .attribution()
            .into_iter()
            .find(|e| e.op == "commit")
            .expect("commit row");
        assert!(row
            .phases
            .iter()
            .any(|(n, c, _)| n == "log.force" && *c == 1));
    }

    #[test]
    fn unscoped_phases_attribute_to_system() {
        let obs = Obs::enabled();
        obs.phase_detail("log.force", obs.timer(), 0);
        let (spans, recorded, _) = obs.flight_spans(4);
        assert_eq!(recorded, 1);
        assert_eq!(spans[0].trace_id, 0);
        assert_eq!(spans[0].op, crate::flight::SYSTEM_OP);
        assert_eq!(current_trace_id(), 0);
        let row = &obs.attribution()[0];
        assert_eq!(row.op, crate::flight::SYSTEM_OP);
        assert_eq!(row.requests, 0);
    }

    #[test]
    fn nested_scopes_restore_the_outer_scope() {
        let obs = Obs::enabled();
        obs.set_slow_threshold_us(0);
        let outer = obs.request_scope("net.request", "net.request_ns", "outer", 1, 0);
        {
            let inner = obs.request_scope("net.request", "net.request_ns", "inner", 2, 0);
            assert_eq!(current_trace_id(), 2);
            inner.finish();
        }
        assert_eq!(current_trace_id(), 1, "outer scope restored");
        outer.finish();
        assert_eq!(current_trace_id(), 0);
    }
}
