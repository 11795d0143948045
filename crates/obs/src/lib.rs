//! **mmdb-obs** — dependency-free telemetry for the mmdb workspace.
//!
//! Three pillars, all built without registry crates (the workspace vendors
//! only no-op shims):
//!
//! 1. **Spans** ([`flight`]): named wall-clock intervals recorded once,
//!    as fixed-size [`FlightEvent`]s in per-thread rings, by the engine,
//!    checkpointer, log manager and recovery, so a `trace` dump explains
//!    *where* time goes inside a request, a checkpoint pass or a
//!    restart. There is one recorder and one way to end a timed span
//!    ([`Obs::phase_hist`]); [`DumpSpan`] is the only serialized shape.
//! 2. **Metrics** ([`Obs`] / [`Registry`]): named counters, gauges and
//!    log-linear [`Histogram`]s (HdrHistogram-style fixed buckets,
//!    ≤6.25% quantile error).
//! 3. **Export** ([`MetricsSnapshot`]): one snapshot type serializable to
//!    pretty JSON and Prometheus text exposition, carrying the paper's
//!    `OverheadReport` numbers verbatim so telemetry and the reproduction
//!    tables reconcile exactly.
//!
//! The [`Obs`] handle follows the workspace's audit-handle idiom: a
//! disabled handle is a `None` and every call on it is a no-op — no lock,
//! no clock read, no allocation — so telemetry is zero-cost when
//! `MmdbConfig.telemetry` is off.

mod dump;
pub mod flight;
pub mod hist;
pub mod json;
mod registry;
mod snapshot;

pub use dump::{render_tree, write_flightrec, DumpSpan, SlowEntry, TraceDumpDoc, TRACE_SCHEMA};
pub use flight::{FlightEvent, SYSTEM_OP};
pub use hist::{HistSummary, Histogram};
pub use registry::{
    current_trace_id, AttributionEntry, Obs, Registry, RequestScope, RequestTrace, Timer,
    DEFAULT_SLOW_THRESHOLD_US,
};
pub use snapshot::{
    prom_name, to_prometheus_sharded, validate_prometheus, MetricsSnapshot, PaperOverhead,
};
