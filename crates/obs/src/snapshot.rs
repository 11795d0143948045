//! [`MetricsSnapshot`]: the unified export surface.
//!
//! A snapshot is a point-in-time dump of every counter, gauge and
//! histogram in a registry, plus the paper's own overhead accounting
//! (`OverheadReport` totals and per-transaction rates) copied verbatim so
//! the exported numbers reconcile *exactly* with `Meters` — one source of
//! truth, two serializations (pretty JSON and Prometheus text exposition).

use crate::hist::HistSummary;
use crate::json::{self, Value};
use crate::registry::AttributionEntry;
use crate::Obs;
use std::fmt::Write as _;

/// The paper's §4 overhead accounting, copied from `OverheadReport`.
///
/// Totals are raw instruction counts from the cost meters; the `*_per_txn`
/// fields are the exact values of `OverheadReport::sync_per_txn()` et al.
/// so telemetry consumers and the paper tables can never disagree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PaperOverhead {
    /// Committed transactions in the measurement window.
    pub committed: u64,
    /// Total synchronous checkpoint instructions.
    pub sync_ckpt_total: u64,
    /// Total asynchronous checkpoint instructions.
    pub async_ckpt_total: u64,
    /// Total logging instructions.
    pub logging_total: u64,
    /// Total base (non-overhead) transaction instructions.
    pub base_total: u64,
    /// `sync_ckpt_total / committed` — `OverheadReport::sync_per_txn()`.
    pub sync_ckpt_per_txn: f64,
    /// `async_ckpt_total / committed` — `OverheadReport::async_per_txn()`.
    pub async_ckpt_per_txn: f64,
    /// `logging_total / committed` — `OverheadReport::logging_per_txn()`.
    pub logging_per_txn: f64,
    /// Combined checkpoint overhead per committed transaction —
    /// `OverheadReport::ckpt_overhead_per_txn()`.
    pub ckpt_overhead_per_txn: f64,
}

impl PaperOverhead {
    /// Folds in `other`, the same accounting from another shard: totals
    /// add, and the per-transaction figures are recomputed over the
    /// combined commits.
    pub fn merge(&mut self, other: &PaperOverhead) {
        self.committed += other.committed;
        self.sync_ckpt_total += other.sync_ckpt_total;
        self.async_ckpt_total += other.async_ckpt_total;
        self.logging_total += other.logging_total;
        self.base_total += other.base_total;
        let per_txn = |total: u64| match self.committed {
            0 => 0.0,
            n => total as f64 / n as f64,
        };
        self.sync_ckpt_per_txn = per_txn(self.sync_ckpt_total);
        self.async_ckpt_per_txn = per_txn(self.async_ckpt_total);
        self.logging_per_txn = per_txn(self.logging_total);
        self.ckpt_overhead_per_txn = self.sync_ckpt_per_txn + self.async_ckpt_per_txn;
    }
}

/// A point-in-time dump of the whole telemetry surface.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram digests, sorted by name.
    pub hists: Vec<(String, HistSummary)>,
    /// Latency attribution per opcode (empty when no request scope ever
    /// finished — the JSON key is omitted then, keeping pre-attribution
    /// documents byte-compatible).
    pub attribution: Vec<AttributionEntry>,
    /// Paper cost-model reconciliation, when an engine supplied one.
    pub paper: Option<PaperOverhead>,
}

impl MetricsSnapshot {
    /// Capture the registry contents of `obs` (no paper section).
    pub fn capture(obs: &Obs) -> MetricsSnapshot {
        let (counters, gauges, hists) = obs.dump();
        MetricsSnapshot {
            counters,
            gauges,
            hists,
            attribution: obs.attribution(),
            paper: None,
        }
    }

    /// Add or overwrite a counter, keeping name order.
    pub fn put_counter(&mut self, name: &str, value: u64) {
        upsert(&mut self.counters, name, value);
    }

    /// Add or overwrite a gauge, keeping name order.
    pub fn put_gauge(&mut self, name: &str, value: u64) {
        upsert(&mut self.gauges, name, value);
    }

    /// Add or overwrite a histogram digest, keeping name order.
    pub fn put_hist(&mut self, name: &str, value: HistSummary) {
        upsert(&mut self.hists, name, value);
    }

    /// Folds another handle's attribution rows (a shard engine's) into
    /// this snapshot's: requests, totals and per-phase counts add by
    /// opcode and phase, keeping both in name order.
    pub fn merge_attribution(&mut self, rows: &[AttributionEntry]) {
        for row in rows {
            let i = match self.attribution.binary_search_by(|e| e.op.cmp(&row.op)) {
                Ok(i) => i,
                Err(i) => {
                    self.attribution.insert(
                        i,
                        AttributionEntry {
                            op: row.op.clone(),
                            ..AttributionEntry::default()
                        },
                    );
                    i
                }
            };
            let into = &mut self.attribution[i];
            into.requests += row.requests;
            into.total_ns += row.total_ns;
            for (phase, count, total_ns) in &row.phases {
                match into.phases.binary_search_by(|(p, ..)| p.cmp(phase)) {
                    Ok(j) => {
                        into.phases[j].1 += count;
                        into.phases[j].2 += total_ns;
                    }
                    Err(j) => into.phases.insert(j, (phase.clone(), *count, *total_ns)),
                }
            }
        }
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        lookup(&self.gauges, name).copied()
    }

    /// Look up a histogram digest by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        lookup(&self.hists, name)
    }

    /// Build the JSON document model.
    pub fn to_json_value(&self) -> Value {
        let mut root = Vec::new();
        root.push((
            "counters".to_string(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::u(*v)))
                    .collect(),
            ),
        ));
        root.push((
            "gauges".to_string(),
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::u(*v)))
                    .collect(),
            ),
        ));
        root.push((
            "histograms".to_string(),
            Value::Obj(
                self.hists
                    .iter()
                    .map(|(k, h)| (k.clone(), hist_to_json(h)))
                    .collect(),
            ),
        ));
        if !self.attribution.is_empty() {
            root.push((
                "attribution".to_string(),
                attribution_to_json(&self.attribution),
            ));
        }
        if let Some(p) = &self.paper {
            root.push(("paper".to_string(), paper_to_json(p)));
        }
        Value::Obj(root)
    }

    /// Serialize to pretty (2-space indented) JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Parse a snapshot back from its JSON serialization.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let counters = read_u64_map(&v, "counters")?;
        let gauges = read_u64_map(&v, "gauges")?;
        let hists = match v.get("histograms") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(k, hv)| Ok((k.clone(), hist_from_json(hv)?)))
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("histograms: not an object".into()),
            None => Vec::new(),
        };
        let attribution = match v.get("attribution") {
            Some(av) => attribution_from_json(av)?,
            None => Vec::new(),
        };
        let paper = match v.get("paper") {
            Some(pv) => Some(paper_from_json(pv)?),
            None => None,
        };
        Ok(MetricsSnapshot {
            counters,
            gauges,
            hists,
            attribution,
            paper,
        })
    }

    /// Serialize to the Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters and gauges export directly; histograms export as
    /// `summary`-typed families with `quantile` labels plus `_sum`,
    /// `_count`, `_min` and `_max` samples. Metric names are prefixed
    /// `mmdb_` and dots become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in &self.hists {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (q, val) in [
                ("0.5", h.p50),
                ("0.9", h.p90),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {val}");
            }
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
            let _ = writeln!(out, "{n}_min {}", h.min);
            let _ = writeln!(out, "{n}_max {}", h.max);
        }
        if let Some(p) = &self.paper {
            for (name, v) in [
                ("paper.committed", p.committed as f64),
                ("paper.sync_ckpt_total", p.sync_ckpt_total as f64),
                ("paper.async_ckpt_total", p.async_ckpt_total as f64),
                ("paper.logging_total", p.logging_total as f64),
                ("paper.base_total", p.base_total as f64),
                ("paper.sync_ckpt_per_txn", p.sync_ckpt_per_txn),
                ("paper.async_ckpt_per_txn", p.async_ckpt_per_txn),
                ("paper.logging_per_txn", p.logging_per_txn),
                ("paper.ckpt_overhead_per_txn", p.ckpt_overhead_per_txn),
            ] {
                let n = prom_name(name);
                let _ = writeln!(out, "# TYPE {n} gauge");
                let _ = writeln!(out, "{n} {v}");
            }
        }
        out
    }
}

/// Merge per-shard snapshots into one Prometheus document with `shard`
/// labels.
///
/// Each shard of a sharded engine owns its own registry, so the same
/// metric family exists once per shard. Emitting each shard's
/// [`MetricsSnapshot::to_prometheus`] back to back would repeat every
/// `# TYPE` line — a malformed exposition (Prometheus requires one TYPE
/// per family). This function emits each family's `# TYPE` line exactly
/// once, followed by one `{shard="i"}`-labeled sample per shard that has
/// it; histogram families get `shard` plus `quantile` labels.
pub fn to_prometheus_sharded(shards: &[MetricsSnapshot]) -> String {
    use std::collections::BTreeSet;
    let mut out = String::new();

    let counter_names: BTreeSet<&str> = shards
        .iter()
        .flat_map(|s| s.counters.iter().map(|(k, _)| k.as_str()))
        .collect();
    for name in counter_names {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        for (i, s) in shards.iter().enumerate() {
            if let Some(v) = s.counter(name) {
                let _ = writeln!(out, "{n}{{shard=\"{i}\"}} {v}");
            }
        }
    }

    let gauge_names: BTreeSet<&str> = shards
        .iter()
        .flat_map(|s| s.gauges.iter().map(|(k, _)| k.as_str()))
        .collect();
    for name in gauge_names {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        for (i, s) in shards.iter().enumerate() {
            if let Some(v) = s.gauge(name) {
                let _ = writeln!(out, "{n}{{shard=\"{i}\"}} {v}");
            }
        }
    }

    let hist_names: BTreeSet<&str> = shards
        .iter()
        .flat_map(|s| s.hists.iter().map(|(k, _)| k.as_str()))
        .collect();
    for name in hist_names {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (i, s) in shards.iter().enumerate() {
            if let Some(h) = s.hist(name) {
                for (q, val) in [
                    ("0.5", h.p50),
                    ("0.9", h.p90),
                    ("0.99", h.p99),
                    ("0.999", h.p999),
                ] {
                    let _ = writeln!(out, "{n}{{shard=\"{i}\",quantile=\"{q}\"}} {val}");
                }
                let _ = writeln!(out, "{n}_sum{{shard=\"{i}\"}} {}", h.sum);
                let _ = writeln!(out, "{n}_count{{shard=\"{i}\"}} {}", h.count);
                let _ = writeln!(out, "{n}_min{{shard=\"{i}\"}} {}", h.min);
                let _ = writeln!(out, "{n}_max{{shard=\"{i}\"}} {}", h.max);
            }
        }
    }
    out
}

fn lookup<'a, T>(v: &'a [(String, T)], name: &str) -> Option<&'a T> {
    v.binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &v[i].1)
}

fn upsert<T>(v: &mut Vec<(String, T)>, name: &str, value: T) {
    match v.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
        Ok(i) => v[i].1 = value,
        Err(i) => v.insert(i, (name.to_string(), value)),
    }
}

fn hist_to_json(h: &HistSummary) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::u(h.count)),
        ("sum".into(), Value::u(h.sum)),
        ("min".into(), Value::u(h.min)),
        ("max".into(), Value::u(h.max)),
        ("mean".into(), Value::f(h.mean)),
        ("p50".into(), Value::u(h.p50)),
        ("p90".into(), Value::u(h.p90)),
        ("p99".into(), Value::u(h.p99)),
        ("p999".into(), Value::u(h.p999)),
    ])
}

fn hist_from_json(v: &Value) -> Result<HistSummary, String> {
    Ok(HistSummary {
        count: read_u64(v, "count")?,
        sum: read_u64(v, "sum")?,
        min: read_u64(v, "min")?,
        max: read_u64(v, "max")?,
        mean: read_f64(v, "mean")?,
        p50: read_u64(v, "p50")?,
        p90: read_u64(v, "p90")?,
        p99: read_u64(v, "p99")?,
        p999: read_u64(v, "p999")?,
    })
}

/// Serialize the attribution report: per opcode, `requests` and
/// `total_ns` (which reconcile exactly with the request histogram),
/// then per phase `count`, `total_ns` and — when the opcode saw any
/// request time — `share`, the phase's fraction of it. `share` is
/// derived, so [`attribution_from_json`] ignores it on the way back.
fn attribution_to_json(entries: &[AttributionEntry]) -> Value {
    Value::Obj(
        entries
            .iter()
            .map(|e| {
                let phases = e
                    .phases
                    .iter()
                    .map(|(name, count, total_ns)| {
                        let mut fields = vec![
                            ("count".to_string(), Value::u(*count)),
                            ("total_ns".to_string(), Value::u(*total_ns)),
                        ];
                        if e.total_ns > 0 {
                            fields.push((
                                "share".to_string(),
                                Value::f(*total_ns as f64 / e.total_ns as f64),
                            ));
                        }
                        (name.clone(), Value::Obj(fields))
                    })
                    .collect();
                (
                    e.op.clone(),
                    Value::Obj(vec![
                        ("requests".to_string(), Value::u(e.requests)),
                        ("total_ns".to_string(), Value::u(e.total_ns)),
                        ("phases".to_string(), Value::Obj(phases)),
                    ]),
                )
            })
            .collect(),
    )
}

fn attribution_from_json(v: &Value) -> Result<Vec<AttributionEntry>, String> {
    let Value::Obj(ops) = v else {
        return Err("attribution: not an object".into());
    };
    ops.iter()
        .map(|(op, row)| {
            let phases = match row.get("phases") {
                Some(Value::Obj(pairs)) => pairs
                    .iter()
                    .map(|(name, pv)| {
                        Ok((
                            name.clone(),
                            read_u64(pv, "count")?,
                            read_u64(pv, "total_ns")?,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                Some(_) => return Err(format!("attribution.{op}.phases: not an object")),
                None => Vec::new(),
            };
            Ok(AttributionEntry {
                op: op.clone(),
                requests: read_u64(row, "requests")?,
                total_ns: read_u64(row, "total_ns")?,
                phases,
            })
        })
        .collect()
}

fn paper_to_json(p: &PaperOverhead) -> Value {
    Value::Obj(vec![
        ("committed".into(), Value::u(p.committed)),
        ("sync_ckpt_total".into(), Value::u(p.sync_ckpt_total)),
        ("async_ckpt_total".into(), Value::u(p.async_ckpt_total)),
        ("logging_total".into(), Value::u(p.logging_total)),
        ("base_total".into(), Value::u(p.base_total)),
        ("sync_ckpt_per_txn".into(), Value::f(p.sync_ckpt_per_txn)),
        ("async_ckpt_per_txn".into(), Value::f(p.async_ckpt_per_txn)),
        ("logging_per_txn".into(), Value::f(p.logging_per_txn)),
        (
            "ckpt_overhead_per_txn".into(),
            Value::f(p.ckpt_overhead_per_txn),
        ),
    ])
}

fn paper_from_json(v: &Value) -> Result<PaperOverhead, String> {
    Ok(PaperOverhead {
        committed: read_u64(v, "committed")?,
        sync_ckpt_total: read_u64(v, "sync_ckpt_total")?,
        async_ckpt_total: read_u64(v, "async_ckpt_total")?,
        logging_total: read_u64(v, "logging_total")?,
        base_total: read_u64(v, "base_total")?,
        sync_ckpt_per_txn: read_f64(v, "sync_ckpt_per_txn")?,
        async_ckpt_per_txn: read_f64(v, "async_ckpt_per_txn")?,
        logging_per_txn: read_f64(v, "logging_per_txn")?,
        ckpt_overhead_per_txn: read_f64(v, "ckpt_overhead_per_txn")?,
    })
}

fn read_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{key}: missing or not a u64"))
}

fn read_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{key}: missing or not a number"))
}

fn read_u64_map(v: &Value, key: &str) -> Result<Vec<(String, u64)>, String> {
    match v.get(key) {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(k, kv)| {
                kv.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("{key}.{k}: not a u64"))
            })
            .collect(),
        Some(_) => Err(format!("{key}: not an object")),
        None => Ok(Vec::new()),
    }
}

/// Map an internal dotted metric name to a Prometheus-legal one.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("mmdb_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Validate a Prometheus text-exposition document line by line.
///
/// The workspace vendors no regex engine, so this is a hand-rolled
/// recognizer for the sample-line grammar
/// `name ['{' label '=' '"' value '"' [',' ...] '}'] ' ' number` plus
/// `# TYPE` / `# HELP` comment lines. Each metric family may carry at
/// most one `TYPE` line (naively concatenating per-shard expositions
/// violates this — use [`to_prometheus_sharded`] instead). Returns the
/// offending line on error.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut typed_families: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err(format!("line {}: unknown comment form: {line}", lineno + 1));
            }
            if let Some(type_rest) = rest.strip_prefix("TYPE ") {
                let mut parts = type_rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !is_metric_name(name)
                    || !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    )
                    || parts.next().is_some()
                {
                    return Err(format!("line {}: malformed TYPE line: {line}", lineno + 1));
                }
                if !typed_families.insert(name) {
                    return Err(format!(
                        "line {}: duplicate TYPE line for family {name}: {line}",
                        lineno + 1
                    ));
                }
            }
            continue;
        }
        validate_sample_line(line).map_err(|e| format!("line {}: {e}: {line}", lineno + 1))?;
    }
    Ok(())
}

fn validate_sample_line(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    // Metric name.
    let name_start = i;
    while i < bytes.len() && is_name_char(bytes[i], i == name_start) {
        i += 1;
    }
    if i == name_start {
        return Err("missing metric name".into());
    }
    // Optional label set.
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            let lstart = i;
            while i < bytes.len() && is_name_char(bytes[i], i == lstart) {
                i += 1;
            }
            if i == lstart {
                return Err("missing label name".into());
            }
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err("expected '=' after label name".into());
            }
            i += 1;
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("expected opening quote for label value".into());
            }
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' {
                    i += 1;
                }
                i += 1;
            }
            if i >= bytes.len() {
                return Err("unterminated label value".into());
            }
            i += 1; // closing quote
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' in label set".into()),
            }
        }
    }
    // Mandatory space, then a number.
    if i >= bytes.len() || bytes[i] != b' ' {
        return Err("expected space before sample value".into());
    }
    let value = line[i + 1..].trim();
    if value.is_empty() {
        return Err("missing sample value".into());
    }
    // Accept the Prometheus float grammar (incl. +Inf/-Inf/NaN).
    let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !ok {
        return Err(format!("unparseable sample value '{value}'"));
    }
    Ok(())
}

fn is_metric_name(s: &str) -> bool {
    !s.is_empty() && s.bytes().enumerate().all(|(i, b)| is_name_char(b, i == 0))
}

fn is_name_char(b: u8, first: bool) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || (!first && b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_snapshot() -> MetricsSnapshot {
        let obs = Obs::enabled();
        obs.counter("txn.committed", 42);
        obs.counter("log.forces", 7);
        obs.gauge("seg.total", 32);
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 5000] {
            h.record(v);
        }
        for v in [10u64, 20, 30, 40, 5000] {
            obs.observe("log.force_ns", v);
        }
        let mut snap = MetricsSnapshot::capture(&obs);
        snap.paper = Some(PaperOverhead {
            committed: 42,
            sync_ckpt_total: 1000,
            async_ckpt_total: 2000,
            logging_total: 500,
            base_total: 42_000,
            sync_ckpt_per_txn: 1000.0 / 42.0,
            async_ckpt_per_txn: 2000.0 / 42.0,
            logging_per_txn: 500.0 / 42.0,
            ckpt_overhead_per_txn: 3000.0 / 42.0,
        });
        snap
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample_snapshot();
        let text = snap.to_json_pretty();
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back, snap);
        // And the document itself round-trips at the Value level.
        let v1 = json::parse(&text).expect("parse");
        let v2 = json::parse(&v1.to_pretty()).expect("reparse");
        assert_eq!(v1, v2);
    }

    #[test]
    fn prometheus_output_validates_and_names_are_legal() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        validate_prometheus(&text).expect("valid exposition format");
        assert!(text.contains("# TYPE mmdb_txn_committed counter"));
        assert!(text.contains("mmdb_txn_committed 42"));
        assert!(text.contains("mmdb_log_force_ns{quantile=\"0.99\"}"));
        assert!(text.contains("mmdb_log_force_ns_count 5"));
        assert!(text.contains("# TYPE mmdb_paper_sync_ckpt_per_txn gauge"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "no_value_here",
            "1leading_digit 3",
            "name{unterminated=\"x 3",
            "name{a=\"b\"",
            "name 1.2.3",
            "# FROB nonsense",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {bad}");
        }
        validate_prometheus("ok_name{l=\"v\",m=\"w\"} 1e-9\n# HELP x y\nplain 3")
            .expect("good doc");
    }

    #[test]
    fn validator_rejects_duplicate_type_families() {
        // Naive concatenation of two shards' expositions: same family,
        // two TYPE lines. Must be rejected.
        let doc = "# TYPE mmdb_x counter\nmmdb_x 1\n# TYPE mmdb_x counter\nmmdb_x 2\n";
        let err = validate_prometheus(doc).unwrap_err();
        assert!(err.contains("duplicate TYPE"), "{err}");
        // One TYPE line with many samples (labeled) is fine.
        let ok = "# TYPE mmdb_x counter\nmmdb_x{shard=\"0\"} 1\nmmdb_x{shard=\"1\"} 2\n";
        validate_prometheus(ok).expect("labeled samples under one TYPE");
    }

    #[test]
    fn sharded_exposition_validates_with_one_type_per_family() {
        let mut shards = Vec::new();
        for i in 0..4u64 {
            let obs = Obs::enabled();
            obs.counter("txn.committed", 10 + i);
            obs.gauge("seg.total", 8);
            obs.observe("net.request_ns", 100 * (i + 1));
            shards.push(MetricsSnapshot::capture(&obs));
        }
        let text = to_prometheus_sharded(&shards);
        validate_prometheus(&text).expect("valid sharded exposition");
        // family typed once...
        assert_eq!(text.matches("# TYPE mmdb_txn_committed counter").count(), 1);
        // ...with one labeled sample per shard
        for i in 0..4 {
            assert!(
                text.contains(&format!("mmdb_txn_committed{{shard=\"{i}\"}} {}", 10 + i)),
                "{text}"
            );
        }
        assert!(text.contains("mmdb_net_request_ns{shard=\"2\",quantile=\"0.5\"}"));
        // concatenating the per-shard docs instead must NOT validate
        let naive: String = shards.iter().map(|s| s.to_prometheus()).collect();
        assert!(validate_prometheus(&naive).is_err());
    }

    #[test]
    fn attribution_section_round_trips_and_is_omitted_when_empty() {
        let empty = MetricsSnapshot::capture(&Obs::enabled());
        assert!(
            !empty.to_json_pretty().contains("attribution"),
            "no request scopes -> no attribution key"
        );

        let obs = Obs::enabled();
        obs.set_slow_threshold_us(0);
        let scope = obs.request_scope("net.request", "net.request_ns", "batch", 0, 0);
        obs.phase_detail("txn.exec", obs.timer(), 0);
        scope.finish();
        let snap = MetricsSnapshot::capture(&obs);
        let text = snap.to_json_pretty();
        assert!(text.contains("\"attribution\""));
        assert!(text.contains("\"txn.exec\""));
        assert!(text.contains("\"share\""));
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back, snap, "share is derived, everything else round-trips");
        // attribution total reconciles with the request histogram
        let row = &snap.attribution[0];
        assert_eq!(row.total_ns, snap.hist("net.request_ns").unwrap().sum);
    }

    #[test]
    fn merge_attribution_adds_by_opcode_and_phase() {
        let row = |op: &str, requests, phases: &[(&str, u64, u64)]| AttributionEntry {
            op: op.into(),
            requests,
            total_ns: requests * 10,
            phases: phases
                .iter()
                .map(|(p, c, t)| (p.to_string(), *c, *t))
                .collect(),
        };
        let mut s = MetricsSnapshot {
            attribution: vec![row("put", 2, &[("log.force", 2, 8)])],
            ..MetricsSnapshot::default()
        };
        s.merge_attribution(&[
            row("get", 1, &[]),
            row("put", 1, &[("engine.lock_wait", 1, 3), ("log.force", 1, 4)]),
            row("system", 0, &[("ckpt.step", 5, 50)]),
        ]);
        assert_eq!(
            s.attribution,
            vec![
                row("get", 1, &[]),
                row(
                    "put",
                    3,
                    &[("engine.lock_wait", 1, 3), ("log.force", 3, 12)]
                ),
                row("system", 0, &[("ckpt.step", 5, 50)]),
            ]
        );
    }

    #[test]
    fn put_counter_upserts_sorted() {
        let mut s = MetricsSnapshot::default();
        s.put_counter("b", 2);
        s.put_counter("a", 1);
        s.put_counter("b", 5);
        assert_eq!(s.counters, vec![("a".to_string(), 1), ("b".to_string(), 5)]);
    }
}
