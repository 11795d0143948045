//! [`TraceDumpDoc`]: the serialized span-tree dump.
//!
//! One document shape serves every consumer: the `Request::TraceDump`
//! wire opcode returns it as JSON, `mmdb-cli trace` renders it (local
//! and `--remote` traces go through the *same* formatter), and
//! dump-on-crash writes it to `<dir>/flightrec.json` for post-mortem.
//!
//! Trace, span and parent-span ids are serialized as 16-digit hex
//! *strings*: they are full 64-bit values (a traced client's parent
//! span id is drawn from the whole range), and the workspace's JSON
//! number model (like JavaScript's) is only exact to 2^53.

use crate::flight::FlightEvent;
use crate::json::{self, Value};
use crate::registry::Obs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema tag carried by every dump document.
pub const TRACE_SCHEMA: &str = "mmdb-trace/v1";

/// Slow requests and recent spans kept by a dump-on-crash
/// (`flightrec.json`).
const FLIGHTREC_LIMIT: usize = 4096;

/// One span in a dump (the owned-string form of a [`FlightEvent`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DumpSpan {
    /// Phase name, e.g. `engine.lock_wait`.
    pub name: String,
    /// Label: the opcode, plus `detail=` when the phase carried one.
    pub label: String,
    /// Start offset in ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Trace id (0 = not request-scoped).
    pub trace_id: u64,
    /// Span id.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span: u64,
}

impl From<&FlightEvent> for DumpSpan {
    fn from(e: &FlightEvent) -> DumpSpan {
        DumpSpan {
            name: e.name.to_string(),
            label: if e.detail == 0 {
                e.op.to_string()
            } else {
                format!("{} detail={}", e.op, e.detail)
            },
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            trace_id: e.trace_id,
            span_id: e.span_id,
            parent_span: e.parent_span,
        }
    }
}

/// One slow request: its identity plus its full span tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowEntry {
    /// The request's trace id.
    pub trace_id: u64,
    /// Wire opcode (or local pseudo-opcode).
    pub op: String,
    /// Root-span start offset in ns since the epoch.
    pub start_ns: u64,
    /// End-to-end duration in ns.
    pub total_ns: u64,
    /// Root span plus every phase under it, chronologically.
    pub spans: Vec<DumpSpan>,
}

/// The span-tree dump: the slow-request log plus the flight recorder's
/// merged recent view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDumpDoc {
    /// Slow-request threshold in µs at capture time (0 = disabled).
    pub slow_threshold_us: u64,
    /// Flight events ever recorded / evicted across all thread rings.
    pub recorded: u64,
    /// See [`TraceDumpDoc::recorded`].
    pub dropped: u64,
    /// Slow requests ever logged (the `slow` list is bounded).
    pub slow_recorded: u64,
    /// The retained slow requests, oldest first.
    pub slow: Vec<SlowEntry>,
    /// The most recent flight-recorder spans, chronologically.
    pub recent: Vec<DumpSpan>,
}

impl TraceDumpDoc {
    /// Snapshot `obs` into a dump: up to `limit` slow requests and
    /// `limit` recent flight spans.
    pub fn capture(obs: &Obs, limit: usize) -> TraceDumpDoc {
        TraceDumpDoc::capture_all(&[obs], limit)
    }

    /// One dump of several handles (a router's and its shard engines'):
    /// the newest `limit` slow requests and `limit` flight spans across
    /// all of them, on the one timeline and span-id space every handle
    /// shares, with their counts summed. The slow threshold is the
    /// first handle's.
    pub fn capture_all(handles: &[&Obs], limit: usize) -> TraceDumpDoc {
        let mut doc = TraceDumpDoc {
            slow_threshold_us: handles.first().map_or(0, |o| o.slow_threshold_us()),
            ..TraceDumpDoc::default()
        };
        let mut slow = Vec::new();
        let mut recent = Vec::new();
        for obs in handles {
            let (s, slow_recorded) = obs.slow_requests(limit);
            let (r, recorded, dropped) = obs.flight_spans(limit);
            slow.extend(s);
            recent.extend(r);
            doc.slow_recorded += slow_recorded;
            doc.recorded += recorded;
            doc.dropped += dropped;
        }
        // the slow log is kept in finishing order, the flight view in
        // start order
        slow.sort_by_key(|t| t.start_ns + t.total_ns);
        recent.sort_by_key(|e| (e.start_ns, e.span_id));
        doc.slow = slow[slow.len().saturating_sub(limit)..]
            .iter()
            .map(|t| SlowEntry {
                trace_id: t.trace_id,
                op: t.op.to_string(),
                start_ns: t.start_ns,
                total_ns: t.total_ns,
                spans: t.spans.iter().map(DumpSpan::from).collect(),
            })
            .collect();
        doc.recent = recent[recent.len().saturating_sub(limit)..]
            .iter()
            .map(DumpSpan::from)
            .collect();
        doc
    }

    /// Build the JSON document model.
    pub fn to_json_value(&self) -> Value {
        Value::Obj(vec![
            ("schema".into(), Value::Str(TRACE_SCHEMA.into())),
            ("slow_threshold_us".into(), Value::u(self.slow_threshold_us)),
            ("recorded".into(), Value::u(self.recorded)),
            ("dropped".into(), Value::u(self.dropped)),
            ("slow_recorded".into(), Value::u(self.slow_recorded)),
            (
                "slow".into(),
                Value::Arr(
                    self.slow
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("trace_id".into(), Value::Str(hex_id(e.trace_id))),
                                ("op".into(), Value::Str(e.op.clone())),
                                ("start_ns".into(), Value::u(e.start_ns)),
                                ("total_ns".into(), Value::u(e.total_ns)),
                                (
                                    "spans".into(),
                                    Value::Arr(e.spans.iter().map(span_to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "recent".into(),
                Value::Arr(self.recent.iter().map(span_to_json).collect()),
            ),
        ])
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Parse a dump back from its JSON serialization, checking the
    /// schema tag.
    pub fn from_json(text: &str) -> Result<TraceDumpDoc, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Value::as_str) {
            Some(TRACE_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported trace schema {other:?}")),
            None => return Err("missing schema tag".into()),
        }
        let slow = match v.get("slow") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|e| {
                    Ok(SlowEntry {
                        trace_id: read_hex_id(e, "trace_id")?,
                        op: e
                            .get("op")
                            .and_then(Value::as_str)
                            .ok_or("slow entry: op missing")?
                            .to_string(),
                        start_ns: read_u64(e, "start_ns")?,
                        total_ns: read_u64(e, "total_ns")?,
                        spans: read_spans(e, "spans")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("slow: not an array".into()),
            None => Vec::new(),
        };
        Ok(TraceDumpDoc {
            slow_threshold_us: read_u64(&v, "slow_threshold_us")?,
            recorded: read_u64(&v, "recorded")?,
            dropped: read_u64(&v, "dropped")?,
            slow_recorded: read_u64(&v, "slow_recorded")?,
            slow,
            recent: read_spans(&v, "recent")?,
        })
    }

    /// Render the dump for humans: the slow-request log first (each
    /// request as an indented span tree), then the recent flight view.
    /// This is the one formatter both local and remote traces share.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.slow_threshold_us > 0 {
            let _ = writeln!(
                out,
                "slow requests (threshold {} us): {} logged, {} shown",
                self.slow_threshold_us,
                self.slow_recorded,
                self.slow.len()
            );
            for e in &self.slow {
                let _ = writeln!(
                    out,
                    "trace {} op={} total {} ns",
                    hex_id(e.trace_id),
                    e.op,
                    e.total_ns
                );
                out.push_str(&render_tree(&e.spans));
            }
        }
        let _ = writeln!(
            out,
            "recent spans ({} recorded, {} evicted):",
            self.recorded, self.dropped
        );
        out.push_str(&render_tree(&self.recent));
        out
    }
}

/// Render spans as an indented tree: children nest under their parent,
/// spans whose parent is absent (or 0) print at the margin, everything
/// stays in chronological order within a level.
pub fn render_tree(spans: &[DumpSpan]) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = (s.parent_span != 0)
            .then(|| {
                spans
                    .iter()
                    .position(|p| p.span_id == s.parent_span && p.span_id != s.span_id)
            })
            .flatten();
        match parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        let name = format!("{:indent$}{}", "", s.name, indent = depth * 2);
        let _ = writeln!(
            out,
            "[{:>12.6}s] {:>11} ns  {:<26} {}",
            s.start_ns as f64 / 1e9,
            s.dur_ns,
            name,
            s.label
        );
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }
    out
}

/// Capture and write the flight recorder to `<dir>/flightrec.json` —
/// the dump-on-crash path (fsck failure, audit violation). Returns the
/// path written, or `None` for a disabled handle.
pub fn write_flightrec(obs: &Obs, dir: &Path) -> std::io::Result<Option<PathBuf>> {
    if !obs.is_enabled() {
        return Ok(None);
    }
    let doc = TraceDumpDoc::capture(obs, FLIGHTREC_LIMIT);
    let path = dir.join("flightrec.json");
    std::fs::write(&path, doc.to_json())?;
    Ok(Some(path))
}

fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

fn span_to_json(s: &DumpSpan) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(s.name.clone())),
        ("label".into(), Value::Str(s.label.clone())),
        ("start_ns".into(), Value::u(s.start_ns)),
        ("dur_ns".into(), Value::u(s.dur_ns)),
        ("trace_id".into(), Value::Str(hex_id(s.trace_id))),
        ("span_id".into(), Value::Str(hex_id(s.span_id))),
        ("parent_span".into(), Value::Str(hex_id(s.parent_span))),
    ])
}

fn span_from_json(v: &Value) -> Result<DumpSpan, String> {
    Ok(DumpSpan {
        name: v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("span: name missing")?
            .to_string(),
        label: v
            .get("label")
            .and_then(Value::as_str)
            .ok_or("span: label missing")?
            .to_string(),
        start_ns: read_u64(v, "start_ns")?,
        dur_ns: read_u64(v, "dur_ns")?,
        trace_id: read_hex_id(v, "trace_id")?,
        span_id: read_hex_id(v, "span_id")?,
        parent_span: read_hex_id(v, "parent_span")?,
    })
}

fn read_spans(v: &Value, key: &str) -> Result<Vec<DumpSpan>, String> {
    match v.get(key) {
        Some(Value::Arr(items)) => items.iter().map(span_from_json).collect(),
        Some(_) => Err(format!("{key}: not an array")),
        None => Ok(Vec::new()),
    }
}

fn read_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{key}: missing or not a u64"))
}

fn read_hex_id(v: &Value, key: &str) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{key}: missing or not a hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("{key}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> TraceDumpDoc {
        let span = |name: &str, span_id, parent_span, start_ns| DumpSpan {
            name: name.to_string(),
            label: "batch".to_string(),
            start_ns,
            dur_ns: 10,
            // deliberately above 2^53: must survive JSON round-trip
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            span_id,
            parent_span,
        };
        TraceDumpDoc {
            slow_threshold_us: 1_000,
            recorded: 3,
            dropped: 0,
            slow_recorded: 1,
            slow: vec![SlowEntry {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                op: "batch".to_string(),
                start_ns: 100,
                total_ns: 30,
                spans: vec![
                    span("net.request", 1, 0, 100),
                    span("engine.lock_wait", 2, 1, 105),
                    span("log.force", 3, 1, 110),
                ],
            }],
            recent: vec![span("net.request", 1, 0, 100)],
        }
    }

    #[test]
    fn json_round_trip_preserves_64_bit_trace_ids() {
        let doc = sample_doc();
        let text = doc.to_json();
        assert!(
            text.contains("\"deadbeefcafef00d\""),
            "trace ids serialize as hex strings: {text}"
        );
        let back = TraceDumpDoc::from_json(&text).expect("parse back");
        assert_eq!(back, doc);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(TraceDumpDoc::from_json("{\"schema\":\"mmdb-trace/v9\"}").is_err());
        assert!(TraceDumpDoc::from_json("{}").is_err());
    }

    #[test]
    fn render_nests_children_under_their_parent() {
        let doc = sample_doc();
        let text = doc.render();
        let lock_line = text
            .lines()
            .find(|l| l.contains("engine.lock_wait"))
            .expect("phase line");
        assert!(
            lock_line.contains("  engine.lock_wait"),
            "child is indented: {lock_line}"
        );
        assert!(text.contains("slow requests (threshold 1000 us)"));
        assert!(text.contains("trace deadbeefcafef00d op=batch"));
    }

    #[test]
    fn render_tree_orphans_print_at_the_margin() {
        let spans = vec![DumpSpan {
            name: "x".into(),
            label: String::new(),
            start_ns: 5,
            dur_ns: 1,
            trace_id: 0,
            span_id: 9,
            parent_span: 1234, // parent not in the set
        }];
        let text = render_tree(&spans);
        assert!(text.contains(" x"), "{text}");
        assert!(!text.contains("   x "), "no stray indent: {text}");
    }

    #[test]
    fn capture_all_merges_handles_onto_one_timeline() {
        let router = Obs::enabled();
        let engine = Obs::enabled();
        router.set_slow_threshold_us(0);
        engine.phase_detail("ckpt.step", engine.timer(), 1);
        let scope = router.request_scope("net.request", "net.request_ns", "put", 0, 0);
        engine.phase_detail("log.force", engine.timer(), 2);
        scope.finish();
        engine.phase_detail("ckpt.step", engine.timer(), 3);

        let doc = TraceDumpDoc::capture_all(&[&router, &engine], 100);
        assert_eq!(doc.recorded, 4);
        assert_eq!(doc.slow_threshold_us, 0, "the first handle's threshold");
        let labels: Vec<&str> = doc.recent.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["system detail=1", "put", "put detail=2", "system detail=3"],
            "one start-ordered view across both recorders"
        );
        let mut ids: Vec<u64> = doc.recent.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids are unique across recorders");
        let newest = TraceDumpDoc::capture_all(&[&router, &engine], 1);
        assert_eq!(newest.recent.len(), 1);
        assert_eq!(newest.recent[0].label, "system detail=3");
    }

    #[test]
    fn capture_and_write_flightrec_round_trip() {
        let obs = Obs::enabled();
        let scope = obs.request_scope("net.request", "net.request_ns", "put", 0, 0);
        obs.phase_detail("txn.exec", obs.timer(), 0);
        scope.finish();
        let doc = TraceDumpDoc::capture(&obs, 100);
        assert_eq!(doc.recorded, 2);
        assert_eq!(doc.recent.len(), 2);

        let dir = std::env::temp_dir().join(format!("mmdb-flightrec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = write_flightrec(&obs, &dir)
            .expect("write")
            .expect("enabled");
        let text = std::fs::read_to_string(&path).expect("read back");
        let back = TraceDumpDoc::from_json(&text).expect("parse");
        assert_eq!(back, doc);
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(
            write_flightrec(&Obs::disabled(), &dir).expect("disabled ok"),
            None
        );
    }
}
