//! Turns an `Outcome` into the printed report: the host block, the metric
//! table, the short-sample guard and the final JSON line.

use crate::common::{self, median, Opts, Outcome, Res};
use crate::config::{self, MetricDef, END_TO_END, PER_LAYER, UNGATED, USER_BYTES};
use crate::trace;
use mmdb::obs::json::Value;

/// The document BENCHMARK.json holds, built from the tables in
/// `config.rs`: `--describe` prints it, and `tests/quick.rs` compares it
/// with the file, so the two cannot drift.
pub fn describe() -> String {
    let strings = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::s(s)).collect());
    let metric = |m: &MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name".to_string(), Value::s(m.name)),
            ("unit".to_string(), Value::s(m.unit)),
            ("better".to_string(), Value::s(m.better)),
        ];
        if bounded {
            pairs.push(("bound".to_string(), Value::f(m.bound)));
        }
        Value::Obj(pairs)
    };
    Value::Obj(vec![
        ("command".into(), strings(&config::COMMAND)),
        ("paths".into(), strings(&config::PATHS)),
        ("run_seconds".into(), Value::u(config::DEFAULT_SECONDS)),
        (
            "workloads".into(),
            Value::Arr(
                config::WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("name".into(), Value::s(w.name)),
                            ("why".into(), Value::s(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
    .to_pretty()
}

/// Prints the line every output starts with: host, build and run settings.
pub fn print_header(opts: &Opts) {
    let host = common::host_block()
        .into_iter()
        .map(|(k, v)| (k, Value::Str(v)))
        .collect();
    let line = Value::Obj(vec![
        ("host".into(), Value::Obj(host)),
        ("workload".into(), Value::s(&opts.workload)),
        ("seed".into(), Value::u(opts.seed)),
        ("seconds".into(), Value::u(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("quick".into(), Value::Bool(opts.quick)),
    ]);
    println!("{}", line.to_compact());
}

/// The gated end-to-end values, in `END_TO_END` order.
fn end_to_end(out: &Outcome) -> Vec<f64> {
    vec![
        median(&out.setup_s),
        out.peak_rss_bytes as f64 / USER_BYTES as f64,
        out.log.bytes as f64 / out.user_bytes as f64,
    ]
}

/// The timed quantities no bound gates, in `UNGATED` order: each is one
/// figure over the whole measured phase, or a median of repetitions.
fn ungated(out: &Outcome) -> Vec<f64> {
    vec![
        out.timed_ops as f64 / out.phase_s,
        out.latency.quantile(0.50) / 1e3,
        out.latency.quantile(0.99) / 1e3,
        median(&out.ckpt_pass_s),
        median(&out.recovery_s),
    ]
}

/// A timed quantity may rest on samples of a second or more, or on the
/// median of ten or more.
fn enough(samples: &[f64]) -> bool {
    samples.len() >= 10 || (!samples.is_empty() && samples.iter().all(|s| *s >= 1.0))
}

/// The short-sample guard: names every timed quantity of an untraced run
/// that rests on too little. A run that trips it fails.
fn short_samples(opts: &Opts, out: &Outcome) -> Vec<&'static str> {
    let mut short = Vec::new();
    if !enough(&out.setup_s) {
        short.push("setup_s");
    }
    if out.measured_s < opts.seconds as f64 * config::MIN_PHASE_FRAC {
        short.push("ops_per_s");
    }
    if out.latency.count() < 10 {
        short.push("op_p50_us");
    }
    if out.latency.samples_beyond(0.99) < config::MIN_BEYOND_P99 {
        short.push("op_p99_us");
    }
    let passes_ok = if out.ckpt_pass_is_mean {
        out.ckpt_passes >= 10
    } else {
        enough(&out.ckpt_pass_s)
    };
    if !passes_ok {
        short.push("ckpt_pass_s");
    }
    if !enough(&out.recovery_s) {
        short.push("recovery_s");
    }
    short
}

fn per(a: f64, b: u64) -> f64 {
    a / b.max(1) as f64
}

/// Per-layer values by metric name.
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The per-layer values of a traced run: the standalone layer pass,
/// overlaid with what this workload's own spans and counters measured.
fn per_layer(out: &Outcome, layer_values: &[(&'static str, f64)]) -> Res<Vec<f64>> {
    let mut values = Values(layer_values.to_vec());
    if let Some(spans) = &out.spans {
        // Where the workload itself made the call, its in-situ self time
        // replaces the standalone number.
        for (span, metric, scale) in [
            ("core.run_txn", "core.run_txn_us", 1e3),
            ("checkpoint.begin", "checkpoint.begin_us", 1e3),
            ("checkpoint.step", "checkpoint.step_us", 1e3),
            ("shard.read_committed", "shard.read_committed_ns", 1.0),
            ("server.get_rt", "server.get_rt_us", 1e3),
            ("server.batch_rt", "server.batch_rt_us", 1e3),
            ("server.batch_cross_rt", "server.batch_cross_rt_us", 1e3),
        ] {
            let a = spans[trace::name(span) as usize];
            if a.count > 0 {
                values.set(metric, a.self_ns as f64 / a.count as f64 / scale);
            }
        }
    }
    if let (Some(batch), Some(txn)) = (
        values.get("server.batch_rt_us"),
        values.get("shard.run_txn_us"),
    ) {
        values.set("server.net_overhead_us", batch - txn);
    }
    values.set(
        "log.bytes_per_txn",
        per(out.log.bytes as f64, out.log.commits),
    );
    values.set(
        "log.forces_per_txn",
        per(out.log.forces as f64, out.log.commits),
    );
    values.set(
        "shard.commits_per_force",
        per(out.log.commits as f64, out.log.forces),
    );
    values.set("checkpoint.busy_frac", out.ckpt_busy_s / out.measured_s);
    let passes = out.ckpt.completed;
    values.set(
        "checkpoint.segments_flushed_per_pass",
        per(out.ckpt.segments_flushed as f64, passes),
    );
    values.set(
        "checkpoint.old_copies_per_pass",
        per(out.ckpt.old_copies_flushed as f64, passes),
    );
    values.set(
        "checkpoint.io_words_per_pass",
        per(out.ckpt.io_words as f64, passes),
    );
    let own = ungated(out);
    if let Some(traced) = out.traced_ops_per_s {
        values.set("bench.trace_overhead_frac", traced / own[0]);
    }
    // The run's own timed quantities, from its untraced half.
    for (u, v) in UNGATED.iter().zip(own) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("bench.") == Some(u.name))
            .ok_or(format!("no per-layer metric bench.{}", u.name))?;
        values.set(m.name, v);
    }
    PER_LAYER
        .iter()
        .map(|m| {
            values
                .get(m.name)
                .ok_or(format!("per-layer metric {} was not measured", m.name))
        })
        .collect()
}

fn metrics_json(defs: &[MetricDef], values: &[f64]) -> Value {
    Value::Obj(
        defs.iter()
            .zip(values)
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::f(*v)),
                        ("unit".into(), Value::s(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(defs: &[MetricDef], values: &[f64]) {
    for (m, v) in defs.iter().zip(values) {
        println!("{:<40} {:>16.4} {}", m.name, v, m.unit);
    }
}

fn print_spans(out: &Outcome) {
    let Some(spans) = &out.spans else { return };
    println!("spans of the traced half (mean per call):");
    println!(
        "{:<24} {:>10} {:>14} {:>14}",
        "name", "count", "total_us", "self_us"
    );
    for (name, a) in trace::NAMES.iter().zip(spans.iter()) {
        if a.count > 0 {
            println!(
                "{:<24} {:>10} {:>14.3} {:>14.3}",
                name,
                a.count,
                a.total_ns as f64 / a.count as f64 / 1e3,
                a.self_ns as f64 / a.count as f64 / 1e3
            );
        }
    }
}

/// Prints the report of one workload run; returns the exit code.
pub fn print_result(opts: &Opts, out: &Outcome, layer_values: &[(&'static str, f64)]) -> Res<i32> {
    let (defs, values): (&[MetricDef], Vec<f64>) = if opts.trace {
        (PER_LAYER, per_layer(out, layer_values)?)
    } else {
        (&END_TO_END, end_to_end(out))
    };
    print_table(defs, &values);
    if !opts.trace {
        // Measured like the rest, printed like the rest, gated by nothing.
        let values = ungated(out);
        print_table(&UNGATED, &values);
        println!("ungated {}", metrics_json(&UNGATED, &values).to_compact());
    }
    print_spans(out);
    if let Some(c) = out.span_coverage {
        println!("span_coverage={c:.3} (top-level spans / wall time of a load thread in the traced half; at least 0.90 expected)");
    }
    println!(
        "samples: latency={} beyond_p99={} setups={} ckpt_passes={} recoveries={} phase_s={:.3} measured_s={:.3}",
        out.latency.count(),
        out.latency.samples_beyond(0.99),
        out.setup_s.len(),
        out.ckpt_passes,
        out.recovery_s.len(),
        out.phase_s,
        out.measured_s
    );
    let arr = |v: &[f64]| Value::Arr(v.iter().map(|x| Value::f(*x)).collect());
    let raw = Value::Obj(vec![
        ("setup_s".into(), arr(&out.setup_s)),
        ("ckpt_pass_s".into(), arr(&out.ckpt_pass_s)),
        ("recovery_s".into(), arr(&out.recovery_s)),
    ]);
    println!("raw {}", raw.to_compact());
    let mut correct = out.correct();
    for e in &out.errors {
        println!("incorrect: {e}");
    }
    if !opts.trace && !opts.quick {
        for metric in short_samples(opts, out) {
            println!("short_sample:{metric}");
            correct = false;
        }
    }
    if let Some(bad) = defs.iter().zip(&values).find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {} has no finite value", bad.0.name));
    }
    // A failed verification voids the whole run: every op counts as failed.
    let failed = if out.correct() { 0 } else { out.attempted };
    println!("ops_attempted={} ops_failed={failed}", out.attempted);
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::u(out.attempted.max(1))),
        ("failed".into(), Value::u(failed)),
        ("metrics".into(), metrics_json(defs, &values)),
    ]);
    println!("{}", line.to_compact());
    Ok(i32::from(!correct))
}

/// Prints what a bare `--layers` pass measured; returns the exit code.
pub fn print_layers_only(out: &Outcome, layer_values: &[(&'static str, f64)]) -> i32 {
    for (name, v) in layer_values {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        println!("{name:<40} {v:>16.4} {unit}");
    }
    for e in &out.errors {
        println!("incorrect: {e}");
    }
    i32::from(!out.correct())
}
