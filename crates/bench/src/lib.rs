//! Library half of the figure-reproduction binary (`repro`): the
//! simulator-vs-model cross-validation and the simulated-clock bench
//! trajectory checked in as `BENCH_repro.json`.

#![warn(missing_docs)]

use mmdb_model::render::Table;
use mmdb_model::{AnalyticModel, CouGranularity};
use mmdb_obs::json::Value;
use mmdb_obs::HistSummary;
use mmdb_sim::{SimConfig, SimResult, Simulator};
use mmdb_types::Algorithm;

/// One row of the simulator-vs-model cross-validation (experiment
/// `simval` in DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct ValidationRow {
    /// Algorithm validated.
    pub algorithm: Algorithm,
    /// Analytic overhead prediction, instructions/txn (at the scaled
    /// parameters the simulator ran).
    pub model_overhead: f64,
    /// Measured overhead from the discrete-event run.
    pub sim_overhead: f64,
    /// Analytic restart probability.
    pub model_p_restart: f64,
    /// Measured restart probability.
    pub sim_p_restart: f64,
    /// Measured checkpoint interval, seconds.
    pub sim_interval: f64,
    /// Analytic minimum checkpoint duration, seconds.
    pub model_interval: f64,
    /// Analytic recovery time at the scaled parameters, seconds.
    pub model_recovery: f64,
    /// Measured recovery time (the simulator crashes and actually
    /// recovers at the end of its run), seconds.
    pub sim_recovery: f64,
}

impl ValidationRow {
    /// sim/model overhead ratio (1.0 = perfect agreement).
    pub fn overhead_ratio(&self) -> f64 {
        self.sim_overhead / self.model_overhead
    }
}

/// Runs the simulator and the analytic model at the same scaled
/// parameters and returns the comparison. The simulator runs the engine,
/// so the model charges COU copies the way the engine pays them
/// ([`CouGranularity::Record`]).
pub fn cross_validate(algorithm: Algorithm, duration: f64) -> ValidationRow {
    let mut cfg = SimConfig::validation(algorithm);
    cfg.duration = duration;
    let sim: SimResult = Simulator::new(cfg).run().expect("simulation failed");
    let model =
        AnalyticModel::new(cfg.params, algorithm).evaluate_with(None, CouGranularity::Record);
    ValidationRow {
        algorithm,
        model_overhead: model.overhead_per_txn(),
        sim_overhead: sim.overhead_per_txn(),
        model_p_restart: model.p_restart,
        sim_p_restart: sim.p_restart(),
        sim_interval: sim.avg_ckpt_interval,
        model_interval: model.duration,
        model_recovery: model.recovery_seconds,
        sim_recovery: sim.measured_recovery_seconds,
    }
}

/// Renders the cross-validation table.
pub fn render_validation(rows: &[ValidationRow]) -> String {
    let mut t = Table::new(
        "Simulator vs analytic model (scaled parameters: 4 Mwords, λ=15.6/s)",
        &[
            "algorithm",
            "model instr/txn",
            "sim instr/txn",
            "ratio",
            "model p_restart",
            "sim p_restart",
            "model D (s)",
            "sim D (s)",
            "model rec (s)",
            "sim rec (s)",
        ],
    );
    for r in rows {
        t.row(&[
            r.algorithm.name().to_string(),
            format!("{:.0}", r.model_overhead),
            format!("{:.0}", r.sim_overhead),
            format!("{:.2}", r.overhead_ratio()),
            format!("{:.3}", r.model_p_restart),
            format!("{:.3}", r.sim_p_restart),
            format!("{:.1}", r.model_interval),
            format!("{:.1}", r.sim_interval),
            format!("{:.1}", r.model_recovery),
            format!("{:.1}", r.sim_recovery),
        ]);
    }
    t.render()
}

/// One per-algorithm row of the bench trajectory (`repro bench`): the
/// paper's overhead metric plus the telemetry layer's latency digests,
/// all driven by the simulated clock so the emitted JSON is
/// reproducible under the fixed seed.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Algorithm measured.
    pub algorithm: Algorithm,
    /// Transactions committed in the measured window.
    pub committed: u64,
    /// Checkpoints completed in the measured window.
    pub checkpoints: u64,
    /// Total checkpointing overhead, instructions per committed txn.
    pub overhead_per_txn: f64,
    /// Synchronous component of the overhead.
    pub sync_per_txn: f64,
    /// Asynchronous component of the overhead.
    pub async_per_txn: f64,
    /// Empirical two-color restart probability.
    pub p_restart: f64,
    /// Checkpoint-pass latency digest, simulated microseconds
    /// (request-to-completion; one sample per completed checkpoint).
    pub ckpt_pass_us: Option<HistSummary>,
    /// Modeled recovery-time digest, microseconds (the end-of-run crash
    /// and real recovery).
    pub recovery_us: Option<HistSummary>,
}

/// Runs the discrete-event simulator once per algorithm (all seven,
/// including the beyond-paper COUAC) at the validation parameters and
/// collects the bench trajectory.
pub fn bench_trajectory(quick: bool) -> Vec<BenchEntry> {
    Algorithm::ALL_EXTENDED
        .iter()
        .map(|&algorithm| {
            let mut cfg = SimConfig::validation(algorithm);
            if quick {
                cfg.duration = 120.0;
                cfg.warmup = 60.0;
            }
            let r = Simulator::new(cfg).run().expect("simulation failed");
            BenchEntry {
                algorithm,
                committed: r.committed,
                checkpoints: r.checkpoints,
                overhead_per_txn: r.overhead_per_txn(),
                sync_per_txn: r.sync_per_txn(),
                async_per_txn: r.async_per_txn(),
                p_restart: r.p_restart(),
                ckpt_pass_us: r.snapshot.hist("sim.ckpt_pass_us").copied(),
                recovery_us: r.snapshot.hist("recovery.total_modeled_us").copied(),
            }
        })
        .collect()
}

fn hist_json(h: &HistSummary) -> Value {
    Value::Obj(vec![
        ("count".into(), Value::u(h.count)),
        ("p50_us".into(), Value::u(h.p50)),
        ("p90_us".into(), Value::u(h.p90)),
        ("p99_us".into(), Value::u(h.p99)),
        ("p999_us".into(), Value::u(h.p999)),
        ("max_us".into(), Value::u(h.max)),
        ("mean_us".into(), Value::f(h.mean)),
    ])
}

/// Serializes a bench trajectory as the `BENCH_repro.json` document:
/// per-algorithm overhead-per-transaction plus p50/p99 checkpoint-pass
/// and recovery latency digests. Content is deterministic for a given
/// build (simulated clock only — no wall-clock values).
pub fn bench_json(entries: &[BenchEntry], quick: bool) -> String {
    let algorithms = Value::Obj(
        entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("committed".into(), Value::u(e.committed)),
                    ("checkpoints".into(), Value::u(e.checkpoints)),
                    (
                        "overhead_instr_per_txn".into(),
                        Value::f(e.overhead_per_txn),
                    ),
                    ("sync_instr_per_txn".into(), Value::f(e.sync_per_txn)),
                    ("async_instr_per_txn".into(), Value::f(e.async_per_txn)),
                    ("p_restart".into(), Value::f(e.p_restart)),
                ];
                if let Some(h) = &e.ckpt_pass_us {
                    fields.push(("ckpt_pass".into(), hist_json(h)));
                }
                if let Some(h) = &e.recovery_us {
                    fields.push(("recovery".into(), hist_json(h)));
                }
                (e.algorithm.metric_name().to_string(), Value::Obj(fields))
            })
            .collect(),
    );
    Value::Obj(vec![
        ("schema".into(), Value::s("mmdb-bench-repro/v1")),
        ("source".into(), Value::s("mmdb-bench repro bench")),
        ("quick".into(), Value::Bool(quick)),
        ("algorithms".into(), algorithms),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_validation_agrees_for_fastfuzzy() {
        let row = cross_validate(Algorithm::FastFuzzy, 120.0);
        assert!(
            (0.8..1.25).contains(&row.overhead_ratio()),
            "sim and model should agree within ~20%: {row:?}"
        );
    }

    #[test]
    fn cross_validation_agrees_for_cou_copy() {
        let row = cross_validate(Algorithm::CouCopy, 120.0);
        assert!(
            (0.8..1.25).contains(&row.overhead_ratio()),
            "sim and model should agree within ~20%: {row:?}"
        );
    }

    #[test]
    fn cross_validation_agrees_for_two_color() {
        let row = cross_validate(Algorithm::TwoColorCopy, 120.0);
        assert!(
            (0.8..1.25).contains(&row.overhead_ratio()),
            "sim and model should agree within ~20%: {row:?}"
        );
        // p_restart definitions differ: the model counts per arriving
        // logical transaction, the simulator per begun attempt
        // (attempts = arrivals + reruns), so sim ≈ model/(1+model).
        let expected_sim = row.model_p_restart / (1.0 + row.model_p_restart);
        assert!(
            (row.sim_p_restart - expected_sim).abs() < 0.08,
            "restart rates should be consistent: {row:?}"
        );
    }

    /// The determinism oracle (DESIGN.md lint rule L4): the trajectory
    /// runs on the simulated clock only, so regenerating it must
    /// reproduce the checked-in file byte for byte. Refresh it with
    /// `repro bench --quick --out crates/bench/BENCH_repro.json`.
    #[test]
    fn bench_trajectory_reproduces_the_checked_in_file_byte_for_byte() {
        let fresh = bench_json(&bench_trajectory(true), true);
        assert!(
            fresh == include_str!("../BENCH_repro.json"),
            "BENCH_repro.json drifted from what `repro bench --quick` emits"
        );
    }
}
