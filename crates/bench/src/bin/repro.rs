//! `repro` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run -p mmdb-bench --bin repro --release -- all
//! cargo run -p mmdb-bench --bin repro --release -- fig4a
//! ```
//!
//! Subcommands: `table2`, `fig4a`, `fig4b`, `fig4c`, `fig4d`, `fig4e`,
//! `simval`, `ablate`, `costs`, `simsweep`, `bench`, `all`. Output is
//! plain text: the same rows/series the paper reports, from the
//! re-derived analytic model, plus the simulator cross-validation. Pass
//! `--csv <dir>` to also write each figure's data as CSV for external
//! plotting. `bench` runs the telemetry-instrumented simulator over
//! every algorithm and writes `BENCH_repro.json` (overhead per txn,
//! p50/p99 checkpoint-pass and recovery latencies; `--out <path>` to
//! redirect — `bench --quick --out crates/bench/BENCH_repro.json`
//! refreshes the checked-in copy a test compares against).

use mmdb_bench::{bench_json, bench_trajectory, cross_validate, render_validation};
use mmdb_model::figures::{
    fig4a, fig4b, fig4c, fig4d, fig4e, render_algorithm_points, render_fig4b, render_sweep,
    render_tables2,
};
use mmdb_model::render::Table;
use mmdb_types::{Algorithm, Params};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
    }
    let csv = csv_dir.as_deref();
    let out: std::path::PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_repro.json"));

    match what {
        "table2" => table2(),
        "fig4a" => run_fig4a(csv),
        "fig4b" => run_fig4b(csv),
        "fig4c" => run_fig4c(csv),
        "fig4d" => run_fig4d(csv),
        "fig4e" => run_fig4e(csv),
        "simval" => run_simval(quick, csv),
        "ablate" => run_ablate(quick),
        "costs" => run_costs(),
        "simsweep" => run_simsweep(quick, csv),
        "bench" => run_bench(quick, &out),
        "all" => {
            table2();
            run_fig4a(csv);
            run_fig4b(csv);
            run_fig4c(csv);
            run_fig4d(csv);
            run_fig4e(csv);
            run_simval(quick, csv);
            run_ablate(quick);
            run_costs();
            run_simsweep(quick, csv);
            run_bench(quick, &out);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected one of: \
                 table2 fig4a fig4b fig4c fig4d fig4e simval ablate costs simsweep bench all"
            );
            std::process::exit(2);
        }
    }
}

/// The telemetry bench trajectory: one instrumented simulator run per
/// algorithm, exported as `BENCH_repro.json` — overhead per transaction
/// and p50/p99 checkpoint-pass / recovery latency digests, all on the
/// simulated clock (deterministic under the fixed seed).
fn run_bench(quick: bool, out: &std::path::Path) {
    eprintln!(
        "running telemetry bench trajectory ({} algorithms, {} mode)...",
        mmdb_types::Algorithm::ALL_EXTENDED.len(),
        if quick { "quick" } else { "full" }
    );
    let entries = bench_trajectory(quick);
    let mut t = Table::new(
        "Bench trajectory — overhead and latency digests (simulated clock, scaled parameters)",
        &[
            "algorithm",
            "overhead (instr/txn)",
            "ckpts",
            "pass p50 (ms)",
            "pass p99 (ms)",
            "recovery p50 (s)",
        ],
    );
    for e in &entries {
        let (p50, p99) = e
            .ckpt_pass_us
            .map(|h| (h.p50 as f64 / 1e3, h.p99 as f64 / 1e3))
            .unwrap_or((0.0, 0.0));
        let rec = e.recovery_us.map(|h| h.p50 as f64 / 1e6).unwrap_or(0.0);
        t.row(&[
            e.algorithm.name().to_string(),
            format!("{:.0}", e.overhead_per_txn),
            format!("{}", e.checkpoints),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{rec:.2}"),
        ]);
    }
    println!("{}", t.render());
    std::fs::write(out, bench_json(&entries, quick)).expect("write bench json");
    eprintln!("wrote {}", out.display());
}

fn table2() {
    println!("{}", render_tables2(&Params::paper_defaults()));
}

fn write_csv(csv: Option<&std::path::Path>, name: &str, header: &str, rows: &[String]) {
    let Some(dir) = csv else { return };
    let mut out = String::from(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    let path = dir.join(name);
    std::fs::write(&path, out).expect("write csv");
    eprintln!("wrote {}", path.display());
}

fn algorithm_points_csv(
    csv: Option<&std::path::Path>,
    name: &str,
    rows: &[mmdb_model::figures::AlgorithmPoint],
) {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{:.1},{:.1},{:.1},{:.4},{:.2}",
                r.algorithm.name(),
                r.point.overhead_per_txn(),
                r.point.sync_per_txn,
                r.point.async_per_txn,
                r.point.p_restart,
                r.point.recovery_seconds
            )
        })
        .collect();
    write_csv(
        csv,
        name,
        "algorithm,overhead_instr_per_txn,sync,async,p_restart,recovery_s",
        &lines,
    );
}

fn run_fig4a(csv: Option<&std::path::Path>) {
    let rows = fig4a(Params::paper_defaults());
    algorithm_points_csv(csv, "fig4a.csv", &rows);
    println!(
        "{}",
        render_algorithm_points(
            "Figure 4a — processor overhead and recovery time \
             (paper defaults, checkpoints as fast as possible)",
            &rows
        )
    );
    println!(
        "Expected shape: two-color algorithms cost several times the others \
         (rerun-dominated); COU ≈ FUZZYCOPY; recovery times nearly equal.\n"
    );
}

fn run_fig4b(csv: Option<&std::path::Path>) {
    let series = fig4b(Params::paper_defaults(), 10, 12.0);
    let lines: Vec<String> = series
        .iter()
        .flat_map(|ser| {
            ser.points.iter().map(move |(d, rec, o)| {
                format!(
                    "{},{},{d:.1},{rec:.2},{o:.1}",
                    ser.algorithm.name(),
                    ser.n_bdisks
                )
            })
        })
        .collect();
    write_csv(
        csv,
        "fig4b.csv",
        "algorithm,n_bdisks,duration_s,recovery_s,overhead_instr_per_txn",
        &lines,
    );
    println!("{}", render_fig4b(&series));
    println!(
        "Expected shape: overhead falls and recovery rises along each curve; \
         doubling the disks extends curves left; 2CCOPY benefits more than COUCOPY.\n"
    );
}

fn sweep_csv(
    csv: Option<&std::path::Path>,
    name: &str,
    x: &str,
    series: &[mmdb_model::figures::SweepSeries],
) {
    let lines: Vec<String> = series
        .iter()
        .flat_map(|ser| {
            let label = if ser.label.is_empty() {
                ser.algorithm.name().to_string()
            } else {
                format!("{} ({})", ser.algorithm.name(), ser.label)
            };
            ser.points
                .iter()
                .map(move |(xv, o)| format!("{label},{xv},{o:.1}"))
        })
        .collect();
    write_csv(
        csv,
        name,
        &format!("series,{x},overhead_instr_per_txn"),
        &lines,
    );
}

fn run_fig4c(csv: Option<&std::path::Path>) {
    let lambdas = [10.0, 30.0, 100.0, 300.0, 1000.0, 2000.0, 4000.0];
    let series = fig4c(Params::paper_defaults(), &lambdas);
    sweep_csv(csv, "fig4c.csv", "lambda", &series);
    println!(
        "{}",
        render_sweep(
            "Figure 4c — overhead vs transaction load (λ, txns/s)",
            "lambda",
            &series,
            true,
        )
    );
    println!(
        "Expected shape: per-transaction cost falls with load; 2CFLUSH is \
         cheapest at low load but among the costliest at high load.\n"
    );
}

fn run_fig4d(csv: Option<&std::path::Path>) {
    let sizes = [1024u64, 2048, 4096, 8192, 16384, 32768, 65536];
    let series = fig4d(Params::paper_defaults(), &sizes);
    sweep_csv(csv, "fig4d.csv", "s_seg_words", &series);
    println!(
        "{}",
        render_sweep(
            "Figure 4d — overhead vs segment size (words); \
             'min duration' = solid curves, '300 s interval' = dotted",
            "S_seg",
            &series,
            true,
        )
    );
    println!(
        "Expected shape: at the fixed interval the 2C curves fall with segment \
         size and COUCOPY stays flat; as-fast-as-possible, the copy algorithms \
         rise while 2CFLUSH falls.\n"
    );
}

fn run_fig4e(csv: Option<&std::path::Path>) {
    let rows = fig4e(Params::paper_defaults());
    algorithm_points_csv(csv, "fig4e.csv", &rows);
    println!(
        "{}",
        render_algorithm_points(
            "Figure 4e — processor overhead with a stable log tail \
             (adds FASTFUZZY; checkpoints as fast as possible)",
            &rows
        )
    );
    println!(
        "Expected shape: FASTFUZZY costs only a few hundred instructions per \
         transaction; the others are nearly unchanged from Figure 4a.\n"
    );
}

fn run_simval(quick: bool, csv: Option<&std::path::Path>) {
    let duration = if quick { 120.0 } else { 400.0 };
    eprintln!(
        "running discrete-event cross-validation ({duration} simulated seconds per algorithm)..."
    );
    let rows: Vec<_> = Algorithm::ALL_EXTENDED
        .iter()
        .map(|&a| cross_validate(a, duration))
        .collect();
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{:.1},{:.1},{:.3},{:.4},{:.4},{:.2},{:.2},{:.2},{:.2}",
                r.algorithm.name(),
                r.model_overhead,
                r.sim_overhead,
                r.overhead_ratio(),
                r.model_p_restart,
                r.sim_p_restart,
                r.model_interval,
                r.sim_interval,
                r.model_recovery,
                r.sim_recovery
            )
        })
        .collect();
    write_csv(
        csv,
        "simval.csv",
        "algorithm,model_overhead,sim_overhead,ratio,model_p_restart,sim_p_restart,model_interval_s,sim_interval_s,model_recovery_s,sim_recovery_s",
        &lines,
    );
    println!("{}", render_validation(&rows));
    println!(
        "The simulator runs the real engine (real paint bits, COU copies, \
         aborts, REDO log) under Poisson load at scaled parameters; the model \
         column is the analytic prediction at the same parameters, with COU \
         copies charged per record as the engine pays them (Figure 4a keeps \
         the paper's per-segment copies).\n"
    );
}

/// Beyond-paper ablation: how access skew changes partial-checkpoint
/// behavior. The paper assumes uniform updates (§2.5); skew concentrates
/// dirt in fewer segments, shrinking the flush set and the checkpoint
/// duration — which partial checkpointing converts into lower overhead.
fn run_ablate(quick: bool) {
    use mmdb_sim::{SimConfig, Simulator, WorkloadKind};
    let duration = if quick { 120.0 } else { 300.0 };
    eprintln!("running skew ablation ({duration} simulated seconds per cell)...");
    let workloads = [
        ("uniform", WorkloadKind::Uniform),
        ("zipf(0.8)", WorkloadKind::Zipf(0.8)),
        ("hotset 90/10", WorkloadKind::HotSet(0.10, 0.90)),
    ];
    let mut t = Table::new(
        "Ablation — access skew vs partial checkpointing (FASTFUZZY & COUCOPY, scaled params)",
        &[
            "workload",
            "algorithm",
            "ckpt pacing",
            "avg segments flushed",
            "avg ckpt interval (s)",
            "overhead (instr/txn)",
        ],
    );
    for (label, kind) in workloads {
        for algorithm in [Algorithm::FastFuzzy, Algorithm::CouCopy] {
            for (pacing, interval) in [("back-to-back", None), ("fixed 14 s", Some(14.0))] {
                let mut cfg = SimConfig::validation(algorithm);
                cfg.workload = kind;
                cfg.duration = duration;
                cfg.ckpt_interval = interval;
                let r = Simulator::new(cfg).run().expect("simulation failed");
                t.row(&[
                    label.to_string(),
                    algorithm.name().to_string(),
                    pacing.to_string(),
                    format!("{:.1}", r.avg_segments_flushed),
                    format!("{:.1}", r.avg_ckpt_interval),
                    format!("{:.0}", r.overhead_per_txn()),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!(
        "Observed shape: skew shrinks the flush set dramatically, but under \
         back-to-back pacing the checkpointer just cycles faster over the hot \
         set, so per-transaction overhead does NOT fall — the win appears at a \
         fixed interval, where the skewed flush sets are a fraction of the \
         uniform ones for the same recovery bound. The paper's uniform-update \
         assumption is therefore conservative for partial checkpointing.\n"
    );
}

/// Beyond-paper ablation: sensitivity of each algorithm to the basic
/// operation costs of Table 2a. The paper fixes them at one machine's
/// values; this sweep shows which design choices each algorithm's cost
/// hangs on — the copy algorithms live and die by data-movement cost,
/// 2CFLUSH by nothing but `C_io` and the rerun tax, FASTFUZZY by `C_io`
/// alone.
fn run_costs() {
    use mmdb_model::AnalyticModel;
    use mmdb_types::LogMode;

    type Tweak = fn(&mut Params);
    let algorithms = Algorithm::ALL_EXTENDED;
    let scenarios: [(&str, Tweak); 5] = [
        ("baseline (Table 2a)", |_| {}),
        ("C_lock ×10", |p| p.cost.c_lock *= 10),
        ("C_alloc ×10", |p| p.cost.c_alloc *= 10),
        ("C_io ×5", |p| p.cost.c_io *= 5),
        ("move ×4 (slow memcpy)", |p| p.cost.c_move_per_word *= 4),
    ];

    let mut header: Vec<String> = vec!["scenario".into()];
    header.extend(algorithms.iter().map(|a| a.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|h| h.as_str()).collect();
    let mut t = Table::new(
        "Ablation — overhead (instr/txn) sensitivity to Table 2a operation costs",
        &header_refs,
    );
    for (label, tweak) in scenarios {
        let mut row = vec![label.to_string()];
        for &algorithm in &algorithms {
            let mut p = Params::paper_defaults();
            if algorithm == Algorithm::FastFuzzy {
                p.log_mode = LogMode::StableTail;
            }
            tweak(&mut p);
            let point = AnalyticModel::new(p, algorithm).evaluate(None);
            row.push(format!("{:.0}", point.overhead_per_txn()));
        }
        t.row(&row);
    }
    println!("{}", t.render());
    println!(
        "Reading guide: the copy algorithms (FUZZYCOPY, 2CCOPY, COUCOPY, COUAC) \
         scale with data-movement cost; 2CFLUSH and FASTFUZZY are immune to it; \
         C_alloc only touches buffered flushes; the two-color rerun tax dwarfs \
         every unit-cost change.\n"
    );
}

/// Figure 4c re-run on the *executed system*: the simulator sweeps the
/// transaction load at scaled parameters and the analytic model is
/// evaluated at the same points. Verifies the load-sweep *shape* (the
/// paper's crossing: 2CFLUSH cheap at low load, costly at high) on real
/// algorithm executions, not just the model.
fn run_simsweep(quick: bool, csv: Option<&std::path::Path>) {
    use mmdb_model::{AnalyticModel, CouGranularity};
    use mmdb_sim::{SimConfig, Simulator};

    let algorithms = [
        Algorithm::FuzzyCopy,
        Algorithm::TwoColorFlush,
        Algorithm::CouCopy,
    ];
    let lambdas: &[f64] = if quick {
        &[2.0, 15.6, 60.0]
    } else {
        &[2.0, 6.0, 15.6, 30.0, 60.0]
    };
    eprintln!(
        "running simulated load sweep ({} cells)...",
        algorithms.len() * lambdas.len()
    );

    let mut header: Vec<String> = vec!["lambda (txn/s)".into()];
    for a in &algorithms {
        header.push(format!("{} model", a.name()));
        header.push(format!("{} sim", a.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(|h| h.as_str()).collect();
    let mut t = Table::new(
        "Figure 4c on the executed system — overhead (instr/txn) vs load, scaled parameters",
        &header_refs,
    );
    let mut csv_lines = Vec::new();
    for &lambda in lambdas {
        let mut row = vec![format!("{lambda}")];
        for &algorithm in &algorithms {
            let mut cfg = SimConfig::validation(algorithm);
            cfg.params.txn.lambda = lambda;
            cfg.duration = if quick { 150.0 } else { 300.0 };
            cfg.warmup = 60.0;
            let model = AnalyticModel::new(cfg.params, algorithm)
                .evaluate_with(None, CouGranularity::Record);
            let sim = Simulator::new(cfg).run().expect("simulation failed");
            row.push(format!("{:.0}", model.overhead_per_txn()));
            row.push(format!("{:.0}", sim.overhead_per_txn()));
            csv_lines.push(format!(
                "{},{lambda},{:.1},{:.1}",
                algorithm.name(),
                model.overhead_per_txn(),
                sim.overhead_per_txn()
            ));
        }
        t.row(&row);
    }
    write_csv(
        csv,
        "simsweep.csv",
        "algorithm,lambda,model_overhead,sim_overhead",
        &csv_lines,
    );
    println!("{}", t.render());
    println!(
        "Expected shape (paper Fig 4c, now on real executions): overhead falls \
         with load for the copy algorithms; 2CFLUSH starts cheapest and ends \
         among the costliest.\n"
    );
}
