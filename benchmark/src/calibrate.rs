//! `calibrate`: runs the full set of workloads `SETS` times over, each run
//! in its own process and never two at once, and checks that the sets
//! agree: for every workload and end-to-end metric the medians of the sets
//! may differ by at most half the metric's bound. The timed quantities no
//! bound gates are tabulated next to them, so that the table shows what
//! keeps them ungated.

use crate::common::{self, err, median, quartiles, Res};
use crate::config::{self, MetricDef, END_TO_END, UNGATED, WORKLOADS};
use mmdb::obs::json;
use std::fmt::Write as _;
use std::process::Command;

const SETS: usize = 5;
/// As many as the sets whose medians the benchmark's driver compares.
const RUNS_PER_SET: usize = 10;

fn values_of(doc: &json::Value, defs: &[MetricDef]) -> Res<Vec<f64>> {
    defs.iter()
        .map(|m| {
            doc.get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or(format!("result lacks {}", m.name))
        })
        .collect()
}

/// One run's values: the end-to-end metrics in `END_TO_END` order, then
/// the ungated quantities in `UNGATED` order.
fn run_once(workload: &str, seed: u64) -> Res<Vec<f64>> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(err("spawn run"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let parse = |line: &str| json::parse(line).map_err(|e| format!("not JSON: {e:?}"));
    let last = parse(stdout.lines().last().ok_or("run printed nothing")?)?;
    let ungated = stdout
        .lines()
        .find_map(|l| l.strip_prefix("ungated "))
        .ok_or("run printed no ungated line")?;
    let mut values = values_of(
        last.get("metrics").ok_or("result has no metrics")?,
        &END_TO_END,
    )?;
    values.append(&mut values_of(&parse(ungated)?, &UNGATED)?);
    Ok(values)
}

/// Runs the calibration, writes the table to `out` if given; exit code 1
/// when the sets disagree about an end-to-end metric.
pub fn run(out: Option<&str>) -> Res<i32> {
    let mut table = String::new();
    let host: Vec<String> = common::host_block()
        .into_iter()
        .filter(|(k, _)| k != "flush_policy")
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let _ = writeln!(
        table,
        "{SETS} sets x {RUNS_PER_SET} runs per workload, --seconds {}; host: {}\n",
        config::DEFAULT_SECONDS,
        host.join(" ")
    );
    let _ = writeln!(
        table,
        "| workload | metric | unit | median | min | max | quartile distance | set medians differ by | half bound | |"
    );
    let _ = writeln!(table, "|---|---|---|---|---|---|---|---|---|---|");

    let mut disagreements = 0;
    for w in &WORKLOADS {
        // values[set][run][metric]
        let mut values: Vec<Vec<Vec<f64>>> = vec![Vec::new(); SETS];
        for (set, of_set) in values.iter_mut().enumerate() {
            for run in 0..RUNS_PER_SET {
                let seed = 1000 + (set * RUNS_PER_SET + run) as u64;
                eprintln!("calibrate: {} set {set} run {run} seed {seed}", w.name);
                of_set.push(run_once(w.name, seed)?);
            }
        }
        for (i, m) in END_TO_END.iter().chain(UNGATED.iter()).enumerate() {
            let gated = i < END_TO_END.len();
            let all: Vec<f64> = values.iter().flatten().map(|run| run[i]).collect();
            let set_medians: Vec<f64> = values
                .iter()
                .map(|of_set| median(&of_set.iter().map(|run| run[i]).collect::<Vec<_>>()))
                .collect();
            let mid = median(&all);
            let range = |v: &[f64]| {
                v.iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
            };
            let (lo, hi) = range(&all);
            let (q1, q3) = quartiles(&all);
            let (set_lo, set_hi) = range(&set_medians);
            let differ = (set_hi - set_lo) / mid;
            let (half_bound, verdict) = if !gated {
                ("-".to_string(), "not gated")
            } else if differ <= m.bound / 2.0 {
                (format!("{:.1}%", m.bound * 50.0), "ok")
            } else {
                disagreements += 1;
                (format!("{:.1}%", m.bound * 50.0), "DISAGREE")
            };
            let _ = writeln!(
                table,
                "| {} | {} | {} | {:.5} | {:.5} | {:.5} | {:.2}% | {:.2}% | {} | {} |",
                w.name,
                m.name,
                m.unit,
                mid,
                lo,
                hi,
                (q3 - q1) / mid * 100.0,
                differ * 100.0,
                half_bound,
                verdict
            );
        }
    }
    print!("{table}");
    if let Some(path) = out {
        std::fs::write(path, &table).map_err(err("write --out"))?;
    }
    if disagreements > 0 {
        println!("calibrate: {disagreements} metric(s) whose set medians differ by more than half their bound");
        return Ok(1);
    }
    Ok(0)
}
