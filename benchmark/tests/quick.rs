//! The harness and `../BENCHMARK.json` must not drift: the file is what
//! `--describe` prints, and a `--quick` run of every workload, traced and
//! untraced, prints exactly the metrics the file names, with its units.

use mmdb::obs::json::{self, Value};
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_mmdb-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("metric field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_the_harness_describes() {
    let out = Command::new(EXE)
        .arg("--describe")
        .output()
        .expect("run --describe");
    assert!(out.status.success());
    let described =
        json::parse(&String::from_utf8_lossy(&out.stdout)).expect("--describe prints JSON");
    assert_eq!(
        described,
        benchmark_json(),
        "BENCHMARK.json differs from `mmdb-benchmark --describe`; regenerate it"
    );
}

#[test]
fn quick_runs_print_the_metrics_benchmark_json_names() {
    let doc = benchmark_json();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-scratch");
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(EXE)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "2",
                    "--quick",
                ])
                .args(["--trace", trace])
                .arg("--scratch")
                .arg(&scratch)
                .output()
                .expect("run the harness");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a last line"))
                .expect("last line is JSON");
            let Value::Obj(keys) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_u64)
                    .expect("attempted")
                    >= 1
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{workload} {name} has no value"
                    );
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                names_and_units(&doc, list),
                "{workload} --trace {trace}"
            );
            assert!(stdout.contains("ops_attempted=") && stdout.contains("ops_failed=0"));
        }
    }
    // Every run removes its own scratch directory; only trace files stay.
    let leftovers: Vec<_> = std::fs::read_dir(&scratch)
        .expect("scratch root")
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .collect();
    assert!(
        leftovers.is_empty(),
        "scratch directories left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
