//! The repo benchmark. One invocation runs one workload in one fresh
//! process:
//!
//! ```text
//! mmdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics and the timed
//! quantities that are measured but not gated; with
//! `--trace 1` it records spans around its own calls into each layer,
//! runs the standalone layer pass and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod calibrate;
mod common;
mod config;
mod gen;
mod hist;
mod layers;
mod report;
mod trace;
mod workloads;

use common::{Opts, Res, Scratch};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage:
  mmdb-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--scratch DIR]
  mmdb-benchmark --layers [--seed N] [--scratch DIR]
  mmdb-benchmark calibrate [--out FILE]
  mmdb-benchmark --describe";

/// Where scratch directories go unless `--scratch` says otherwise:
/// `benchmark/scratch` of the checkout the command runs in, else next to
/// this package's manifest.
fn default_scratch_root() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("scratch")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scratch")
    }
}

/// The command line, parsed.
struct Args {
    /// `calibrate`, or none.
    command: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: Vec<String>) -> Res<Args> {
        const VALUED: [&str; 6] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--scratch",
            "--out",
        ];
        const BARE: [&str; 3] = ["--quick", "--layers", "--describe"];
        let mut args = Args {
            command: None,
            flags: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            if VALUED.contains(&a.as_str()) {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                args.flags.push((a, Some(v)));
            } else if BARE.contains(&a.as_str()) {
                args.flags.push((a, None));
            } else if a == "calibrate" && args.command.is_none() && args.flags.is_empty() {
                args.command = Some(a);
            } else {
                return Err(format!("unknown argument {a}"));
            }
        }
        Ok(args)
    }

    /// Was the bare flag given?
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of a flag, if given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The numeric value of a flag, or `default`.
    fn number(&self, flag: &str, default: u64) -> Res<u64> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v}")),
        }
    }
}

fn opts_from(args: &Args, workload: &str) -> Res<Opts> {
    let seconds = args.number("--seconds", config::DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(Opts {
        workload: workload.to_string(),
        seed: args.number("--seed", 42)?,
        seconds,
        trace: match args.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got {v}")),
        },
        quick: args.has("--quick"),
        scratch_root: args
            .value("--scratch")
            .map_or_else(default_scratch_root, PathBuf::from),
    })
}

/// Runs one workload and prints its report; returns the exit code.
fn run_workload(opts: &Opts) -> Res<i32> {
    if !config::WORKLOADS.iter().any(|w| w.name == opts.workload) {
        let names: Vec<&str> = config::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; the workloads are {}",
            opts.workload,
            names.join(", ")
        ));
    }
    report::print_header(opts);
    let scratch = Scratch::new(
        &opts.scratch_root,
        &format!("{}-{}", opts.workload, opts.seed),
    )?;
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..2).map(|t| Tracer::new(opts.trace, t, epoch)).collect();
    let mut out = match opts.workload.as_str() {
        "embedded_update" => workloads::embedded_update::run(opts, &scratch, &mut tracers[0]),
        "embedded_read_mostly" => {
            workloads::embedded_read_mostly::run(opts, &scratch, &mut tracers)
        }
        "net_mixed" => workloads::net_mixed::run(opts, &scratch, &mut tracers),
        "crash_recover" => workloads::crash_recover::run(opts, &scratch, &mut tracers[0]),
        other => unreachable!("workload {other} was checked above"),
    }?;
    let mut layer_values = Vec::new();
    if opts.trace {
        out.spans = Some(trace::merged(&tracers));
        let path = opts
            .scratch_root
            .join(format!("trace-{}.jsonl", opts.workload));
        trace::write_jsonl(&path, &opts.workload, opts.seed, &tracers)
            .map_err(common::err("write trace"))?;
        println!("trace: {}", path.display());
        drop(tracers);
        layer_values = layers::run(opts, &scratch, &mut out)?;
    }
    drop(scratch);
    report::print_result(opts, &out, &layer_values)
}

fn real_main() -> Res<i32> {
    let args = Args::parse(std::env::args().skip(1).collect())?;
    if args.has("--describe") {
        print!("{}", report::describe());
        return Ok(0);
    }
    // `--quick` is a smoke run whose numbers mean nothing; anything else
    // is a measurement and needs an optimized build.
    if cfg!(debug_assertions) && !args.has("--quick") {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if args.command.as_deref() == Some("calibrate") {
        return calibrate::run(args.value("--out"));
    }
    if args.has("--layers") {
        let mut opts = opts_from(&args, "layers")?;
        opts.trace = true;
        report::print_header(&opts);
        let scratch = Scratch::new(&opts.scratch_root, &format!("layers-{}", opts.seed))?;
        let mut out = common::Outcome::new();
        let values = layers::run(&opts, &scratch, &mut out)?;
        drop(scratch);
        return Ok(report::print_layers_only(&out, &values));
    }
    match args.value("--workload") {
        Some(w) => run_workload(&opts_from(&args, w)?),
        None => Err(USAGE.into()),
    }
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mmdb-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
