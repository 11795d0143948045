//! `mmdb-cli` — operate a file-backed mmdb database from the shell.
//!
//! ```text
//! mmdb-cli <dir> init [--algorithm FUZZYCOPY|2CFLUSH|2CCOPY|COUFLUSH|COUCOPY|FASTFUZZY]
//!                     [--segments N] [--segment-words N] [--record-words N] [--full]
//!                     [--shards N] [--durability force|group]
//!                     [--compress-backups] [--compress-log]
//! mmdb-cli <dir> put <record> <fill-u32>
//! mmdb-cli <dir> get <record>
//! mmdb-cli <dir> workload <n-txns> [--seed S] [--updates K]
//! mmdb-cli <dir> checkpoint
//! mmdb-cli <dir> compact [--compress]       # rotate + compact cold log chunks
//! mmdb-cli <dir> stats [--json|--prom] [--remote ADDR]
//! mmdb-cli <dir> trace [--txns N] [--seed S] [--updates K] [--limit N] [--slow-us U]
//!                      [--json] [--remote ADDR]            # dump a live server's traces
//! mmdb-cli <dir> audit [--txns N] [--seed S] [--updates K]
//! mmdb-cli <dir> lint                       # dir is the source root
//! mmdb-cli <dir> fsck [--compare DIR-OR-ADDR]  # cross-check fingerprints
//! mmdb-cli <dir> dump <archive-file>
//! mmdb-cli <dir> restore <archive-file> [--algorithm A]   # dir must be fresh
//! mmdb-cli <dir> serve [--addr A] [--workers N] [--ckpt-ms D] [--idle-ms D]
//!                      [--slow-us U]                          # slow-request trace threshold
//!                      [--compact-ms D]                       # log maintenance
//!                      [--replica-of ADDR] [--repl-primary] [--repl-sync]  # replication role (persisted)
//! mmdb-cli <dir> promote [--addr A]         # replica -> writable primary
//! mmdb-cli <dir> bench-net [--connections N] [--txns N] [--updates K] [--seed S]
//!                          [--zipf THETA] [--addr A]
//!                          [--shards N] [--cross F]   # wire load driver
//! ```
//!
//! Every invocation opens the database (recovering from the on-disk
//! backups and log if needed), performs the command, and exits. Commits
//! force the log (or, under `--durability group`, are acked only once a
//! batched force covers them), so anything a command reports as
//! committed survives the next invocation.
//!
//! Every database is hash-partitioned across N ≥ 1 independent engines
//! (`init --shards N`, default 1), each with its own log and backup
//! pair; the directory's topology marker pins N, and every command
//! opens the whole topology. `mmdb-shard` owns the directory layout,
//! including the one-time move of a directory from before the marker,
//! whose single engine sat at the root. `stats` and `audit` report
//! shard by shard, under a `-- shard <i>` header when N > 1; `trace`
//! prints one dump of the whole topology; `dump` archives a 1-shard
//! database only. `bench-net` is a
//! closed-loop load driver for smoke tests and live servers: it prints
//! two summary lines and exits non-zero on any non-transient error. The
//! repo's benchmark is `benchmark/`.
//!
//! An unknown `--flag` is an error on every subcommand, never ignored.
//!
//! Replication: `serve --replica-of ADDR` runs the directory as a
//! read-only hot standby of the primary at `ADDR` (same `init` shape
//! and shard count on both sides); the role is persisted in `mmdb.conf`
//! so a bare `serve` resumes it. `serve --repl-primary` declares a
//! primary up front, pinning log truncation from startup so a standby
//! seeded from an identical `init` (or a directory copy) attaches
//! without a bootstrap gap. `serve --repl-sync` additionally makes the
//! primary hold each commit until a standby acknowledges it. `promote` flips a
//! standby writable (via `--addr` for a live server, offline
//! otherwise), and `fsck --compare` cross-checks storage fingerprints
//! between two databases.

mod persist;

use mmdb_core::{Algorithm, CommitDurability, LogMode, Mmdb, MmdbConfig, RecordId};
use mmdb_lint::check_workspace;
use mmdb_log::{LogDevice, LogRecord, LogStream, SegmentedLogDevice};
use mmdb_server::{run_load, LoadConfig, ReplOptions, Server, ServerConfig, WorkloadKind};
use mmdb_shard::{settle_layout, shard_config, shard_dir, ShardedMmdb, TOPOLOGY_FILE};
use mmdb_wire::Client;
use mmdb_workload::{UniformWorkload, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mmdb-cli: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, cmd, rest) = match args.split_first() {
        Some((dir, rest)) => match rest.split_first() {
            Some((cmd, rest)) => (PathBuf::from(dir), cmd.clone(), rest.to_vec()),
            None => return Err(usage()),
        },
        None => return Err(usage()),
    };
    match COMMANDS.iter().find(|c| c.name == cmd.as_str()) {
        Some(command) => {
            command.check_flags(&rest)?;
            (command.handler)(&dir, &rest)
        }
        None => Err(format!("unknown command {cmd:?}\n{}", usage())),
    }
}

type Handler = fn(&Path, &[String]) -> Result<(), String>;

/// One subcommand. [`COMMANDS`] is the single source of truth for
/// dispatch, flag checking *and* the usage text, so the help can never
/// drift out of sync with what actually runs.
struct Command {
    name: &'static str,
    /// Positional arguments and what the command does.
    about: &'static str,
    /// Every `--flag` the command accepts, written as the help shows it:
    /// `"--flag"` for a switch, `"--flag VALUE"` for one taking a value.
    flags: &'static [&'static str],
    handler: Handler,
}

impl Command {
    fn usage_line(&self) -> String {
        let mut line = format!("{:<11} {}", self.name, self.about);
        if !self.flags.is_empty() {
            line.push_str(&format!(" ({})", self.flags.join(", ")));
        }
        line
    }

    /// Fails on any `--flag` the command does not declare: a typo or a
    /// retired option must not silently run something else.
    fn check_flags(&self, rest: &[String]) -> Result<(), String> {
        let mut args = rest.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                continue;
            }
            let spec = self
                .flags
                .iter()
                .map(|spec| spec.split_once(' ').unwrap_or((spec, "")))
                .find(|(name, _)| name == arg);
            match spec {
                Some((_, "")) => {}
                Some(_) => {
                    args.next(); // the flag's value, whatever it looks like
                }
                None => {
                    return Err(format!(
                        "unknown flag {arg} for {}\nusage: mmdb-cli <dir> {}",
                        self.name,
                        self.usage_line()
                    ))
                }
            }
        }
        Ok(())
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "init",
        about: "create a database",
        flags: &[
            "--algorithm A",
            "--segments N",
            "--segment-words N",
            "--record-words N",
            "--full",
            "--shards N",
            "--durability force|group",
            "--compress-backups",
            "--compress-log",
        ],
        handler: cmd_init,
    },
    Command {
        name: "put",
        about: "<record> <fill-u32> — commit one update",
        flags: &[],
        handler: cmd_put,
    },
    Command {
        name: "get",
        about: "<record> — read a committed record",
        flags: &[],
        handler: cmd_get,
    },
    Command {
        name: "workload",
        about: "<n-txns> — run a seeded uniform workload",
        flags: &["--seed S", "--updates K"],
        handler: cmd_workload,
    },
    Command {
        name: "checkpoint",
        about: "take a checkpoint now",
        flags: &[],
        handler: cmd_checkpoint,
    },
    Command {
        name: "compact",
        about: "rotate the active log chunk and compact cold ones — superseded TxnCommit writes become filler, cold chunks optionally LZ-compressed",
        flags: &["--compress"],
        handler: cmd_compact,
    },
    Command {
        name: "stats",
        about: "print statistics, or export the unified metrics snapshot as JSON / Prometheus text — this directory's or a live server's",
        flags: &["--json", "--prom", "--remote ADDR"],
        handler: cmd_stats,
    },
    Command {
        name: "trace",
        about: "print request span trees — of a local instrumented workload, or from a live server's flight recorder",
        flags: &[
            "--txns N",
            "--seed S",
            "--updates K",
            "--limit N",
            "--slow-us U",
            "--json",
            "--remote ADDR",
        ],
        handler: cmd_trace,
    },
    Command {
        name: "audit",
        about: "run a protocol-audited stress pass",
        flags: &["--txns N", "--seed S", "--updates K"],
        handler: cmd_audit,
    },
    Command {
        name: "lint",
        about: "run the concurrency-discipline source lint over the tree rooted at <dir>",
        flags: &[],
        handler: cmd_lint,
    },
    Command {
        name: "fsck",
        about: "verify backup checksums, the log window, and dry-run recovery; cross-check fingerprints against another directory or server",
        flags: &["--compare DIR-OR-ADDR"],
        handler: cmd_fsck,
    },
    Command {
        name: "dump",
        about: "<archive-file> — write a cold archive",
        flags: &[],
        handler: cmd_dump,
    },
    Command {
        name: "restore",
        about: "<archive-file> — restore an archive into a fresh directory",
        flags: &["--algorithm A"],
        handler: cmd_restore,
    },
    Command {
        name: "serve",
        about: "serve the database over TCP",
        flags: &[
            "--addr A",
            "--workers N",
            "--ckpt-ms D",
            "--idle-ms D",
            "--slow-us U",
            "--compact-ms D",
            "--replica-of ADDR",
            "--repl-primary",
            "--repl-sync",
        ],
        handler: cmd_serve,
    },
    Command {
        name: "promote",
        about: "promote a replica to writable primary — a live server by address, an offline config flip otherwise",
        flags: &["--addr A"],
        handler: cmd_promote,
    },
    Command {
        name: "bench-net",
        about: "drive a closed-loop wire load at a self-hosted or running server; fails on any non-transient error",
        flags: &[
            "--connections N",
            "--txns N",
            "--updates K",
            "--seed S",
            "--zipf THETA",
            "--addr A",
            "--shards N",
            "--cross F",
        ],
        handler: cmd_bench_net,
    },
];

fn usage() -> String {
    let mut out = String::from("usage: mmdb-cli <dir> <command> [args]\ncommands:\n");
    for command in COMMANDS {
        out.push_str(&format!("  {}\n", command.usage_line()));
    }
    out.push_str("run `mmdb-cli <dir> init` first to create a database");
    out
}

fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1).cloned())
}

/// Opens the database in `dir`, an N-shard topology whose N the
/// directory's marker pins (`shards`, when given, must match it; a fresh
/// directory takes it), and reports any recovery.
fn open(dir: &Path, config: MmdbConfig, shards: Option<usize>) -> Result<ShardedMmdb, String> {
    let shards = settle_layout(dir, shards).map_err(|e| e.to_string())?;
    let (db, recovery) = ShardedMmdb::open_dir(config, dir, shards).map_err(|e| e.to_string())?;
    let recovered: Vec<&mmdb_core::RecoveryReport> = recovery.shards.iter().flatten().collect();
    if !recovered.is_empty() {
        eprintln!(
            "(recovered {} shard(s) in parallel: {} segments, {} log words, {} txns replayed; \
             in-doubt cross-shard branches: {} committed, {} aborted)",
            recovered.len(),
            recovered.iter().map(|r| r.segments_loaded).sum::<u64>(),
            recovered.iter().map(|r| r.log_words).sum::<u64>(),
            recovered.iter().map(|r| r.txns_replayed).sum::<u64>(),
            recovery.in_doubt_committed,
            recovery.in_doubt_aborted
        );
    }
    Ok(db)
}

/// Heads shard `i`'s part of a per-shard report; a 1-shard database's
/// report has no headers.
fn shard_header(db: &ShardedMmdb, i: usize) {
    if db.shards() > 1 {
        println!("-- shard {i}");
    }
}

fn cmd_init(dir: &Path, rest: &[String]) -> Result<(), String> {
    if dir.join(persist::CONFIG_FILE).exists() {
        return Err(format!("{} already contains a database", dir.display()));
    }
    let algorithm: Algorithm = flag_value(rest, "--algorithm")
        .unwrap_or_else(|| "COUCOPY".into())
        .parse()?;
    let mut config = MmdbConfig::small(algorithm);
    if algorithm == Algorithm::FastFuzzy {
        config.params.log_mode = LogMode::StableTail;
    }
    if let Some(v) = flag_value(rest, "--segment-words") {
        config.params.db.s_seg = v.parse().map_err(|e| format!("--segment-words: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--record-words") {
        config.params.db.s_rec = v.parse().map_err(|e| format!("--record-words: {e}"))?;
    }
    if let Some(v) = flag_value(rest, "--segments") {
        let n: u64 = v.parse().map_err(|e| format!("--segments: {e}"))?;
        config.params.db.s_db = n * config.params.db.s_seg;
    }
    if rest.iter().any(|a| a == "--full") {
        config.params.ckpt_mode = mmdb_core::CkptMode::Full;
    }
    if let Some(v) = flag_value(rest, "--durability") {
        config.commit_durability = match v.as_str() {
            "force" => CommitDurability::Force,
            "group" => CommitDurability::Group,
            other => return Err(format!("--durability: expected force|group, got {other}")),
        };
    }
    if rest.iter().any(|a| a == "--compress-backups") {
        config.compress_backups = true;
    }
    if rest.iter().any(|a| a == "--compress-log") {
        config.compress_log_chunks = true;
    }
    let shards: usize = flag_value(rest, "--shards")
        .map(|v| v.parse().map_err(|e| format!("--shards: {e}")))
        .transpose()?
        .unwrap_or(1);
    config.validate()?;
    persist::save(&config, dir).map_err(|e| e.to_string())?;

    // each shard is seeded with two checkpoints, so the database is
    // recoverable from its very first moment
    let db = open(dir, config, Some(shards))?;
    db.checkpoint_all().map_err(|e| e.to_string())?;
    db.checkpoint_all().map_err(|e| e.to_string())?;
    println!(
        "initialized {}: {} records × {} words, {} segments across {} shard(s), algorithm {}",
        dir.display(),
        db.n_records(),
        db.record_words(),
        shard_config(&config, shards).params.db.n_segments() * shards as u64,
        db.shards(),
        algorithm
    );
    Ok(())
}

fn cmd_put(dir: &Path, rest: &[String]) -> Result<(), String> {
    let record: u64 = rest
        .first()
        .ok_or("put needs <record> <fill>")?
        .parse()
        .map_err(|e| format!("record: {e}"))?;
    let fill: u32 = rest
        .get(1)
        .ok_or("put needs <record> <fill>")?
        .parse()
        .map_err(|e| format!("fill: {e}"))?;
    let db = open(dir, persist::load(dir)?, None)?;
    let value = vec![fill; db.record_words()];
    let run = db
        .run_txn(&[(RecordId(record), value)])
        .map_err(|e| e.to_string())?;
    println!(
        "committed record {record} = {fill} (txn {}, {} run(s))",
        run.txn.raw(),
        run.runs
    );
    Ok(())
}

fn cmd_get(dir: &Path, rest: &[String]) -> Result<(), String> {
    let record: u64 = rest
        .first()
        .ok_or("get needs <record>")?
        .parse()
        .map_err(|e| format!("record: {e}"))?;
    let db = open(dir, persist::load(dir)?, None)?;
    let value = db
        .read_committed(RecordId(record))
        .map_err(|e| e.to_string())?;
    let uniform = value.iter().all(|w| *w == value[0]);
    if uniform {
        println!("record {record} = {} (×{} words)", value[0], value.len());
    } else {
        println!("record {record} = {value:?}");
    }
    Ok(())
}

fn cmd_workload(dir: &Path, rest: &[String]) -> Result<(), String> {
    let n: u64 = rest
        .first()
        .ok_or("workload needs <n-txns>")?
        .parse()
        .map_err(|e| format!("n-txns: {e}"))?;
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let updates: u32 = flag_value(rest, "--updates")
        .map(|v| v.parse().map_err(|e| format!("--updates: {e}")))
        .transpose()?
        .unwrap_or(5);

    let mut config = persist::load(dir)?;
    // One committer has nobody to share a group force with: each commit
    // forces its own log tail instead of waiting out the accumulation
    // window alone. Either way a commit is acked only once durable.
    config.commit_durability = CommitDurability::Force;
    let db = open(dir, config, None)?;
    let words = db.record_words();
    let mut wl = UniformWorkload::new(db.n_records(), updates, seed);
    let start = std::time::Instant::now();
    let mut reruns = 0u64;
    for _ in 0..n {
        let spec = wl.next_txn();
        let run = db
            .run_txn(&spec.materialize(words))
            .map_err(|e| e.to_string())?;
        reruns += (run.runs - 1) as u64;
    }
    let elapsed = start.elapsed();
    println!(
        "committed {n} transactions ({updates} updates each) in {:.3}s ({:.0} txn/s), {reruns} reruns",
        elapsed.as_secs_f64(),
        n as f64 / elapsed.as_secs_f64()
    );
    Ok(())
}

fn cmd_checkpoint(dir: &Path, _rest: &[String]) -> Result<(), String> {
    let db = open(dir, persist::load(dir)?, None)?;
    let reports = db.checkpoint_all().map_err(|e| e.to_string())?;
    for (i, report) in reports.iter().enumerate() {
        shard_header(&db, i);
        println!(
            "checkpoint {} -> copy {}: {} segments flushed, {} skipped, {} from COU old copies",
            report.ckpt.raw(),
            report.copy,
            report.segments_flushed,
            report.segments_skipped,
            report.old_copies_flushed
        );
    }
    Ok(())
}

/// Offline log maintenance: seal each shard's active chunk, then
/// rewrite cold chunks with superseded `TxnCommit` writes turned into
/// length-preserving filler. Every LSN
/// survives, so replication and recovery are oblivious; a lagging
/// standby's truncation pin stalls the rewrite rather than losing
/// bytes. `--compress` additionally stores the rewritten cold chunks
/// LZ-compressed on disk for this pass (the persisted `compress_log`
/// knob from `init` does the same continuously).
fn cmd_compact(dir: &Path, rest: &[String]) -> Result<(), String> {
    let mut config = persist::load(dir)?;
    if rest.iter().any(|a| a == "--compress") {
        config.compress_log_chunks = true;
    }
    let db = open(dir, config, None)?;
    let rotated = db.rotate_logs().map_err(|e| e.to_string())?;
    let reports = db.compact_logs().map_err(|e| e.to_string())?;
    let sum = |f: fn(&mmdb_core::CompactReport) -> u64| reports.iter().map(f).sum::<u64>();
    println!(
        "compact: {} chunk(s) rotated; {} cold chunk(s) examined, {} rewritten, \
         {} frames dropped, {} log bytes reclaimed",
        rotated,
        sum(|r| r.chunks_examined),
        sum(|r| r.chunks_rewritten),
        sum(|r| r.frames_dropped),
        sum(|r| r.bytes_reclaimed),
    );
    println!(
        "compact: cold-chunk disk footprint {} -> {} bytes",
        sum(|r| r.disk_bytes_before),
        sum(|r| r.disk_bytes_after),
    );
    Ok(())
}

fn cmd_stats(dir: &Path, rest: &[String]) -> Result<(), String> {
    let json = rest.iter().any(|a| a == "--json");
    let prom = rest.iter().any(|a| a == "--prom");
    if let Some(addr) = flag_value(rest, "--remote") {
        // live-server statistics over the wire; the round-trip through
        // the snapshot parser is a strict schema check
        let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let text = client.stats_json().map_err(|e| format!("stats: {e}"))?;
        let snap = mmdb_core::MetricsSnapshot::from_json(&text)?;
        if prom {
            print!("{}", snap.to_prometheus());
        } else {
            println!("{}", snap.to_json_pretty());
        }
        return Ok(());
    }
    let mut config = persist::load(dir)?;
    // Telemetry on, like `audit` forces the audit on: the snapshot then
    // carries latency histograms for whatever this invocation did
    // (including a recovery, if one ran).
    config.telemetry = true;
    let db = open(dir, config, None)?;
    if json {
        println!("{}", db.metrics_snapshot().to_json_pretty());
        return Ok(());
    }
    if prom {
        print!("{}", db.prometheus());
        return Ok(());
    }
    for i in 0..db.shards() {
        shard_header(&db, i);
        db.with_shard(i, |e| print_engine_stats(e, &config, dir));
        let dev = SegmentedLogDevice::open(
            &shard_dir(dir, i).join("log"),
            config.log_chunk_bytes,
            false,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "log disk:   {} chunks, {} bytes on disk, window [{}, {})",
            dev.chunk_count(),
            dev.disk_bytes(),
            dev.start_offset(),
            dev.len()
        );
    }
    Ok(())
}

/// `stats`' text lines for one shard engine.
fn print_engine_stats(db: &Mmdb, config: &MmdbConfig, dir: &Path) {
    let t = db.txn_stats();
    let c = db.ckpt_stats();
    let l = db.log_stats();
    println!(
        "database:   {} ({} records × {} words, {} segments)",
        dir.display(),
        db.n_records(),
        db.record_words(),
        db.n_segments()
    );
    println!(
        "algorithm:  {} ({:?} checkpoints, log tail {:?})",
        config.algorithm, config.params.ckpt_mode, config.params.log_mode
    );
    println!("txns:       {} committed, {} two-color aborts, {} other aborts (this session incl. recovery)", t.committed, t.aborted_two_color, t.aborted_other);
    println!(
        "ckpts:      {} completed, {} segments flushed, {} old copies, {} log forces",
        c.completed, c.segments_flushed, c.old_copies_flushed, c.log_forces
    );
    println!(
        "log:        {} records / {} bytes appended this session",
        l.records, l.bytes
    );
    let seg = db.segment_stats();
    println!(
        "segments:   {} total, dirty vs copy0/copy1 = {}/{}, {} white, {} holding COU old copies",
        seg.total, seg.dirty_copy0, seg.dirty_copy1, seg.white, seg.with_old_copy
    );
}

/// Prints request span trees in the flight-recorder dump format. Two
/// sources, one formatter:
///
/// * `--remote ADDR` fetches a live server's flight recorder and slow
///   -request log over the wire (`TraceDump`) — no workload is run and
///   `<dir>` is not opened.
/// * Otherwise a telemetry-instrumented workload ([`stress_engine`])
///   runs locally on each shard engine in turn, and the topology's
///   recorders are dumped as one document.
///
/// Both paths render via [`mmdb_core::TraceDumpDoc`], so the local view
/// and the remote view of "what did this request spend its time on"
/// read identically.
fn cmd_trace(dir: &Path, rest: &[String]) -> Result<(), String> {
    let txns: u64 = flag_value(rest, "--txns")
        .map(|v| v.parse().map_err(|e| format!("--txns: {e}")))
        .transpose()?
        .unwrap_or(50);
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let updates: u32 = flag_value(rest, "--updates")
        .map(|v| v.parse().map_err(|e| format!("--updates: {e}")))
        .transpose()?
        .unwrap_or(5);
    let limit: usize = flag_value(rest, "--limit")
        .map(|v| v.parse().map_err(|e| format!("--limit: {e}")))
        .transpose()?
        .unwrap_or(200);
    let slow_us: Option<u64> = flag_value(rest, "--slow-us")
        .map(|v| v.parse().map_err(|e| format!("--slow-us: {e}")))
        .transpose()?;
    let as_json = rest.iter().any(|a| a == "--json");

    if let Some(addr) = flag_value(rest, "--remote") {
        let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let json = client
            .trace_dump(limit as u32)
            .map_err(|e| format!("trace dump: {e}"))?;
        // parse even when re-emitting JSON: the strict schema check is
        // the point (CI greps this command's exit status)
        let doc = mmdb_core::TraceDumpDoc::from_json(&json)?;
        if as_json {
            print!("{json}");
        } else {
            print!("{}", doc.render());
        }
        return Ok(());
    }

    let mut config = persist::load(dir)?;
    config.telemetry = true;
    let db = open(dir, config, None)?;
    if let Some(us) = slow_us {
        db.obs().set_slow_threshold_us(us);
    }
    for i in 0..db.shards() {
        db.with_shard(i, |e| {
            if let Some(us) = slow_us {
                e.obs().set_slow_threshold_us(us);
            }
            stress_engine(e, txns, seed, updates)
        })?;
    }
    let doc = db.trace_dump(limit);
    if as_json {
        print!("{}", doc.to_json());
    } else {
        print!("{}", doc.render());
        println!("(latency histograms and attribution: `mmdb-cli <dir> stats --json`)");
    }
    Ok(())
}

/// Drives one shard engine through a seeded workload interleaved with a
/// stepped checkpoint (begun a third of the way in, so transactions and
/// the sweep genuinely interleave: two-color aborts, COU saves), then a
/// final full checkpoint and a dry-run recoverability check. Each
/// transaction runs under its own request scope, exactly as the server
/// wraps a wire request: every engine phase it touches (lock waits,
/// commits, log forces) lands in one span tree, feeding the same
/// slow-request log and attribution table a live server would populate.
fn stress_engine(db: &mut Mmdb, txns: u64, seed: u64, updates: u32) -> Result<(), String> {
    let words = db.record_words();
    let mut wl = UniformWorkload::new(db.n_records(), updates, seed);
    for i in 0..txns {
        if i == txns / 3 && !db.is_checkpoint_active() {
            db.try_begin_checkpoint().map_err(|e| e.to_string())?;
        }
        if db.is_checkpoint_active() && i % 2 == 0 {
            step_checkpoint(db)?;
        }
        let spec = wl.next_txn();
        let scope = db
            .obs()
            .request_scope("net.request", "net.request_ns", "txn", 0, 0);
        let run = db.run_txn(&spec.materialize(words));
        scope.finish();
        run.map_err(|e| e.to_string())?;
    }
    while db.is_checkpoint_active() {
        step_checkpoint(db)?;
    }
    db.checkpoint().map_err(|e| e.to_string())?;
    db.verify_recoverability().map_err(|e| e.to_string())?;
    Ok(())
}

/// Runs an audited stress pass ([`stress_engine`]) over each shard
/// engine in turn, with every protocol invariant checked online. Prints
/// the coverage/violation summary; a violation fails the command.
fn cmd_audit(dir: &Path, rest: &[String]) -> Result<(), String> {
    let txns: u64 = flag_value(rest, "--txns")
        .map(|v| v.parse().map_err(|e| format!("--txns: {e}")))
        .transpose()?
        .unwrap_or(200);
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let updates: u32 = flag_value(rest, "--updates")
        .map(|v| v.parse().map_err(|e| format!("--updates: {e}")))
        .transpose()?
        .unwrap_or(5);

    let mut config = persist::load(dir)?;
    config.audit = true;
    // Telemetry rides along: a violation dumps the flight recorder, so
    // the span trees around the offending interleaving are preserved.
    config.telemetry = true;
    let db = open(dir, config, None)?;
    for i in 0..db.shards() {
        shard_header(&db, i);
        db.with_shard(i, |e| -> Result<(), String> {
            stress_engine(e, txns, seed, updates)?;
            let report = e.audit_report().ok_or("auditing unexpectedly disabled")?;
            print!("{report}");
            if report.is_clean() {
                println!(
                    "audit: clean ({txns} txns, checkpoints interleaved, recoverability verified)"
                );
                return Ok(());
            }
            if let Ok(Some(path)) = mmdb_core::write_flightrec(e.obs(), &shard_dir(dir, i)) {
                println!("flight recorder dumped to {}", path.display());
            }
            Err(format!(
                "audit: {} protocol violation(s) detected",
                report.violations.len()
            ))
        })?;
    }
    Ok(())
}

/// Runs the concurrency-discipline lint over the source tree rooted at
/// `dir` (here `<dir>` is a source root, not a database directory),
/// applying `<dir>/lint.baseline`. Mirrors `audit`: clean exits zero,
/// any unbaselined finding is an error.
fn cmd_lint(dir: &Path, rest: &[String]) -> Result<(), String> {
    if !rest.is_empty() {
        return Err("lint takes no arguments".into());
    }
    let report = check_workspace(dir).map_err(|e| format!("lint: {e}"))?;
    for v in &report.violations {
        println!("{v}");
    }
    for s in &report.stale {
        eprintln!("warning: stale baseline entry `{s}` matched nothing — remove it");
    }
    println!(
        "lint: {} file(s), {} baselined exception(s), {} stale entr(ies)",
        report.files,
        report.suppressed,
        report.stale.len()
    );
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "lint: {} unbaselined violation(s)",
            report.violations.len()
        ))
    }
}

/// Serves the database over TCP until a wire `Shutdown` arrives (or the
/// process is killed). The first stdout line is machine-readable —
/// `listening on ADDR` — so harnesses binding port 0 can find the port.
fn cmd_serve(dir: &Path, rest: &[String]) -> Result<(), String> {
    let addr = flag_value(rest, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let workers: usize = flag_value(rest, "--workers")
        .map(|v| v.parse().map_err(|e| format!("--workers: {e}")))
        .transpose()?
        .unwrap_or(16);
    let ckpt_ms: u64 = flag_value(rest, "--ckpt-ms")
        .map(|v| v.parse().map_err(|e| format!("--ckpt-ms: {e}")))
        .transpose()?
        .unwrap_or(10);
    let idle_ms: Option<u64> = flag_value(rest, "--idle-ms")
        .map(|v| v.parse().map_err(|e| format!("--idle-ms: {e}")))
        .transpose()?;
    let slow_us: u64 = flag_value(rest, "--slow-us")
        .map(|v| v.parse().map_err(|e| format!("--slow-us: {e}")))
        .transpose()?
        .unwrap_or(mmdb_server::ServerConfig::default().slow_trace_us);
    let compact_ms: u64 = flag_value(rest, "--compact-ms")
        .map(|v| v.parse().map_err(|e| format!("--compact-ms: {e}")))
        .transpose()?
        .unwrap_or(0);

    let mut config = persist::load(dir)?;
    config.telemetry = true; // request spans must show up in `stats --json`

    // Replication role: flags override and persist; otherwise the role
    // recorded in mmdb.conf resumes (standalone for every directory
    // that predates the keys).
    let mut repl_settings = persist::load_repl(dir)?;
    let settings_before = repl_settings.clone();
    if let Some(peer) = flag_value(rest, "--replica-of") {
        repl_settings.role = persist::ReplRole::Replica(peer);
    }
    if rest.iter().any(|a| a == "--repl-primary") {
        repl_settings.role = persist::ReplRole::Primary;
    }
    if rest.iter().any(|a| a == "--repl-sync") {
        repl_settings.repl_sync = true;
        if repl_settings.role == persist::ReplRole::Standalone {
            repl_settings.role = persist::ReplRole::Primary;
        }
    }
    if repl_settings != settings_before {
        persist::save_repl(dir, &repl_settings).map_err(|e| format!("persisting role: {e}"))?;
    }
    let repl = ReplOptions {
        replica_of: match &repl_settings.role {
            persist::ReplRole::Replica(peer) => Some(peer.clone()),
            _ => None,
        },
        repl_sync: repl_settings.repl_sync,
        // a declared primary pins log truncation from startup (the
        // replication-slot contract): a standby seeded from an
        // identical `init` or a directory copy can then attach without
        // a bootstrap gap, even if checkpoints ran before its hello
        primary: repl_settings.role == persist::ReplRole::Primary,
        // a wire Promote rewrites the persisted role so the next
        // `serve` comes up as a primary, not a stale replica
        on_promote: Some(std::sync::Arc::new({
            let dir = dir.to_path_buf();
            move || {
                let _ = persist::save_repl(
                    &dir,
                    &persist::ReplSettings {
                        role: persist::ReplRole::Primary,
                        repl_sync: false,
                    },
                );
            }
        })),
        // replication progress (primary-LSN applied watermarks) lives
        // next to the data so a standby restart resumes, not re-seeds
        state_dir: Some(dir.to_path_buf()),
    };

    let server_config = ServerConfig {
        addr,
        workers,
        checkpoint_interval: (ckpt_ms > 0).then(|| std::time::Duration::from_millis(ckpt_ms)),
        idle_timeout: idle_ms.map(std::time::Duration::from_millis),
        slow_trace_us: slow_us,
        compact_interval: (compact_ms > 0).then(|| std::time::Duration::from_millis(compact_ms)),
        repl,
    };
    let db = open(dir, config, None)?;
    let shards = db.shards();
    let mut handle = Server::spawn_sharded(db, server_config)
        .map_err(|e| format!("cannot start server: {e}"))?;
    println!("listening on {}", handle.local_addr());
    eprintln!(
        "serving {} ({} workers, {} shard(s), checkpoints {}{}{}); stop with the wire Shutdown op",
        dir.display(),
        workers,
        shards,
        if ckpt_ms > 0 {
            format!("every {ckpt_ms}ms")
        } else {
            "on request only".into()
        },
        if compact_ms > 0 {
            format!(", log compaction every {compact_ms}ms")
        } else {
            String::new()
        },
        match &repl_settings.role {
            persist::ReplRole::Standalone => String::new(),
            persist::ReplRole::Primary => format!(
                ", primary{}",
                if repl_settings.repl_sync {
                    " (semi-sync)"
                } else {
                    ""
                }
            ),
            persist::ReplRole::Replica(peer) => format!(", replica of {peer}"),
        }
    );
    handle.wait();
    let ckpts = handle.checkpoints_completed();
    let db = handle.shutdown_join();
    println!(
        "shut down: {} txns committed, {} background checkpoints",
        db.txn_committed(),
        ckpts
    );
    Ok(())
}

/// Runs the closed-loop network load driver. Without `--addr` it
/// self-hosts a server over `<dir>` on a loopback port; with `--addr` it
/// drives an already-running server. Prints two summary lines and fails
/// on any non-transient error. It is a load generator for smoke tests
/// and live servers, not a measurement of record — that is
/// `benchmark/`.
fn cmd_bench_net(dir: &Path, rest: &[String]) -> Result<(), String> {
    let connections: usize = flag_value(rest, "--connections")
        .map(|v| v.parse().map_err(|e| format!("--connections: {e}")))
        .transpose()?
        .unwrap_or(8);
    let txns_per_conn: u64 = flag_value(rest, "--txns")
        .map(|v| v.parse().map_err(|e| format!("--txns: {e}")))
        .transpose()?
        .unwrap_or(100);
    let updates_per_txn: u32 = flag_value(rest, "--updates")
        .map(|v| v.parse().map_err(|e| format!("--updates: {e}")))
        .transpose()?
        .unwrap_or(4);
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| v.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let workload = match flag_value(rest, "--zipf") {
        Some(v) => WorkloadKind::Zipf(v.parse().map_err(|e| format!("--zipf: {e}"))?),
        None => WorkloadKind::Uniform,
    };
    let cross_fraction: f64 = flag_value(rest, "--cross")
        .map(|v| v.parse().map_err(|e| format!("--cross: {e}")))
        .transpose()?
        .unwrap_or(0.0);

    // `--shards` routes the load; a self-hosted server's directory must
    // have that many (it has its marker's count when the flag is absent)
    let shards_flag: Option<usize> = flag_value(rest, "--shards")
        .map(|v| v.parse().map_err(|e| format!("--shards: {e}")))
        .transpose()?;
    let mut shards = shards_flag.unwrap_or(1);
    // self-host unless pointed at an external server
    let external_addr = flag_value(rest, "--addr");
    let handle = match &external_addr {
        Some(_) => None,
        None => {
            let mut config = persist::load(dir)?;
            config.telemetry = true;
            let db = open(dir, config, shards_flag)?;
            shards = db.shards();
            let server_config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: connections + 2,
                checkpoint_interval: Some(std::time::Duration::from_millis(5)),
                ..ServerConfig::default()
            };
            let spawned = Server::spawn_sharded(db, server_config);
            Some(spawned.map_err(|e| format!("cannot serve: {e}"))?)
        }
    };
    let addr = match (&external_addr, &handle) {
        (Some(a), _) => a.clone(),
        (None, Some(h)) => h.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    let ckpts_before = match &handle {
        Some(_) => 0,
        None => stats_ckpt_completed(&addr)?,
    };
    let cfg = LoadConfig {
        addr: addr.clone(),
        connections,
        txns_per_conn,
        updates_per_txn,
        seed,
        workload,
        shards,
        cross_fraction,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).map_err(|e| format!("load driver: {e}"))?;

    let ckpts = match &handle {
        Some(h) => h.checkpoints_completed(),
        None => stats_ckpt_completed(&addr)?.saturating_sub(ckpts_before),
    };

    println!(
        "bench-net: {} conns × {} txns ({} updates each, {}) -> {} committed in {:.3}s ({:.0} txn/s)",
        connections,
        txns_per_conn,
        updates_per_txn,
        cfg.workload.label(),
        report.committed,
        report.elapsed.as_secs_f64(),
        report.throughput_tps,
    );
    println!(
        "latency us: p50 {} / p90 {} / p99 {} / p99.9 {} / max {}; {} transient retries, {} errors, {} checkpoints during run",
        report.latency_us.p50,
        report.latency_us.p90,
        report.latency_us.p99,
        report.latency_us.p999,
        report.latency_us.max,
        report.retries,
        report.errors,
        ckpts
    );
    if let Some(h) = handle {
        h.shutdown_join();
    }
    if report.errors > 0 {
        return Err(format!(
            "{} non-transient errors during load",
            report.errors
        ));
    }
    Ok(())
}

/// Promotes a replica to a writable primary. With `--addr` the wire
/// `Promote` op is sent to the live standby server (which persists the
/// role flip itself via its `on_promote` hook); without it, the
/// directory's persisted role is flipped offline so the next `serve`
/// comes up writable.
fn cmd_promote(dir: &Path, rest: &[String]) -> Result<(), String> {
    if let Some(addr) = flag_value(rest, "--addr") {
        let mut client = Client::connect(&addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        client.promote().map_err(|e| format!("promote: {e}"))?;
        println!("promoted server at {addr}: now writable");
        // Best-effort local flip too, in case the server runs over a
        // different directory than the one named here.
        if let Ok(settings) = persist::load_repl(dir) {
            if matches!(settings.role, persist::ReplRole::Replica(_)) {
                persist::save_repl(
                    dir,
                    &persist::ReplSettings {
                        role: persist::ReplRole::Primary,
                        repl_sync: false,
                    },
                )
                .map_err(|e| format!("persisting role: {e}"))?;
            }
        }
        return Ok(());
    }
    let settings = persist::load_repl(dir)?;
    match settings.role {
        persist::ReplRole::Replica(peer) => {
            persist::save_repl(
                dir,
                &persist::ReplSettings {
                    role: persist::ReplRole::Primary,
                    repl_sync: false,
                },
            )
            .map_err(|e| format!("persisting role: {e}"))?;
            println!(
                "promoted {}: was replica of {peer}, next `serve` comes up as a writable primary",
                dir.display()
            );
            Ok(())
        }
        _ => Err(format!(
            "{} is not a replica (role {:?}); nothing to promote",
            dir.display(),
            settings.role
        )),
    }
}

/// Computes the storage fingerprint of the database in `dir` (created
/// with `config`), offline.
fn dir_fingerprint(config: MmdbConfig, dir: &Path) -> Result<u64, String> {
    Ok(open(dir, config, None)?.fingerprint())
}

/// Reads `ckpt.completed` from a server's wire stats snapshot.
fn stats_ckpt_completed(addr: &str) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connection: {e}"))?;
    let json = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    let snap = mmdb_core::MetricsSnapshot::from_json(&json)?;
    Ok(snap.counter("ckpt.completed").unwrap_or(0))
}

fn step_checkpoint(db: &mut Mmdb) -> Result<(), String> {
    match db.checkpoint_step().map_err(|e| e.to_string())? {
        mmdb_core::StepOutcome::WaitingForLog => db.force_log().map_err(|e| e.to_string()),
        _ => Ok(()),
    }
}

fn cmd_fsck(dir: &Path, rest: &[String]) -> Result<(), String> {
    let config = persist::load(dir)?;
    let mut problems = 0u64;

    // --compare cross-checks this database's storage fingerprint
    // against another database directory or a live server (addr with a
    // ':'): the one-line answer to "is my standby byte-equivalent?"
    if let Some(target) = flag_value(rest, "--compare") {
        let local = dir_fingerprint(config, dir)?;
        let (what, other) = if target.contains(':') {
            let mut client =
                Client::connect(&target).map_err(|e| format!("connecting {target}: {e}"))?;
            let fp = client
                .fingerprint()
                .map_err(|e| format!("fingerprint: {e}"))?;
            (format!("server {target}"), fp)
        } else {
            let other_dir = PathBuf::from(&target);
            (
                target.clone(),
                dir_fingerprint(persist::load(&other_dir)?, &other_dir)?,
            )
        };
        if local == other {
            println!("compare: fingerprints match ({local:#018x})");
        } else {
            println!(
                "compare: FINGERPRINT MISMATCH — {} is {local:#018x}, {what} is {other:#018x}",
                dir.display()
            );
            problems += 1;
        }
    }

    // every shard is a standalone engine directory, checked with the
    // per-shard parameter shape
    let shards = settle_layout(dir, None).map_err(|e| e.to_string())?;
    println!(
        "topology: {shards} shards (marker {})",
        dir.join(TOPOLOGY_FILE).display()
    );
    let scfg = shard_config(&config, shards);
    for i in 0..shards {
        let shard_dir = shard_dir(dir, i);
        println!("-- shard {i} ({})", shard_dir.display());
        problems += fsck_engine_dir(&shard_dir, scfg)?;
    }

    if problems == 0 {
        println!("fsck: clean");
        Ok(())
    } else {
        Err(format!("fsck: {problems} problem(s) found"))
    }
}

/// Checks one engine directory (backup checksums, log window, dry-run
/// recovery) and returns the number of problems found.
fn fsck_engine_dir(dir: &Path, config: MmdbConfig) -> Result<u64, String> {
    use mmdb_disk::{BackupStore, CopyStatus, FileBackup};
    let mut problems = 0u64;

    // backups: header status + every segment checksum of complete copies
    let mut backup = FileBackup::open(&dir.join("backup"), config.params.db, false)
        .map_err(|e| e.to_string())?;
    for copy in 0..2usize {
        let status = backup.copy_status(copy).map_err(|e| e.to_string())?;
        print!("backup.{copy}: {status:?}");
        if let CopyStatus::Complete(_) = status {
            let mut buf = vec![0u32; config.params.db.s_seg as usize];
            let mut bad = 0u64;
            for sid in 0..config.params.db.n_segments() as u32 {
                if backup
                    .read_segment(copy, mmdb_types::SegmentId(sid), &mut buf)
                    .is_err()
                {
                    bad += 1;
                }
            }
            if bad == 0 {
                println!(
                    " — all {} segment checksums OK",
                    config.params.db.n_segments()
                );
            } else {
                println!(" — {bad} CORRUPT segments");
                problems += bad;
            }
        } else {
            println!();
        }
    }

    // log: validated window + marker inventory
    let mut dev = SegmentedLogDevice::open(&dir.join("log"), config.log_chunk_bytes, false)
        .map_err(|e| e.to_string())?;
    let window = dev.len() - dev.start_offset();
    // One validation pass tallies the composition and finds the newest
    // begin marker an end marker completed (paper §3.3's footnote).
    let mut composition = Composition::default();
    let log = LogStream::new(&mut dev)
        .validate(|lsn, rec, end| composition.note(rec, end.raw() - lsn.raw()))
        .map_err(|e| e.to_string())?;
    let intact = log.end_lsn().raw() - log.base_lsn().raw();
    println!(
        "log: {} of {} window bytes intact{}",
        intact,
        window,
        if intact == window {
            ""
        } else {
            " (torn tail — expected after a crash)"
        }
    );
    println!("{}", composition.line(intact));
    match log.last_complete_checkpoint() {
        Some(mark) => println!(
            "log: last complete checkpoint {} (begin marker at {})",
            mark.ckpt.raw(),
            mark.begin_lsn.raw()
        ),
        None => {
            println!("log: NO complete checkpoint marker in the readable window");
            problems += 1;
        }
    }

    // deep verification: dry-run recovery must reproduce the live state.
    // Telemetry is forced on so that if the verify fails, the flight
    // recorder holds the recovery/verification phases that led up to the
    // failure and can be dumped next to the evidence.
    let mut deep_config = config;
    deep_config.telemetry = true;
    match Mmdb::open_dir(deep_config, dir) {
        Ok((mut db, _)) => {
            // what the cold open just above cost in log reads and memory
            let stream = db.obs().with_registry(|r| {
                let peak = r.gauge_value("recovery.log_window_peak_bytes")?;
                Some((peak, r.counter_value("recovery.log_bytes_read")))
            });
            if let Some((peak, read)) = stream.flatten() {
                println!("recovery: log_window_peak_bytes={peak} log_bytes_read={read}");
            }
            match db.verify_recoverability() {
                Ok(report) => println!(
                    "deep verify: dry-run recovery reproduces the live state \
                     (checkpoint {}, {} log words, modeled {:.1}s)",
                    report.ckpt.raw(),
                    report.log_words,
                    report.total_seconds()
                ),
                Err(e) => {
                    println!("deep verify: FAILED — {e}");
                    problems += 1;
                }
            }
            // Any problem dumps the flight recorder next to the
            // evidence: the recovery and verification spans of this
            // very open are what a post-mortem wants to see.
            if problems > 0 {
                if let Ok(Some(path)) = mmdb_core::write_flightrec(db.obs(), dir) {
                    println!("flight recorder dumped to {}", path.display());
                }
            }
        }
        Err(e) => {
            println!("deep verify: cannot open engine — {e}");
            problems += 1;
        }
    }

    Ok(problems)
}

/// What the log window is made of: frames and bytes per frame kind, and
/// log bytes per committed transaction (what `log_amp` is the ratio of).
/// Tallied frame by frame off `fsck`'s validation pass.
#[derive(Default)]
struct Composition {
    tally: [(u64, u64); Composition::KINDS.len()],
    committed: u64,
}

impl Composition {
    const KINDS: [&'static str; 10] = [
        "begin",
        "update",
        "commit",
        "abort",
        "txn-commit",
        "txn-prepare",
        "prepare",
        "decide",
        "ckpt",
        "filler",
    ];

    /// Counts `rec`, a frame of `len` bytes (an older frame is longer
    /// than this build would encode it).
    fn note(&mut self, rec: &LogRecord, len: u64) {
        let kind = match rec {
            LogRecord::TxnBegin { .. } => 0,
            LogRecord::Update { .. } => 1,
            LogRecord::Commit { .. } => 2,
            LogRecord::Abort { .. } => 3,
            LogRecord::TxnCommit { .. } => 4,
            LogRecord::TxnPrepare { .. } => 5,
            LogRecord::Prepare { .. } => 6,
            LogRecord::Decide { .. } => 7,
            LogRecord::BeginCheckpoint { .. } | LogRecord::EndCheckpoint { .. } => 8,
            LogRecord::Compacted { .. } => 9,
        };
        self.tally[kind].0 += 1;
        self.tally[kind].1 += len;
        // a transaction is committed by its `Commit` or `TxnCommit` frame
        if matches!(rec, LogRecord::Commit { .. } | LogRecord::TxnCommit { .. }) {
            self.committed += 1;
        }
    }

    /// The `fsck` line for a window of `valid_len` bytes, which the
    /// per-kind byte totals sum to.
    fn line(&self, valid_len: u64) -> String {
        let mut line = format!("log: composition of {valid_len} bytes (frames/bytes):");
        for (kind, (frames, bytes)) in Composition::KINDS.iter().zip(self.tally) {
            line.push_str(&format!(" {kind}={frames}/{bytes}"));
        }
        line.push_str(&format!(
            "; {:.1} log bytes per committed transaction ({} committed)",
            valid_len as f64 / self.committed.max(1) as f64,
            self.committed
        ));
        line
    }
}

fn cmd_dump(dir: &Path, rest: &[String]) -> Result<(), String> {
    let out: PathBuf = rest.first().ok_or("dump needs <archive-file>")?.into();
    let db = open(dir, persist::load(dir)?, Some(1))
        .map_err(|e| format!("dump archives a 1-shard database only: {e}"))?;
    let info = db
        .with_shard(0, |e| e.dump_archive(&out))
        .map_err(|e| e.to_string())?;
    println!(
        "archived checkpoint {} image plus {} log bytes to {}",
        info.ckpt.raw(),
        info.log_bytes,
        out.display()
    );
    Ok(())
}

fn cmd_restore(dir: &Path, rest: &[String]) -> Result<(), String> {
    let archive: PathBuf = rest.first().ok_or("restore needs <archive-file>")?.into();
    if dir.join(persist::CONFIG_FILE).exists() {
        return Err(format!(
            "{} already contains a database; restore into a fresh directory",
            dir.display()
        ));
    }
    // reconstruct the engine config from the archive's shape, defaulting
    // the algorithm to COUCOPY (the archive does not constrain it)
    let info = mmdb_disk::archive_info(&archive).map_err(|e| e.to_string())?;
    let algorithm: Algorithm = flag_value(rest, "--algorithm")
        .unwrap_or_else(|| "COUCOPY".into())
        .parse()?;
    let mut config = MmdbConfig::small(algorithm);
    config.params.db = info.db;
    if algorithm == Algorithm::FastFuzzy {
        config.params.log_mode = LogMode::StableTail;
    }
    config.validate()?;
    // the archive becomes shard 0 of a 1-shard topology
    let (db, report) = Mmdb::restore_archive_dir(config, &shard_dir(dir, 0), &archive)
        .map_err(|e| e.to_string())?;
    drop(db);
    settle_layout(dir, Some(1)).map_err(|e| e.to_string())?;
    persist::save(&config, dir).map_err(|e| e.to_string())?;
    println!(
        "restored {} from checkpoint {}: {} segments, {} log words, {} txns replayed",
        dir.display(),
        report.ckpt.raw(),
        report.segments_loaded,
        report.log_words,
        report.txns_replayed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_dispatchable_command_once() {
        let text = usage();
        for c in COMMANDS {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{} ", c.name)))
                .unwrap_or_else(|| panic!("usage must list {}", c.name));
            assert!(
                line.contains(c.about),
                "usage line for {} lost its help",
                c.name
            );
            for flag in c.flags {
                assert!(line.contains(flag), "usage line for {} lost {flag}", c.name);
            }
        }
        // no duplicates in the dispatch table (the first match would
        // silently shadow the second)
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len(), "duplicate command name");
    }

    #[test]
    fn telemetry_commands_are_dispatchable() {
        for required in ["stats", "trace"] {
            assert!(
                COMMANDS.iter().any(|c| c.name == required),
                "{required} missing from dispatch table"
            );
        }
    }

    #[test]
    fn module_doc_mentions_every_command_and_flag() {
        // the ```text block at the top of this file is the README-facing
        // synopsis; keep it covering the full command and flag set
        let doc = include_str!("main.rs");
        let synopsis_end = doc.find("mod persist").expect("module body");
        let synopsis = &doc[..synopsis_end];
        for c in COMMANDS {
            let at = synopsis
                .find(&format!("mmdb-cli <dir> {}", c.name))
                .unwrap_or_else(|| panic!("module doc synopsis missing {}", c.name));
            for flag in c.flags {
                let name = flag.split(' ').next().unwrap_or(flag);
                assert!(
                    synopsis[at..].contains(name),
                    "module doc synopsis for {} missing {name}",
                    c.name
                );
            }
        }
    }
}
