//! End-to-end tests of the `mmdb-cli` binary: every invocation is a
//! separate process, so these exercise real file-device recovery between
//! commands.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mmdb-cli")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-cli-test-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cli(dir: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn mmdb-cli")
}

fn ok(dir: &Path, args: &[&str]) -> String {
    let out = cli(dir, args);
    assert!(
        out.status.success(),
        "mmdb-cli {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_lifecycle_across_processes() {
    let dir = tmpdir("lifecycle");
    let out = ok(&dir, &["init", "--algorithm", "COUCOPY"]);
    assert!(out.contains("initialized"), "{out}");

    ok(&dir, &["put", "7", "4242"]);
    let out = ok(&dir, &["get", "7"]);
    assert!(out.contains("record 7 = 4242"), "{out}");

    let out = ok(&dir, &["workload", "150", "--seed", "3"]);
    assert!(out.contains("committed 150 transactions"), "{out}");

    let out = ok(&dir, &["checkpoint"]);
    assert!(out.contains("segments flushed"), "{out}");

    // a put after the checkpoint must survive purely via the log
    ok(&dir, &["put", "9", "777"]);
    let out = ok(&dir, &["get", "9"]);
    assert!(out.contains("record 9 = 777"), "{out}");

    let out = ok(&dir, &["stats"]);
    assert!(out.contains("COUCOPY"), "{out}");
    assert!(out.contains("log disk"), "{out}");
    assert!(out.contains("checksums:  CRC-32C on"), "{out}");

    let out = ok(&dir, &["fsck"]);
    assert!(out.contains("fsck: clean"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn init_refuses_existing_database() {
    let dir = tmpdir("reinit");
    ok(&dir, &["init"]);
    let out = cli(&dir, &["init"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already contains"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commands_fail_cleanly_without_init() {
    let dir = tmpdir("noinit");
    let out = cli(&dir, &["get", "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("init"),
        "should point the user at init: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_algorithm_initializes_and_works() {
    for algorithm in [
        "FUZZYCOPY",
        "2CFLUSH",
        "2CCOPY",
        "COUFLUSH",
        "COUCOPY",
        "FASTFUZZY",
        "COUAC",
    ] {
        let dir = tmpdir(&format!("alg-{algorithm}"));
        ok(&dir, &["init", "--algorithm", algorithm]);
        ok(&dir, &["put", "0", "1"]);
        ok(&dir, &["checkpoint"]);
        let out = ok(&dir, &["get", "0"]);
        assert!(out.contains("record 0 = 1"), "{algorithm}: {out}");
        ok(&dir, &["fsck"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn custom_geometry_respected() {
    let dir = tmpdir("geometry");
    let out = ok(
        &dir,
        &[
            "init",
            "--segments",
            "8",
            "--segment-words",
            "1024",
            "--record-words",
            "16",
        ],
    );
    assert!(out.contains("512 records × 16 words, 8 segments"), "{out}");
    ok(&dir, &["put", "511", "5"]);
    let out = cli(&dir, &["put", "512", "5"]);
    assert!(!out.status.success(), "record out of range must fail");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copies a database directory byte for byte (the recovery twins used
/// by the fingerprint-identity checks).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read src").flatten() {
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

#[test]
fn twin_recoveries_of_one_crash_state_agree() {
    // Recovery is deterministic, end to end through the binary: a twin
    // copy of a directory with a committed-REDO window on top of its
    // checkpoint, recovered by `fsck --compare` against the original,
    // lands on the same storage fingerprint.
    let dir = tmpdir("twin-identity");
    ok(&dir, &["init", "--algorithm", "FUZZYCOPY"]);
    ok(&dir, &["workload", "400", "--seed", "11"]);
    ok(&dir, &["checkpoint"]);
    ok(&dir, &["workload", "300", "--seed", "12"]);
    ok(&dir, &["put", "3", "1234"]);

    let twin = tmpdir("twin-identity-copy");
    copy_dir(&dir, &twin);
    let out = ok(&twin, &["fsck", "--compare", &dir.to_string_lossy()]);
    assert!(out.contains("compare: fingerprints match"), "{out}");
    assert!(out.contains("fsck: clean"), "{out}");
    let _ = std::fs::remove_dir_all(&twin);
    // the recovered state is the real one: the last put survives
    let out = ok(&dir, &["get", "3"]);
    assert!(out.contains("record 3 = 1234"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_command_reports_and_recovery_survives() {
    // Offline `compact`: a hot-set workload makes most frames
    // superseded, rotation seals them cold, and the compact command
    // must report dropped frames — after which the database still
    // opens, fscks clean, and serves the latest values.
    let dir = tmpdir("compact-cmd");
    ok(&dir, &["init", "--algorithm", "COUCOPY"]);
    for round in 0..6 {
        let fill = (100 + round).to_string();
        for rid in ["1", "2", "3"] {
            ok(&dir, &["put", rid, &fill]);
        }
    }
    let out = ok(&dir, &["compact"]);
    assert!(out.contains("chunk(s) rotated"), "{out}");

    // a second, compressed pass over the now-cold chunks
    let out = ok(&dir, &["compact", "--compress"]);
    assert!(out.contains("cold-chunk disk footprint"), "{out}");

    let out = ok(&dir, &["fsck"]);
    assert!(out.contains("fsck: clean"), "{out}");
    let out = ok(&dir, &["get", "2"]);
    assert!(out.contains("record 2 = 105"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_json_round_trips_through_the_snapshot_parser() {
    let dir = tmpdir("stats-json");
    ok(&dir, &["init", "--algorithm", "FUZZYCOPY"]);
    ok(&dir, &["workload", "40", "--seed", "7"]);
    ok(&dir, &["checkpoint"]);
    let out = ok(&dir, &["stats", "--json"]);
    let snap = mmdb_obs::MetricsSnapshot::from_json(&out).expect("stats --json must parse");
    assert_eq!(
        snap.to_json_pretty().trim(),
        out.trim(),
        "parse → re-serialize must be the identity"
    );
    // the snapshot-time merge of the engine stats must be present; the
    // stats invocation is its own process, so its session counters start
    // at zero — but opening the directory recovered from the backup, and
    // both the recovery counter and the segment gauges must show it
    assert!(snap.counter("ckpt.completed").is_some(), "{out}");
    assert_eq!(snap.counter("recovery.runs"), Some(1), "{out}");
    assert!(snap.gauge("seg.total").unwrap_or(0) > 0, "{out}");
    // which CRC-32C kernel ran: the instruction one exactly when the
    // CPU has it, so a silent fallback shows
    let hw = u64::from(mmdb_types::hash::crc32c_hw());
    assert_eq!(snap.gauge("hash.crc32c_hw"), Some(hw), "{out}");
    assert!(
        snap.hist("recovery.backup_load_ns").is_some(),
        "recovery phase histogram missing:\n{out}"
    );
    assert!(snap.paper.is_some(), "paper overhead section missing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_prom_is_valid_exposition_format() {
    let dir = tmpdir("stats-prom");
    ok(&dir, &["init", "--algorithm", "2CCOPY"]);
    ok(&dir, &["workload", "40", "--seed", "7"]);
    ok(&dir, &["checkpoint"]);
    let out = ok(&dir, &["stats", "--prom"]);
    mmdb_obs::validate_prometheus(&out).expect("stats --prom must validate");
    assert!(out.contains("mmdb_ckpt_completed"), "{out}");
    assert!(out.contains("mmdb_paper_ckpt_overhead_per_txn"), "{out}");
    assert!(out.contains("mmdb_hash_crc32c_hw"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_shows_spans_for_every_algorithm() {
    for algorithm in [
        "FUZZYCOPY",
        "2CFLUSH",
        "2CCOPY",
        "COUFLUSH",
        "COUCOPY",
        "FASTFUZZY",
    ] {
        let dir = tmpdir(&format!("trace-{algorithm}"));
        ok(&dir, &["init", "--algorithm", algorithm]);
        let out = ok(&dir, &["trace", "--txns", "30", "--limit", "1000"]);
        for span in ["txn.commit", "ckpt.flush", "ckpt.pass", "log.force"] {
            assert!(out.contains(span), "{algorithm}: no {span} span:\n{out}");
        }
        // the workload txns run under request scopes: each commit's
        // spans nest under a net.request root labeled with the op
        assert!(out.contains("net.request"), "{algorithm}:\n{out}");
        assert!(
            out.contains("  txn.commit"),
            "{algorithm}: txn.commit must nest under its request root:\n{out}"
        );
        assert!(out.contains("recent spans ("), "{algorithm}:\n{out}");
        // the dry-run recoverability check at the end emits the recovery
        // phase spans
        assert!(out.contains("recovery.backup_load"), "{algorithm}:\n{out}");
        assert!(out.contains("recovery.redo_replay"), "{algorithm}:\n{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unknown_subcommand_prints_full_usage_and_fails() {
    let dir = tmpdir("unknown-cmd");
    ok(&dir, &["init"]);
    let out = cli(&dir, &["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in [
        "init",
        "put",
        "get",
        "workload",
        "checkpoint",
        "stats",
        "trace",
        "audit",
        "fsck",
        "dump",
        "restore",
    ] {
        assert!(stderr.contains(name), "usage must list {name}:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_lazy_durability_and_load_rate_are_refused() {
    let dir = tmpdir("retired-lazy-rate");
    let out = cli(&dir, &["init", "--durability", "lazy"]);
    assert!(!out.status.success(), "init --durability lazy must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("expected force|group"), "{stderr}");
    assert!(!dir.join("mmdb.conf").exists(), "nothing initialized");

    ok(&dir, &["init", "--durability", "group"]);
    let out = cli(&dir, &["bench-net", "--rate", "200"]);
    assert!(!out.status.success(), "bench-net --rate must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --rate for bench-net"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_fail_with_the_commands_usage_line() {
    let dir = tmpdir("unknown-flag");
    ok(&dir, &["init"]);
    // two retired options and a typo
    for (args, flag, real) in [
        (vec!["bench-net", "--sweep"], "--sweep", "--connections N"),
        (
            vec!["init", "--segmnets", "4"],
            "--segmnets",
            "--segments N",
        ),
        (
            vec!["fsck", "--recovery-workers", "2"],
            "--recovery-workers",
            "--compare DIR-OR-ADDR",
        ),
    ] {
        let out = cli(&dir, &args);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {}", args[0])),
            "{args:?} must name the flag:\n{stderr}"
        );
        assert!(
            stderr.contains(real),
            "{args:?} must print the command's usage line:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_are_reported() {
    let dir = tmpdir("badargs");
    ok(&dir, &["init"]);
    for bad in [
        vec!["put"],
        vec!["put", "0"],
        vec!["put", "zero", "1"],
        vec!["get"],
        vec!["workload"],
        vec!["frobnicate"],
    ] {
        let out = cli(&dir, &bad);
        assert!(!out.status.success(), "{bad:?} should fail");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frames of `kind` on `fsck`'s log-composition line (`kind=frames/bytes`).
fn composition_frames(fsck: &str, kind: &str) -> u64 {
    let line = fsck
        .lines()
        .find(|l| l.starts_with("log: composition"))
        .unwrap_or_else(|| panic!("no composition line in {fsck}"));
    let entry = line
        .split_whitespace()
        .find_map(|word| word.strip_prefix(&format!("{kind}=")))
        .unwrap_or_else(|| panic!("no {kind} on {line}"));
    let frames = entry.split_once('/').map(|(frames, _)| frames.parse());
    frames.and_then(Result::ok).expect("frames/bytes")
}

#[test]
fn bench_net_self_hosts_commits_everything_and_fails_on_a_dead_addr() {
    let dir = tmpdir("bench-net");
    ok(&dir, &["init", "--algorithm", "2CCOPY"]);
    let out = ok(
        &dir,
        &[
            "bench-net",
            "--connections",
            "8",
            "--txns",
            "15",
            "--updates",
            "3",
            "--zipf",
            "0.7",
            "--seed",
            "9",
        ],
    );
    assert!(out.contains("8 conns × 15 txns"), "{out}");
    assert!(out.contains("zipf) -> 120 committed"), "{out}");
    assert!(out.contains("0 errors"), "{out}");
    // the database survives being served: committed work is durable
    let fsck = ok(&dir, &["fsck"]);
    assert!(fsck.contains("fsck: clean"), "{fsck}");
    // single-shard traffic is one `TxnCommit` frame per transaction: none
    // of the frames a cross-shard branch (or an older binary) writes
    for kind in ["begin", "update", "commit", "abort", "prepare"] {
        assert_eq!(composition_frames(&fsck, kind), 0, "{kind}: {fsck}");
    }
    // (the server's checkpoints truncate the older ones away; the newest
    // are behind at most one complete checkpoint and still there)
    assert!(composition_frames(&fsck, "txn-commit") > 0, "{fsck}");
    assert!(
        fsck.contains("log bytes per committed transaction"),
        "{fsck}"
    );

    // a port nothing listens on: bound, then released
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("probe port")
        .to_string();
    let out = cli(&dir, &["bench-net", "--addr", &dead, "--txns", "1"]);
    assert!(!out.status.success(), "a dead --addr must fail the run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_remote_renders_a_live_servers_span_trees() {
    use std::io::{BufRead, BufReader};

    let dir = tmpdir("trace-remote");
    ok(&dir, &["init", "--algorithm", "FUZZYCOPY"]);

    // slow threshold 1 µs: effectively every request lands in the
    // slow-request log, so the dump deterministically has a tree to show
    let mut child = Command::new(bin())
        .arg(&dir)
        .args(["serve", "--addr", "127.0.0.1:0", "--slow-us", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().expect("first line").expect("readable");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first}"))
        .to_string();

    let mut client = mmdb_wire::Client::connect(&addr).expect("connect");
    client.set_tracing(true);
    let words = client.info().expect("info").record_words as usize;
    client
        .put(mmdb_core::RecordId(3), &vec![5u32; words])
        .expect("traced put");

    // `trace --remote` renders the server's flight recorder with the
    // same formatter the local path uses
    let out = ok(&dir, &["trace", "--remote", &addr]);
    assert!(out.contains("slow requests (threshold 1 us)"), "{out}");
    assert!(out.contains("op=put"), "{out}");
    assert!(out.contains("net.request"), "{out}");
    assert!(out.contains("recent spans ("), "{out}");

    // identity with the shared formatter: fetching the same dump over
    // the wire and rendering it locally gives the same text shape
    let json = client.trace_dump(512).expect("trace dump");
    let doc = mmdb_core::TraceDumpDoc::from_json(&json).expect("parse dump");
    let rendered = doc.render();
    assert!(rendered.contains("op=put"), "{rendered}");

    client.shutdown().expect("graceful shutdown");
    child.wait().expect("serve exits");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_announces_its_port_and_shuts_down_over_the_wire() {
    use std::io::{BufRead, BufReader};

    let dir = tmpdir("serve");
    ok(&dir, &["init", "--algorithm", "COUCOPY"]);

    let mut child = Command::new(bin())
        .arg(&dir)
        .args(["serve", "--addr", "127.0.0.1:0", "--ckpt-ms", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("serve printed a line")
        .expect("readable line");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {first}"))
        .to_string();

    let mut client = mmdb_wire::Client::connect(&addr).expect("connect to serve");
    client.ping().expect("ping");
    let words = client.info().expect("info").record_words as usize;
    let (_txn, _runs) = client
        .put(mmdb_core::RecordId(1), &vec![77u32; words])
        .expect("put over the wire");
    client.shutdown().expect("graceful shutdown");
    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve should exit cleanly after Shutdown");

    // the commit that was acked over the wire is durable
    let out = ok(&dir, &["get", "1"]);
    assert!(out.contains("record 1 = 77"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The storage fingerprint `dir` opens to (`fsck --compare` against
/// itself).
fn fingerprint(dir: &Path) -> String {
    let out = ok(dir, &["fsck", "--compare", &dir.to_string_lossy()]);
    let line = (out.lines())
        .find_map(|l| l.strip_prefix("compare: fingerprints match ("))
        .unwrap_or_else(|| panic!("no fingerprint in {out}"));
    line.trim_end_matches(')').to_string()
}

/// Asserts no engine file sits at the root of `dir`: every engine lives
/// in its shard directory.
fn assert_no_root_engine(dir: &Path, after: &str) {
    for file in ["log", "backup.0", "backup.1"] {
        assert!(!dir.join(file).exists(), "{after} left {file} at the root");
    }
}

#[test]
fn every_command_on_a_sharded_directory_works_on_its_shards() {
    let dir = tmpdir("no-stray-engine");
    ok(&dir, &["init", "--shards", "2"]);
    let before = fingerprint(&dir);

    ok(&dir, &["workload", "10"]);
    assert_no_root_engine(&dir, "workload");
    assert_ne!(
        fingerprint(&dir),
        before,
        "workload's commits must reach the shards"
    );
    ok(&dir, &["checkpoint"]);
    assert_no_root_engine(&dir, "checkpoint");
    let out = ok(&dir, &["stats", "--json"]);
    let snap = mmdb_obs::MetricsSnapshot::from_json(&out).expect("stats --json must parse");
    assert_eq!(snap.gauge("shard.count"), Some(2), "{out}");
    assert_no_root_engine(&dir, "stats");
    let out = ok(&dir, &["trace", "--txns", "10", "--json"]);
    let doc = mmdb_obs::TraceDumpDoc::from_json(&out).expect("one trace document");
    assert!(
        doc.recent.iter().any(|s| s.name == "ckpt.pass"),
        "the dump carries the shards' checkpoint passes"
    );
    assert_no_root_engine(&dir, "trace");
    let out = ok(&dir, &["audit", "--txns", "10"]);
    assert_eq!(out.matches("audit: clean").count(), 2, "{out}");
    assert_no_root_engine(&dir, "audit");

    let archive = dir.join("archive.mmdb");
    let out = cli(&dir, &["dump", &archive.to_string_lossy()]);
    assert!(
        !out.status.success(),
        "dump of a 2-shard database must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sharded 2 ways"), "{stderr}");
    assert!(!archive.exists(), "no archive written");
    assert_no_root_engine(&dir, "dump");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_net_refuses_a_shard_count_the_directory_does_not_pin() {
    let dir = tmpdir("bench-net-shards");
    ok(&dir, &["init"]);
    ok(&dir, &["put", "5", "77"]);
    let out = cli(&dir, &["bench-net", "--shards", "2", "--txns", "1"]);
    assert!(!out.status.success(), "a 1-shard directory served as 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to open with 2"), "{stderr}");
    let out = ok(&dir, &["get", "5"]);
    assert!(out.contains("record 5 = 77"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file and directory under `dir`, with file contents.
fn tree(dir: &Path) -> std::collections::BTreeMap<PathBuf, Option<Vec<u8>>> {
    let mut all = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            all.extend(tree(&path));
            all.insert(path, None);
        } else {
            all.insert(path.clone(), Some(std::fs::read(&path).expect("read file")));
        }
    }
    all
}

#[test]
fn a_directory_from_before_the_marker_moves_into_shard_0_once() {
    let dir = tmpdir("pre-marker");
    ok(&dir, &["init"]);
    ok(&dir, &["put", "5", "77"]);
    let fp = fingerprint(&dir);
    // the layout an unsharded directory had: one engine at the root
    let shard0 = mmdb_shard::shard_dir(&dir, 0);
    for entry in std::fs::read_dir(&shard0).expect("shard 0").flatten() {
        std::fs::rename(entry.path(), dir.join(entry.file_name())).expect("move to root");
    }
    std::fs::remove_dir(&shard0).expect("empty shard 0");
    std::fs::remove_file(dir.join(mmdb_shard::TOPOLOGY_FILE)).expect("marker");
    assert!(dir.join("log").is_dir() && dir.join("backup.0").is_file());
    let interrupted = tmpdir("pre-marker-interrupted");
    copy_dir(&dir, &interrupted);
    let refused = tmpdir("pre-marker-refused");
    copy_dir(&dir, &refused);

    let out = ok(&dir, &["get", "5"]);
    assert!(out.contains("record 5 = 77"), "{out}");
    assert_eq!(fingerprint(&dir), fp);
    assert_no_root_engine(&dir, "the move");
    for file in ["log", "backup.0", "backup.1"] {
        assert!(shard0.join(file).exists(), "{file} moved into shard 0");
    }
    assert_eq!(mmdb_shard::settle_layout(&dir, None).expect("marker"), 1);

    // a move cut short after the log: the next open finishes it
    let shard0 = mmdb_shard::shard_dir(&interrupted, 0);
    std::fs::create_dir(&shard0).expect("shard 0");
    std::fs::rename(interrupted.join("log"), shard0.join("log")).expect("move log");
    let out = ok(&interrupted, &["get", "5"]);
    assert!(out.contains("record 5 = 77"), "{out}");
    assert_no_root_engine(&interrupted, "the finished move");
    assert_eq!(fingerprint(&interrupted), fp);

    // opened as 2 shards, the directory is refused and left untouched
    let before = tree(&refused);
    let out = cli(&refused, &["bench-net", "--shards", "2", "--txns", "1"]);
    assert!(!out.status.success(), "a 1-shard directory served as 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("refusing to open it with 2 shards"),
        "{stderr}"
    );
    assert!(before == tree(&refused), "the refused open changed files");

    for d in [&dir, &interrupted, &refused] {
        let _ = std::fs::remove_dir_all(d);
    }
}
