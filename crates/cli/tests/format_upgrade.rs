//! Upgrade across the log-frame format change. `tests/fixtures/
//! legacy-log-2shard` is a 2-shard directory an `mmdb-cli` from before
//! the CRC-32C frame envelope wrote, with 4 KiB log chunks: single-shard
//! and cross-shard batches over the wire, then a SIGKILL. This binary must recover it to the
//! fingerprint it had, carry on writing new frames behind the old ones,
//! recover that mixed log, and compact it, without changing what it
//! recovers to.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mmdb_log::{LogDevice, LogStream, SegmentedLogDevice};
use mmdb_wire::Client;

/// What the fixture recovers to, as the binary that wrote it reported.
const FIXTURE_FINGERPRINT: u64 = 0xe5e6_1159_7017_2b22;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mmdb-cli")
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy-log-2shard")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb-upgrade-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn ok(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(bin())
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn mmdb-cli");
    assert!(
        out.status.success(),
        "mmdb-cli {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The fingerprint `dir` recovers to: `fsck --compare` against a twin
/// copy of it, which must come out clean. Checks every composition line
/// of that fsck against its window length.
fn recovered_fingerprint(dir: &Path, twin: &Path) -> u64 {
    let _ = std::fs::remove_dir_all(twin);
    copy_dir(dir, twin);
    let fsck = ok(
        dir,
        &["fsck", "--compare", twin.to_str().expect("utf-8 path")],
    );
    assert!(fsck.contains("fsck: clean"), "{fsck}");
    composition_sums_to_window(&fsck);
    let line = (fsck.lines())
        .find_map(|l| l.strip_prefix("compare: fingerprints match ("))
        .unwrap_or_else(|| panic!("no fingerprint in {fsck}"));
    let hex = line.trim_end_matches(')').trim_start_matches("0x");
    u64::from_str_radix(hex, 16).expect("hex fingerprint")
}

/// Every shard's per-kind byte totals sum to its intact window length.
fn composition_sums_to_window(fsck: &str) {
    let lines: Vec<_> = fsck
        .lines()
        .filter(|l| l.starts_with("log: composition"))
        .collect();
    assert_eq!(lines.len(), 2, "{fsck}");
    for line in lines {
        let window: u64 = (line.split(' ').nth(3))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no window length in {line}"));
        let bytes: u64 = (line.split(' ').filter(|t| t.contains('=')))
            .filter_map(|t| t.trim_end_matches(';').split_once('/'))
            .map(|(_, bytes)| bytes.parse::<u64>().expect("byte count"))
            .sum();
        assert_eq!(bytes, window, "{line}");
    }
}

/// Whether shard `i`'s readable log starts with an older frame and ends
/// with a new one.
fn log_is_mixed(dir: &Path, i: usize) -> bool {
    let log = dir.join(format!("shard.{i}/log"));
    let mut dev = SegmentedLogDevice::open(&log, mmdb_log::DEFAULT_CHUNK_BYTES, false)
        .expect("open shard log");
    let mut last = None;
    let window = (LogStream::new(&mut dev))
        .validate(|lsn, _, _| last = Some(lsn))
        .expect("scan");
    let last = last.expect("frames");
    let mut envelope = |lsn: u64| {
        let mut head = [0u8; 4];
        dev.read_at(lsn, &mut head).expect("read header");
        u32::from_le_bytes(head) >> 31
    };
    envelope(window.base_lsn().raw()) == 0 && envelope(last.raw()) == 1
}

#[test]
fn a_pre_crc_directory_recovers_carries_on_and_compacts_to_the_same_state() {
    let dir = tmpdir("dir");
    let twin = tmpdir("twin");
    copy_dir(&fixture(), &dir);

    // 1: the older log alone recovers to the fixture's fingerprint
    assert_eq!(recovered_fingerprint(&dir, &twin), FIXTURE_FINGERPRINT);

    // 2: more single- and cross-shard commits over the wire, a SIGKILL
    let mut child = Command::new(bin())
        .arg(&dir)
        .args(["serve", "--addr", "127.0.0.1:0", "--ckpt-ms", "60000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    reader
        .read_line(&mut banner)
        .expect("serve prints its address");
    let addr = banner
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {banner}"))
        .to_string();
    let load = [
        "bench-net",
        "--addr",
        &addr,
        "--connections",
        "2",
        "--txns",
        "20",
        "--updates",
        "3",
        "--cross",
        "0.5",
        "--seed",
        "11",
    ];
    ok(&dir, &load);
    let live = Client::connect(&addr)
        .expect("connect")
        .fingerprint()
        .expect("live fingerprint");
    child.kill().expect("SIGKILL serve");
    child.wait().expect("reap serve");
    drop(reader);
    assert_ne!(live, FIXTURE_FINGERPRINT);
    // both shards' logs now hold both envelopes
    assert!(log_is_mixed(&dir, 0) && log_is_mixed(&dir, 1));

    // the mixed log recovers to what the server acknowledged
    assert_eq!(recovered_fingerprint(&dir, &twin), live);

    // 3: compaction over the mixed log (4 KiB chunks: older frames sit
    // in cold chunks above the truncation point) recovers to the same
    // state
    let compact = ok(&dir, &["compact"]);
    assert!(!compact.contains(" 0 frames dropped"), "{compact}");
    assert_eq!(recovered_fingerprint(&dir, &twin), live);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin);
}
