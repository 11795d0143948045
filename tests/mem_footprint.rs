//! One copy of the database: the whole process — engine, log, backup
//! buffers, test harness — peaks at little more than the database
//! itself. A second resident copy of the records (a plain segment array
//! beside the seqlock store, a second `Storage` during recovery) pushes
//! the peak past 2 × and fails this.
//!
//! `VmHWM` is the process's peak resident set, so this file holds one
//! test and nothing else: a neighbour's allocations would count.

#![cfg(target_os = "linux")]
// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::{Algorithm, Mmdb, MmdbConfig, RecordId};

const SEGMENTS: u64 = 512;
const S_SEG: u64 = 8192;
const S_REC: u64 = 32;
const DB_BYTES: u64 = SEGMENTS * S_SEG * 4; // 16 MiB
const MIB: u64 = 1 << 20;

fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).unwrap();
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

#[test]
fn a_filled_checkpointed_engine_peaks_near_one_database() {
    let dir = std::env::temp_dir().join(format!("mmdb-footprint-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = MmdbConfig::new(Algorithm::CouCopy);
    cfg.params.db.s_rec = S_REC;
    cfg.params.db.s_seg = S_SEG;
    cfg.params.db.s_db = SEGMENTS * S_SEG;

    let (mut db, _) = Mmdb::open_dir(cfg, &dir).unwrap();
    let n_records = db.n_records();
    assert_eq!(n_records * S_REC * 4, DB_BYTES);
    // fill: every record written once, 64 records a transaction
    for first in (0..n_records).step_by(64) {
        let updates: Vec<_> = (first..first + 64)
            .map(|rid| (RecordId(rid), vec![rid as u32 | 1; S_REC as usize]))
            .collect();
        db.run_txn(&updates).unwrap();
    }
    // both ping-pong copies written in full
    assert_eq!(db.checkpoint().unwrap().segments_flushed, SEGMENTS);
    assert_eq!(db.checkpoint().unwrap().segments_flushed, SEGMENTS);
    let fingerprint = db.fingerprint();

    // and a cold open recovers into one database too
    drop(db);
    let (db, report) = Mmdb::open_dir(cfg, &dir).unwrap();
    assert!(report.is_some());
    assert_eq!(db.fingerprint(), fingerprint);

    // Measured on the 2-vCPU CI-shaped host: 20-21 MiB with one copy
    // (records 16 + sequence counters 1 + process 3-4), 36-37 MiB with
    // the plain segment array still beside the store.
    let peak = peak_rss_bytes();
    let bound = DB_BYTES * 135 / 100 + 8 * MIB;
    assert!(
        peak < bound,
        "peak RSS {} MiB is not under 1.35 x {} MiB + 8 MiB = {} MiB",
        peak / MIB,
        DB_BYTES / MIB,
        bound / MIB
    );
    std::fs::remove_dir_all(&dir).ok();
}
