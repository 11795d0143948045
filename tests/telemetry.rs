//! The telemetry layer's three load-bearing contracts, checked for every
//! algorithm:
//!
//! 1. **Reconciliation** — the `paper` section of a `MetricsSnapshot`
//!    must equal the engine's own `OverheadReport` *exactly* (bit-equal
//!    f64s, not approximately): both are derived from the same meters,
//!    so any drift means the telemetry layer double-counts or drops
//!    cost terms.
//! 2. **Zero cost when disabled** — running the identical seeded
//!    workload with telemetry on and off must produce identical
//!    database fingerprints and identical paper-cost totals. Telemetry
//!    observes; it must never perturb.
//! 3. **One recorder** — an enabled engine records each timed span
//!    exactly once: one flight-recorder event, one histogram sample,
//!    from one measurement, carrying the span's numeric detail.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::obs::{DumpSpan, TraceDumpDoc};
use mmdb::{Algorithm, LogMode, Mmdb, MmdbConfig, RecordId, StepOutcome};

fn config(algorithm: Algorithm, telemetry: bool) -> MmdbConfig {
    let mut cfg = MmdbConfig::small(algorithm);
    if algorithm == Algorithm::FastFuzzy {
        cfg.params.log_mode = LogMode::StableTail;
    }
    cfg.telemetry = telemetry;
    cfg
}

fn val(db: &Mmdb, fill: u32) -> Vec<u32> {
    vec![fill; db.record_words()]
}

/// A fixed seeded workload: commits, two checkpoints (one raced by
/// commits), a crash, and a recovery — enough to exercise every meter.
fn drive(db: &mut Mmdb, seed: u64) {
    for i in 0..50u64 {
        db.run_txn(&[(RecordId((i * 37 + seed) % 2048), val(db, 100 + i as u32))])
            .unwrap();
    }
    db.checkpoint().unwrap();
    db.try_begin_checkpoint().unwrap();
    let mut step = 0u64;
    while db.is_checkpoint_active() {
        db.run_txn(&[(
            RecordId((step * 29 + seed + 11) % 2048),
            val(db, 900 + step as u32),
        )])
        .unwrap();
        if let StepOutcome::WaitingForLog = db.checkpoint_step().unwrap() {
            db.force_log().unwrap();
        }
        step += 1;
    }
    db.crash().unwrap();
    db.recover().unwrap();
    for i in 0..10u64 {
        db.run_txn(&[(RecordId((i * 53 + seed) % 2048), val(db, 500 + i as u32))])
            .unwrap();
    }
}

#[test]
fn snapshot_paper_section_reconciles_with_overhead_report_exactly() {
    for algorithm in Algorithm::ALL_EXTENDED {
        let mut db = Mmdb::open_in_memory(config(algorithm, true)).unwrap();
        drive(&mut db, 7);

        let report = db.overhead_report();
        let snap = db.metrics_snapshot();
        let paper = snap
            .paper
            .as_ref()
            .unwrap_or_else(|| panic!("{algorithm}: snapshot must carry the paper section"));

        assert!(report.committed > 0, "{algorithm}: workload must commit");
        assert_eq!(paper.committed, report.committed, "{algorithm}");
        assert_eq!(
            paper.sync_ckpt_total,
            report.sync_ckpt.total(),
            "{algorithm}"
        );
        assert_eq!(
            paper.async_ckpt_total,
            report.async_ckpt.total(),
            "{algorithm}"
        );
        assert_eq!(paper.logging_total, report.logging.total(), "{algorithm}");
        assert_eq!(paper.base_total, report.base.total(), "{algorithm}");
        // exact f64 equality is intentional: same meters, same arithmetic
        assert_eq!(
            paper.sync_ckpt_per_txn,
            report.sync_per_txn(),
            "{algorithm}"
        );
        assert_eq!(
            paper.async_ckpt_per_txn,
            report.async_per_txn(),
            "{algorithm}"
        );
        assert_eq!(
            paper.logging_per_txn,
            report.logging.total() as f64 / report.committed as f64,
            "{algorithm}"
        );
        assert_eq!(
            paper.ckpt_overhead_per_txn,
            report.ckpt_overhead_per_txn(),
            "{algorithm}"
        );

        // the same numbers must survive the JSON round trip
        let parsed = mmdb::obs::MetricsSnapshot::from_json(&snap.to_json_pretty()).unwrap();
        assert_eq!(parsed.paper.as_ref(), Some(paper), "{algorithm}");
    }
}

#[test]
fn snapshot_counters_match_engine_session_stats() {
    for algorithm in Algorithm::ALL_EXTENDED {
        let mut db = Mmdb::open_in_memory(config(algorithm, true)).unwrap();
        drive(&mut db, 13);

        let snap = db.metrics_snapshot();
        let txn = db.txn_stats();
        let ckpt = db.ckpt_stats();
        let log = db.log_stats();
        assert_eq!(
            snap.counter("txn.committed"),
            Some(txn.committed),
            "{algorithm}"
        );
        assert_eq!(snap.counter("txn.begun"), Some(txn.begun), "{algorithm}");
        assert_eq!(
            snap.counter("ckpt.completed"),
            Some(ckpt.completed),
            "{algorithm}"
        );
        assert_eq!(
            snap.counter("ckpt.segments_flushed"),
            Some(ckpt.segments_flushed),
            "{algorithm}"
        );
        assert_eq!(
            snap.counter("log.records"),
            Some(log.records),
            "{algorithm}"
        );
        assert_eq!(snap.counter("recovery.runs"), Some(1), "{algorithm}");
        // the crash-and-recover in the workload emits both recovery spans
        assert!(
            snap.hist("recovery.backup_load_ns").is_some()
                && snap.hist("recovery.redo_replay_ns").is_some(),
            "{algorithm}: recovery phase histograms missing"
        );
    }
}

#[test]
fn disabled_telemetry_is_invisible_to_the_engine() {
    for algorithm in Algorithm::ALL_EXTENDED {
        let mut on = Mmdb::open_in_memory(config(algorithm, true)).unwrap();
        let mut off = Mmdb::open_in_memory(config(algorithm, false)).unwrap();
        drive(&mut on, 21);
        drive(&mut off, 21);

        assert!(on.is_observed(), "{algorithm}");
        assert!(!off.is_observed(), "{algorithm}");
        assert_eq!(
            on.fingerprint(),
            off.fingerprint(),
            "{algorithm}: telemetry must not change execution"
        );
        let (ron, roff) = (on.overhead_report(), off.overhead_report());
        assert_eq!(ron.committed, roff.committed, "{algorithm}");
        assert_eq!(ron.sync_ckpt.total(), roff.sync_ckpt.total(), "{algorithm}");
        assert_eq!(
            ron.async_ckpt.total(),
            roff.async_ckpt.total(),
            "{algorithm}"
        );
        assert_eq!(ron.logging.total(), roff.logging.total(), "{algorithm}");

        // disabled: no samples recorded, but the snapshot still carries
        // the engine-side stats and paper section
        let snap = off.metrics_snapshot();
        assert!(snap.hists.is_empty(), "{algorithm}: no histograms when off");
        assert_eq!(
            snap.counter("txn.committed"),
            Some(ron.committed),
            "{algorithm}"
        );
        assert!(snap.paper.is_some(), "{algorithm}");
        let dump = TraceDumpDoc::capture(off.obs(), 100);
        assert!(
            dump.recorded == 0 && dump.recent.is_empty() && dump.slow.is_empty(),
            "{algorithm}"
        );
    }
}

/// The numeric detail a dumped span carries (`"<op> detail=<n>"`; a zero
/// detail is not printed).
fn detail(span: &DumpSpan) -> u64 {
    span.label
        .split_once(" detail=")
        .map_or(0, |(_, n)| n.parse().unwrap())
}

#[test]
fn each_engine_span_is_recorded_exactly_once_with_its_detail() {
    for algorithm in Algorithm::ALL_EXTENDED {
        let mut db = Mmdb::open_in_memory(config(algorithm, true)).unwrap();
        // short enough that no per-thread ring wraps
        for i in 0..30u64 {
            db.run_txn(&[(RecordId(i * 67 % 2048), val(&db, 1 + i as u32))])
                .unwrap();
        }
        db.checkpoint().unwrap();
        for i in 0..5u64 {
            db.run_txn(&[(RecordId(i * 131 % 2048), val(&db, 70 + i as u32))])
                .unwrap();
        }

        let dump = TraceDumpDoc::capture(db.obs(), 4096);
        assert_eq!(dump.dropped, 0, "{algorithm}: a ring wrapped");
        assert_eq!(dump.recorded, dump.recent.len() as u64, "{algorithm}");
        let named = |name: &'static str| dump.recent.iter().filter(move |s| s.name == name);

        // one interval, one event, one histogram sample
        let snap = db.metrics_snapshot();
        let committed = snap.counter("txn.committed").unwrap();
        assert_eq!(committed, 35, "{algorithm}");
        assert_eq!(named("txn.commit").count() as u64, committed, "{algorithm}");
        assert_eq!(
            snap.hist("txn.commit_ns").unwrap().count,
            committed,
            "{algorithm}"
        );
        let commit_ns: u64 = named("txn.commit").map(|s| s.dur_ns).sum();
        assert_eq!(snap.hist("txn.commit_ns").unwrap().sum, commit_ns);
        assert!(named("txn.commit").all(|s| detail(s) > 0), "{algorithm}");

        let flushed = snap.counter("ckpt.segments_flushed").unwrap();
        assert!(flushed > 0, "{algorithm}");
        assert_eq!(named("ckpt.flush").count() as u64, flushed, "{algorithm}");
        assert!(
            named("ckpt.flush").all(|s| detail(s) < db.n_segments()),
            "{algorithm}: ckpt.flush detail is a segment id"
        );
        assert_eq!(named("ckpt.pass").count(), 1, "{algorithm}");

        assert!(named("log.force").count() > 0, "{algorithm}");
        assert!(
            named("log.force").all(|s| detail(s) > 0),
            "{algorithm}: log.force carries its byte count"
        );
    }
}
