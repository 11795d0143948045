//! `crash_recover`: recovery-dominated. It runs in rounds, so that every
//! metric samples the whole length of the run and not one stretch of it.
//! One round:
//!
//! a. dirty every segment with one single-update transaction each, then
//!    take two full checkpoint passes (one per ping-pong copy), which
//!    write all 64 MiB twice and truncate the log down to nothing;
//! b. commit 5-update uniform transactions with **no** checkpoint
//!    running: the checkpoint-free baseline for `embedded_update`, and
//!    the log tail recovery must replay;
//! c. crash and cold-open the directory, replaying exactly that tail;
//!    the recovered fingerprint must equal the committed one.
//!
//! Half of the other setups `setup_s` needs precede the first round and
//! half follow the last.

use crate::common::{self, err, CkptDelta, CkptDriver, LogCount, Opts, Outcome, Res, Scratch};
use crate::config::{self, rate, N_RU, RECORD_BYTES, S_REC, S_SEG};
use crate::gen;
use crate::hist::{peak_rss_bytes, Hist};
use crate::trace::{self, Tracer};
use mmdb::{CommitDurability, Mmdb, MmdbConfig, RecordId};
use rand::RngExt;
use std::path::Path;
use std::time::Instant;

fn config() -> MmdbConfig {
    common::full_config(CommitDurability::Force)
}

/// Rounds of this run: ten at least, so that `recovery_s` is a median of
/// ten cold opens or more.
fn rounds(opts: &Opts) -> u64 {
    if opts.quick {
        2
    } else {
        ((rate::CRASH_RECOVER_ROUNDS * opts.seconds as f64).round() as u64).max(10)
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, scratch: &Scratch, tr: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::new();
    let setup = |dir: &Path| common::setup_embedded(config(), dir, opts.seed);
    out.setup_s = common::throwaway_setups(opts.setups_before(), scratch, setup, drop)?;
    let (mut db, dir, setup_s) = common::timed_setup(scratch, tr, setup)?;
    out.setup_s.push(setup_s);

    let (op, run_txn) = (trace::name("bench.op"), trace::name("core.run_txn"));
    let (crash, open_dir) = (trace::name("core.crash"), trace::name("core.open_dir"));
    let verify = trace::name("bench.verify");
    let mut rng = gen::rng(opts.seed, 0);
    let n_records = db.n_records();
    let recs_per_seg = S_SEG / S_REC as u64;
    let mut one = gen::updates_buffer(1);
    let mut five = gen::updates_buffer(N_RU);
    let mut seq = 0u64;

    let rounds = rounds(opts);
    let txns_per_round = opts.fixed(rate::CRASH_RECOVER_TXNS_PER_ROUND);
    for _ in 0..opts.warmup(txns_per_round * rounds) {
        seq += 1;
        gen::uniform_txn(&mut five, &mut rng, 0, seq, n_records);
        db.run_txn(&five).map_err(err("run_txn"))?;
    }

    let mut off = Tracer::off();
    let mut untimed = Hist::new();
    let mut ckpt_passes = Vec::new();
    let mut log = LogCount::default();
    let mut ckpt = CkptDelta::default();
    // Phase b's transactions and time in the untraced and the traced rounds.
    let mut halves = [(0u64, 0.0f64); 2];
    let mut traced_wall_s = 0.0;
    let start = Instant::now();
    for round in 0..rounds {
        let traced = opts.trace && round >= rounds / 2;
        let tr: &mut Tracer = if traced { &mut *tr } else { &mut off };
        if traced && round == rounds / 2 {
            tr.reset_aggregates();
        }
        let round_start = Instant::now();
        // The engine is fresh from `open_dir` in every round but the
        // first, so its counters are read per round.
        let (log0, ckpt0) = (LogCount::of(&db), CkptDelta::of(&db));

        // a.
        for seg in 0..config::N_SEGMENTS {
            seq += 1;
            one[0].0 = RecordId(seg * recs_per_seg + rng.random_range(0..recs_per_seg));
            one[0].1.fill(gen::fill_word(0, seq, 0));
            tr.open(op, seq);
            let run = tr.span(run_txn, seq, || db.run_txn(&one));
            tr.close();
            run.map_err(err("run_txn"))?;
        }
        let mut driver = CkptDriver::new();
        tr.open(op, seq);
        for _ in 0..2 {
            driver.finish_pass(&mut db, tr)?;
        }
        tr.close();
        out.ckpt_busy_s += driver.busy_ns as f64 / 1e9;
        ckpt_passes.append(&mut driver.passes);

        // b. The latencies of the traced rounds are not the run's own.
        let lat = if traced {
            &mut untimed
        } else {
            &mut out.latency
        };
        let t = Instant::now();
        for _ in 0..txns_per_round {
            seq += 1;
            gen::uniform_txn(&mut five, &mut rng, 0, seq, n_records);
            tr.open(op, seq);
            let t = Instant::now();
            let run = tr.span(run_txn, seq, || db.run_txn(&five));
            lat.record(t.elapsed().as_nanos() as u64);
            tr.close();
            run.map_err(err("run_txn"))?;
        }
        let half = &mut halves[traced as usize];
        half.0 += txns_per_round;
        half.1 += t.elapsed().as_secs_f64();
        let (log1, ckpt1) = (LogCount::of(&db), CkptDelta::of(&db));
        log = log.plus(log1.since(log0));
        ckpt = ckpt.plus(ckpt1.since(ckpt0));

        // c.
        let committed = tr.span(verify, round, || db.fingerprint());
        tr.span(crash, round, || db.crash()).map_err(err("crash"))?;
        drop(db);
        let t = Instant::now();
        let opened = tr.span(open_dir, round, || Mmdb::open_dir(config(), &dir));
        out.recovery_s.push(t.elapsed().as_secs_f64());
        let (reopened, report) = opened.map_err(err("cold open_dir"))?;
        db = reopened;
        let replayed = report.map_or(0, |r| r.txns_replayed);
        let recovered = tr.span(verify, round, || db.fingerprint());
        if recovered != committed || replayed != txns_per_round {
            out.fail(format!(
                "round {round}: recovered fingerprint {recovered:#x} (committed {committed:#x}), {replayed} of {txns_per_round} transactions replayed"
            ));
        }
        if traced {
            traced_wall_s += round_start.elapsed().as_secs_f64();
        }
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_rss_bytes = peak_rss_bytes()?;
    (out.timed_ops, out.phase_s) = halves[0];
    if opts.trace {
        out.traced_ops_per_s = Some(halves[1].0 as f64 / halves[1].1);
        out.span_coverage = Some(tr.top_level_ns() as f64 / 1e9 / traced_wall_s);
    }
    out.attempted = (config::N_SEGMENTS + txns_per_round) * rounds;
    out.user_bytes = (config::N_SEGMENTS + txns_per_round * N_RU as u64) * rounds * RECORD_BYTES;
    out.log = log;
    out.ckpt = ckpt;
    out.ckpt_passes = ckpt_passes.len() as u64;
    out.ckpt_pass_s = ckpt_passes;
    drop(db);
    out.setup_s.append(&mut common::throwaway_setups(
        opts.setups_after(),
        scratch,
        setup,
        drop,
    )?);
    Ok(out)
}
