//! `embedded_update`: the paper's own experiment. One thread commits
//! 5-update uniform transactions under `Force` durability into an
//! in-process `Mmdb`, takes one `checkpoint_step` after every 8
//! transactions and begins the next checkpoint as soon as one completes.
//! The triggers are counts, so log bytes, segments flushed and COU copies
//! repeat exactly for a seed.

use crate::common::{self, err, CkptDelta, CkptDriver, LogCount, Opts, Outcome, Res, Scratch};
use crate::config::{rate, N_RU, RECORD_BYTES};
use crate::gen;
use crate::hist::{peak_rss_bytes, Hist};
use crate::trace::{self, Tracer};
use mmdb::{CommitDurability, Mmdb, MmdbConfig};
use std::path::Path;
use std::time::Instant;

/// The transaction loop shared with the telemetry-overhead measurement.
pub struct Loop {
    rng: rand::rngs::StdRng,
    updates: gen::Updates,
    seq: u64,
    /// Checkpoint driver (one tick per `TXNS_PER_STEP` transactions).
    pub ckpt: CkptDriver,
    op: trace::Name,
    run_txn: trace::Name,
}

impl Loop {
    /// A loop whose inputs derive from `seed`.
    pub fn new(seed: u64) -> Loop {
        Loop {
            rng: gen::rng(seed, 0),
            updates: gen::updates_buffer(N_RU),
            seq: 0,
            ckpt: CkptDriver::new(),
            op: trace::name("bench.op"),
            run_txn: trace::name("core.run_txn"),
        }
    }

    /// Runs `n` transactions, recording each one's latency.
    pub fn run(&mut self, db: &mut Mmdb, n: u64, tr: &mut Tracer, lat: &mut Hist) -> Res<()> {
        let n_records = db.n_records();
        for _ in 0..n {
            self.seq += 1;
            gen::uniform_txn(&mut self.updates, &mut self.rng, 0, self.seq, n_records);
            tr.open(self.op, self.seq);
            let t = Instant::now();
            let run = tr.span(self.run_txn, self.seq, || db.run_txn(&self.updates));
            lat.record(t.elapsed().as_nanos() as u64);
            run.map_err(err("run_txn"))?;
            if self.seq.is_multiple_of(rate::EMBEDDED_UPDATE_TXNS_PER_STEP) {
                self.ckpt.tick(db, tr, self.seq)?;
            }
            tr.close();
        }
        Ok(())
    }
}

fn config() -> MmdbConfig {
    common::full_config(CommitDurability::Force)
}

/// Runs the workload.
pub fn run(opts: &Opts, scratch: &Scratch, tr: &mut Tracer) -> Res<Outcome> {
    let mut out = Outcome::new();
    let setup = |dir: &Path| common::setup_embedded(config(), dir, opts.seed);
    out.setup_s = common::throwaway_setups(opts.setups_before(), scratch, setup, drop)?;
    let (mut db, dir, setup_s) = common::timed_setup(scratch, tr, setup)?;
    out.setup_s.push(setup_s);

    let txns = opts.ops(rate::EMBEDDED_UPDATE_TXNS);
    let mut lp = Loop::new(opts.seed);
    lp.run(
        &mut db,
        opts.warmup(txns),
        &mut Tracer::off(),
        &mut Hist::new(),
    )?;
    lp.ckpt.reset();

    let log0 = LogCount::of(&db);
    let ckpt0 = CkptDelta::of(&db);
    let start = Instant::now();
    if opts.trace {
        // First half untraced, second half traced: the first gives the
        // run's own op rate and latencies, and the ratio of the two rates
        // is the tracing overhead, measured inside one process.
        out.timed_ops = txns / 2;
        lp.run(&mut db, out.timed_ops, &mut Tracer::off(), &mut out.latency)?;
        out.phase_s = start.elapsed().as_secs_f64();
        tr.reset_aggregates();
        let (traced, t) = (txns - out.timed_ops, Instant::now());
        lp.run(&mut db, traced, tr, &mut Hist::new())?;
        let traced_s = t.elapsed().as_secs_f64();
        out.traced_ops_per_s = Some(traced as f64 / traced_s);
        out.span_coverage = Some(tr.top_level_ns() as f64 / 1e9 / traced_s);
    } else {
        out.timed_ops = txns;
        lp.run(&mut db, txns, tr, &mut out.latency)?;
        out.phase_s = start.elapsed().as_secs_f64();
    }
    out.measured_s = start.elapsed().as_secs_f64();
    out.peak_rss_bytes = peak_rss_bytes()?;
    out.attempted = txns;
    out.user_bytes = txns * N_RU as u64 * RECORD_BYTES;
    out.log = LogCount::of(&db).since(log0);
    out.ckpt = CkptDelta::of(&db).since(ckpt0);
    out.ckpt_busy_s = lp.ckpt.busy_ns as f64 / 1e9;
    if lp.ckpt.passes.is_empty() {
        lp.ckpt.finish_pass(&mut db, &mut Tracer::off())?;
    }
    out.ckpt_passes = lp.ckpt.passes.len() as u64;
    out.ckpt_pass_s = std::mem::take(&mut lp.ckpt.passes);

    // Crash with a checkpoint in flight, then cold-open the directory.
    let committed = db.fingerprint();
    tr.span(trace::name("core.crash"), 0, || db.crash())
        .map_err(err("crash"))?;
    drop(db);
    let (db, recovery_s, mut setup_s) = common::recoveries_and_setups(
        opts,
        scratch,
        trace::name("core.open_dir"),
        tr,
        || {
            Mmdb::open_dir(config(), &dir)
                .map(|(db, _)| db)
                .map_err(err("cold open_dir"))
        },
        setup,
        drop,
    )?;
    out.setup_s.append(&mut setup_s);
    out.recovery_s = recovery_s;
    if db.fingerprint() != committed {
        out.fail(format!(
            "recovered fingerprint {:#x} differs from the committed one {committed:#x}",
            db.fingerprint()
        ));
    }
    Ok(out)
}
