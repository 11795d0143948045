//! `embedded_read_mostly`: the storage layer used the other way round.
//! Two closed-loop threads share a 1-shard `ShardedMmdb` under `Group`
//! durability; 95 % of their ops are lock-free `read_committed` calls and
//! 5 % single-record `run_txn` calls, keys Zipf(0.99) so readers hit the
//! records being written. Thread 0 also drives the checkpointer through
//! `with_shard`, by counts of its own ops: one call per
//! `READ_MOSTLY_OPS_PER_STEP` ops while a checkpoint is active, and the
//! next checkpoint `READ_MOSTLY_GAP_OPS` ops after one completes. The
//! engine admits a commit to the shared path only while no checkpoint is
//! active, so the gaps are where `try_commit_shared` runs.

use crate::common::{self, err, CkptDelta, CkptDriver, LogCount, Opts, Outcome, Res, Scratch};
use crate::config::{self, rate, RECORD_BYTES, S_REC};
use crate::gen::{self, ZipfTable};
use crate::hist::{peak_rss_bytes, Hist};
use crate::trace::{self, Tracer};
use mmdb::shard::ShardedMmdb;
use mmdb::storage::ReadMirror;
use mmdb::{CommitDurability, MmdbConfig, RecordId};
use std::path::Path;
use std::time::Instant;

const THREADS: usize = 2;
/// One op in `WRITE_ONE_IN` is a write (5 %).
const WRITE_ONE_IN: u64 = 20;
const THETA: f64 = 0.99;
/// A worker looks at the pending-sync queue once per this many ops.
const PENDING_LOOK_EVERY: u64 = 256;

fn config() -> MmdbConfig {
    common::full_config(CommitDurability::Group)
}

/// Thread 0's checkpoint schedule, in ops of its own.
struct Schedule {
    driver: CkptDriver,
    active: bool,
    /// Ops left until the next checkpoint begins (while none is active).
    gap_left: u64,
    gap: u64,
}

impl Schedule {
    fn after_op(&mut self, db: &ShardedMmdb, seq: u64, tr: &mut Tracer) -> Res<()> {
        if self.active {
            if seq.is_multiple_of(rate::READ_MOSTLY_OPS_PER_STEP)
                && db.with_shard(0, |e| self.driver.step(e, tr, seq))?
            {
                self.active = false;
            }
        } else {
            self.gap_left -= 1;
            if self.gap_left == 0 {
                self.active = db.with_shard(0, |e| {
                    self.driver.begin(e, tr, seq)?;
                    Ok::<_, String>(e.is_checkpoint_active())
                })?;
                self.gap_left = self.gap;
            }
        }
        Ok(())
    }
}

/// One load thread's state, kept across warm-up and the measured halves.
struct Worker<'a> {
    id: usize,
    keys: gen::ZipfCursor<'a>,
    rng: rand::rngs::StdRng,
    update: gen::Updates,
    seq: u64,
    writes: u64,
    torn: u64,
    lat: Hist,
    /// Thread 0 only.
    schedule: Option<Schedule>,
    /// Writes issued while thread 0 knew no checkpoint to be active.
    writes_in_gap: u64,
    mirror: &'a ReadMirror,
    /// Looks at the pending-sync queue that found a shared-path install
    /// in it.
    shared_seen: u64,
}

impl Worker<'_> {
    fn run(&mut self, db: &ShardedMmdb, n: u64, record: bool, tr: &mut Tracer) -> Res<()> {
        let op = trace::name("bench.op");
        let read = trace::name("shard.read_committed");
        let write = trace::name("shard.run_txn");
        for _ in 0..n {
            self.seq += 1;
            let rid = RecordId(self.keys.next());
            let is_write = self.rng.next_u64().is_multiple_of(WRITE_ONE_IN);
            if is_write {
                self.update[0].0 = rid;
                self.update[0]
                    .1
                    .fill(gen::fill_word(self.id as u64, self.seq, 0));
            }
            tr.open(op, self.seq);
            let t = Instant::now();
            if is_write {
                let run = tr.span(write, self.seq, || db.run_txn(&self.update));
                let ns = t.elapsed().as_nanos() as u64;
                run.map_err(err("run_txn"))?;
                self.writes += 1;
                if record {
                    self.lat.record(ns);
                }
                if self.schedule.as_ref().is_some_and(|s| !s.active) {
                    self.writes_in_gap += 1;
                }
            } else {
                let value = tr.span(read, self.seq, || db.read_committed(rid));
                let ns = t.elapsed().as_nanos() as u64;
                if record {
                    self.lat.record(ns);
                }
                if !common::untorn(&value.map_err(err("read_committed"))?) {
                    self.torn += 1;
                }
            }
            if let Some(schedule) = &mut self.schedule {
                schedule.after_op(db, self.seq, tr)?;
            }
            tr.close();
            if self.seq.is_multiple_of(PENDING_LOOK_EVERY) && self.mirror.pending_len() > 0 {
                self.shared_seen += 1;
            }
        }
        Ok(())
    }
}

/// Runs `n` ops on every worker at once.
fn phase(
    db: &ShardedMmdb,
    workers: &mut [Worker<'_>],
    tracers: &mut [Tracer],
    n: u64,
    record: bool,
) -> Res<(f64, Vec<f64>)> {
    common::run_threads(workers, tracers, |w, tr| w.run(db, n, record, tr))
}

/// Runs the workload; `tracers` has one recorder per load thread.
pub fn run(opts: &Opts, scratch: &Scratch, tracers: &mut [Tracer]) -> Res<Outcome> {
    let mut out = Outcome::new();
    let setup = |dir: &Path| common::setup_sharded(config(), dir, 1, opts.seed);
    out.setup_s = common::throwaway_setups(opts.setups_before(), scratch, setup, drop)?;
    let (db, dir, setup_s) = common::timed_setup(scratch, &mut tracers[0], setup)?;
    out.setup_s.push(setup_s);

    let table = ZipfTable::new(config::N_RECORDS, THETA, &mut gen::rng(opts.seed, 99));
    let mirror = db.with_shard(0, |e| e.read_mirror());
    let gap = opts.fixed(rate::READ_MOSTLY_GAP_OPS);
    let mut workers: Vec<Worker<'_>> = (0..THREADS)
        .map(|id| Worker {
            id,
            keys: table.cursor(id * ZipfTable::LEN / THREADS),
            rng: gen::rng(opts.seed, id as u64),
            update: gen::updates_buffer(1),
            seq: 0,
            writes: 0,
            torn: 0,
            lat: Hist::new(),
            schedule: (id == 0).then(|| Schedule {
                driver: CkptDriver::new(),
                active: false,
                gap_left: gap,
                gap,
            }),
            writes_in_gap: 0,
            mirror: &mirror,
            shared_seen: 0,
        })
        .collect();

    let ops = opts.ops(rate::READ_MOSTLY_OPS_PER_THREAD);
    let mut off: Vec<Tracer> = (0..THREADS).map(|_| Tracer::off()).collect();
    phase(&db, &mut workers, &mut off, opts.warmup(ops), false)?;
    for w in &mut workers {
        w.writes = 0;
        w.writes_in_gap = 0;
        w.shared_seen = 0;
        if let Some(s) = &mut w.schedule {
            s.driver.reset();
        }
    }

    let log0 = LogCount::of_sharded(&db);
    let ckpt0 = db.with_shard(0, |e| CkptDelta::of(e));
    let total = |n: u64| n * THREADS as u64;
    if opts.trace {
        // First half untraced, second half traced; see `embedded_update`.
        let half = ops / 2;
        out.timed_ops = total(half);
        out.phase_s = phase(&db, &mut workers, &mut off, half, true)?.0;
        for tr in tracers.iter_mut() {
            tr.reset_aggregates();
        }
        let (traced_s, each) = phase(&db, &mut workers, tracers, ops - half, false)?;
        out.measured_s = out.phase_s + traced_s;
        out.traced_ops_per_s = Some(total(ops - half) as f64 / traced_s);
        out.span_coverage = tracers
            .iter()
            .zip(&each)
            .map(|(tr, wall)| tr.top_level_ns() as f64 / 1e9 / wall)
            .reduce(f64::min);
    } else {
        out.timed_ops = total(ops);
        out.phase_s = phase(&db, &mut workers, tracers, ops, true)?.0;
        out.measured_s = out.phase_s;
    }
    out.peak_rss_bytes = peak_rss_bytes()?;
    out.attempted = total(ops);
    let writes: u64 = workers.iter().map(|w| w.writes).sum();
    out.user_bytes = writes * RECORD_BYTES;
    out.log = LogCount::of_sharded(&db).since(log0);
    out.ckpt = db.with_shard(0, |e| CkptDelta::of(e)).since(ckpt0);
    for w in &workers {
        out.latency.merge(&w.lat);
    }
    let torn: u64 = workers.iter().map(|w| w.torn).sum();
    if torn > 0 {
        out.fail(format!("{torn} reads returned a torn value"));
    }
    // The workload is here for the shared commit path: it must have run.
    let shared_seen: u64 = workers.iter().map(|w| w.shared_seen).sum();
    println!(
        "shared commit path: {shared_seen} looks found an install waiting in the pending-sync queue; {} of thread 0's {} writes were issued with no checkpoint active",
        workers[0].writes_in_gap, workers[0].writes
    );
    if shared_seen == 0 && !opts.quick {
        out.fail("no commit took the shared path".into());
    }
    let driver = &mut workers[0]
        .schedule
        .as_mut()
        .expect("thread 0 has the schedule")
        .driver;
    out.ckpt_busy_s = driver.busy_ns as f64 / 1e9;
    if driver.passes.is_empty() {
        db.with_shard(0, |e| driver.finish_pass(e, &mut Tracer::off()))?;
    }
    out.ckpt_passes = driver.passes.len() as u64;
    out.ckpt_pass_s = std::mem::take(&mut driver.passes);
    drop(workers);
    debug_assert_eq!(S_REC, db.record_words());

    // Every write was acknowledged only once durable, so the committed
    // state at the crash is the state recovery must produce.
    let committed = db.fingerprint();
    let tr = &mut tracers[0];
    tr.span(trace::name("core.crash"), 0, || {
        db.with_shard(0, |e| e.crash())
    })
    .map_err(err("crash"))?;
    drop(db);
    let (db, recovery_s, mut setup_s) = common::recoveries_and_setups(
        opts,
        scratch,
        trace::name("shard.open_dir"),
        tr,
        || {
            ShardedMmdb::open_dir(config(), &dir, 1)
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
