//! What the four workloads share: options, the scratch directory, setup,
//! cold recovery, verification helpers, the host block and small
//! statistics.

use crate::config::{self, SETUP_BATCH, S_REC};
use crate::gen;
use crate::hist::Hist;
use crate::trace::{self, Tracer};
use mmdb::shard::ShardedMmdb;
use mmdb::{CommitDurability, Mmdb, MmdbConfig, RecordId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A run's outcome or the reason it could not be produced.
pub type Res<T> = Result<T, String>;

/// Turns any displayable error into the harness's error string.
pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal length of the measured phase; scales the op counts.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Op counts divided by [`config::QUICK_DIVISOR`], guard off.
    pub quick: bool,
    /// Where scratch directories and trace files go.
    pub scratch_root: PathBuf,
}

impl Opts {
    /// An op count: `per_second` ops per second of `--seconds`.
    pub fn ops(&self, per_second: u64) -> u64 {
        self.fixed(per_second * self.seconds)
    }

    /// A count that does not grow with `--seconds`.
    pub fn fixed(&self, n: u64) -> u64 {
        if self.quick {
            (n / config::QUICK_DIVISOR).max(1)
        } else {
            n
        }
    }

    /// The untimed warm-up share of `ops`.
    pub fn warmup(&self, ops: u64) -> u64 {
        (ops as f64 * config::WARMUP_FRAC) as u64
    }

    /// Throwaway setups before the one the run uses: `setup_s` is reported
    /// from setups on both sides of the measured phase, so that its
    /// repetitions do not all sit in the same few seconds.
    pub fn setups_before(&self) -> usize {
        if self.trace || self.quick {
            0
        } else {
            config::SETUP_REPS / 2 - 1
        }
    }

    /// Throwaway setups after the crash.
    pub fn setups_after(&self) -> usize {
        if self.trace || self.quick {
            0
        } else {
            config::SETUP_REPS - config::SETUP_REPS / 2
        }
    }

    /// Cold opens per run.
    pub fn recoveries(&self) -> usize {
        if self.trace || self.quick {
            config::RECOVERIES_TRACED
        } else {
            config::RECOVERIES
        }
    }
}

/// A fresh directory under the scratch root, removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<root>/<label>-<pid>`, emptying a leftover of that name.
    pub fn new(root: &Path, label: &str) -> Res<Scratch> {
        let path = root.join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(err("clear scratch"))?;
        }
        std::fs::create_dir_all(&path).map_err(err("create scratch"))?;
        Ok(Scratch { path })
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> Res<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p).map_err(err("clear scratch"))?;
        }
        std::fs::create_dir_all(&p).map_err(err("create scratch"))?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Ops the run issued (warm-up excluded).
    pub attempted: u64,
    /// Every check that failed; a run with any counts all its ops as
    /// failed.
    pub errors: Vec<String>,
    /// Wall time of each setup.
    pub setup_s: Vec<f64>,
    /// Ops `ops_per_s` counts: those of the measured phase, in a traced
    /// run those of its untraced half.
    pub timed_ops: u64,
    /// Wall time `ops_per_s` divides by.
    pub phase_s: f64,
    /// Wall time of the whole measured phase (in `crash_recover` phases a
    /// and c too, in a traced run both halves).
    pub measured_s: f64,
    /// Latency of every timed op, ns.
    pub latency: Hist,
    /// Wall time of each complete checkpoint pass.
    pub ckpt_pass_s: Vec<f64>,
    /// True when `ckpt_pass_s` holds one mean over `ckpt_passes` passes.
    pub ckpt_pass_is_mean: bool,
    /// Checkpoint passes completed in the measured phase.
    pub ckpt_passes: u64,
    /// Wall time of each cold open.
    pub recovery_s: Vec<f64>,
    /// `VmHWM` at the end of the measured phase, bytes.
    pub peak_rss_bytes: u64,
    /// Log bytes, log forces and transactions committed in the measured
    /// phase (engine counts).
    pub log: LogCount,
    /// User bytes committed in the measured phase.
    pub user_bytes: u64,
    /// Checkpointer counters over the measured phase.
    pub ckpt: CkptDelta,
    /// Time spent inside checkpoint calls in the measured phase, s.
    pub ckpt_busy_s: f64,
    /// Traced runs: ops per second of the traced half.
    pub traced_ops_per_s: Option<f64>,
    /// Traced runs: smallest share of a load thread's wall time that its
    /// top-level spans cover.
    pub span_coverage: Option<f64>,
    /// Traced runs: span aggregates of the traced half.
    pub spans: Option<[trace::Agg; trace::NAMES.len()]>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            errors: Vec::new(),
            setup_s: Vec::new(),
            timed_ops: 0,
            phase_s: 0.0,
            measured_s: 0.0,
            latency: Hist::new(),
            ckpt_pass_s: Vec::new(),
            ckpt_pass_is_mean: false,
            ckpt_passes: 0,
            recovery_s: Vec::new(),
            peak_rss_bytes: 0,
            log: LogCount::default(),
            user_bytes: 0,
            ckpt: CkptDelta::default(),
            ckpt_busy_s: 0.0,
            traced_ops_per_s: None,
            span_coverage: None,
            spans: None,
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Did every check pass?
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Checkpointer counters over a phase.
#[derive(Clone, Copy, Default)]
pub struct CkptDelta {
    /// Passes completed.
    pub completed: u64,
    /// Segment images written.
    pub segments_flushed: u64,
    /// Of those, COU old copies.
    pub old_copies_flushed: u64,
    /// Words written to the backup files.
    pub io_words: u64,
}

impl CkptDelta {
    /// The counters of one engine now.
    pub fn of(db: &Mmdb) -> CkptDelta {
        let s = db.ckpt_stats();
        CkptDelta {
            completed: s.completed,
            segments_flushed: s.segments_flushed,
            old_copies_flushed: s.old_copies_flushed,
            io_words: s.io_words,
        }
    }

    /// `self` minus an earlier reading.
    pub fn since(self, earlier: CkptDelta) -> CkptDelta {
        CkptDelta {
            completed: self.completed - earlier.completed,
            segments_flushed: self.segments_flushed - earlier.segments_flushed,
            old_copies_flushed: self.old_copies_flushed - earlier.old_copies_flushed,
            io_words: self.io_words - earlier.io_words,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: CkptDelta) -> CkptDelta {
        CkptDelta {
            completed: self.completed + other.completed,
            segments_flushed: self.segments_flushed + other.segments_flushed,
            old_copies_flushed: self.old_copies_flushed + other.old_copies_flushed,
            io_words: self.io_words + other.io_words,
        }
    }
}

/// Log and commit counters of one engine.
#[derive(Clone, Copy, Default)]
pub struct LogCount {
    /// Bytes appended.
    pub bytes: u64,
    /// Forces.
    pub forces: u64,
    /// Transactions committed.
    pub commits: u64,
}

impl LogCount {
    /// The counters of one engine now.
    pub fn of(db: &Mmdb) -> LogCount {
        let l = db.log_stats();
        LogCount {
            bytes: l.bytes,
            forces: l.forces,
            commits: db.txn_stats().committed,
        }
    }

    /// The counters summed over every shard.
    pub fn of_sharded(db: &ShardedMmdb) -> LogCount {
        (0..db.shards())
            .map(|i| db.with_shard(i, |e| LogCount::of(e)))
            .fold(LogCount::default(), LogCount::plus)
    }

    /// `self` minus an earlier reading.
    pub fn since(self, earlier: LogCount) -> LogCount {
        LogCount {
            bytes: self.bytes - earlier.bytes,
            forces: self.forces - earlier.forces,
            commits: self.commits - earlier.commits,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, other: LogCount) -> LogCount {
        LogCount {
            bytes: self.bytes + other.bytes,
            forces: self.forces + other.forces,
            commits: self.commits + other.commits,
        }
    }
}

/// Drives one engine's checkpoints from the load thread and times them.
/// A pass's time is the sum of the calls from its begin to its `Done`.
pub struct CkptDriver {
    pass_ns: u64,
    /// Complete passes, seconds each.
    pub passes: Vec<f64>,
    /// Time inside checkpoint calls, ns.
    pub busy_ns: u64,
    begin: trace::Name,
    step: trace::Name,
}

impl CkptDriver {
    /// A driver with no pass in progress.
    pub fn new() -> CkptDriver {
        CkptDriver {
            pass_ns: 0,
            passes: Vec::with_capacity(1024),
            busy_ns: 0,
            begin: trace::name("checkpoint.begin"),
            step: trace::name("checkpoint.step"),
        }
    }

    /// Begins a checkpoint (none may be active).
    pub fn begin(&mut self, db: &mut Mmdb, tr: &mut Tracer, seq: u64) -> Res<()> {
        let t = Instant::now();
        let started = tr.span(self.begin, seq, || db.try_begin_checkpoint());
        let ns = t.elapsed().as_nanos() as u64;
        self.pass_ns = ns;
        self.busy_ns += ns;
        started.map_err(err("try_begin_checkpoint"))?;
        Ok(())
    }

    /// One step of the active checkpoint; true when it completed the pass.
    pub fn step(&mut self, db: &mut Mmdb, tr: &mut Tracer, seq: u64) -> Res<bool> {
        let t = Instant::now();
        let outcome = tr.span(self.step, seq, || db.checkpoint_step());
        let ns = t.elapsed().as_nanos() as u64;
        self.pass_ns += ns;
        self.busy_ns += ns;
        match outcome.map_err(err("checkpoint_step"))? {
            mmdb::StepOutcome::Done { .. } => {
                self.passes.push(self.pass_ns as f64 / 1e9);
                self.pass_ns = 0;
                return Ok(true);
            }
            mmdb::StepOutcome::Progress { .. } => {}
            mmdb::StepOutcome::WaitingForLog => db.force_log().map_err(err("force_log"))?,
        }
        Ok(false)
    }

    /// Continuous checkpointing, one call per tick: a step while a
    /// checkpoint is active, and the begin of the next in the same tick in
    /// which a step completes one.
    pub fn tick(&mut self, db: &mut Mmdb, tr: &mut Tracer, seq: u64) -> Res<()> {
        if db.is_checkpoint_active() && !self.step(db, tr, seq)? {
            return Ok(());
        }
        if db.is_quiescing() {
            return Ok(());
        }
        self.begin(db, tr, seq)
    }

    /// Completes the pass in progress, beginning one first if none is.
    pub fn finish_pass(&mut self, db: &mut Mmdb, tr: &mut Tracer) -> Res<()> {
        if !db.is_checkpoint_active() {
            self.begin(db, tr, 0)?;
        }
        while db.is_checkpoint_active() && !self.step(db, tr, 0)? {}
        Ok(())
    }

    /// Forgets what was timed so far (the pass in progress keeps going).
    pub fn reset(&mut self) {
        self.passes.clear();
        self.busy_ns = 0;
    }
}

/// Writes every record once, `SETUP_BATCH` records per transaction, then
/// takes two full checkpoints so both ping-pong copies are complete.
/// `global_rid` maps the engine's local record id to the id whose setup
/// fill it holds (identity for an unsharded engine).
pub fn fill_and_checkpoint(db: &mut Mmdb, seed: u64, global_rid: impl Fn(u64) -> u64) -> Res<()> {
    let n = db.n_records();
    let mut batch = gen::updates_buffer(SETUP_BATCH as usize);
    let mut rid = 0;
    while rid < n {
        let len = SETUP_BATCH.min(n - rid) as usize;
        for (slot, (r, value)) in batch[..len].iter_mut().enumerate() {
            *r = RecordId(rid + slot as u64);
            value.fill(gen::setup_fill(seed, global_rid(rid + slot as u64)));
        }
        db.run_txn(&batch[..len]).map_err(err("setup run_txn"))?;
        rid += len as u64;
    }
    for _ in 0..2 {
        db.checkpoint().map_err(err("setup checkpoint"))?;
    }
    Ok(())
}

/// A fresh file-backed engine in `dir`, filled and checkpointed.
pub fn setup_embedded(cfg: MmdbConfig, dir: &Path, seed: u64) -> Res<Mmdb> {
    let (mut db, report) = Mmdb::open_dir(cfg, dir).map_err(err("open_dir"))?;
    if report.is_some() {
        return Err("setup directory was not fresh".into());
    }
    fill_and_checkpoint(&mut db, seed, |rid| rid)?;
    Ok(db)
}

/// A fresh file-backed sharded database in `dir`, filled and checkpointed.
pub fn setup_sharded(cfg: MmdbConfig, dir: &Path, shards: usize, seed: u64) -> Res<ShardedMmdb> {
    let (db, _) = ShardedMmdb::open_dir(cfg, dir, shards).map_err(err("open_dir"))?;
    for i in 0..shards {
        db.with_shard(i, |e| {
            fill_and_checkpoint(e, seed, |local| local * shards as u64 + i as u64)
        })?;
    }
    Ok(db)
}

/// Runs `setup` once in a fresh subdirectory of `scratch`. Returns what
/// it built, the directory and the wall time.
pub fn timed_setup<T>(
    scratch: &Scratch,
    tr: &mut Tracer,
    setup: impl FnOnce(&Path) -> Res<T>,
) -> Res<(T, PathBuf, f64)> {
    let dir = scratch.sub("db")?;
    let t = Instant::now();
    let built = tr.span(trace::name("setup.build"), 0, || setup(&dir));
    let secs = t.elapsed().as_secs_f64();
    Ok((built?, dir, secs))
}

/// One more setup, in a directory of its own that is removed at once.
/// Returns the wall time of the build alone; `discard` tears the
/// instance down untimed.
pub fn throwaway_setup<S>(
    scratch: &Scratch,
    setup: impl FnOnce(&Path) -> Res<S>,
    discard: impl FnOnce(S),
) -> Res<f64> {
    let dir = scratch.sub("throwaway")?;
    let t = Instant::now();
    let built = setup(&dir);
    let secs = t.elapsed().as_secs_f64();
    discard(built?);
    std::fs::remove_dir_all(&dir).map_err(err("remove throwaway setup"))?;
    Ok(secs)
}

/// `n` throwaway setups in a row; their wall times.
pub fn throwaway_setups<S>(
    n: usize,
    scratch: &Scratch,
    mut setup: impl FnMut(&Path) -> Res<S>,
    mut discard: impl FnMut(S),
) -> Res<Vec<f64>> {
    (0..n)
        .map(|_| throwaway_setup(scratch, &mut setup, &mut discard))
        .collect()
}

/// After the crash: cold-opens the crashed directory with `open`, timing
/// each open, and between two opens runs one throwaway setup, so that the
/// repetitions of both are spread over the same stretch of time instead
/// of each sitting in a few seconds of its own. Returns the last instance
/// opened, the recovery times and the setup times.
pub fn recoveries_and_setups<T, S>(
    opts: &Opts,
    scratch: &Scratch,
    span: trace::Name,
    tr: &mut Tracer,
    mut open: impl FnMut() -> Res<T>,
    mut setup: impl FnMut(&Path) -> Res<S>,
    mut discard: impl FnMut(S),
) -> Res<(T, Vec<f64>, Vec<f64>)> {
    let (recoveries, more_setups) = (opts.recoveries(), opts.setups_after());
    let (mut recovery_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..recoveries.max(more_setups) {
        if rep < recoveries {
            drop(last.take());
            let t = Instant::now();
            let opened = tr.span(span, rep as u64, &mut open);
            recovery_s.push(t.elapsed().as_secs_f64());
            last = Some(opened?);
        }
        if rep < more_setups {
            setup_s.push(throwaway_setup(scratch, &mut setup, &mut discard)?);
        }
    }
    Ok((last.ok_or("no recovery ran")?, recovery_s, setup_s))
}

/// Runs `f` on every worker at once, one thread each, released together
/// by a barrier. Returns the wall time from the common start to the last
/// finish, and each thread's own wall time.
pub fn run_threads<W: Send>(
    workers: &mut [W],
    tracers: &mut [Tracer],
    f: impl Fn(&mut W, &mut Tracer) -> Res<()> + Sync,
) -> Res<(f64, Vec<f64>)> {
    let barrier = std::sync::Barrier::new(workers.len());
    let results: Vec<Res<(Instant, Instant)>> = std::thread::scope(|s| {
        let joins: Vec<_> = workers
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(w, tr)| {
                let (barrier, f) = (&barrier, &f);
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    f(w, tr)?;
                    Ok((start, Instant::now()))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let spans = results.into_iter().collect::<Res<Vec<_>>>()?;
    let first = spans.iter().map(|s| s.0).min().ok_or("no load thread")?;
    let last = spans.iter().map(|s| s.1).max().ok_or("no load thread")?;
    let each = spans.iter().map(|(a, b)| (*b - *a).as_secs_f64()).collect();
    Ok(((last - first).as_secs_f64(), each))
}

/// True when every word of a record value is the same (a value written by
/// this harness that is not torn).
#[inline]
pub fn untorn(value: &[u32]) -> bool {
    value.len() == S_REC && value.iter().all(|w| *w == value[0])
}

/// The engine configuration of a full-size workload.
pub fn full_config(durability: CommitDurability) -> MmdbConfig {
    config::engine_config(durability, config::N_SEGMENTS)
}

/// The `q`-quantile of `v`, interpolated between neighbours.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => f64::NAN,
        n => {
            let pos = q * (n - 1) as f64;
            let (i, frac) = (pos.floor() as usize, pos.fract());
            s[i] + (s[(i + 1).min(n - 1)] - s[i]) * frac
        }
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (at(0.25), at(0.75))
}

/// The host block every output carries.
pub fn host_block() -> Vec<(String, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .ok()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git_commit().unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("commit".into(), commit),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        (
            "kernel".into(),
            read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        ),
        ("flush_policy".into(), config::FLUSH_POLICY.into()),
    ]
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout need not be a repository).
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r))
                    .ok()
                    .map(|s| s.trim().to_string()),
                None => Some(head.to_string()),
            };
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn untorn_needs_equal_words() {
        assert!(untorn(&[7; S_REC]));
        let mut v = [7; S_REC];
        v[31] = 8;
        assert!(!untorn(&v));
    }
}
