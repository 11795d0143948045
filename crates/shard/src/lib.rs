//! **mmdb-shard** — hash-partitioned sharding over the mmdb engine.
//!
//! [`ShardedMmdb`] splits the record space across `N` independent
//! [`Mmdb`] engines. Each shard owns its *own* REDO log, its own
//! ping-pong backup pair, and its own background loop (group-commit
//! forces and, in the server, checkpoints and log compaction) — so
//! checkpoint work on shard *i* never blocks transactions on shard *j*.
//! This is the scale-out reading of the
//! paper's segment model: where a segment is the granule of
//! *checkpointer* independence inside one engine, a shard is the granule
//! of *whole-subsystem* independence (log + backups + checkpointer),
//! with the same partial-checkpoint logic running per shard.
//!
//! ## Layout
//!
//! Every database directory is an `N`-shard topology, `N ≥ 1`: a
//! [`TOPOLOGY_FILE`] marker pins `N`, and shard `i`'s engine lives in
//! [`shard_dir`]. One shard is the unsharded database — the same layout
//! and the same router. [`settle_layout`] is the one place the layout is
//! read, written, and moved into from a directory that predates the
//! marker.
//!
//! ## Partitioning
//!
//! Records hash by id: global record `r` lives on shard `r % N`, at
//! local id `r / N` (round-robin striping, so contiguous global ranges
//! spread evenly). Each shard's database is sized to `ceil(R/N)` records
//! rounded up to whole segments, so every shard is a fully valid
//! standalone engine directory.
//!
//! ## Routing
//!
//! The router classifies each transaction:
//!
//! * **single-shard** (fast path): lock that one shard, run the
//!   transaction on it. Shards never interact.
//! * **cross-shard**: acquire the participating shard locks in
//!   ascending index order (deadlock-free), then run two-phase commit
//!   over the per-shard logs: prepare every branch (one forced
//!   `TxnPrepare` frame), force a `Decide` record on the lowest participating shard
//!   (the commit point), commit every prepared branch, release the
//!   locks in reverse order. No torn cross-shard state is ever logged:
//!   until the decision is durable, every branch is in-doubt and
//!   recovery resolves it by presumed abort.
//!
//! ## Group commit
//!
//! Under [`CommitDurability::Group`] the router splits every commit into
//! *append* and *wait*: the engine appends the commit record (no force)
//! and the router releases the shard mutex, rings the doorbell of the
//! shard's background loop, and parks on the log's durable-LSN
//! watermark until a batched force covers the commit's end-LSN. One real
//! `fsync` thus acks every commit that arrived while the previous force
//! was in flight — same durability contract as per-commit forcing
//! (nothing is acked before it is on disk), a fraction of the forces.
//! The loop completes each force (modeled latency, watermark publish)
//! *outside* the engine lock, so committers on other connections run
//! concurrently with the device write.
//!
//! ## Recovery
//!
//! [`ShardedMmdb::open_dir`] replays all shard logs in parallel (one
//! thread per shard), pools the `Decide` records every shard saw, and
//! resolves each in-doubt prepared branch: commit if *any* shard's log
//! window carries `Decide{gid, commit: true}`, otherwise presumed
//! abort. Resolution re-installs the branch's after-images as a fresh
//! committed transaction, which is idempotent across repeated crashes.

use mmdb_audit::{Audit, AuditEvent, AuditViolation};
use mmdb_core::{
    CheckpointStart, CkptReport, CommitDurability, CompactReport, DurableWatermark, LogMode, Mmdb,
    MmdbConfig, ReadMirror, RecoveryReport, StepOutcome, TxnRun,
};
use mmdb_obs::{to_prometheus_sharded, HistSummary, MetricsSnapshot, Obs, PaperOverhead};
use mmdb_sync::{
    leak_name, LockRank, RankedCondvar, RankedGuard, RankedMutex, RankedRwLock, RankedRwReadGuard,
    RankedRwWriteGuard,
};
use mmdb_types::{DbParams, Lsn, MmdbError, RecordId, Result, TxnId, Word};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Name of the topology marker at the root of every database directory:
/// `shards=<N>`, with shard `i`'s engine under [`shard_dir`]`(dir, i)`.
pub const TOPOLOGY_FILE: &str = "shards";

/// The engine files a directory from before the marker keeps at its
/// root: one engine's log and its ping-pong backup pair.
const ROOT_ENGINE_FILES: [&str; 3] = ["log", "backup.0", "backup.1"];

/// Upper bound on the shard count — a sanity rail, not a real limit.
pub const MAX_SHARDS: usize = 1024;

/// Shape of one shard's database: per-shard capacity is `ceil(R/N)`
/// records rounded up to whole segments, so each shard is a valid
/// standalone engine (`s_db % s_seg == 0` by construction).
pub fn shard_db_params(global: &DbParams, shards: usize) -> DbParams {
    let recs_per_seg = global.records_per_segment().max(1);
    let recs_per_shard = global.n_records().div_ceil(shards as u64).max(1);
    let segs = recs_per_shard.div_ceil(recs_per_seg).max(1);
    DbParams {
        s_db: segs * global.s_seg,
        s_rec: global.s_rec,
        s_seg: global.s_seg,
    }
}

/// The configuration each shard engine runs with: the global
/// configuration with the database shrunk to the shard's slice (and the
/// model's per-transaction record count clamped to what fits).
pub fn shard_config(global: &MmdbConfig, shards: usize) -> MmdbConfig {
    let mut cfg = *global;
    cfg.params.db = shard_db_params(&global.params.db, shards);
    cfg.params.txn.n_ru = cfg
        .params
        .txn
        .n_ru
        .min(cfg.params.db.n_records() as u32)
        .max(1);
    cfg
}

/// Pools two-phase-commit decisions read from several shard logs: a gid
/// is committed if any log carries `Decide{gid, commit: true}`. A branch
/// whose gid maps to `false`, or is absent, is presumed aborted.
pub fn pool_decisions(decisions: impl IntoIterator<Item = (u64, bool)>) -> HashMap<u64, bool> {
    let mut pooled = HashMap::new();
    for (gid, commit) in decisions {
        let d = pooled.entry(gid).or_insert(false);
        *d = *d || commit;
    }
    pooled
}

/// Report of one coordinated sharded recovery.
#[derive(Debug, Clone, Default)]
pub struct ShardedRecovery {
    /// Per-shard engine recovery reports (`None` for a freshly created
    /// shard with no backup yet).
    pub shards: Vec<Option<RecoveryReport>>,
    /// In-doubt prepared branches resolved as committed (a `Decide`
    /// record with `commit: true` was found on some shard's log).
    pub in_doubt_committed: u64,
    /// In-doubt prepared branches resolved by presumed abort.
    pub in_doubt_aborted: u64,
}

/// One interactive (wire-level) transaction's router state: unbound
/// until the first record it touches picks its shard.
#[derive(Debug, Clone, Copy)]
struct Binding {
    /// `(shard index, shard-local transaction id)` once bound.
    bound: Option<(usize, TxnId)>,
}

/// The state shared between the router and the per-shard background
/// loops: the engines, each shard's doorbell and each loop's counts.
struct ShardCore {
    /// Shard `i`'s engine gate carries rank `engine(i)`: ascending index
    /// order (the 2PC discipline) is strictly descending rank, so the
    /// debug-build detector proves every interleaving deadlock-free.
    ///
    /// The gate is a reader/writer lock whose **exclusive** acquisition
    /// is named `lock()` — every pre-existing path (checkpointer,
    /// recovery, 2PC, quiesce, maintenance) takes it and keeps exactly
    /// the semantics it had under the old mutex. **Shared** acquisition
    /// (`read()`) admits concurrent single-shard committers and
    /// lock-free-read fallbacks, which reach only the engine's
    /// interior-locked state (see `DESIGN.md` §6.10).
    shards: Vec<RankedRwLock<Mmdb>>,
    /// One doorbell per shard, the only thing its loop parks on.
    bells: Vec<Doorbell>,
    /// What each shard's loop has done, and failed to do, so far: one
    /// counter per [`LOOP_COUNTS`] name (statistics, hence relaxed).
    counts: Vec<[AtomicU64; 4]>,
}

impl ShardCore {
    /// Exclusive access to shard `i` — the single choke point every
    /// `&mut Mmdb` path funnels through. The metadata of queued
    /// shared-mode installs (their data is already in the record store)
    /// is folded into the segments *here*, so exclusive holders
    /// (checkpointer, recovery, 2PC, fsck) always see current versions,
    /// `τ(S)` and WAL gates.
    #[track_caller]
    fn lock(&self, i: usize) -> RankedRwWriteGuard<'_, Mmdb> {
        let mut g = self.shards[i].lock();
        g.sync_pending();
        g
    }

    /// Shared access to shard `i` (concurrent single-shard committers).
    #[track_caller]
    fn read(&self, i: usize) -> RankedRwReadGuard<'_, Mmdb> {
        self.shards[i].read()
    }

    /// Loop counter `k`, per shard.
    fn counted(&self, k: usize) -> impl Iterator<Item = u64> + '_ {
        self.counts
            .iter()
            .map(move |c| c[k].load(Ordering::Relaxed))
    }
}

/// What a server hands each shard loop besides the group-commit force
/// ([`ShardedMmdb::set_maintenance`]). Each duty runs at once, then
/// again a pause after the end of each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Maintenance {
    /// `Some(d)`: begin a checkpoint `d` after the previous one completes.
    /// Either way the loop drives checkpoints a client requests.
    pub checkpoint_interval: Option<Duration>,
    /// `Some(d)`: rotate and compact the shard's log ([`Mmdb::compact_log`])
    /// every `d`.
    pub compact_interval: Option<Duration>,
}

/// The shard loops' counters, by their `stats` names.
const LOOP_COUNTS: [&str; 4] = [
    "maint.checkpoints",
    "maint.compactions",
    "maint.checkpoint_errors",
    "maint.compact_errors",
];
const CHECKPOINTS: usize = 0;
const COMPACTIONS: usize = 1;
const CHECKPOINT_ERRORS: usize = 2;
const COMPACT_ERRORS: usize = 3;

/// A shard's doorbell, which also carries its loop's duties. A committer
/// rings it after appending, opening an accumulation window that the
/// loop's next force closes, and tags that force with its trace id. A
/// wake (a client's checkpoint request) sends the loop to its duties.
struct Doorbell {
    state: RankedMutex<Bell>,
    cv: RankedCondvar,
}

#[derive(Default)]
struct Bell {
    /// When the first commit since the last force rang.
    rung: Option<Instant>,
    trace_id: u64,
    duties: Option<Maintenance>,
    wake: bool,
    /// The router is dropping: force what is left and exit.
    stop: bool,
}

impl Doorbell {
    fn ring(&self, trace_id: u64) {
        let mut bell = self.state.lock();
        bell.rung.get_or_insert_with(Instant::now);
        if trace_id != 0 {
            bell.trace_id = trace_id;
        }
        self.cv.notify_one();
    }

    fn wake(&self) {
        self.state.lock().wake = true;
        self.cv.notify_one();
    }

    /// Parks until a rung window closes (`Some(trace id)`), or until a
    /// wake, `deadline`, the stop or duties other than `duties`, if one
    /// comes first (`None`).
    fn wait(&self, deadline: Option<Instant>, duties: Option<Maintenance>) -> Option<u64> {
        let mut bell = self.state.lock();
        loop {
            let now = Instant::now();
            let closes = bell.rung.map(|t| t + GROUP_ACCUMULATION_WINDOW);
            if closes.is_some_and(|t| t <= now) {
                bell.rung = None;
                return Some(std::mem::take(&mut bell.trace_id));
            }
            let passed = deadline.is_some_and(|t| t <= now);
            if std::mem::take(&mut bell.wake) || passed || bell.stop || bell.duties != duties {
                return None;
            }
            bell = match closes.into_iter().chain(deadline).min() {
                Some(until) => self.cv.wait_timeout(bell, until - now).0,
                None => self.cv.wait(bell),
            };
        }
    }
}

/// The loop's idle tick: the longest it parks with nothing due (then a
/// backstop force under group commit, for a writer that appended without
/// ringing) and its pause before it retries a failed duty or looks again
/// at a quiescing engine.
const FLUSH_BACKSTOP: Duration = Duration::from_millis(20);

/// How long a group committer waits for its ack before giving up. With a
/// live shard loop the wait is one force (microseconds to milliseconds);
/// hitting this bound means the loop died or the device hung.
const GROUP_ACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Accumulation window between the doorbell and the force: commits that
/// arrive while a force is in flight batch naturally, but on a fast
/// device the force is too quick for much to gather — most committers
/// are still parked on the shard mutex or in the network stack when it
/// completes. Holding the group open a beat after the first ring lets
/// them append first, trading a bounded latency bump for a much larger
/// group — the classic group-commit timer. Small against even a fast
/// fsync, so the single-committer latency cost stays in the noise.
const GROUP_ACCUMULATION_WINDOW: Duration = Duration::from_micros(200);

/// Optimistic-read retry budget before a point read falls back to the
/// exclusive-locked path. A failed attempt means a writer was mid-copy
/// on a record of the same segment (nanoseconds) or crash/recovery
/// closed the mirror gate (the fallback path then reports the real
/// state).
const LOCKFREE_READ_RETRIES: usize = 8;

/// A shard loop's duties and when each is next due (all at once when
/// they are handed over). `step` is `Some` while a checkpoint was active
/// or quiescing at the last look.
struct Schedule {
    duties: Option<Maintenance>,
    step: Option<Instant>,
    begin: Option<Instant>,
    compact: Option<Instant>,
}

impl Schedule {
    fn new(duties: Option<Maintenance>, start: Instant) -> Schedule {
        Schedule {
            duties,
            step: duties.map(|_| start),
            begin: duties.and_then(|m| m.checkpoint_interval).map(|_| start),
            compact: duties.and_then(|m| m.compact_interval).map(|_| start),
        }
    }
}

/// One shard's only background thread. It parks on the doorbell until
/// the earliest thing due, then takes the shard's gate once: for the
/// group-commit force if the doorbell's window closed; otherwise for one
/// duty of [`maintain`]; with nothing due, for the backstop force.
/// Transactions interleave between passes, and a committer waiting for
/// its force waits at most one duty.
///
/// The force writes the tail under the gate and completes *outside* it
/// (modeled device latency + watermark publish); commits that arrive
/// meanwhile are batched into the next force.
fn shard_loop(core: &ShardCore, shard: usize, group: bool, obs: &Obs) {
    let watermark = core.read(shard).log_watermark();
    let mut s = Schedule::new(None, Instant::now());
    let mut last_force: Option<Instant> = None;
    loop {
        // With neither group commit nor duties there is nothing to poll.
        let deadline = (group || s.duties.is_some()).then(|| {
            [s.step, s.begin, s.compact]
                .into_iter()
                .flatten()
                .fold(Instant::now() + FLUSH_BACKSTOP, Instant::min)
        });
        let rung = core.bells[shard].wait(deadline, s.duties);
        let mut db = core.lock(shard);
        // Read under the gate, which `set_maintenance` takes after storing
        // new duties: no pass runs a duty once it is taken back. The stop
        // is read before forcing, so the final force covers every ring.
        let (duties, stopping) = {
            let bell = core.bells[shard].state.lock();
            (bell.duties, bell.stop)
        };
        if duties != s.duties {
            s = Schedule::new(duties, Instant::now());
        }
        let worked = !stopping && rung.is_none() && maintain(&mut db, &mut s, &core.counts[shard]);
        if group && (rung.is_some() || !worked) {
            let t = obs.timer();
            let forced = db.force_log_group();
            drop(db);
            match forced {
                Ok(Some(pending_force)) => {
                    let commits = pending_force.commits();
                    obs.counter("log.group_commit.forces", 1);
                    obs.counter("log.group_commit.commits", commits);
                    obs.observe("log.group_commit.size", commits);
                    if let Some(prev) = last_force.replace(Instant::now()) {
                        obs.observe_duration_us("log.group_commit.interval_us", prev.elapsed());
                    }
                    pending_force.complete();
                    // Tagged with the latest ringer's trace id so `trace
                    // --remote` can tie the force to the commit behind it.
                    obs.phase_for_trace("group.force", t, commits, rung.unwrap_or(0));
                }
                Ok(None) => {}
                Err(e) => {
                    obs.counter("log.group_commit.force_errors", 1);
                    watermark.fail(format!("group-commit force failed on shard {shard}: {e}"));
                }
            }
        }
        if stopping {
            return;
        }
    }
}

/// Runs the one maintenance duty that is due: a step of the active
/// checkpoint first; otherwise whichever fell due first of a rotate +
/// compaction slice and a paced checkpoint begin, so neither can starve
/// the other. Returns false when nothing was due. Failures are counted
/// and retried after [`FLUSH_BACKSTOP`]; a quiesce is normal.
fn maintain(db: &mut Mmdb, s: &mut Schedule, counts: &[AtomicU64; 4]) -> bool {
    let Some(m) = s.duties else { return false };
    let now = Instant::now();
    let due = |at: Option<Instant>| at.is_some_and(|t| t <= now);
    let failed = |errors: &AtomicU64| {
        errors.fetch_add(1, Ordering::Relaxed);
        now + FLUSH_BACKSTOP
    };
    let busy = db.is_checkpoint_active() || db.is_quiescing();
    s.step = busy.then(|| s.step.unwrap_or(now));
    let begin_due = !busy && due(s.begin);
    if due(s.step) {
        if !db.is_checkpoint_active() {
            // Begins by itself when the last open transaction ends.
            s.step = Some(now + FLUSH_BACKSTOP);
            return true;
        }
        match db.checkpoint_step() {
            Ok(StepOutcome::Progress { .. }) => {}
            Ok(StepOutcome::WaitingForLog) => {
                if db.force_log().is_err() {
                    s.step = Some(failed(&counts[CHECKPOINT_ERRORS]));
                }
            }
            Ok(StepOutcome::Done { .. }) => {
                counts[CHECKPOINTS].fetch_add(1, Ordering::Relaxed);
                s.step = None;
                s.begin = m.checkpoint_interval.map(|d| now + d);
            }
            Err(_) => s.step = Some(failed(&counts[CHECKPOINT_ERRORS])),
        }
    } else if due(s.compact) && !(begin_due && s.begin < s.compact) {
        // Compaction honours replication truncation pins itself: a
        // lagging standby stalls chunk rewrites, it never loses bytes.
        if db.rotate_log().and_then(|_| db.compact_log()).is_err() {
            counts[COMPACT_ERRORS].fetch_add(1, Ordering::Relaxed);
        }
        counts[COMPACTIONS].fetch_add(1, Ordering::Relaxed);
        s.compact = m.compact_interval.map(|d| now + d);
    } else if begin_due {
        match db.try_begin_checkpoint() {
            Ok(_) => s.step = Some(now),
            Err(_) => s.begin = Some(failed(&counts[CHECKPOINT_ERRORS])),
        }
    } else {
        return false;
    }
    true
}

/// How long a semi-synchronous committer waits for a standby's ack
/// before failing the commit. Generous against network hiccups, but
/// bounded: a dead standby must not wedge the primary forever.
const REPL_ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// The semi-synchronous replication gate: one watermark per shard
/// tracking the highest log LSN any standby has durably applied.
///
/// The gate is always constructed (it is a few atomics) but inert until
/// *both* switches flip: the server enables `sync` when started with
/// semi-synchronous replication, and the first standby hello `engage`s
/// it. Until then commits ack at local durability exactly as before —
/// so a primary configured for semi-sync still serves writes while its
/// standby is (re)connecting, mirroring the paper's stance that the
/// backup's freshness is a recovery-cost knob, not a liveness
/// dependency.
pub struct ReplGate {
    /// Per-shard standby-acknowledged LSN (maximum over standbys; with
    /// one standby, exactly its applied position).
    acks: Vec<Arc<DurableWatermark>>,
    /// Per-shard log-truncation pins (raw LSNs), shared with each shard
    /// engine once replication slots are enabled: auto-truncation never cuts at
    /// or above the pin, and standby acks raise it — replication-slot
    /// semantics, so the checkpointer can never outrun the shipper.
    pins: Vec<Arc<AtomicU64>>,
    /// Commits wait for a standby ack (server `--repl-sync`).
    sync: AtomicBool,
    /// At least one standby has said hello on this incarnation.
    engaged: AtomicBool,
}

impl ReplGate {
    fn new(shards: usize) -> Arc<ReplGate> {
        Arc::new(ReplGate {
            acks: (0..shards)
                .map(|_| Arc::new(DurableWatermark::new(Lsn::ZERO)))
                .collect(),
            pins: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            sync: AtomicBool::new(false),
            engaged: AtomicBool::new(false),
        })
    }

    /// Turns semi-synchronous commit on: once a standby engages, every
    /// commit also waits for its ack.
    pub fn set_sync(&self, on: bool) {
        self.sync.store(on, Ordering::SeqCst);
    }

    /// Marks a standby as attached (called on `ReplHello`).
    pub fn engage(&self) {
        self.engaged.store(true, Ordering::SeqCst);
    }

    /// True once any standby has attached.
    pub fn is_engaged(&self) -> bool {
        self.engaged.load(Ordering::SeqCst)
    }

    /// Publishes a standby's acknowledged LSN for `shard`, releasing
    /// semi-sync committers parked at or below it and raising the
    /// shard's truncation pin (the log below the ack may now go).
    /// Monotone.
    pub fn advance(&self, shard: usize, acked: Lsn) {
        self.acks[shard].advance(acked);
        self.pins[shard].fetch_max(acked.raw(), Ordering::SeqCst);
    }

    /// The highest acknowledged LSN for `shard`.
    pub fn acked(&self, shard: usize) -> Lsn {
        self.acks[shard].get()
    }

    fn should_wait(&self) -> bool {
        self.sync.load(Ordering::SeqCst) && self.engaged.load(Ordering::SeqCst)
    }
}

/// A hash-partitioned database: `N` independent engines behind one
/// record-id space, with per-shard locking and two-phase cross-shard
/// commit. All methods take `&self`; locking is internal and per-shard.
pub struct ShardedMmdb {
    core: Arc<ShardCore>,
    /// Each shard's seqlock record store (cloned from its engine at
    /// construction): point reads consult it without touching the shard
    /// gate at all. The handle stays valid across crash and recovery —
    /// the store's gate closes while content is rebuilt, failing reads
    /// over to the locked path.
    mirrors: Vec<Arc<ReadMirror>>,
    /// Each shard's durable-LSN watermark (cloned from its log at
    /// construction; group committers wait here).
    watermarks: Vec<Arc<DurableWatermark>>,
    /// True when commits take the group path: append, release the shard
    /// lock, ring the doorbell, wait on the watermark. Requires
    /// [`CommitDurability::Group`] *and* a volatile tail (a stable tail
    /// is durable on append — nothing to wait for).
    group: bool,
    /// The per-shard background loops, one per shard for the router's
    /// whole life; its `Drop` joins them.
    loops: Vec<std::thread::JoinHandle<()>>,
    config: MmdbConfig,
    n_records: u64,
    record_words: usize,
    /// Global-transaction-id source for cross-shard 2PC (`gid` in the
    /// log's `TxnPrepare`/`Decide` records). Seeded past every gid seen in
    /// any shard's recovery window, so decisions are never confused
    /// across incarnations.
    next_gid: AtomicU64,
    /// Id source for interactive (wire-level) transactions. These ids
    /// live in the router's namespace, not any engine's.
    next_txn: AtomicU64,
    open_txns: RankedMutex<HashMap<u64, Binding>>,
    audit: Audit,
    obs: Obs,
    /// The semi-sync replication gate (inert unless the server enables
    /// it and a standby attaches).
    repl: Arc<ReplGate>,
    /// Runs [`ShardedMmdb::enable_repl_slots`]'s work once.
    repl_slots: Once,
}

impl Drop for ShardedMmdb {
    /// Stops and joins the shard loops; under group commit each runs a
    /// final drain force first, so no rung commit is left unforced.
    fn drop(&mut self) {
        for bell in &self.core.bells {
            bell.state.lock().stop = true;
            bell.cv.notify_one();
        }
        for j in self.loops.drain(..) {
            let _ = j.join();
        }
    }
}

impl std::fmt::Debug for ShardedMmdb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMmdb")
            .field("shards", &self.core.shards.len())
            .field("n_records", &self.n_records)
            .finish()
    }
}

impl ShardedMmdb {
    // ----- construction ----------------------------------------------------

    /// A sharded database over in-memory devices (tests, examples).
    pub fn open_in_memory(config: MmdbConfig, shards: usize) -> Result<ShardedMmdb> {
        validate_shards(&config, shards)?;
        let scfg = shard_config(&config, shards);
        let mut engines = Vec::with_capacity(shards);
        for _ in 0..shards {
            engines.push(Mmdb::open_in_memory(scfg)?);
        }
        Ok(Self::assemble(config, engines))
    }

    /// A sharded database over file devices: each shard is a standalone
    /// engine directory `dir/shard.<i>/`, and a topology marker at the
    /// root pins the shard count. Shard logs are replayed in parallel
    /// (one recovery thread per shard) and in-doubt cross-shard branches
    /// are resolved from the pooled decision records.
    pub fn open_dir(
        config: MmdbConfig,
        dir: &Path,
        shards: usize,
    ) -> Result<(ShardedMmdb, ShardedRecovery)> {
        validate_shards(&config, shards)?;
        settle_layout(dir, Some(shards))?;

        let scfg = shard_config(&config, shards);
        let mut opened: Vec<Result<(Mmdb, Option<RecoveryReport>)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::with_capacity(shards);
            for i in 0..shards {
                let shard_dir = shard_dir(dir, i);
                joins.push(scope.spawn(move || Mmdb::open_dir(scfg, &shard_dir)));
            }
            for j in joins {
                opened.push(j.join().unwrap_or_else(|_| {
                    Err(MmdbError::Invalid("shard recovery thread panicked".into()))
                }));
            }
        });
        let mut engines = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for r in opened {
            let (engine, report) = r?;
            engines.push(engine);
            reports.push(report);
        }

        let db = Self::assemble(config, engines);
        let recovery = db.resolve_in_doubt(reports)?;
        Ok((db, recovery))
    }

    /// Wraps caller-constructed engines (one per shard, each shaped by
    /// [`shard_config`]) as a sharded database. The fault-injection
    /// tests' entry point: it lets a shard run over e.g. a
    /// [`mmdb_core::FlakyLogDevice`].
    pub fn from_engines(config: MmdbConfig, engines: Vec<Mmdb>) -> Result<ShardedMmdb> {
        validate_shards(&config, engines.len())?;
        Ok(Self::assemble(config, engines))
    }

    fn assemble(config: MmdbConfig, engines: Vec<Mmdb>) -> ShardedMmdb {
        let audit = if config.audit {
            Audit::enabled()
        } else {
            Audit::disabled()
        };
        let obs = if config.telemetry {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let group = config.commit_durability == CommitDurability::Group
            && config.params.log_mode == LogMode::VolatileTail;
        let watermarks: Vec<Arc<DurableWatermark>> =
            engines.iter().map(Mmdb::log_watermark).collect();
        let mirrors: Vec<Arc<ReadMirror>> = engines.iter().map(Mmdb::read_mirror).collect();
        let n = engines.len();
        let core = Arc::new(ShardCore {
            shards: engines
                .into_iter()
                .enumerate()
                .map(|(i, e)| {
                    RankedRwLock::new(leak_name(format!("engine.{i}")), LockRank::engine(i), e)
                })
                .collect(),
            bells: (0..n)
                .map(|i| Doorbell {
                    state: RankedMutex::new(
                        leak_name(format!("doorbell.{i}")),
                        LockRank::doorbell(i),
                        Bell::default(),
                    ),
                    cv: RankedCondvar::new(),
                })
                .collect(),
            counts: (0..n).map(|_| Default::default()).collect(),
        });
        let open_txns = RankedMutex::new("router.txns", LockRank::ROUTER_TXNS, HashMap::new());
        // Contended acquisitions of every router-owned lock surface as
        // `sync.<name>.*` metrics on the router's registry.
        if let Some(sink) = obs.contention_sink() {
            for m in &core.shards {
                m.set_sink(Arc::clone(&sink));
            }
            for bell in &core.bells {
                bell.state.set_sink(Arc::clone(&sink));
            }
            open_txns.set_sink(sink);
        }
        let loops = (0..n)
            .map(|shard| {
                let core = Arc::clone(&core);
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("mmdb-shard-{shard}"))
                    .spawn(move || shard_loop(&core, shard, group, &obs))
                    .unwrap_or_else(|e| panic!("cannot spawn shard loop: {e}"))
            })
            .collect();
        let db = ShardedMmdb {
            repl: ReplGate::new(n),
            repl_slots: Once::new(),
            core,
            mirrors,
            watermarks,
            group,
            loops,
            n_records: config.params.db.n_records(),
            record_words: config.params.db.s_rec as usize,
            config,
            next_gid: AtomicU64::new(1),
            next_txn: AtomicU64::new(1),
            open_txns,
            audit,
            obs,
        };
        db.audit.emit(|| AuditEvent::ShardTopology { shards: n });
        db
    }

    /// Pools decision records across every shard's recovery window and
    /// finishes each in-doubt prepared branch under its own id, forced,
    /// before the shard serves: committed if some shard saw
    /// `Decide{gid, commit: true}`, otherwise presumed aborted
    /// ([`Mmdb::resolve_in_doubt`]). The logged outcome is what keeps a
    /// second recovery over the same window from finding the branch in
    /// doubt again.
    fn resolve_in_doubt(&self, reports: Vec<Option<RecoveryReport>>) -> Result<ShardedRecovery> {
        let decisions = pool_decisions(
            reports
                .iter()
                .flatten()
                .flat_map(|r| r.decisions.iter().copied()),
        );
        let max_gid = reports.iter().flatten().fold(0, |m, r| m.max(r.max_gid));
        self.next_gid.store(max_gid + 1, Ordering::SeqCst);

        let mut committed = 0u64;
        let mut aborted = 0u64;
        for (i, report) in reports.iter().enumerate() {
            let Some(report) = report else { continue };
            for entry in &report.in_doubt {
                let commit = decisions.get(&entry.gid).copied().unwrap_or(false);
                self.lock(i).resolve_in_doubt(entry, commit)?;
                if commit {
                    committed += 1;
                } else {
                    aborted += 1;
                }
            }
        }
        self.obs.counter("router.indoubt_committed", committed);
        self.obs.counter("router.indoubt_aborted", aborted);
        Ok(ShardedRecovery {
            shards: reports,
            in_doubt_committed: committed,
            in_doubt_aborted: aborted,
        })
    }

    // ----- topology & accessors --------------------------------------------

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.core.shards.len()
    }

    /// Total records across the whole database (global id space).
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Words per record.
    pub fn record_words(&self) -> usize {
        self.record_words
    }

    /// The global configuration (per-shard engines run
    /// [`shard_config`] of this).
    pub fn config(&self) -> &MmdbConfig {
        &self.config
    }

    /// The router's telemetry handle (the engine handles live per
    /// shard).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The router's audit handle (shard-routing invariants are checked
    /// here; each engine audits its own protocol invariants).
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Which shard a global record id lives on.
    pub fn shard_of(&self, rid: RecordId) -> Result<usize> {
        if rid.raw() >= self.n_records {
            return Err(MmdbError::RecordOutOfRange {
                record: rid,
                n_records: self.n_records,
            });
        }
        Ok((rid.raw() % self.shards() as u64) as usize)
    }

    /// A global record id's shard-local id.
    pub fn local_rid(&self, rid: RecordId) -> RecordId {
        RecordId(rid.raw() / self.shards() as u64)
    }

    /// Locks shard `i` exclusively, recording the acquisition wait as an
    /// `engine.lock_wait` phase (a child of the active request scope,
    /// when the calling thread is dispatching one).
    #[track_caller]
    fn lock(&self, i: usize) -> RankedRwWriteGuard<'_, Mmdb> {
        let t = self.obs.timer();
        let g = self.core.lock(i);
        self.obs.phase_detail("engine.lock_wait", t, i as u64);
        g
    }

    /// Takes shard `i`'s gate **shared** — the concurrent single-shard
    /// commit path. Shared holders coexist with each other (and with
    /// lock-free mirror readers, which take nothing at all) but exclude
    /// every `&mut` path.
    #[track_caller]
    fn read_shard(&self, i: usize) -> RankedRwReadGuard<'_, Mmdb> {
        let t = self.obs.timer();
        let g = self.core.read(i);
        self.obs.phase_detail("engine.lock_wait", t, i as u64);
        g
    }

    /// Rings shard `i`'s doorbell for a group-commit force, then parks
    /// the calling committer until the shard's durable-LSN watermark
    /// covers `lsn`. The ring carries the caller's trace id, so the
    /// loop's batched force is attributable to the commit behind it.
    /// `Lsn::ZERO` is vacuously durable (the marker for "this commit was
    /// already forced" — e.g. a 2PC branch).
    fn wait_durable(&self, i: usize, lsn: Lsn) -> Result<()> {
        if lsn == Lsn::ZERO {
            return Ok(());
        }
        self.core.bells[i].ring(mmdb_obs::current_trace_id());
        let t = self.obs.timer();
        if self.watermarks[i].wait_for(lsn, GROUP_ACK_TIMEOUT)? {
            self.obs
                .phase_hist("group.wait", "router.group_wait_ns", t, i as u64);
            Ok(())
        } else {
            Err(MmdbError::Invalid(format!(
                "group-commit ack timed out after {GROUP_ACK_TIMEOUT:?} waiting for {lsn} \
                 on shard {i} (shard loop stalled?)"
            )))
        }
    }

    /// Parks a semi-synchronous committer until a standby acknowledges
    /// `lsn` on shard `i`. A no-op unless the gate is both enabled
    /// (server semi-sync) and engaged (a standby attached); bounded by
    /// [`REPL_ACK_TIMEOUT`] so a dead standby fails commits instead of
    /// wedging them.
    fn repl_wait(&self, i: usize, lsn: Lsn) -> Result<()> {
        if lsn == Lsn::ZERO || !self.repl.should_wait() {
            return Ok(());
        }
        let t = self.obs.timer();
        if self.repl.acks[i].wait_for(lsn, REPL_ACK_TIMEOUT)? {
            self.obs.phase_detail("repl.sync_wait", t, i as u64);
            Ok(())
        } else {
            Err(MmdbError::Invalid(format!(
                "semi-sync replication ack timed out after {REPL_ACK_TIMEOUT:?} waiting for \
                 {lsn} on shard {i} (standby down?)"
            )))
        }
    }

    /// The replication gate (semi-sync ack watermarks). Servers wire
    /// standby acks into it; it is inert otherwise.
    pub fn repl_gate(&self) -> &Arc<ReplGate> {
        &self.repl
    }

    /// Makes every shard's log a replication slot (idempotent): pins
    /// its truncation and starts its watermark's lag marks. Called at
    /// the first standby hello, or at startup by a declared primary.
    pub fn enable_repl_slots(&self) {
        self.repl_slots.call_once(|| {
            for i in 0..self.shards() {
                self.with_shard(i, |e| {
                    // Pin truncation at the shard's current log start
                    // (under the shard lock, so no checkpoint races the
                    // seed): from here on the standby's acks decide what
                    // the checkpointer may cut.
                    let pin = &self.repl.pins[i];
                    pin.fetch_max(e.log_start_lsn().raw(), Ordering::SeqCst);
                    e.set_repl_truncate_pin(Arc::clone(pin));
                });
                self.watermarks[i].enable_lag_marks();
            }
        });
    }

    /// Shard `i`'s durable-LSN watermark: group committers park on it,
    /// and a replication pull long-polls it.
    pub fn log_watermark(&self, i: usize) -> &DurableWatermark {
        &self.watermarks[i]
    }

    /// Reads shard `i`'s durable log from `from`, cut to whole frames,
    /// with the device end the read was cut against
    /// ([`Mmdb::read_log_range`]). Takes the shard's gate **shared**, so
    /// a replication pull never takes the exclusive gate.
    pub fn read_log_range(&self, i: usize, from: Lsn, max_bytes: usize) -> Result<(Lsn, Vec<u8>)> {
        self.read_shard(i).read_log_range(from, max_bytes)
    }

    /// Runs `f` with shard `i` locked — the access path for tests,
    /// tools and one-off maintenance.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut Mmdb) -> R) -> R {
        f(&mut self.lock(i))
    }

    /// Hands every shard's background loop its maintenance duties
    /// (`Some`: a server starting), or takes them back (`None`: one
    /// stopping — the loops then only force group commits). When this
    /// returns, no duty of the previous setting is in flight.
    pub fn set_maintenance(&self, duties: Option<Maintenance>) {
        for (i, bell) in self.core.bells.iter().enumerate() {
            bell.state.lock().duties = duties;
            bell.cv.notify_one();
            // A pass that read the old duties holds the gate until done.
            drop(self.core.lock(i));
        }
    }

    /// Checkpoints the shard loops have completed, summed across shards.
    pub fn checkpoints_completed(&self) -> u64 {
        self.core.counted(CHECKPOINTS).sum()
    }

    /// Log-maintenance passes the shard loops have completed: one pass
    /// is a rotate + compaction on every shard.
    pub fn compaction_passes(&self) -> u64 {
        self.core.counted(COMPACTIONS).min().unwrap_or(0)
    }

    /// Tears the router down and returns the shard engines in index
    /// order. The shard loops are stopped and joined first (with a final
    /// drain force), so no `ShardCore` clone outlives the router.
    pub fn into_engines(self) -> Vec<Mmdb> {
        let core = Arc::clone(&self.core);
        drop(self);
        let core = Arc::try_unwrap(core)
            .unwrap_or_else(|_| unreachable!("shard loops joined; no ShardCore clones remain"));
        core.shards
            .into_iter()
            .map(RankedRwLock::into_inner)
            .collect()
    }

    // ----- reads -----------------------------------------------------------

    /// Reads a record's last committed value (no transaction).
    ///
    /// The hot path is **lock-free**: the shard's seqlock record store is
    /// consulted without taking the shard gate, retrying a handful of
    /// times if a concurrent writer (or the crash/recovery gate)
    /// interferes, then failing over to the exclusive-locked read. The
    /// store only ever holds committed values, so the result is exactly
    /// what the locked path would have returned at some instant during
    /// the call — the same linearizability contract the mutex gave.
    pub fn read_committed(&self, rid: RecordId) -> Result<Vec<Word>> {
        let shard = self.shard_of(rid)?;
        let local = self.local_rid(rid);
        let mirror = &self.mirrors[shard];
        let mut out = vec![0; self.record_words];
        for _ in 0..LOCKFREE_READ_RETRIES {
            if mirror.try_read(local, &mut out) {
                self.obs.counter("router.reads_lockfree", 1);
                return Ok(out);
            }
        }
        self.obs.counter("router.reads_lockfree_fallback", 1);
        self.lock(shard).read_committed(local)
    }

    // ----- batch transactions ----------------------------------------------

    /// Runs a whole transaction (all updates, then commit). Single-shard
    /// write sets take the fast path — one shard lock, the engine's own
    /// two-color rerun loop. Cross-shard write sets run two-phase commit
    /// with ordered lock acquisition; the commit is all-or-nothing
    /// across shards under any crash.
    pub fn run_txn(&self, updates: &[(RecordId, Vec<Word>)]) -> Result<TxnRun> {
        // Values are *borrowed* into the per-shard buckets: the engine's
        // generic commit paths copy each value exactly once, straight
        // into the log record — no router-side clone of the write set.
        let mut by_shard: BTreeMap<usize, Vec<(RecordId, &[Word])>> = BTreeMap::new();
        for (rid, value) in updates {
            let shard = self.shard_of(*rid)?;
            by_shard
                .entry(shard)
                .or_default()
                .push((self.local_rid(*rid), value.as_slice()));
        }
        if self.audit.is_enabled() {
            for (rid, _) in updates {
                // Route through `shard_of` — the same function the
                // buckets above used — so the audit event reports the
                // route actually taken, not a re-derivation that could
                // silently diverge from it.
                let shard = self.shard_of(*rid)?;
                self.audit.emit(|| AuditEvent::ShardRouted {
                    record: *rid,
                    shard,
                });
            }
        }
        if by_shard.len() <= 1 {
            let shard = by_shard.keys().next().copied().unwrap_or(0);
            let local = by_shard.remove(&shard).unwrap_or_default();
            // Both guards below drop before the watermark wait: under
            // group commit the shard is free for other committers while
            // this one waits — and the shard loop's force takes the gate
            // exclusively, so waiting with a guard held would deadlock.
            let run = 'exec: {
                // Shared-mode attempt: disjoint-segment committers run
                // concurrently under read guards, serializing only at
                // the interior log lock. `None` (checkpoint active,
                // quiesce pending, crashed, invalid updates…) falls
                // back to the exclusive path below.
                {
                    let g = self.read_shard(shard);
                    let t = self.obs.timer();
                    if let Some(run) = g.try_commit_shared(&local)? {
                        self.obs.phase_detail("txn.exec_shared", t, shard as u64);
                        self.obs.counter("router.txns_single_shared", 1);
                        break 'exec run;
                    }
                }
                let mut g = self.lock(shard);
                let t = self.obs.timer();
                let run = g.run_txn(&local)?;
                self.obs.phase_detail("txn.exec", t, shard as u64);
                run
            };
            if self.group {
                self.wait_durable(shard, run.commit_lsn)?;
            }
            // Semi-sync: the commit is locally durable already; an ack
            // timeout here returns an error *without* a durability claim
            // (the caller must treat the outcome as uncertain, exactly
            // like a connection drop after commit).
            self.repl_wait(shard, run.commit_lsn)?;
            self.obs.counter("router.txns_single", 1);
            return Ok(run);
        }
        self.run_cross(&by_shard)
    }

    /// Cross-shard two-phase commit, rerun after two-color aborts (the
    /// same discipline as the engine's own [`Mmdb::run_txn`] rerun
    /// loop, lifted across shards).
    fn run_cross(&self, by_shard: &BTreeMap<usize, Vec<(RecordId, &[Word])>>) -> Result<TxnRun> {
        let max_runs = 10 * (self.config.params.db.n_segments().max(10)) as u32;
        let mut runs = 0;
        loop {
            runs += 1;
            if runs > max_runs {
                return Err(MmdbError::Invalid(format!(
                    "cross-shard transaction failed to commit after {max_runs} reruns"
                )));
            }
            // A fresh gid per attempt: an aborted attempt's TxnPrepare
            // frames must never alias a later attempt's decision.
            let gid = self.next_gid.fetch_add(1, Ordering::SeqCst);
            match self.try_cross_once(gid, by_shard) {
                Ok(txn) => {
                    self.obs.counter("router.txns_cross", 1);
                    self.obs
                        .observe("router.cross_runs_per_commit", runs as u64);
                    // Semi-sync: every branch forced its records inline,
                    // so each involved shard's durable LSN covers this
                    // commit — wait for standby acks up to there.
                    if self.repl.should_wait() {
                        for &shard in by_shard.keys() {
                            let lsn = self.with_shard(shard, |e| e.log_durable_lsn());
                            self.repl_wait(shard, lsn)?;
                        }
                    }
                    // 2PC branches force their TxnPrepare and Decide records
                    // inline — already durable, nothing to wait for.
                    return Ok(TxnRun {
                        txn,
                        runs,
                        commit_lsn: Lsn::ZERO,
                    });
                }
                Err(MmdbError::TwoColorViolation { .. }) => {
                    self.obs.counter("router.cross_reruns", 1);
                    // Let the conflicting checkpoints advance, then rerun.
                    for &shard in by_shard.keys() {
                        let mut g = self.lock(shard);
                        if g.is_checkpoint_active() {
                            if let Ok(StepOutcome::WaitingForLog) = g.checkpoint_step() {
                                g.force_log()?;
                            }
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One cross-shard attempt: lock ascending, prepare every branch,
    /// force the decision on the lowest shard, commit every branch,
    /// unlock descending. Any failure before the decision aborts every
    /// prepared branch (presumed abort — consistent with what recovery
    /// would conclude from the logs).
    fn try_cross_once(
        &self,
        gid: u64,
        by_shard: &BTreeMap<usize, Vec<(RecordId, &[Word])>>,
    ) -> Result<TxnId> {
        let mut guards: Vec<(usize, RankedRwWriteGuard<'_, Mmdb>)> =
            Vec::with_capacity(by_shard.len());
        for &shard in by_shard.keys() {
            let g = self.lock(shard);
            self.audit
                .emit(|| AuditEvent::ShardLockAcquired { gid, shard });
            guards.push((shard, g));
        }

        // Phase one: stage and prepare a branch on every shard.
        let t_prepare = self.obs.timer();
        let mut prepared: Vec<(usize, TxnId)> = Vec::with_capacity(guards.len());
        let mut failure: Option<MmdbError> = None;
        'prepare: for (pos, (shard, g)) in guards.iter_mut().enumerate() {
            let txn = match g.begin_txn() {
                Ok(t) => t,
                Err(e) => {
                    failure = Some(e);
                    break 'prepare;
                }
            };
            let writes = by_shard.get(shard).map(Vec::as_slice).unwrap_or(&[]);
            for (local, value) in writes {
                if let Err(e) = g.write(txn, *local, value) {
                    // A two-color violation consumed the transaction
                    // already; any other failure leaves it to abort.
                    let _ = g.abort(txn);
                    failure = Some(e);
                    break 'prepare;
                }
            }
            match g.prepare_txn(txn, gid) {
                Ok(()) => prepared.push((pos, txn)),
                Err(e) => {
                    let _ = g.abort(txn);
                    failure = Some(e);
                    break 'prepare;
                }
            }
        }
        self.obs
            .phase_detail("2pc.prepare", t_prepare, prepared.len() as u64);
        if failure.is_none() {
            // Commit point: the decision is forced on the coordinator
            // (lowest participating shard index).
            let t_decide = self.obs.timer();
            if let Err(e) = guards[0].1.log_decision(gid, true) {
                failure = Some(e);
            }
            self.obs
                .phase_detail("2pc.decide", t_decide, guards[0].0 as u64);
        }
        if let Some(e) = failure {
            for &(pos, txn) in &prepared {
                let _ = guards[pos].1.abort_prepared(txn);
            }
            self.release_all(guards, gid);
            return Err(e);
        }

        // Phase two: the decision is durable — the transaction IS
        // committed, no matter what happens below. A branch whose
        // `commit_prepared` fails stays prepared in memory; the durable
        // `Decide` record recommits it at the next recovery, exactly as
        // if the crash had landed here. Propagating the error instead
        // would skip the lock releases (a dangling acquisition in the
        // audit's LIFO checker), strand the remaining branches in-doubt
        // until a restart, and hand the caller an `Err` for a committed
        // transaction — an invitation to retry and double-apply.
        let coordinator_txn = prepared[0].1;
        for &(pos, txn) in &prepared {
            if guards[pos].1.commit_prepared(txn).is_err() {
                // Reported via counter; the decision stands regardless.
                self.obs.counter("router.phase2_branch_failures", 1);
            }
        }
        self.release_all(guards, gid);
        Ok(coordinator_txn)
    }

    /// Releases shard locks in reverse acquisition order (the audited
    /// discipline — [`mmdb_audit::ShardChecker`] verifies it).
    fn release_all(&self, guards: Vec<(usize, RankedRwWriteGuard<'_, Mmdb>)>, gid: u64) {
        for (shard, g) in guards.into_iter().rev() {
            drop(g);
            self.audit
                .emit(|| AuditEvent::ShardLockReleased { gid, shard });
        }
    }

    // ----- interactive transactions ----------------------------------------
    //
    // Wire-level transactions bind to the shard of the first record they
    // touch; operations on any other shard are rejected (cross-shard
    // work goes through `run_txn`'s all-or-nothing batch path). With one
    // shard this is exactly the unsharded interactive surface.

    /// Begins an interactive transaction. The id lives in the router's
    /// namespace; the shard-local transaction begins lazily at the first
    /// record operation.
    pub fn begin_txn(&self) -> Result<TxnId> {
        let id = self.next_txn.fetch_add(1, Ordering::SeqCst);
        self.open_map().insert(id, Binding { bound: None });
        self.obs.counter("router.interactive_begun", 1);
        Ok(TxnId(id))
    }

    /// Reads a record inside an interactive transaction.
    pub fn read(&self, txn: TxnId, rid: RecordId) -> Result<Vec<Word>> {
        let (shard, local_txn) = self.bind(txn, rid)?;
        let local = self.local_rid(rid);
        let result = self.lock(shard).read(local_txn, local);
        if let Err(e) = &result {
            self.evict_if_consumed(txn, e);
        }
        result
    }

    /// Writes a record inside an interactive transaction.
    pub fn write(&self, txn: TxnId, rid: RecordId, value: &[Word]) -> Result<()> {
        let (shard, local_txn) = self.bind(txn, rid)?;
        let local = self.local_rid(rid);
        let result = self.lock(shard).write(local_txn, local, value);
        if let Err(e) = &result {
            self.evict_if_consumed(txn, e);
        }
        result
    }

    /// Commits an interactive transaction. A transaction that never
    /// touched a record commits vacuously.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let Some(binding) = self.open_map().get(&txn.raw()).copied() else {
            return Err(MmdbError::NoSuchTxn(txn));
        };
        let result = match binding.bound {
            None => Ok(()),
            Some((shard, local_txn)) => {
                // The guard drops before the watermark wait, exactly as
                // in the batch fast path.
                let committed = {
                    let mut g = self.lock(shard);
                    g.commit(local_txn).map(|()| g.last_commit_lsn())
                };
                match committed {
                    Ok(commit_lsn) if self.group => self
                        .wait_durable(shard, commit_lsn)
                        .and_then(|()| self.repl_wait(shard, commit_lsn)),
                    Ok(commit_lsn) => self.repl_wait(shard, commit_lsn),
                    Err(e) => Err(e),
                }
            }
        };
        match &result {
            Ok(()) => {
                self.open_map().remove(&txn.raw());
            }
            Err(e) => self.evict_if_consumed(txn, e),
        }
        result
    }

    /// Aborts an interactive transaction.
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let Some(binding) = self.open_map().get(&txn.raw()).copied() else {
            return Err(MmdbError::NoSuchTxn(txn));
        };
        let result = match binding.bound {
            None => Ok(()),
            Some((shard, local_txn)) => self.lock(shard).abort(local_txn),
        };
        match &result {
            Ok(()) => {
                self.open_map().remove(&txn.raw());
            }
            Err(e) => self.evict_if_consumed(txn, e),
        }
        result
    }

    #[track_caller]
    fn open_map(&self) -> RankedGuard<'_, HashMap<u64, Binding>> {
        self.open_txns.lock()
    }

    /// Resolves an interactive transaction to its shard branch, binding
    /// it to `rid`'s shard on first touch. Lock order is always
    /// `open_txns` → shard mutex, matching every other interactive path.
    fn bind(&self, txn: TxnId, rid: RecordId) -> Result<(usize, TxnId)> {
        let shard = self.shard_of(rid)?;
        let mut map = self.open_map();
        let Some(binding) = map.get_mut(&txn.raw()) else {
            return Err(MmdbError::NoSuchTxn(txn));
        };
        match binding.bound {
            Some((bound_shard, local_txn)) => {
                if bound_shard != shard {
                    return Err(MmdbError::Invalid(format!(
                        "{txn} is bound to shard {bound_shard}; record {} lives on shard \
                         {shard} (interactive transactions are single-shard — use a batch \
                         for cross-shard writes)",
                        rid.raw()
                    )));
                }
                Ok((shard, local_txn))
            }
            None => {
                let local_txn = self.lock(shard).begin_txn()?;
                binding.bound = Some((shard, local_txn));
                self.audit
                    .emit(|| AuditEvent::ShardRouted { record: rid, shard });
                Ok((shard, local_txn))
            }
        }
    }

    /// Drops the router binding when the engine has already consumed
    /// the shard-local transaction (two-color abort, unknown id) — the
    /// same eviction discipline the server applies to its per-connection
    /// open set.
    fn evict_if_consumed(&self, txn: TxnId, e: &MmdbError) {
        if matches!(
            e,
            MmdbError::TwoColorViolation { .. } | MmdbError::NoSuchTxn(_)
        ) {
            self.open_map().remove(&txn.raw());
        }
    }

    // ----- checkpointing ---------------------------------------------------

    /// Requests a checkpoint on every shard (the shard loops normally
    /// pace their own; this is the router-level surface for the wire
    /// `Checkpoint` request) and wakes each loop to drive it. Returns
    /// `Quiescing` if any shard is draining, `Started` if any began;
    /// errors only if *every* shard refused.
    pub fn try_begin_checkpoint(&self) -> Result<CheckpointStart> {
        let mut started = None;
        let mut quiescing = false;
        let mut last_err = None;
        for i in 0..self.shards() {
            match self.lock(i).try_begin_checkpoint() {
                Ok(CheckpointStart::Started(r)) => started = Some(r),
                Ok(CheckpointStart::Quiescing) => quiescing = true,
                Err(e) => last_err = Some(e),
            }
            self.core.bells[i].wake();
        }
        if quiescing {
            Ok(CheckpointStart::Quiescing)
        } else if let Some(r) = started {
            Ok(CheckpointStart::Started(r))
        } else {
            Err(last_err.unwrap_or(MmdbError::CheckpointInProgress))
        }
    }

    /// Runs one full synchronous checkpoint on every shard, in index
    /// order, returning the per-shard reports.
    pub fn checkpoint_all(&self) -> Result<Vec<CkptReport>> {
        let mut reports = Vec::with_capacity(self.shards());
        for i in 0..self.shards() {
            reports.push(self.lock(i).checkpoint()?);
        }
        Ok(reports)
    }

    /// Seals every shard's active log chunk (see
    /// [`Mmdb::rotate_log`]); returns how many shards actually rotated.
    pub fn rotate_logs(&self) -> Result<usize> {
        let mut rotated = 0;
        for i in 0..self.shards() {
            if self.lock(i).rotate_log()? {
                rotated += 1;
            }
        }
        Ok(rotated)
    }

    /// Runs one log-compaction pass on every shard, in index order (see
    /// [`Mmdb::compact_log`]); returns the per-shard reports. Each
    /// shard's pass holds only that shard's lock, so compaction on shard
    /// *i* never blocks transactions on shard *j*.
    pub fn compact_logs(&self) -> Result<Vec<CompactReport>> {
        let mut reports = Vec::with_capacity(self.shards());
        for i in 0..self.shards() {
            reports.push(self.lock(i).compact_log()?);
        }
        Ok(reports)
    }

    // ----- introspection ---------------------------------------------------

    /// Combined database fingerprint: per-shard fingerprints folded in
    /// index order (order-sensitive, so swapped shard contents change
    /// the result).
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.shards() as u64;
        for i in 0..self.shards() {
            h = h.rotate_left(13) ^ self.lock(i).fingerprint().wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// True when any shard engine is in the crashed state (no further
    /// operations until recovery).
    pub fn is_crashed(&self) -> bool {
        (0..self.shards()).any(|i| self.lock(i).is_crashed())
    }

    /// Total transactions committed across every shard engine. A
    /// cross-shard transaction counts once per participating branch,
    /// matching what each engine's own `txn_stats` reports.
    pub fn txn_committed(&self) -> u64 {
        (0..self.shards())
            .map(|i| self.lock(i).txn_stats().committed)
            .sum()
    }

    /// Audit violations from the router's shard-routing checkers plus
    /// every shard engine's protocol checkers.
    pub fn audit_violations(&self) -> Vec<AuditViolation> {
        let mut all = self.audit.violations();
        for i in 0..self.shards() {
            all.extend(self.lock(i).audit_violations());
        }
        all
    }

    /// Per-shard engine metric snapshots, in shard index order.
    pub fn shard_snapshots(&self) -> Vec<MetricsSnapshot> {
        (0..self.shards())
            .map(|i| self.lock(i).metrics_snapshot())
            .collect()
    }

    /// One merged snapshot of the whole topology: router metrics, the
    /// engines' metrics aggregated under their original names (counters
    /// and gauges summed, histograms, attribution rows and the paper
    /// section merged), and
    /// every shard's metrics again under a `shard.<i>.` prefix — the
    /// shard topology readable in a single `Stats` call.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let shard_snaps = self.shard_snapshots();
        let mut merged = MetricsSnapshot::capture(&self.obs);
        merged.put_gauge("shard.count", self.shards() as u64);
        for (k, name) in LOOP_COUNTS.iter().enumerate() {
            merged.put_counter(name, self.core.counted(k).sum());
        }
        let single = merged.counter("router.txns_single").unwrap_or(0);
        let cross = merged.counter("router.txns_cross").unwrap_or(0);
        if let Some(permille) = (cross * 1000).checked_div(single + cross) {
            merged.put_gauge("router.cross_permille", permille);
        }

        let mut agg_counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut agg_gauges: BTreeMap<String, u64> = BTreeMap::new();
        let mut agg_hists: BTreeMap<String, HistSummary> = BTreeMap::new();
        for (i, snap) in shard_snaps.iter().enumerate() {
            for (name, v) in &snap.counters {
                *agg_counters.entry(name.clone()).or_insert(0) += *v;
                merged.put_counter(&format!("shard.{i}.{name}"), *v);
            }
            for (name, v) in &snap.gauges {
                *agg_gauges.entry(name.clone()).or_insert(0) += *v;
                merged.put_gauge(&format!("shard.{i}.{name}"), *v);
            }
            for (name, h) in &snap.hists {
                agg_hists.entry(name.clone()).or_default().merge(h);
                merged.put_hist(&format!("shard.{i}.{name}"), *h);
            }
        }
        for (name, v) in agg_counters {
            merged.put_counter(&name, v);
        }
        for (name, v) in agg_gauges {
            merged.put_gauge(&name, v);
        }
        for (name, h) in agg_hists {
            merged.put_hist(&name, h);
        }
        for snap in &shard_snaps {
            merged.merge_attribution(&snap.attribution);
        }
        merged.paper = merged_paper(&shard_snaps);
        merged
    }

    /// The topology's span-tree trace dump — the document served to the
    /// wire `TraceDump` request and rendered by `mmdb-cli trace`: the
    /// slow-request logs and recent flight-recorder spans of the router
    /// and of every shard engine (recovery, checkpoint passes and other
    /// background work record on the engine's handle) in one document,
    /// the router's slow threshold heading it.
    pub fn trace_dump(&self, limit: usize) -> mmdb_obs::TraceDumpDoc {
        let engines: Vec<Obs> = (0..self.shards())
            .map(|i| self.core.read(i).obs().clone())
            .collect();
        let handles: Vec<&Obs> = std::iter::once(&self.obs).chain(&engines).collect();
        mmdb_obs::TraceDumpDoc::capture_all(&handles, limit)
    }

    /// Prometheus exposition for the whole topology: per-shard families
    /// carry a `shard="<i>"` label (one `# TYPE` line per family), and
    /// the router's own families plus the merged paper section follow
    /// unlabeled.
    pub fn prometheus(&self) -> String {
        let shard_snaps = self.shard_snapshots();
        let mut router = MetricsSnapshot::capture(&self.obs);
        router.paper = merged_paper(&shard_snaps);
        let mut text = to_prometheus_sharded(&shard_snaps);
        text.push_str(&router.to_prometheus());
        text
    }
}

/// The shards' paper sections folded into one.
fn merged_paper(shard_snaps: &[MetricsSnapshot]) -> Option<PaperOverhead> {
    shard_snaps
        .iter()
        .filter_map(|s| s.paper)
        .reduce(|mut all, p| {
            all.merge(&p);
            all
        })
}

fn validate_shards(config: &MmdbConfig, shards: usize) -> Result<()> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(MmdbError::Invalid(format!(
            "shard count must be in 1..={MAX_SHARDS}, got {shards}"
        )));
    }
    if shards as u64 > config.params.db.n_records() {
        return Err(MmdbError::Invalid(format!(
            "{shards} shards for {} records leaves empty shards",
            config.params.db.n_records()
        )));
    }
    Ok(())
}

/// Shard `i`'s engine directory inside the database directory `dir`.
pub fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard.{i}"))
}

/// Brings `dir` into the N-shard layout and returns N: the count its
/// topology marker pins, which `shards` (when given) must match, since
/// records would otherwise land on the wrong shards. A directory without
/// a marker is one shard — fresh, or from before the marker with its
/// engine at the root. That engine moves into `shard.0/` and the marker
/// is written last, so a move cut short finishes on the next open;
/// asked for more than one shard, such a directory is refused unchanged.
pub fn settle_layout(dir: &Path, shards: Option<usize>) -> Result<usize> {
    let marker = dir.join(TOPOLOGY_FILE);
    match std::fs::read_to_string(&marker) {
        Ok(text) => {
            let pinned: usize = text
                .trim()
                .strip_prefix("shards=")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    MmdbError::Invalid(format!("malformed topology marker {}", marker.display()))
                })?;
            match shards {
                Some(n) if n != pinned => Err(MmdbError::Invalid(format!(
                    "directory is sharded {pinned} ways; refusing to open with {n}"
                ))),
                _ => Ok(pinned),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let shards = shards.unwrap_or(1);
            let shard0 = shard_dir(dir, 0);
            let at_root: Vec<&str> = ROOT_ENGINE_FILES
                .into_iter()
                .filter(|f| dir.join(f).exists())
                .collect();
            if shards != 1 && (!at_root.is_empty() || shard0.exists()) {
                return Err(MmdbError::Invalid(format!(
                    "{} holds a 1-shard database without a topology marker; \
                     refusing to open it with {shards} shards",
                    dir.display()
                )));
            }
            std::fs::create_dir_all(dir)?;
            for f in at_root {
                std::fs::create_dir_all(&shard0)?;
                std::fs::rename(dir.join(f), shard0.join(f))?;
            }
            std::fs::write(&marker, format!("shards={shards}\n"))?;
            Ok(shards)
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_obs::validate_prometheus;
    use mmdb_types::Algorithm;
    use std::path::PathBuf;

    fn cfg() -> MmdbConfig {
        MmdbConfig::small(Algorithm::FuzzyCopy)
    }

    fn fill(words: usize, seed: u32) -> Vec<Word> {
        (0..words as u32).map(|i| seed ^ (i << 8)).collect()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn partition_math_covers_every_record() {
        let db = cfg().params.db;
        for shards in [1usize, 2, 3, 4, 8] {
            let sp = shard_db_params(&db, shards);
            assert_eq!(sp.s_db % sp.s_seg, 0, "whole segments at {shards}");
            sp.validate().expect("valid shard shape");
            // Every global record fits in its shard's local space.
            for rid in [0, 1, shards as u64, db.n_records() - 1] {
                let local = rid / shards as u64;
                assert!(local < sp.n_records(), "rid {rid} at {shards} shards");
            }
            // Capacity is not wasteful: at most one extra segment.
            assert!(
                sp.n_records() < db.n_records().div_ceil(shards as u64) + sp.records_per_segment()
            );
        }
    }

    #[test]
    fn single_and_cross_shard_batches_commit_and_read_back() {
        let db = ShardedMmdb::open_in_memory(cfg(), 4).expect("open");
        let w = db.record_words();
        // Single-shard: rids 0 and 4 both live on shard 0.
        db.run_txn(&[(RecordId(0), fill(w, 1)), (RecordId(4), fill(w, 2))])
            .expect("single-shard txn");
        // Cross-shard: rids 1, 2, 3 live on shards 1, 2, 3.
        db.run_txn(&[
            (RecordId(1), fill(w, 3)),
            (RecordId(2), fill(w, 4)),
            (RecordId(3), fill(w, 5)),
        ])
        .expect("cross-shard txn");
        assert_eq!(db.read_committed(RecordId(0)).expect("read"), fill(w, 1));
        assert_eq!(db.read_committed(RecordId(4)).expect("read"), fill(w, 2));
        assert_eq!(db.read_committed(RecordId(1)).expect("read"), fill(w, 3));
        assert_eq!(db.read_committed(RecordId(2)).expect("read"), fill(w, 4));
        assert_eq!(db.read_committed(RecordId(3)).expect("read"), fill(w, 5));
        assert!(db.audit_violations().is_empty(), "clean audit");
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("router.txns_single"), Some(1));
        assert_eq!(snap.counter("router.txns_cross"), Some(1));
    }

    #[test]
    fn interactive_txns_bind_to_one_shard() {
        let db = ShardedMmdb::open_in_memory(cfg(), 4).expect("open");
        let w = db.record_words();
        let t = db.begin_txn().expect("begin");
        db.write(t, RecordId(5), &fill(w, 9))
            .expect("write binds shard 1");
        // rid 6 lives on shard 2: rejected, transaction stays usable.
        let err = db.write(t, RecordId(6), &fill(w, 9)).expect_err("cross");
        assert!(matches!(err, MmdbError::Invalid(_)), "got {err}");
        db.write(t, RecordId(9), &fill(w, 10))
            .expect("same shard ok");
        db.commit(t).expect("commit");
        assert_eq!(db.read_committed(RecordId(5)).expect("read"), fill(w, 9));
        assert_eq!(db.read_committed(RecordId(9)).expect("read"), fill(w, 10));
        // Unbound transactions commit vacuously; unknown ids are errors.
        let empty = db.begin_txn().expect("begin");
        db.commit(empty).expect("vacuous commit");
        assert!(db.commit(TxnId(u64::MAX)).is_err());
    }

    /// Six single-record transactions (three per shard of two), so the
    /// branches prepared next get ids the next incarnation's first
    /// transactions do not reuse.
    fn spend_txn_ids(db: &ShardedMmdb) {
        let w = db.record_words();
        for rid in 2..8u64 {
            db.run_txn(&[(RecordId(rid), fill(w, rid as u32))])
                .expect("txn");
        }
    }

    #[test]
    fn prepared_without_decision_presumed_abort_after_crash() {
        let dir = tmpdir("presumed-abort");
        let w;
        {
            let (db, _) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("open");
            w = db.record_words();
            db.checkpoint_all().expect("seed backups");
            spend_txn_ids(&db);
            // Tear a cross-shard transaction open by hand: both branches
            // prepared (durably), no decision anywhere.
            for shard in [0usize, 1] {
                db.with_shard(shard, |e| -> Result<()> {
                    let t = e.begin_txn()?;
                    e.write(t, RecordId(0), &fill(w, 0xdead))?;
                    e.prepare_txn(t, 77)
                })
                .expect("prepare branch");
            }
            // db dropped here: the crash. TxnPrepare frames were forced.
        }
        {
            let (db, rec) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("reopen");
            assert_eq!(rec.in_doubt_aborted, 2, "both branches presumed abort");
            assert_eq!(rec.in_doubt_committed, 0);
            for rid in [0u64, 1] {
                let v = db.read_committed(RecordId(rid)).expect("read");
                assert_ne!(v, fill(w, 0xdead), "rid {rid} must not show torn writes");
            }
        }
        // A second crash inside the same replay window: the abort was
        // logged under each branch's own id, so nothing is in doubt.
        let (_db, rec) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("second reopen");
        assert_eq!((rec.in_doubt_aborted, rec.in_doubt_committed), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepared_with_decision_commits_all_branches_after_crash() {
        let dir = tmpdir("decided-commit");
        let w;
        {
            let (db, _) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("open");
            w = db.record_words();
            db.checkpoint_all().expect("seed backups");
            spend_txn_ids(&db);
            for shard in [0usize, 1] {
                db.with_shard(shard, |e| -> Result<()> {
                    let t = e.begin_txn()?;
                    e.write(t, RecordId(0), &fill(w, 0xbeef))?;
                    e.prepare_txn(t, 99)
                })
                .expect("prepare branch");
            }
            // The coordinator's forced decision is the commit point; the
            // crash lands before any commit_prepared.
            db.with_shard(0, |e| e.log_decision(99, true))
                .expect("decide");
        }
        {
            let (db, rec) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("reopen");
            assert_eq!(rec.in_doubt_committed, 2, "decision commits both branches");
            assert_eq!(rec.in_doubt_aborted, 0);
            // Global rids 0 and 1 are local rid 0 on shards 0 and 1.
            for rid in [0u64, 1] {
                let v = db.read_committed(RecordId(rid)).expect("read");
                assert_eq!(v, fill(w, 0xbeef), "rid {rid} shows the decided write");
            }
            assert!(db.audit_violations().is_empty());
            // An acked commit over a resolved record, then a second crash
            // inside the same replay window.
            db.run_txn(&[(RecordId(0), fill(w, 0xf00d))]).expect("txn");
        }
        let (db, rec) = ShardedMmdb::open_dir(cfg(), &dir, 2).expect("second reopen");
        assert_eq!(
            (rec.in_doubt_committed, rec.in_doubt_aborted),
            (0, 0),
            "each branch was finished under its own id"
        );
        assert_eq!(
            db.read_committed(RecordId(0)).expect("read"),
            fill(w, 0xf00d),
            "the resolved branch is not re-applied over the later commit"
        );
        assert_eq!(
            db.read_committed(RecordId(1)).expect("read"),
            fill(w, 0xbeef)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_state_survives_clean_reopen_and_pins_topology() {
        let dir = tmpdir("reopen");
        let w;
        let fp;
        {
            let (db, rec) = ShardedMmdb::open_dir(cfg(), &dir, 4).expect("open");
            assert!(rec.shards.iter().all(Option::is_none), "fresh dir");
            w = db.record_words();
            for rid in 0..16u64 {
                db.run_txn(&[(RecordId(rid), fill(w, rid as u32))])
                    .expect("txn");
            }
            db.run_txn(&[(RecordId(20), fill(w, 20)), (RecordId(21), fill(w, 21))])
                .expect("cross");
            db.checkpoint_all().expect("checkpoint");
            fp = db.fingerprint();
        }
        assert!(
            ShardedMmdb::open_dir(cfg(), &dir, 2).is_err(),
            "topology marker refuses a different shard count"
        );
        let (db, _) = ShardedMmdb::open_dir(cfg(), &dir, 4).expect("reopen");
        assert_eq!(db.fingerprint(), fp, "state identical after recovery");
        for rid in 0..16u64 {
            assert_eq!(
                db.read_committed(RecordId(rid)).expect("read"),
                fill(w, rid as u32)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_snapshot_and_prometheus_exposition_are_valid() {
        let db = ShardedMmdb::open_in_memory(cfg(), 4).expect("open");
        let w = db.record_words();
        for rid in 0..8u64 {
            db.run_txn(&[(RecordId(rid), fill(w, rid as u32))])
                .expect("txn");
        }
        db.run_txn(&[(RecordId(0), fill(w, 50)), (RecordId(1), fill(w, 51))])
            .expect("cross");
        db.checkpoint_all().expect("checkpoint");

        let snap = db.metrics_snapshot();
        assert_eq!(snap.gauge("shard.count"), Some(4));
        // Aggregated counter equals the sum of the per-shard ones.
        let total = snap.counter("txn.committed").expect("aggregate");
        let per_shard: u64 = (0..4)
            .map(|i| {
                snap.counter(&format!("shard.{i}.txn.committed"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, per_shard);
        assert!(total >= 10, "8 singles + 2 cross branches, got {total}");
        assert!(snap.gauge("router.cross_permille").is_some());
        // histograms and the paper section merge the same way
        let commit = snap.hist("txn.commit_ns").expect("merged histogram");
        let per_shard: Vec<_> = (0..4)
            .filter_map(|i| snap.hist(&format!("shard.{i}.txn.commit_ns")))
            .collect();
        assert_eq!(commit.count, per_shard.iter().map(|h| h.count).sum::<u64>());
        assert_eq!(
            commit.max,
            per_shard.iter().map(|h| h.max).max().unwrap_or(0)
        );
        assert_eq!(snap.paper.map(|p| p.committed), Some(total));

        let text = db.prometheus();
        validate_prometheus(&text).expect("valid exposition");
        assert!(text.contains("shard=\"3\""), "labeled per-shard samples");
    }

    #[test]
    fn one_shard_preserves_the_unsharded_surface() {
        let sharded = ShardedMmdb::open_in_memory(cfg(), 1).expect("open");
        let w = sharded.record_words();
        sharded
            .run_txn(&[(RecordId(0), fill(w, 1)), (RecordId(1), fill(w, 2))])
            .expect("any batch is single-shard at N=1");
        let t = sharded.begin_txn().expect("begin");
        sharded.write(t, RecordId(2), &fill(w, 3)).expect("write");
        sharded.commit(t).expect("commit");
        assert_eq!(
            sharded.read_committed(RecordId(2)).expect("read"),
            fill(w, 3)
        );
        let snap = sharded.metrics_snapshot();
        assert_eq!(snap.counter("router.txns_cross").unwrap_or(0), 0);
        assert_eq!(snap.gauge("shard.count"), Some(1));
        // the engine's own surface reads back under its original names
        let engine = sharded.shard_snapshots().remove(0);
        assert!(engine.paper.is_some());
        assert_eq!(snap.paper, engine.paper);
        for (name, h) in &engine.hists {
            assert_eq!(snap.hist(name), Some(h), "{name}");
        }
        validate_prometheus(&sharded.prometheus()).expect("no duplicate families");
        assert!(sharded.audit_violations().is_empty());
    }

    #[test]
    fn engine_background_spans_reach_the_topology_dump_and_attribution() {
        let mut config = cfg();
        config.telemetry = true;
        for shards in [1, 2] {
            let db = ShardedMmdb::open_in_memory(config, shards).expect("open");
            let w = db.record_words();
            db.run_txn(&[(RecordId(0), fill(w, 1))]).expect("txn");
            // a checkpoint outside any request scope records on each
            // engine's own handle, attributed to the system op
            db.checkpoint_all().expect("checkpoint");

            let doc = db.trace_dump(4096);
            let passes = doc.recent.iter().filter(|s| s.name == "ckpt.pass").count();
            assert_eq!(passes, shards, "one pass span a shard in the dump");
            let snap = db.metrics_snapshot();
            let system = snap
                .attribution
                .iter()
                .find(|r| r.op == mmdb_obs::SYSTEM_OP)
                .expect("system attribution row");
            let pass_row = system.phases.iter().find(|(p, ..)| p == "ckpt.pass");
            assert_eq!(pass_row.map(|(_, n, _)| *n), Some(shards as u64));
        }
    }

    #[test]
    fn sync_contention_counters_reach_the_metrics_surface() {
        let mut config = cfg();
        config.telemetry = true;
        let db = ShardedMmdb::open_in_memory(config, 2).expect("open");
        let w = db.record_words();
        // Single- and cross-shard traffic so engine locks, the txn
        // table, and the watermark all get held at least once.
        db.run_txn(&[(RecordId(0), fill(w, 1))]).expect("single");
        db.run_txn(&[(RecordId(0), fill(w, 2)), (RecordId(1), fill(w, 3))])
            .expect("cross");
        // An interactive txn is what exercises the router's txn table.
        let t = db.begin_txn().expect("begin");
        db.write(t, RecordId(2), &fill(w, 4)).expect("write");
        db.commit(t).expect("commit");

        let snap = db.metrics_snapshot();
        let hist_names: Vec<&str> = snap.hists.iter().map(|(n, _)| n.as_str()).collect();
        for name in [
            "sync.engine.0.held_us",
            "sync.engine.1.held_us",
            "sync.router.txns.held_us",
        ] {
            assert!(
                hist_names.contains(&name),
                "missing {name}; hists: {hist_names:?}"
            );
        }
        // Contended counts exist only under real contention, but the
        // families must still render as one TYPE line each when present
        // alongside the per-shard samples.
        let text = db.prometheus();
        validate_prometheus(&text).expect("sync.* families keep the exposition valid");
        assert!(
            text.contains("sync_engine_0_held_us"),
            "sync hold-time family exported:\n{text}"
        );
    }

    fn group_cfg() -> MmdbConfig {
        let mut config = cfg();
        config.commit_durability = CommitDurability::Group;
        config
    }

    #[test]
    fn group_commit_acks_are_durable_and_counted() {
        let db = ShardedMmdb::open_in_memory(group_cfg(), 2).expect("open");
        let w = db.record_words();
        db.run_txn(&[(RecordId(0), fill(w, 1))]).expect("txn 0");
        db.run_txn(&[(RecordId(1), fill(w, 2))]).expect("txn 1");
        let t = db.begin_txn().expect("begin");
        db.write(t, RecordId(2), &fill(w, 3)).expect("write");
        db.commit(t).expect("interactive group commit");
        assert_eq!(db.read_committed(RecordId(0)).expect("read"), fill(w, 1));
        assert_eq!(db.read_committed(RecordId(1)).expect("read"), fill(w, 2));
        assert_eq!(db.read_committed(RecordId(2)).expect("read"), fill(w, 3));
        // Each ack returned only after a flusher force covered its
        // commit LSN, so the group counters already include all three.
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("log.group_commit.commits"), Some(3));
        assert!(snap.counter("log.group_commit.forces").unwrap_or(0) >= 1);
        assert!(db.audit_violations().is_empty());
    }

    #[test]
    fn concurrent_group_committers_all_get_durable_acks() {
        let db = Arc::new(ShardedMmdb::open_in_memory(group_cfg(), 2).expect("open"));
        let w = db.record_words();
        let threads: Vec<_> = (0..4u64)
            .map(|tid| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for round in 0..5u32 {
                        let seed = ((tid as u32) << 8) | round;
                        db.run_txn(&[(RecordId(tid), fill(w, seed))])
                            .expect("group txn");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("committer thread");
        }
        for tid in 0..4u64 {
            let last = ((tid as u32) << 8) | 4;
            assert_eq!(
                db.read_committed(RecordId(tid)).expect("read"),
                fill(w, last)
            );
        }
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("log.group_commit.commits"), Some(20));
        assert!(db.audit_violations().is_empty());
    }

    #[test]
    fn into_engines_joins_group_flushers_cleanly() {
        let db = ShardedMmdb::open_in_memory(group_cfg(), 2).expect("open");
        let w = db.record_words();
        db.run_txn(&[(RecordId(0), fill(w, 7)), (RecordId(2), fill(w, 8))])
            .expect("txn");
        let mut engines = db.into_engines();
        assert_eq!(engines.len(), 2);
        // Global rids 0 and 2 are local rids 0 and 1 on shard 0.
        assert_eq!(
            engines[0].read_committed(RecordId(0)).expect("read"),
            fill(w, 7)
        );
        assert_eq!(
            engines[0].read_committed(RecordId(1)).expect("read"),
            fill(w, 8)
        );
        engines.clear();
    }

    #[test]
    fn back_to_back_checkpoints_never_starve_group_committers() {
        // COU steps never force the log: between checkpoint begins only
        // the loop's group force acks these commits.
        let mut config = group_cfg();
        config.algorithm = Algorithm::CouCopy;
        let db = ShardedMmdb::open_in_memory(config, 1).expect("open");
        db.set_maintenance(Some(Maintenance {
            checkpoint_interval: Some(Duration::ZERO),
            compact_interval: None,
        }));
        let w = db.record_words();
        let deadline = Instant::now() + Duration::from_secs(20);
        // Each committer keeps going until two checkpoints completed
        // under its load, so every ack below raced the checkpointer.
        let slowest = std::thread::scope(|scope| {
            let committers: Vec<_> = (0..4u64)
                .map(|tid| {
                    let db = &db;
                    scope.spawn(move || {
                        let mut slowest = Duration::ZERO;
                        let mut round = 0u32;
                        while round < 20 || db.checkpoints_completed() < 2 {
                            assert!(Instant::now() < deadline, "checkpoints stalled");
                            let t = Instant::now();
                            db.run_txn(&[(RecordId(tid), fill(w, (tid as u32) << 16 | round))])
                                .expect("group txn");
                            slowest = slowest.max(t.elapsed());
                            round += 1;
                        }
                        slowest
                    })
                })
                .collect();
            committers
                .into_iter()
                .map(|c| c.join().expect("committer thread"))
                .max()
        });
        let slowest = slowest.expect("four committers");
        assert!(
            slowest < GROUP_ACK_TIMEOUT / 30,
            "a commit waited {slowest:?} for its ack behind the checkpointer"
        );
        assert!(db.checkpoints_completed() >= 2);
        let fp = db.fingerprint();
        db.with_shard(0, |e| e.crash().and_then(|()| e.recover()))
            .expect("crash and recover");
        assert_eq!(
            db.fingerprint(),
            fp,
            "every acked commit survives the crash"
        );
    }

    #[test]
    fn failed_background_duties_are_counted() {
        let config = cfg();
        let (device, control) = mmdb_core::FlakyLogDevice::new();
        let engine =
            Mmdb::open_with_log_device(shard_config(&config, 1), Box::new(device)).expect("engine");
        let db = ShardedMmdb::from_engines(config, vec![engine]).expect("router");
        let w = db.record_words();
        db.run_txn(&[(RecordId(0), fill(w, 1))]).expect("seed");
        control.fail_after_next(0);
        db.set_maintenance(Some(Maintenance {
            checkpoint_interval: Some(Duration::ZERO),
            compact_interval: Some(Duration::ZERO),
        }));
        let deadline = Instant::now() + Duration::from_secs(10);
        let errors = loop {
            let snap = db.metrics_snapshot();
            match snap.counter("maint.checkpoint_errors") {
                Some(n) if n > 0 => break snap,
                _ => assert!(Instant::now() < deadline, "no checkpoint error counted"),
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(errors.counter("maint.checkpoints"), Some(0));
        assert!(errors.counter("maint.compactions").unwrap_or(0) >= 1);
    }

    #[test]
    fn phase_two_branch_failure_still_commits_and_releases_locks() {
        let config = cfg();
        let scfg = shard_config(&config, 2);
        let shard0 = Mmdb::open_in_memory(scfg).expect("shard 0");
        let (device, control) = mmdb_core::FlakyLogDevice::new();
        let shard1 = Mmdb::open_with_log_device(scfg, Box::new(device)).expect("shard 1");
        let db = ShardedMmdb::from_engines(config, vec![shard0, shard1]).expect("router");
        let w = db.record_words();

        // Seed both shards so the cross transaction overwrites known
        // values (one forced append each).
        db.run_txn(&[(RecordId(0), fill(w, 1))])
            .expect("seed shard 0");
        db.run_txn(&[(RecordId(1), fill(w, 2))])
            .expect("seed shard 1");

        // The next append on shard 1's device (the TxnPrepare force)
        // succeeds; the one after (the commit_prepared force) fails —
        // i.e. the failure lands *after* the durable decision.
        control.fail_after_next(1);
        let run = db
            .run_txn(&[(RecordId(0), fill(w, 11)), (RecordId(1), fill(w, 12))])
            .expect("the decision is durable: the transaction is committed");
        assert_eq!(run.runs, 1);

        // Shard 0's branch committed; shard 1's branch is stranded
        // prepared in memory (its commit force failed) — the durable
        // Decide record recommits it at the next recovery.
        assert_eq!(db.read_committed(RecordId(0)).expect("read"), fill(w, 11));
        assert_eq!(db.read_committed(RecordId(1)).expect("read"), fill(w, 2));
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("router.phase2_branch_failures"), Some(1));
        // Every acquired shard lock was released in LIFO order — the
        // audit's shard checker sees a balanced event stream.
        assert!(db.audit_violations().is_empty());
    }

    #[test]
    fn shard_count_validation() {
        assert!(ShardedMmdb::open_in_memory(cfg(), 0).is_err());
        assert!(ShardedMmdb::open_in_memory(cfg(), MAX_SHARDS + 1).is_err());
        assert!(ShardedMmdb::open_in_memory(cfg(), 8).is_ok());
    }

    #[test]
    fn request_scope_collects_router_phases_into_one_trace() {
        let db = ShardedMmdb::open_in_memory(cfg(), 4).expect("open");
        let w = db.record_words();
        let scope = db
            .obs()
            .request_scope("net.request", "net.request_ns", "txn", 0x51ab, 7);
        let trace_id = scope.trace_id();
        db.run_txn(&[(RecordId(0), fill(w, 1)), (RecordId(1), fill(w, 2))])
            .expect("cross-shard txn under scope");
        scope.finish();

        assert_eq!(trace_id, 0x51ab, "wire-supplied trace id is kept");
        let (spans, _, _) = db.obs().flight_spans(256);
        let mine: Vec<&str> = spans
            .iter()
            .filter(|s| s.op == "txn")
            .map(|s| s.name)
            .collect();
        for phase in [
            "engine.lock_wait",
            "2pc.prepare",
            "2pc.decide",
            "net.request",
        ] {
            assert!(mine.contains(&phase), "missing {phase} in {mine:?}");
        }
        // The attribution table carries the same request under op "txn".
        let attr = db.obs().attribution();
        let row = attr.iter().find(|r| r.op == "txn").expect("txn row");
        assert_eq!(row.requests, 1);
        assert!(row.phases.iter().any(|(n, _, _)| n == "2pc.prepare"));
        // And the dump document parses back with the trace id intact.
        let doc = mmdb_obs::TraceDumpDoc::from_json(&db.trace_dump(64).to_json()).expect("dump");
        assert!(doc.recent.iter().any(|s| s.trace_id == 0x51ab));
    }

    #[test]
    fn group_force_is_tagged_with_the_ringer_trace_id() {
        let db = ShardedMmdb::open_in_memory(group_cfg(), 2).expect("open");
        let w = db.record_words();
        let scope = db
            .obs()
            .request_scope("net.request", "net.request_ns", "txn", 0xF00D, 0);
        db.run_txn(&[(RecordId(0), fill(w, 1))]).expect("group txn");
        scope.finish();
        // The ack returned only after a force covered the commit LSN,
        // and the doorbell carried the scope's trace id to the flusher.
        // A force already in flight may have consumed an earlier (or
        // zero) tag, so ring again and wait for one more tagged force.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut round = 0u32;
        loop {
            let (spans, _, _) = db.obs().flight_spans(1024);
            if spans
                .iter()
                .any(|s| s.name == "group.force" && s.trace_id == 0xF00D)
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no group.force tagged 0xF00D after {round} rounds"
            );
            round += 1;
            let scope = db
                .obs()
                .request_scope("net.request", "net.request_ns", "txn", 0xF00D, 0);
            db.run_txn(&[(RecordId(1), fill(w, round))]).expect("txn");
            scope.finish();
        }
    }

    #[test]
    fn tracing_does_not_change_engine_behavior() {
        let run = |telemetry: bool| {
            let mut config = cfg();
            config.telemetry = telemetry;
            let db = ShardedMmdb::open_in_memory(config, 2).expect("open");
            let w = db.record_words();
            for rid in 0..6u64 {
                let scope =
                    db.obs()
                        .request_scope("net.request", "net.request_ns", "txn", rid + 1, 0);
                db.run_txn(&[(RecordId(rid % 4), fill(w, rid as u32))])
                    .expect("txn");
                scope.finish();
            }
            db.run_txn(&[(RecordId(0), fill(w, 90)), (RecordId(1), fill(w, 91))])
                .expect("cross");
            db.checkpoint_all().expect("checkpoint");
            db.fingerprint()
        };
        assert_eq!(
            run(true),
            run(false),
            "telemetry and tracing must be invisible to engine state"
        );
    }
}
