//! The standby's half of replication: continuous replay of the
//! primary's per-shard log streams, and promotion to primary.
//!
//! One pull thread per shard ([`pull_shard_loop`]) drains that shard's
//! stream through the shared [`Replica`] state. Replay is *logical*:
//! each committed transaction's after-images re-execute as a fresh
//! engine transaction on the standby, which writes its own log and
//! takes its own checkpoints — so the standby is at every instant a
//! fully recoverable database in its own right, and its storage
//! fingerprint converges to the primary's. Re-applying an after-image
//! is idempotent, so under-reporting progress is always safe.
//!
//! Commit resolution is crash recovery's, loop and all: each pulled
//! batch runs through [`replay_frames`] into its shard's own
//! [`Resolver`], and the after-images it hands back install on that
//! shard, in commit order. A `TxnCommit` frame installs on sight, and so
//! does the coordinator's `TxnDecide` frame; a participant branch
//! installs at its own `Commit` frame on its own shard — as on the
//! primary and in recovery — so every install lands on the shard being
//! pulled, and that batch's force covers it before the watermark moves.
//!
//! The applied positions live in the *primary's* LSN space and are
//! persisted (with the coordinator decisions seen so far) to
//! `<dir>/repl.state` after every batch, because the standby's own log
//! drifts ahead of the primary's the moment its local checkpointer
//! writes a marker — local durable LSN only equals the primary position
//! at first attach (identical init or a directory copy seeds that
//! alignment). A shard's persisted watermark is held back to its
//! resolver's [`first_lsn`](Resolver::first_lsn): a branch logs its
//! after-images ahead of its outcome, and until then they exist only in
//! this process, so a restart re-pulls the frames that rebuild them. The
//! decision — the coordinator's `TxnDecide` frame (an older primary's
//! `Decide`), which the primary forces on a *different* shard's log and
//! which installs on sight, so it holds nothing back — is replayed from
//! the persisted map instead.
//!
//! [`promote`] finishes every shard's resolver the way sharded crash
//! recovery finishes its reports: a branch still prepared commits if any
//! stream (or the persisted map) carried a commit decision for it, and
//! is presumed aborted otherwise.

use crate::primary::MAX_REPL_BATCH_BYTES;
use mmdb_core::{replay_frames, LogStream, Resolver, Stop};
use mmdb_shard::{pool_decisions, ShardedMmdb};
use mmdb_sync::{LockRank, RankedMutex};
use mmdb_types::{Lsn, MmdbError, RecordId, Result, Word};
use mmdb_wire::Client;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The standby's long-poll budget per pull: long enough to batch, short
/// enough that stop/promote requests are honored promptly.
const PULL_WAIT_MS: u32 = 100;

/// Read timeout on the pull connection — must exceed the long-poll
/// budget, and bounds how stale a dead-but-unclosed primary connection
/// can make the stop check.
const PULL_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Backoff between reconnect attempts when the primary is unreachable.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// How long [`promote`] waits for the pull threads to drain and exit.
const PROMOTE_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Replay state shared by every shard's pull thread.
struct Replay {
    /// One resolver per shard stream.
    streams: Vec<Resolver>,
    /// `gid` → decided outcome, as `repl.state` held it at start: a
    /// restarted stream may never carry these decisions again (the
    /// watermark that persisted them is past them).
    loaded: HashMap<u64, bool>,
}

impl Replay {
    /// Every coordinator decision known: the loaded ones and every
    /// stream's since.
    fn decisions(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let loaded = self.loaded.iter().map(|(&gid, &commit)| (gid, commit));
        loaded.chain(self.streams.iter().flat_map(Resolver::decisions))
    }
}

/// A standby's replication state: per-shard applied positions (in the
/// *primary's* LSN space), the per-shard resolvers, and the
/// stop/writable switches promotion flips.
pub struct Replica {
    peer: String,
    stop: AtomicBool,
    writable: AtomicBool,
    /// Pull threads currently running their loop body.
    active_pulls: AtomicUsize,
    /// Per-shard primary-log LSN applied so far (monotone).
    applied: Vec<AtomicU64>,
    /// Directory holding `repl.state` (none for in-memory standbys:
    /// progress then lives only in this process).
    state_dir: Option<PathBuf>,
    /// Distinguishes concurrent [`Replica::save_state`] tmp files so
    /// racing savers never interleave writes on one path.
    save_seq: AtomicU64,
    replay: RankedMutex<Replay>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("peer", &self.peer)
            .field("writable", &self.writable.load(Ordering::SeqCst))
            .finish()
    }
}

impl Replica {
    /// Replication state for a standby of `peer` over `db`.
    ///
    /// Applied positions resume from `<state_dir>/repl.state` when it
    /// exists. A first attach (no state file) seeds each shard from its
    /// *local durable LSN*: at that moment — before the standby's own
    /// checkpointer has appended a marker — the local log is LSN-aligned
    /// with the primary's, whether the directory was seeded by an
    /// identical `init` or by copying the primary's directory. A state
    /// file that exists but does not parse, or does not cover every
    /// shard, is not a first attach — the local log may have drifted —
    /// so every shard resumes from LSN 0 (`repl.state_invalid`):
    /// after-images are idempotent, and a primary that truncated past 0
    /// triggers the re-seed.
    pub fn new(peer: String, db: &ShardedMmdb, state_dir: Option<PathBuf>) -> Arc<Replica> {
        let shards = db.shards();
        let (applied, decisions) = match &state_dir {
            Some(dir) if dir.join("repl.state").exists() => {
                load_state(dir, shards).unwrap_or_else(|| {
                    db.obs().counter("repl.state_invalid", 1);
                    (vec![0; shards], HashMap::new())
                })
            }
            _ => (
                (0..shards)
                    .map(|i| db.with_shard(i, |e| e.log_durable_lsn().raw()))
                    .collect(),
                HashMap::new(),
            ),
        };
        Arc::new(Replica {
            peer,
            stop: AtomicBool::new(false),
            writable: AtomicBool::new(false),
            active_pulls: AtomicUsize::new(0),
            applied: applied.into_iter().map(AtomicU64::new).collect(),
            state_dir,
            save_seq: AtomicU64::new(0),
            replay: RankedMutex::new(
                "repl.resolver",
                LockRank::REPL_RESOLVER,
                Replay {
                    streams: (0..shards).map(|_| Resolver::default()).collect(),
                    loaded: decisions,
                },
            ),
        })
    }

    /// The primary this standby pulls from.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// True once promoted: the server accepts writes.
    pub fn is_writable(&self) -> bool {
        self.writable.load(Ordering::SeqCst)
    }

    /// Asks the pull threads to exit after their current round.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The primary-log LSN applied so far on `shard` — the standby's
    /// durable read watermark for that shard's records.
    pub fn applied_lsn(&self, shard: usize) -> Lsn {
        Lsn(self.applied[shard].load(Ordering::SeqCst))
    }

    /// Persists the replication state to `<state_dir>/repl.state`
    /// (atomic tmp + rename; no-op for in-memory standbys). Each
    /// shard's persisted watermark is held back to its resolver's
    /// [`first_lsn`](Resolver::first_lsn) — the oldest instance whose
    /// after-images live only in this process — so a restart re-pulls
    /// the frames that rebuild them; under-reporting is safe because
    /// replay is idempotent.
    fn save_state(&self) {
        let Some(dir) = &self.state_dir else {
            return;
        };
        let mut out = String::from("# mmdb replication state (primary-LSN applied watermarks)\n");
        {
            let r = self.replay.lock();
            for (shard, a) in self.applied.iter().enumerate() {
                let applied = a.load(Ordering::SeqCst);
                let v = r.streams[shard]
                    .first_lsn()
                    .map_or(applied, |first| applied.min(first.raw()));
                out.push_str(&format!("applied.{shard}={v}\n"));
            }
            for (gid, commit) in pool_decisions(r.decisions()) {
                out.push_str(&format!("decision.{gid}={}\n", u8::from(commit)));
            }
        }
        // every saver renames its own tmp file: the shard pull threads
        // call this concurrently, and racing `fs::write`s on a shared
        // tmp path can tear the file around another thread's rename.
        // Distinct names keep each rename atomic and whole; whichever
        // snapshot lands last is consistent (built under the resolver
        // lock), and a stale winner only under-reports — safe.
        let seq = self.save_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!("repl.state.tmp.{seq}"));
        if std::fs::write(&tmp, &out).is_ok() {
            let _ = std::fs::rename(&tmp, dir.join("repl.state"));
        }
    }

    /// Applies one shard's batch of whole log-record frames starting at
    /// primary LSN `base`, returning how many bytes were consumed (a
    /// trailing partial frame is left for the next pull; this primary
    /// never sends one, but the bytes come from another process). A
    /// batch that *starts* with a whole frame that fails its checksum is
    /// an error (`repl.corrupt_frames`).
    fn apply_batch(
        &self,
        db: &ShardedMmdb,
        shard: usize,
        base: u64,
        bytes: &[u8],
    ) -> Result<usize> {
        let obs = db.obs();
        let t = obs.timer();
        let mut txns = 0u64;
        let mut stream = LogStream::over(Lsn(base), bytes);
        let mut r = self.replay.lock();
        // checkpoint markers and compaction fillers resolve to nothing:
        // the standby checkpoints on its own schedule
        let apply = |writes: Vec<_>, _| {
            txns += 1;
            apply_writes(db, shard, &writes)
        };
        let (end, stop) = replay_frames(&mut stream, Lsn(base), &mut r.streams[shard], apply)?;
        drop(r);
        // A cut frame is re-requested from `end`. A whole frame that does
        // not decode fails the pull that starts at it; frames applied
        // before it keep their progress.
        let off = (end.raw() - base) as usize;
        if let (0, Stop::Bad(e)) = (off, stop) {
            obs.counter("repl.corrupt_frames", 1);
            return Err(e);
        }
        if off > 0 {
            // the standby's own durability for what it just applied:
            // force this shard's local log before acknowledging
            db.with_shard(shard, |e| e.force_log())?;
        }
        obs.counter("repl.applied_txns", txns);
        obs.counter("repl.applied_bytes", off as u64);
        obs.phase_detail("repl.replay", t, shard as u64);
        Ok(off)
    }
}

/// Re-executes one transaction's after-images on the standby's shard
/// engine, retrying the transient outcomes its own checkpointers can
/// inject (quiesce refusals; the engine reruns two-color aborts
/// itself).
fn apply_writes(db: &ShardedMmdb, shard: usize, writes: &[(RecordId, Vec<Word>)]) -> Result<()> {
    if writes.is_empty() {
        return Ok(());
    }
    let mut tries = 0u32;
    loop {
        match db.with_shard(shard, |e| e.run_txn(writes).map(|_| ())) {
            Err(MmdbError::Quiesced | MmdbError::CheckpointInProgress) if tries < 5000 => {
                tries += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            other => return other,
        }
    }
}

/// Records per re-executed transaction while re-seeding a shard: big
/// enough to amortize commit costs, small enough that each transaction
/// stays within a couple of segments (fewer two-color restarts while
/// the standby's own checkpointer runs).
const BOOTSTRAP_TXN_RECORDS: usize = 64;

/// Records asked for per `ReplScan` page while re-seeding a shard: one
/// round trip covers this many nonzero records, so a bootstrap costs
/// `touched / 1024` round trips instead of one per record.
const BOOTSTRAP_SCAN_RECORDS: u32 = 1024;

/// Re-seeds one shard from the primary's *database* when its *log* no
/// longer reaches back to our applied position: pages the shard's
/// nonzero committed records over the pull connection and re-executes
/// every record that differs locally — including zeroing records the
/// primary holds as zero but the standby does not — then fast-forwards
/// the shard's applied watermark to `durable` (the primary's durable
/// LSN captured at hello, before any read). Returns the number of
/// records rewritten, or `None` on any transport/engine failure — the
/// caller backs off and retries the attach from scratch
/// (under-reporting progress is safe; `applied` only moves after the
/// full copy lands and is locally durable).
fn bootstrap_shard(
    replica: &Arc<Replica>,
    db: &ShardedMmdb,
    client: &mut Client,
    shard: usize,
    durable: u64,
) -> Option<u64> {
    let zero = vec![0; db.record_words()];
    let mut rewritten = 0u64;
    let mut batch: Vec<(RecordId, Vec<Word>)> = Vec::new();
    let mut from = 0u64;
    while from < db.n_records() {
        if replica.stopping() {
            return None;
        }
        let (next, page) = client
            .repl_scan(shard as u32, from, BOOTSTRAP_SCAN_RECORDS)
            .ok()?;
        if next <= from {
            return None; // a stalled cursor must not spin forever
        }
        let page: HashMap<u64, Vec<Word>> = page.into_iter().collect();
        // The page covers every id in [from, next): an id missing from
        // it is zero on the primary, so diffing against `zero` both
        // skips untouched records and repairs stale local ones.
        for raw in from..next {
            let rid = RecordId(raw);
            if db.shard_of(rid).ok()? != shard {
                continue;
            }
            let want = page.get(&raw).unwrap_or(&zero);
            if db.read_committed(rid).ok()?.as_slice() != want.as_slice() {
                // the shard engine speaks shard-local record ids (the
                // same id space its replayed log frames carry)
                batch.push((db.local_rid(rid), want.clone()));
                rewritten += 1;
                if batch.len() >= BOOTSTRAP_TXN_RECORDS {
                    apply_writes(db, shard, &batch).ok()?;
                    batch.clear();
                }
            }
        }
        from = next;
    }
    if !batch.is_empty() {
        apply_writes(db, shard, &batch).ok()?;
    }
    // Same durability rule as batch replay: force the local log before
    // the watermark moves, so a crash cannot strand the copy.
    db.with_shard(shard, |e| e.force_log()).ok()?;
    replica.applied[shard].fetch_max(durable, Ordering::SeqCst);
    replica.save_state();
    Some(rewritten)
}

/// Loads `<dir>/repl.state`. Returns `None` when the file is absent,
/// unreadable, or does not cover all `shards` — a partial file from a
/// different topology must not seed anything.
fn load_state(dir: &std::path::Path, shards: usize) -> Option<(Vec<u64>, HashMap<u64, bool>)> {
    let text = std::fs::read_to_string(dir.join("repl.state")).ok()?;
    let mut applied = vec![None; shards];
    let mut decisions = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once('=')?;
        if let Some(shard) = key.strip_prefix("applied.") {
            let shard: usize = shard.parse().ok()?;
            if shard < shards {
                applied[shard] = Some(value.parse::<u64>().ok()?);
            }
        } else if let Some(gid) = key.strip_prefix("decision.") {
            decisions.insert(gid.parse::<u64>().ok()?, value != "0");
        }
    }
    let applied: Option<Vec<u64>> = applied.into_iter().collect();
    Some((applied?, decisions))
}

/// Sleeps `total` in small slices, returning early once the replica is
/// stopping.
fn stoppable_sleep(replica: &Replica, total: Duration) {
    let deadline = Instant::now() + total;
    while !replica.stopping() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// The body of one shard's pull thread: connect to the primary,
/// negotiate, then ack-and-pull until stopped, reconnecting with
/// backoff on any transport error. Returns when
/// [`Replica::request_stop`] is observed.
pub fn pull_shard_loop(replica: &Arc<Replica>, db: &ShardedMmdb, shard: usize) {
    let obs = db.obs().clone();
    replica.active_pulls.fetch_add(1, Ordering::SeqCst);
    while !replica.stopping() {
        let mut client = match Client::connect(replica.peer()) {
            Ok(c) => c,
            Err(_) => {
                obs.counter("repl.connect_errors", 1);
                stoppable_sleep(replica, RECONNECT_BACKOFF);
                continue;
            }
        };
        let _ = client.set_timeout(Some(PULL_READ_TIMEOUT));
        let welcome = match client.repl_hello() {
            Ok(w) => w,
            Err(_) => {
                obs.counter("repl.hello_errors", 1);
                stoppable_sleep(replica, RECONNECT_BACKOFF);
                continue;
            }
        };
        if welcome.shards != db.shards() as u32
            || welcome.n_records != db.n_records()
            || welcome.record_words != db.record_words() as u32
        {
            obs.counter("repl.topology_mismatches", 1);
            stoppable_sleep(replica, RECONNECT_BACKOFF);
            continue;
        }
        // The primary's log must reach back to our applied position.
        // When it does not — the primary truncated the prefix before we
        // ever pinned it (a standby attaching to a long-running
        // primary), or truncated past a position we persisted — the
        // missing transactions are gone from its *log* but not from its
        // *database*: re-seed by copying the shard's current committed
        // records over this connection, then stream from the durable
        // LSN the welcome reported. Every commit at or below that LSN
        // is already reflected in the copied values, every later one
        // replays from the log, and re-applying a full-record
        // after-image is idempotent — so the copy needs no freeze on
        // the primary. The hello pinned truncation before reporting
        // LSNs, so the resume point cannot be cut while we copy.
        let (attach_start, attach_durable) =
            welcome.shard_lsns.get(shard).copied().unwrap_or((0, 0));
        if attach_start > replica.applied[shard].load(Ordering::SeqCst) {
            match bootstrap_shard(replica, db, &mut client, shard, attach_durable) {
                Some(records) => {
                    obs.counter("repl.bootstrap_copies", 1);
                    obs.counter("repl.bootstrap_records", records);
                }
                None => {
                    obs.counter("repl.bootstrap_gaps", 1);
                    stoppable_sleep(replica, RECONNECT_BACKOFF);
                    continue;
                }
            }
        }

        loop {
            if replica.stopping() {
                break;
            }
            let applied = replica.applied[shard].load(Ordering::SeqCst);
            // the ask is a cap: the primary sends whole frames, sized to
            // what is durable, and a longer frame alone
            let ask = MAX_REPL_BATCH_BYTES as u32;
            match client.repl_pull(shard as u32, applied, ask, PULL_WAIT_MS) {
                Ok((start, durable, bytes)) => {
                    if bytes.is_empty() {
                        obs.gauge("repl.lag_lsn", durable.saturating_sub(applied));
                        continue;
                    }
                    if start != applied {
                        // the primary answered for a different position
                        // than asked (should not happen): resync
                        obs.counter("repl.pull_errors", 1);
                        break;
                    }
                    match replica.apply_batch(db, shard, applied, &bytes) {
                        Ok(consumed) if consumed > 0 => {
                            let now = applied + consumed as u64;
                            replica.applied[shard].fetch_max(now, Ordering::SeqCst);
                            replica.save_state();
                            db.with_shard(shard, |e| e.obs().gauge("repl.applied_lsn", now));
                            obs.gauge("repl.lag_lsn", durable.saturating_sub(now));
                        }
                        Ok(_) => {
                            // a non-empty batch with no whole frame: the
                            // primary never cuts one, so asking again
                            // would only spin
                            obs.counter("repl.pull_errors", 1);
                            break;
                        }
                        Err(_) => {
                            obs.counter("repl.apply_errors", 1);
                            break;
                        }
                    }
                }
                Err(_) => {
                    obs.counter("repl.pull_errors", 1);
                    break;
                }
            }
        }
        if !replica.stopping() {
            stoppable_sleep(replica, RECONNECT_BACKOFF);
        }
    }
    replica.active_pulls.fetch_sub(1, Ordering::SeqCst);
}

/// Promotes the standby: stop the pull loops, wait for them to drain
/// and exit, resolve the branches still prepared the way sharded crash
/// recovery does (a commit decision on any stream or in the persisted
/// map commits; none presumes abort), and flip the server writable.
/// Sub-second in the failover case: the pull loops exit within one
/// long-poll round, and a continuously replaying standby has no log
/// backlog to scan.
pub fn promote(db: &ShardedMmdb, replica: &Replica) -> Result<()> {
    let obs = db.obs();
    let t = obs.timer();
    replica.request_stop();
    let deadline = Instant::now() + PROMOTE_DRAIN_TIMEOUT;
    while replica.active_pulls.load(Ordering::SeqCst) > 0 {
        if Instant::now() >= deadline {
            return Err(MmdbError::Invalid(format!(
                "promotion timed out after {PROMOTE_DRAIN_TIMEOUT:?} waiting for \
                 {} pull thread(s) to drain",
                replica.active_pulls.load(Ordering::SeqCst)
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (decisions, in_doubt, mut aborted) = {
        let mut r = replica.replay.lock();
        let decisions = pool_decisions(r.decisions());
        let (mut in_doubt, mut discarded) = (Vec::new(), 0u64);
        for (shard, stream) in r.streams.iter_mut().enumerate() {
            let (branches, _, unprepared) = std::mem::take(stream).finish();
            in_doubt.extend(branches.into_iter().map(|b| (shard, b)));
            discarded += unprepared;
        }
        (decisions, in_doubt, discarded)
    };
    let mut committed = 0u64;
    for (shard, branch) in in_doubt {
        if decisions.get(&branch.gid) == Some(&true) {
            apply_writes(db, shard, &branch.writes)?;
            committed += 1;
        } else {
            aborted += 1;
        }
    }
    obs.counter("repl.promote_committed_branches", committed);
    obs.counter("repl.promote_aborted_branches", aborted);
    // make everything applied locally durable before accepting writes
    for i in 0..db.shards() {
        db.with_shard(i, |e| e.force_log())?;
    }
    // the promoted server is a primary: its replication state is stale
    // the moment it takes its first write
    if let Some(dir) = &replica.state_dir {
        let _ = std::fs::remove_file(dir.join("repl.state"));
    }
    replica.writable.store(true, Ordering::SeqCst);
    obs.counter("repl.promotions", 1);
    obs.phase_detail("repl.promote", t, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::{serve_hello, serve_pull};
    use mmdb_core::MmdbConfig;
    use mmdb_types::Algorithm;

    fn pair(shards: usize) -> (ShardedMmdb, ShardedMmdb) {
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let primary = ShardedMmdb::open_in_memory(cfg, shards).expect("primary");
        let standby = ShardedMmdb::open_in_memory(cfg, shards).expect("standby");
        serve_hello(&primary, 1, mmdb_wire::REPL_VERSION).expect("hello");
        (primary, standby)
    }

    /// Replays everything currently shippable from `primary` into
    /// `standby` without a network, mimicking the pull loop.
    fn drain(primary: &ShardedMmdb, standby: &ShardedMmdb, replica: &Replica) {
        for shard in 0..primary.shards() {
            loop {
                let applied = replica.applied[shard].load(Ordering::SeqCst);
                let (start, _durable, bytes) =
                    serve_pull(primary, shard as u32, Lsn(applied), 1 << 20, 0).expect("pull");
                if bytes.is_empty() {
                    break;
                }
                assert_eq!(start, Lsn(applied));
                let consumed = replica
                    .apply_batch(standby, shard, applied, &bytes)
                    .expect("apply");
                assert!(consumed > 0);
                replica.applied[shard].fetch_max(applied + consumed as u64, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn repl_state_round_trips_and_holds_back_parked_prepares() {
        for older in [false, true] {
            repl_state_round_trips(older);
        }
    }

    fn repl_state_round_trips(older: bool) {
        use mmdb_core::LogRecord;
        let (_primary, standby) = pair(2);
        let words = standby.record_words();
        let dir = state_dir(&format!("state-{older}"));
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));

        // shard 0 carries two decisions; shard 1 an undecided branch
        // whose first frame sits at LSN 555
        let decisions = frames(&[
            LogRecord::Decide {
                gid: 4,
                commit: true,
            },
            LogRecord::Decide {
                gid: 5,
                commit: false,
            },
        ]);
        replica
            .apply_batch(&standby, 0, 700, &decisions)
            .expect("decisions");
        let branch = prepared_branch(older, 3, 9, RecordId(1), vec![2; words]);
        replica
            .apply_batch(&standby, 1, 555, &branch)
            .expect("branch");
        replica.applied[0].store(777, Ordering::SeqCst);
        replica.applied[1].store(888, Ordering::SeqCst);
        replica.save_state();

        // a restarted standby resumes from the file: shard 0 exactly,
        // shard 1 held back to the parked branch's first frame so it
        // re-pulls and re-stages the branch, and the decisions intact
        let resumed = Replica::new("unused".into(), &standby, Some(dir.clone()));
        assert_eq!(resumed.applied[0].load(Ordering::SeqCst), 777);
        assert_eq!(resumed.applied[1].load(Ordering::SeqCst), 555);
        assert_eq!(resumed.replay.lock().loaded.get(&4), Some(&true));
        assert_eq!(resumed.replay.lock().loaded.get(&5), Some(&false));

        // promotion invalidates the state: the file must be gone
        promote(&standby, &resumed).expect("promote");
        assert!(!dir.join("repl.state").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_standby_matches_primary_fingerprint() {
        let (primary, standby) = pair(2);
        let replica = Replica::new("unused".into(), &standby, None);
        let words = primary.record_words();
        for i in 0..40u64 {
            primary
                .run_txn(&[(RecordId(i % primary.n_records()), vec![i as u32; words])])
                .expect("txn");
        }
        // a cross-shard transaction exercises TxnPrepare/TxnDecide replay
        primary
            .run_txn(&[
                (RecordId(0), vec![0xAAAA; words]),
                (RecordId(1), vec![0xBBBB; words]),
            ])
            .expect("cross");
        drain(&primary, &standby, &replica);
        assert_eq!(primary.fingerprint(), standby.fingerprint());
    }

    #[test]
    fn replay_is_idempotent_from_scratch() {
        let (primary, standby) = pair(2);
        let words = primary.record_words();
        for i in 0..10u64 {
            primary
                .run_txn(&[(RecordId(i), vec![7 + i as u32; words])])
                .expect("txn");
        }
        let replica = Replica::new("unused".into(), &standby, None);
        drain(&primary, &standby, &replica);
        let fp = standby.fingerprint();
        // a standby that lost its applied positions entirely replays
        // from the log start again — after-images make this a no-op
        let fresh = Replica::new("unused".into(), &standby, None);
        for a in &fresh.applied {
            a.store(0, Ordering::SeqCst);
        }
        drain(&primary, &standby, &fresh);
        assert_eq!(standby.fingerprint(), fp);
        assert_eq!(standby.fingerprint(), primary.fingerprint());
    }

    /// Encodes `recs` the way the primary's log lays them out.
    fn frames(recs: &[mmdb_core::LogRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        for rec in recs {
            rec.encode_into(&mut buf);
        }
        buf
    }

    fn state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A cross-shard branch as its shard's log carries it up to its
    /// outcome: one `TxnPrepare` frame of one write, or with `older` the
    /// begin, update and `Prepare` an older primary wrote.
    fn prepared_branch(
        older: bool,
        txn: u64,
        gid: u64,
        record: RecordId,
        value: Vec<Word>,
    ) -> Vec<u8> {
        use mmdb_core::LogRecord;
        use mmdb_types::{Timestamp, TxnId};
        let txn = TxnId(txn);
        if !older {
            let writes = vec![(record, value)];
            return frames(&[LogRecord::TxnPrepare { txn, gid, writes }]);
        }
        frames(&[
            LogRecord::TxnBegin {
                txn,
                tau: Timestamp(txn.raw()),
            },
            LogRecord::Update { txn, record, value },
            LogRecord::Prepare { txn, gid },
        ])
    }

    #[test]
    fn save_state_holds_back_open_transactions_split_across_batches() {
        use mmdb_core::LogRecord;
        use mmdb_types::{Timestamp, TxnId};
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let words = standby.record_words();
        let dir = state_dir("split-open");
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));

        let head = frames(&[
            LogRecord::TxnBegin {
                txn: TxnId(1),
                tau: Timestamp(1),
            },
            LogRecord::Update {
                txn: TxnId(1),
                record: RecordId(0),
                value: vec![9; words],
            },
        ]);
        let mut full = head.clone();
        LogRecord::Commit { txn: TxnId(1) }.encode_into(&mut full);

        // a batch boundary cut the transaction before its Commit: the
        // after-images buffer in memory only
        let consumed = replica.apply_batch(&standby, 0, 0, &head).expect("head");
        assert_eq!(consumed, head.len());
        replica.applied[0].store(head.len() as u64, Ordering::SeqCst);
        replica.save_state();

        // the persisted watermark must sit at the TxnBegin, not the
        // cut — a restart past the Update frames would ignore the
        // Commit ("attached mid-transaction") and silently drop the
        // committed transaction
        let resumed = Replica::new("unused".into(), &standby, Some(dir.clone()));
        assert_eq!(resumed.applied[0].load(Ordering::SeqCst), 0);

        // replay from the persisted position sees the whole
        // transaction and installs it
        let consumed = resumed.apply_batch(&standby, 0, 0, &full).expect("full");
        assert_eq!(consumed, full.len());
        assert_eq!(
            standby.read_committed(RecordId(0)).expect("read"),
            vec![9; words]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_reparks_prepared_branches_with_their_after_images() {
        for older in [false, true] {
            restart_reparks_a_prepared_branch(older);
        }
    }

    fn restart_reparks_a_prepared_branch(older: bool) {
        use mmdb_core::LogRecord;
        use mmdb_types::TxnId;
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let words = standby.record_words();
        let dir = state_dir(&format!("repark-{older}"));
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));

        let buf = prepared_branch(older, 3, 7, RecordId(1), vec![5; words]);
        let consumed = replica.apply_batch(&standby, 0, 0, &buf).expect("apply");
        assert_eq!(consumed, buf.len());
        replica.applied[0].store(buf.len() as u64, Ordering::SeqCst);
        replica.save_state();

        // the persisted holdback is the branch's first frame — the
        // TxnPrepare, or an older branch's TxnBegin: re-pulling from an
        // older branch's Prepare frame alone could never rebuild the
        // after-images, and the branch would re-stage empty
        let resumed = Replica::new("unused".into(), &standby, Some(dir.clone()));
        assert_eq!(resumed.applied[0].load(Ordering::SeqCst), 0);
        if older {
            let prepare_at = (buf.len()
                - LogRecord::Prepare {
                    txn: TxnId(3),
                    gid: 7,
                }
                .encoded_len()) as u64;
            assert!(prepare_at > 0, "the Prepare follows the begin and update");
        }
        let consumed = resumed.apply_batch(&standby, 0, 0, &buf).expect("replay");
        assert_eq!(consumed, buf.len());
        assert_eq!(
            resumed.replay.lock().streams[0].first_lsn(),
            Some(Lsn(0)),
            "holdback at the branch's first frame"
        );
        assert_ne!(
            standby.read_committed(RecordId(1)).expect("read"),
            vec![5; words],
            "a prepared branch is not installed"
        );
        // the decision and the branch's own Commit arrive: the re-staged
        // writes must install, not an empty branch
        let outcome = frames(&[
            LogRecord::Decide {
                gid: 7,
                commit: true,
            },
            LogRecord::Commit { txn: TxnId(3) },
        ]);
        resumed
            .apply_batch(&standby, 0, buf.len() as u64, &outcome)
            .expect("outcome");
        assert_eq!(
            standby.read_committed(RecordId(1)).expect("read"),
            vec![5; words]
        );
        assert_eq!(resumed.replay.lock().streams[0].first_lsn(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_frame_branches_leave_no_unprepared_instance_staged() {
        use mmdb_core::LogRecord;
        use mmdb_types::TxnId;
        let (primary, standby) = pair(2);
        let words = primary.record_words();
        let replica = Replica::new("unused".into(), &standby, None);
        for i in 0..20u64 {
            // even records live on shard 0, odd ones on shard 1
            let fill = vec![i as u32; words];
            let (a, b) = (RecordId(2 * i), RecordId(2 * i + 1));
            primary
                .run_txn(&[(a, fill.clone()), (b, fill)])
                .expect("cross");
        }
        drain(&primary, &standby, &replica);
        assert_eq!(primary.fingerprint(), standby.fingerprint());

        // what a crashed primary incarnation leaves behind on shard 0: a
        // committed branch, an aborted one, one in doubt and one torn
        let at = replica.applied[0].load(Ordering::SeqCst);
        let mut tail = prepared_branch(false, 901, 501, RecordId(2), vec![1; words]);
        LogRecord::Commit { txn: TxnId(901) }.encode_into(&mut tail);
        tail.extend(prepared_branch(
            false,
            902,
            502,
            RecordId(4),
            vec![2; words],
        ));
        LogRecord::Abort { txn: TxnId(902) }.encode_into(&mut tail);
        let parked_at = at + tail.len() as u64;
        tail.extend(prepared_branch(
            false,
            903,
            503,
            RecordId(6),
            vec![3; words],
        ));
        let whole = tail.len();
        let torn = prepared_branch(false, 904, 504, RecordId(8), vec![4; words]);
        tail.extend_from_slice(&torn[..torn.len() - 1]);
        let consumed = replica.apply_batch(&standby, 0, at, &tail).expect("tail");
        assert_eq!(consumed, whole);
        assert_eq!(
            replica.replay.lock().streams[0].first_lsn(),
            Some(Lsn(parked_at))
        );

        // a branch is staged only together with its `Prepare`, so no
        // stream holds an instance that would pin its position until
        // the id is reused
        let streams = std::mem::take(&mut replica.replay.lock().streams);
        for (shard, stream) in streams.into_iter().enumerate() {
            let (in_doubt, _, discarded) = stream.finish();
            assert_eq!(discarded, 0, "shard {shard}");
            let parked: Vec<_> = in_doubt.iter().map(|t| (t.gid, t.txn)).collect();
            let want = match shard {
                0 => vec![(503, TxnId(903))],
                _ => vec![],
            };
            assert_eq!(parked, want, "shard {shard}");
        }
    }

    #[test]
    fn abort_after_prepare_releases_the_holdback() {
        for older in [false, true] {
            abort_after_prepare_releases(older);
        }
    }

    fn abort_after_prepare_releases(older: bool) {
        use mmdb_core::LogRecord;
        use mmdb_types::TxnId;
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let words = standby.record_words();
        let dir = state_dir(&format!("abort-after-prepare-{older}"));
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));

        // what the primary writes when a later shard's prepare fails:
        // this branch prepared, then aborted, with no Decide anywhere
        let mut buf = prepared_branch(older, 3, 7, RecordId(1), vec![5; words]);
        LogRecord::Abort { txn: TxnId(3) }.encode_into(&mut buf);
        let consumed = replica.apply_batch(&standby, 0, 0, &buf).expect("apply");
        assert_eq!(consumed, buf.len());
        replica.applied[0].store(buf.len() as u64, Ordering::SeqCst);
        replica.save_state();

        // the branch has its outcome: nothing pins the watermark, and a
        // restart resumes past every frame consumed
        let resumed = Replica::new("unused".into(), &standby, Some(dir.clone()));
        assert_eq!(resumed.applied[0].load(Ordering::SeqCst), buf.len() as u64);
        assert_eq!(replica.replay.lock().streams[0].first_lsn(), None);
        assert_ne!(
            standby.read_committed(RecordId(1)).expect("read"),
            vec![5; words]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 2-shard standby whose shard 1 stream ends with a prepared
    /// branch writing local record 3 (global 7) and no `Commit`; shard 0
    /// carries `decision` for it, if any: a commit as the coordinator's
    /// `TxnDecide` frame writing local record 4 (global 8), which
    /// installs on sight; with `older` the decision is a `Decide` frame
    /// and the branch has an older primary's shape. Returns global record
    /// 7 after [`promote`].
    fn promote_over_a_prepared_branch(older: bool, decision: Option<bool>) -> Vec<Word> {
        use mmdb_core::LogRecord;
        use mmdb_types::TxnId;
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 2).expect("standby");
        let words = standby.record_words();
        let replica = Replica::new("unused".into(), &standby, None);
        if let Some(commit) = decision {
            let decide = match (commit, older) {
                (true, false) => LogRecord::TxnDecide {
                    txn: TxnId(1),
                    gid: 5,
                    writes: vec![(RecordId(4), vec![9; words])],
                },
                _ => LogRecord::Decide { gid: 5, commit },
            };
            let point = matches!(decide, LogRecord::TxnDecide { .. });
            replica
                .apply_batch(&standby, 0, 0, &frames(&[decide]))
                .expect("decide");
            assert_eq!(
                standby.read_committed(RecordId(8)).expect("read") == vec![9; words],
                point,
                "the commit point installs on sight"
            );
        }
        let branch = prepared_branch(older, 2, 5, RecordId(3), vec![8; words]);
        replica
            .apply_batch(&standby, 1, 0, &branch)
            .expect("branch");
        assert_ne!(
            standby.read_committed(RecordId(7)).expect("read"),
            vec![8; words],
            "nothing installs before the branch's Commit"
        );
        promote(&standby, &replica).expect("promote");
        assert!(replica
            .replay
            .lock()
            .streams
            .iter()
            .all(|s| s.first_lsn().is_none()));
        standby.read_committed(RecordId(7)).expect("read")
    }

    #[test]
    fn promote_installs_a_branch_decided_on_another_shard() {
        let words = MmdbConfig::small(Algorithm::FuzzyCopy).params.db.s_rec as usize;
        for older in [false, true] {
            let installed = promote_over_a_prepared_branch(older, Some(true));
            assert_eq!(installed, vec![8; words], "older: {older}");
        }
    }

    #[test]
    fn promote_presumes_abort_without_a_decision() {
        let words = MmdbConfig::small(Algorithm::FuzzyCopy).params.db.s_rec as usize;
        for older in [false, true] {
            for decision in [None, Some(false)] {
                let installed = promote_over_a_prepared_branch(older, decision);
                assert_ne!(installed, vec![8; words], "older: {older}, {decision:?}");
            }
        }
    }

    #[test]
    fn attach_between_begin_and_updates_holds_back_at_the_first_update() {
        use mmdb_core::LogRecord;
        use mmdb_types::TxnId;
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let words = standby.record_words();
        let dir = state_dir("mid-attach");
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));

        // the attach point (primary LSN 4096) fell after txn 8's TxnBegin
        // frame: the stream opens with its update run
        let attach = 4096u64;
        let updates = frames(&[
            LogRecord::Update {
                txn: TxnId(8),
                record: RecordId(2),
                value: vec![6; words],
            },
            LogRecord::Update {
                txn: TxnId(8),
                record: RecordId(3),
                value: vec![7; words],
            },
        ]);
        let consumed = replica
            .apply_batch(&standby, 0, attach, &updates)
            .expect("updates");
        assert_eq!(consumed, updates.len());
        replica.applied[0].store(attach + consumed as u64, Ordering::SeqCst);
        replica.save_state();

        // only the data-free begin frame is lost: the holdback is the
        // first update's LSN, and a restart from there still commits
        let resumed = Replica::new("unused".into(), &standby, Some(dir.clone()));
        assert_eq!(resumed.applied[0].load(Ordering::SeqCst), attach);
        let mut full = updates.clone();
        LogRecord::Commit { txn: TxnId(8) }.encode_into(&mut full);
        resumed
            .apply_batch(&standby, 0, attach, &full)
            .expect("full");
        assert_eq!(
            standby.read_committed(RecordId(3)).expect("read"),
            vec![7; words]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shipped_frame_fails_the_pull_instead_of_escalating() {
        use mmdb_core::LogRecord;
        use mmdb_types::{Timestamp, TxnId};
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let words = standby.record_words();
        let replica = Replica::new("unused".into(), &standby, None);
        let corrupt_frames = || {
            mmdb_obs::MetricsSnapshot::capture(standby.obs())
                .counter("repl.corrupt_frames")
                .unwrap_or(0)
        };

        let txn = |id: u64, record: u64, fill: u32| {
            frames(&[
                LogRecord::TxnBegin {
                    txn: TxnId(id),
                    tau: Timestamp(id),
                },
                LogRecord::Update {
                    txn: TxnId(id),
                    record: RecordId(record),
                    value: vec![fill; words],
                },
                LogRecord::Commit { txn: TxnId(id) },
            ])
        };
        let good = txn(1, 0, 11);
        let mut batch = good.clone();
        batch.extend_from_slice(&txn(2, 1, 22));
        // one flipped byte inside txn 2's after-image: the frame is whole
        // (its length header and trailer agree) and its checksum is bad
        let begin_len = LogRecord::TxnBegin {
            txn: TxnId(2),
            tau: Timestamp(2),
        }
        .encoded_len();
        let bad_at = good.len() + begin_len;
        batch[bad_at + 30] ^= 0x40;

        // the intact prefix applies and keeps its progress
        let consumed = replica.apply_batch(&standby, 0, 0, &batch).expect("prefix");
        assert_eq!(consumed, bad_at);
        assert_eq!(
            standby.read_committed(RecordId(0)).expect("read"),
            vec![11; words]
        );
        assert_eq!(corrupt_frames(), 0);

        // the pull that starts at the bad frame is an error the loop must
        // not answer with a bigger batch
        let err = replica
            .apply_batch(&standby, 0, bad_at as u64, &batch[bad_at..])
            .expect_err("corrupt frame");
        assert!(matches!(err, MmdbError::Corrupt(_)), "{err:?}");
        assert_eq!(corrupt_frames(), 1);

        // a frame merely cut by the batch cap is still "ask again"
        let cut = replica
            .apply_batch(&standby, 0, bad_at as u64, &batch[bad_at..bad_at + 20])
            .expect("cut frame");
        assert_eq!(cut, 0);
        assert_eq!(corrupt_frames(), 1);
    }

    #[test]
    fn concurrent_save_state_keeps_the_file_parseable() {
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 2).expect("standby");
        let dir = state_dir("save-race");
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));
        replica.save_state();
        // every shard's pull thread saves after every batch; a torn
        // file would silently reseed a restarted standby from its
        // drifted local LSNs
        std::thread::scope(|s| {
            for _ in 0..4 {
                let replica = &replica;
                s.spawn(move || {
                    for _ in 0..100 {
                        replica.save_state();
                    }
                });
            }
            for _ in 0..100 {
                assert!(load_state(&dir, 2).is_some(), "torn repl.state");
            }
        });
        assert!(load_state(&dir, 2).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_repl_state_resumes_every_shard_from_lsn_zero() {
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 2).expect("standby");
        let words = standby.record_words();
        for i in 0..4u64 {
            standby
                .run_txn(&[(RecordId(i), vec![9; words])])
                .expect("local commit");
        }
        let local: Vec<Lsn> = (0..2)
            .map(|i| {
                standby.with_shard(i, |e| {
                    e.force_log().expect("force");
                    e.log_durable_lsn()
                })
            })
            .collect();
        assert!(local.iter().all(|&lsn| lsn > Lsn::ZERO));
        let invalid = || {
            mmdb_obs::MetricsSnapshot::capture(standby.obs())
                .counter("repl.state_invalid")
                .unwrap_or(0)
        };

        // a present-but-garbage file is not a first attach: the local
        // durable LSN may have drifted past the primary position
        let dir = state_dir("invalid");
        std::fs::write(dir.join("repl.state"), "applied.0=twelve\n").expect("write");
        let replica = Replica::new("unused".into(), &standby, Some(dir.clone()));
        for i in 0..2 {
            assert_eq!(replica.applied_lsn(i), Lsn(0));
        }
        assert_eq!(invalid(), 1);

        // an absent file still seeds a first attach from the local log
        std::fs::remove_file(dir.join("repl.state")).expect("rm");
        let fresh = Replica::new("unused".into(), &standby, Some(dir.clone()));
        for (i, &lsn) in local.iter().enumerate() {
            assert_eq!(fresh.applied_lsn(i), lsn);
        }
        assert_eq!(invalid(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_record_frames_ship_whole_at_the_first_ask() {
        use mmdb_types::{DbParams, TxnId};
        // one record's image is ~1.2MB: a one-write `TxnCommit` frame
        // exceeds 1MB, a four-write one the primary's 4MB batch cap, a
        // six-write one the engine's frame bound
        let mut cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        cfg.params.db = DbParams {
            s_db: 600_000,
            s_rec: 300_000,
            s_seg: 300_000,
        };
        cfg.params.txn.n_ru = 1;
        let primary = ShardedMmdb::open_in_memory(cfg, 1).expect("primary");
        serve_hello(&primary, 1, mmdb_wire::REPL_VERSION).expect("hello");
        let standby = ShardedMmdb::open_in_memory(cfg, 1).expect("standby");
        let replica = Replica::new("unused".into(), &standby, None);
        let words = primary.record_words();
        let writes = |n: u32| -> Vec<_> {
            (0..n)
                .map(|i| (RecordId(u64::from(i % 2)), vec![3 + i; words]))
                .collect()
        };
        // mimic the pull loop: ask for the cap and apply; every batch
        // must be whole frames, so nothing is ever re-asked. Returns the
        // size of each applied batch.
        let drain = || {
            let mut batches = Vec::new();
            loop {
                let applied = replica.applied[0].load(Ordering::SeqCst);
                let ask = MAX_REPL_BATCH_BYTES as u32;
                let (_, durable, bytes) =
                    serve_pull(&primary, 0, Lsn(applied), ask, 0).expect("pull");
                if bytes.is_empty() {
                    assert_eq!(applied, durable.raw(), "caught up");
                    return batches;
                }
                let consumed = replica
                    .apply_batch(&standby, 0, applied, &bytes)
                    .expect("apply");
                assert_eq!(consumed, bytes.len(), "a batch is whole frames");
                batches.push(consumed);
                replica.applied[0].fetch_max(applied + consumed as u64, Ordering::SeqCst);
            }
        };

        // over 1MB, under the cap: one batch
        primary.run_txn(&writes(1)).expect("over 1MB");
        // the engine's first transactions: one-byte ids throughout
        let frame_len = |n: u64| {
            let records = (0..n).map(|i| RecordId(i % 2));
            mmdb_core::LogRecord::txn_len(TxnId(1), None, records, words)
        };
        let one = frame_len(1);
        assert!(one > 1 << 20);
        assert_eq!(drain(), vec![one]);

        // over the cap: ships whole and alone at the first ask
        primary.run_txn(&writes(4)).expect("over the batch cap");
        let four = frame_len(4);
        assert!(four > MAX_REPL_BATCH_BYTES);
        assert_eq!(drain(), vec![four]);

        // over the engine's frame bound: refused, nothing appended
        let logged = primary.with_shard(0, |e| e.log_stats().bytes);
        let err = primary
            .run_txn(&writes(6))
            .expect_err("over the frame bound");
        assert!(err.to_string().contains("log frame"), "{err}");
        assert_eq!(primary.with_shard(0, |e| e.log_stats().bytes), logged);
        assert_eq!(drain(), Vec::<usize>::new());
        assert_eq!(
            standby.read_committed(RecordId(0)).expect("read"),
            vec![3 + 2; words]
        );
        assert_eq!(primary.fingerprint(), standby.fingerprint());
    }

    #[test]
    fn promote_flips_writable_and_aborts_undecided() {
        for older in [false, true] {
            promote_flips_writable(older);
        }
    }

    fn promote_flips_writable(older: bool) {
        let cfg = MmdbConfig::small(Algorithm::FuzzyCopy);
        let standby = ShardedMmdb::open_in_memory(cfg, 2).expect("standby");
        let words = standby.record_words();
        let replica = Replica::new("unused".into(), &standby, None);
        // a branch prepared on shard 0 without a decision
        let branch = prepared_branch(older, 1, 42, RecordId(0), vec![1; words]);
        replica
            .apply_batch(&standby, 0, 0, &branch)
            .expect("branch");
        assert!(!replica.is_writable());
        promote(&standby, &replica).expect("promote");
        assert!(replica.is_writable());
        assert_eq!(replica.replay.lock().streams[0].first_lsn(), None);
        // the undecided branch must NOT have been installed
        assert_ne!(
            standby.read_committed(RecordId(0)).expect("read"),
            vec![1; words]
        );
    }
}
