//! **mmdb-server** — a threaded TCP server over the mmdb engine.
//!
//! The engine itself is deliberately single-threaded (every
//! interleaving of transactions, checkpoint steps and crashes must be
//! expressible in tests), so concurrency lives *around* it, exactly as
//! the paper's system model prescribes (§2: one processor alternating
//! between transaction work and checkpointer work):
//!
//! * a listener thread accepts connections and hands them to a fixed
//!   pool of worker threads,
//! * each worker speaks the [`mmdb_wire`] protocol over its connection;
//!   the [`mmdb_shard::ShardedMmdb`] router takes a *shard's* mutex
//!   only for the duration of one primitive action (a transaction
//!   step, never a whole interactive transaction),
//! * each shard's one background loop ([`mmdb_shard::Maintenance`])
//!   interleaves [`checkpoint_step`](mmdb_core::Mmdb::checkpoint_step)
//!   calls, log compaction slices and group-commit forces with the
//!   workers' transactions through that shard's mutex — the paper's
//!   low-priority checkpointer process, replicated per partition so
//!   checkpoint work on shard *i* never blocks transactions on shard
//!   *j*,
//! * a standby runs one replication pull thread per shard.
//!
//! Every server runs a [`ShardedMmdb`] of N ≥ 1 shards, and the wire
//! protocol is the same for every N, so clients are oblivious to the
//! topology.
//!
//! Shutdown is graceful: a client `Shutdown` request (or
//! [`ServerHandle::stop`]) raises a flag; workers finish their current
//! request, and [`ServerHandle::shutdown_join`] takes the maintenance
//! duties back from the shard loops first thing (a checkpoint in
//! progress is left unfinished, as a crash would leave it) and returns
//! the sharded database so callers can fingerprint or close it cleanly.
//!
//! The crate also hosts the closed-loop network load driver ([`load`])
//! behind `mmdb-cli bench-net` and the CI smoke legs. It measures nothing for the record — the repo's
//! benchmark is `benchmark/`.

pub mod conn;
pub mod load;

pub use load::{run_load, LoadConfig, LoadReport, WorkloadKind};

use mmdb_repl::Replica;
use mmdb_shard::{Maintenance, ShardedMmdb};
use mmdb_sync::{LockRank, RankedCondvar, RankedMutex};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::spawn_sharded`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads (each owns one connection at a time). Size this at
    /// or above the expected number of concurrent persistent
    /// connections: a closed-loop client parked in the accept queue
    /// behind long-lived connections makes no progress.
    pub workers: usize,
    /// How long a worker blocks in a read before re-checking the stop
    /// flag. Small values make shutdown snappy; it is not a client
    /// deadline.
    pub poll_interval: Duration,
    /// Drop a connection that has sent no request for this long.
    /// `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Pause between background checkpoints. `Some(d)`: each shard's
    /// loop begins a new checkpoint `d` after its previous one
    /// completes (continuous checkpointing, the paper's normal mode).
    /// `None`: checkpoints run only when a client sends
    /// `Checkpoint`.
    pub checkpoint_interval: Option<Duration>,
    /// Requests at or above this many microseconds end-to-end are
    /// recorded (with their full span tree) in the slow-request log
    /// served by the wire `TraceDump` request. `0` disables the log.
    pub slow_trace_us: u64,
    /// Pause between background log-maintenance passes. `Some(d)`: each
    /// shard's loop rotates its active log chunk and then compacts cold
    /// chunks (superseded `TxnCommit` writes become filler, optionally
    /// compressed — see [`compact_log`](mmdb_core::Mmdb::compact_log))
    /// every `d`, under that shard's mutex only. `None` (the default):
    /// rotation and compaction run only when driven explicitly (e.g. by
    /// `mmdb-cli compact` offline).
    pub compact_interval: Option<Duration>,
    /// Replication role (standalone by default).
    pub repl: ReplOptions,
}

/// Replication role for a spawned server.
#[derive(Clone, Default)]
pub struct ReplOptions {
    /// `Some(addr)`: run as a read-only standby pulling from the
    /// primary at `addr` (one pull thread per shard). `None`: ordinary
    /// writable server (which *serves* standbys whenever one says
    /// hello — the primary role needs no configuration).
    pub replica_of: Option<String>,
    /// Semi-synchronous commits: once a standby attaches, every commit
    /// additionally waits until a standby acknowledges its LSN as
    /// applied-and-locally-durable. Size `workers` at or above
    /// `client connections + shards` — the acks arrive as ordinary
    /// requests and must find a free worker.
    pub repl_sync: bool,
    /// Declared primary: enable the replication slots (the
    /// log-truncation pins) from startup rather than at the first
    /// standby hello. This is the replication-slot contract — a standby
    /// seeded from an identical `init` or a directory copy can attach
    /// later without finding its bytes already truncated away.
    /// `repl_sync` implies this.
    pub primary: bool,
    /// Called once after a wire `Promote` succeeds (e.g. to persist the
    /// role flip in `mmdb.conf`).
    pub on_promote: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Standby only: directory for `repl.state`, the persisted
    /// primary-LSN applied watermarks. `None` keeps progress in memory
    /// (a restarted standby then re-seeds from its local durable LSN,
    /// which is only correct before its own checkpointer has run).
    pub state_dir: Option<std::path::PathBuf>,
}

impl std::fmt::Debug for ReplOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplOptions")
            .field("replica_of", &self.replica_of)
            .field("repl_sync", &self.repl_sync)
            .field("primary", &self.primary)
            .field("on_promote", &self.on_promote.as_ref().map(|_| ".."))
            .field("state_dir", &self.state_dir)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 16,
            poll_interval: Duration::from_millis(50),
            idle_timeout: None,
            checkpoint_interval: Some(Duration::from_millis(10)),
            slow_trace_us: mmdb_obs::DEFAULT_SLOW_THRESHOLD_US,
            compact_interval: None,
            repl: ReplOptions::default(),
        }
    }
}

/// Shared server state visible to every thread.
pub(crate) struct Shared {
    pub(crate) db: ShardedMmdb,
    pub(crate) stop: AtomicBool,
    /// Interactive transactions aborted because their connection died.
    pub(crate) txns_aborted_on_disconnect: AtomicU64,
    /// Standby replication state when this server runs as a replica.
    pub(crate) replica: Option<Arc<Replica>>,
    /// Callback fired after a successful wire `Promote`.
    pub(crate) on_promote: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// The running server: spawn with [`Server::spawn_sharded`].
pub struct Server;

/// Handle to a running server: address, stop control, and joins.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_join: Option<JoinHandle<()>>,
    worker_joins: Vec<JoinHandle<()>>,
    repl_joins: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the listener + worker pool, hands every shard loop
    /// its checkpoint and compaction pacing, and returns a handle. The
    /// database moves into the server; get it back with
    /// [`ServerHandle::shutdown_join`].
    pub fn spawn_sharded(db: ShardedMmdb, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shards = db.shards();
        db.obs().set_slow_threshold_us(config.slow_trace_us);
        if config.repl.repl_sync {
            db.repl_gate().set_sync(true);
        }
        if config.repl.repl_sync || config.repl.primary {
            // A declared (or semi-sync) primary expects a standby:
            // enable the replication slots (the log-truncation pins)
            // from the first commit, so a standby that attaches a
            // little late never finds its bytes already truncated away.
            db.enable_repl_slots();
        }
        let replica = config
            .repl
            .replica_of
            .as_ref()
            .map(|peer| Replica::new(peer.clone(), &db, config.repl.state_dir.clone()));
        db.set_maintenance(Some(Maintenance {
            checkpoint_interval: config.checkpoint_interval,
            compact_interval: config.compact_interval,
        }));
        let shared = Arc::new(Shared {
            db,
            stop: AtomicBool::new(false),
            txns_aborted_on_disconnect: AtomicU64::new(0),
            replica,
            on_promote: config.repl.on_promote.clone(),
        });

        // Each accepted stream carries its accept timestamp so the
        // worker that dequeues it can attribute the hand-off delay to a
        // `net.queue` phase (None when telemetry is off — no clock read).
        let conns = Arc::new(ConnQueue::new());
        if let Some(sink) = shared.db.obs().contention_sink() {
            conns.queue.set_sink(sink);
        }

        let mut worker_joins = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let cfg = config.clone();
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("mmdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &conns, &cfg))?,
            );
        }

        let mut repl_joins = Vec::new();
        if let Some(replica) = shared.replica.clone() {
            for shard in 0..shards {
                let shared = Arc::clone(&shared);
                let replica = Arc::clone(&replica);
                repl_joins.push(
                    std::thread::Builder::new()
                        .name(format!("mmdb-repl-pull-{shard}"))
                        .spawn(move || {
                            mmdb_repl::pull_shard_loop(&replica, &shared.db, shard);
                        })?,
                );
            }
        }

        let accept_join = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("mmdb-accept".into())
                .spawn(move || accept_loop(&shared, listener, &conns))?
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept_join: Some(accept_join),
            worker_joins,
            repl_joins,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop flag and takes the maintenance duties back from
    /// the shard loops (group commits are still forced); threads exit
    /// after their current unit of work. Does not wait for them — pair
    /// with [`ServerHandle::shutdown_join`].
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.db.set_maintenance(None);
    }

    /// True once the stop flag is raised (locally via
    /// [`ServerHandle::stop`] or remotely via a wire `Shutdown`).
    pub fn is_stopped(&self) -> bool {
        self.shared.stopping()
    }

    /// Checkpoints completed by the shard loops so far, summed across
    /// every shard.
    pub fn checkpoints_completed(&self) -> u64 {
        self.shared.db.checkpoints_completed()
    }

    /// Log-maintenance passes (rotate + compact on every shard)
    /// completed by the shard loops so far. Always 0 unless
    /// [`ServerConfig::compact_interval`] is set.
    pub fn compaction_passes(&self) -> u64 {
        self.shared.db.compaction_passes()
    }

    /// Interactive transactions the server aborted because their
    /// connection disconnected without committing.
    pub fn txns_aborted_on_disconnect(&self) -> u64 {
        self.shared
            .txns_aborted_on_disconnect
            .load(Ordering::SeqCst)
    }

    /// True once this server is a promoted (writable) replica, or was
    /// never a replica at all.
    pub fn is_writable(&self) -> bool {
        self.shared
            .replica
            .as_ref()
            .map_or(true, |r| r.is_writable())
    }

    /// Stops the server, joins every thread, and returns the database.
    pub fn shutdown_join(mut self) -> ShardedMmdb {
        self.stop();
        if let Some(r) = &self.shared.replica {
            r.request_stop();
        }
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        for j in self.worker_joins.drain(..) {
            let _ = j.join();
        }
        for j in self.repl_joins.drain(..) {
            let _ = j.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| unreachable!("all server threads joined; no clones remain"));
        shared.db
    }
}

/// A connection queued for a worker: the stream plus its accept time
/// (`None` when telemetry is off, so idle queues never read the clock).
type QueuedConn = (TcpStream, Option<Instant>);

/// The accept-to-worker hand-off: a deque under a ranked mutex plus a
/// condvar doorbell. The listener pushes and rings; idle workers park on
/// the doorbell, which *releases the queue mutex while they wait* — so
/// an arriving connection is dispatched the moment any worker is free,
/// instead of waiting out whichever single worker happened to be holding
/// the lock inside a bounded `recv_timeout` poll (the old design's
/// up-to-`poll_interval` hand-off stall, and its `lint.baseline` L1
/// entry, are both gone).
struct ConnQueue {
    /// Ranked above every shard lock: a worker holds the queue mutex
    /// only to pop, never across a connection's lifetime, and everything
    /// else nests strictly below.
    queue: RankedMutex<VecDeque<QueuedConn>>,
    cv: RankedCondvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            queue: RankedMutex::new("server.conn_queue", LockRank::CONN_QUEUE, VecDeque::new()),
            cv: RankedCondvar::new(),
        }
    }

    /// Enqueues an accepted connection and wakes one parked worker.
    fn push(&self, conn: QueuedConn) {
        self.queue.lock().push_back(conn);
        self.cv.notify_one();
    }

    /// Dequeues the next connection, parking on the doorbell for at most
    /// `timeout`. Returns `None` on timeout so callers can re-check the
    /// stop flag; spurious wakes re-check the queue in the loop.
    fn pop(&self, timeout: Duration) -> Option<QueuedConn> {
        let deadline = Instant::now() + timeout;
        let mut q = self.queue.lock();
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _timed_out) = self.cv.wait_timeout(q, left);
            q = guard;
        }
    }

    /// Wakes every parked worker (shutdown: they re-check the stop flag
    /// immediately instead of waiting out their poll interval).
    fn wake_all(&self) {
        self.cv.notify_all();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener, conns: &Arc<ConnQueue>) {
    let telemetry = shared.db.obs().is_enabled();
    loop {
        if shared.stopping() {
            conns.wake_all(); // parked workers re-check the stop flag now
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let accepted = telemetry.then(Instant::now);
                conns.push((stream, accepted));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // nothing pending, or a transient accept error (e.g. an
            // aborted handshake): keep serving
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop(shared: &Shared, conns: &Arc<ConnQueue>, cfg: &ServerConfig) {
    loop {
        match conns.pop(cfg.poll_interval) {
            Some((stream, accepted)) => {
                if let Some(t0) = accepted {
                    // Accept-to-dispatch hand-off delay: the connection
                    // sat in the queue behind busy workers. No request
                    // scope exists yet, so this lands as a system phase.
                    shared.db.obs().phase_from("net.queue", t0, 0);
                }
                conn::serve_connection(shared, stream, cfg)
            }
            None => {
                if shared.stopping() {
                    return;
                }
            }
        }
    }
}
