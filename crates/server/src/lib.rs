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
//! No server thread polls a stop flag: each blocks until it has work,
//! and shutdown wakes it. A connection's read timeout is
//! [`ServerConfig::idle_timeout`] and nothing else, and a reply write
//! that makes no progress for [`WRITE_STALL`] closes the connection.
//!
//! Shutdown is graceful and wakes rather than waits: a client
//! `Shutdown` request and [`ServerHandle::stop`] both raise a flag, take
//! the maintenance duties back from the shard loops (a checkpoint in
//! progress is left unfinished, as a crash would leave it), shut the
//! read half of every served connection, wake the parked workers and
//! connect once to the listener to wake its blocking `accept`. A request
//! already in flight still finishes and its reply is written. Shutdown
//! does not wake a reply write: it ends when the reply is out or when
//! the peer makes no progress for [`WRITE_STALL`], so a peer that keeps
//! reading a few bytes at a time holds its worker until it stops.
//! [`ServerHandle::shutdown_join`] then joins every thread and returns
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
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
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
    /// The read timeout of every served connection: one that sends
    /// nothing for this long — between requests or between two bytes of
    /// one — is closed (`net.conn.idle_closed`). `None` keeps idle
    /// connections forever; a zero duration is refused at spawn.
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
            idle_timeout: None,
            checkpoint_interval: Some(Duration::from_millis(10)),
            slow_trace_us: mmdb_obs::DEFAULT_SLOW_THRESHOLD_US,
            compact_interval: None,
            repl: ReplOptions::default(),
        }
    }
}

/// A reply write that makes no progress for this long closes its
/// connection (`net.conn.write_stalls`), so a client that stops reading
/// its replies frees its worker, and shutdown, within this bound. It
/// bounds progress, not the whole reply: every send that moves a few
/// bytes restarts it.
pub const WRITE_STALL: Duration = Duration::from_secs(5);

/// Shared server state visible to every thread.
pub(crate) struct Shared {
    pub(crate) db: ShardedMmdb,
    stop: AtomicBool,
    conns: ConnQueue,
    /// The listener's address, with an unspecified IP replaced by
    /// loopback: [`Shared::stop`] connects here to wake `accept`.
    wake_addr: SocketAddr,
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

    /// The one shutdown path (a wire `Shutdown` and
    /// [`ServerHandle::stop`]): raises the flag, hands the maintenance
    /// duties back, then wakes every server thread blocked in a read,
    /// the queue or `accept` — served reads see EOF, parked workers
    /// re-check the queue, and `accept` returns with this call's own
    /// connection. A reply write is not woken (see [`WRITE_STALL`]).
    /// Idempotent.
    pub(crate) fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.db.set_maintenance(None);
        self.conns.wake_all();
        let _ = TcpStream::connect(self.wake_addr);
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
        if config.idle_timeout == Some(Duration::ZERO) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "idle_timeout must be positive",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };

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
        let workers = config.workers.max(1);
        let conns = ConnQueue::new(workers);
        if let Some(sink) = db.obs().contention_sink() {
            conns.state.set_sink(sink);
        }
        let shared = Arc::new(Shared {
            db,
            stop: AtomicBool::new(false),
            conns,
            wake_addr: SocketAddr::new(wake_ip, addr.port()),
            txns_aborted_on_disconnect: AtomicU64::new(0),
            replica,
            on_promote: config.repl.on_promote.clone(),
        });

        let mut worker_joins = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let cfg = config.clone();
            worker_joins.push(
                std::thread::Builder::new()
                    .name(format!("mmdb-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i, &cfg))?,
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
            std::thread::Builder::new()
                .name("mmdb-accept".into())
                .spawn(move || accept_loop(&shared, listener))?
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

    /// Raises the stop flag, takes the maintenance duties back from
    /// the shard loops (group commits are still forced) and wakes every
    /// server thread blocked in a read, the queue or `accept`; each
    /// exits after its current request, whose reply write is bounded by
    /// [`WRITE_STALL`] only.
    /// Does not wait for them — pair with [`ServerHandle::shutdown_join`].
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Blocks until the server stops (locally via [`ServerHandle::stop`]
    /// or remotely via a wire `Shutdown`): joins the accept thread,
    /// which exits only once the stop flag is up. Follow with
    /// [`ServerHandle::shutdown_join`].
    pub fn wait(&mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
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
        self.wait();
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
/// The worker that dequeues it attributes the hand-off delay to a
/// `net.queue` phase.
type QueuedConn = (TcpStream, Option<Instant>);

/// The accept-to-worker hand-off: a deque under a ranked mutex plus a
/// condvar doorbell, and a handle on each worker's connection. The
/// listener pushes and rings; idle workers park on the doorbell, which
/// releases the queue mutex while they wait, so an arriving connection
/// is dispatched the moment any worker is free.
struct ConnQueue {
    /// Ranked above every shard lock: a worker holds the queue mutex
    /// only to take or return a connection, never across serving it,
    /// and everything else nests strictly below.
    state: RankedMutex<Conns>,
    cv: RankedCondvar,
}

struct Conns {
    /// Accepted connections no worker has taken yet.
    queued: VecDeque<QueuedConn>,
    /// A clone of the stream each worker serves, indexed by worker:
    /// [`ConnQueue::wake_all`] shuts its read half to end a blocked read.
    serving: Vec<Option<TcpStream>>,
}

impl ConnQueue {
    fn new(workers: usize) -> ConnQueue {
        let conns = Conns {
            queued: VecDeque::new(),
            serving: (0..workers).map(|_| None).collect(),
        };
        ConnQueue {
            state: RankedMutex::new("server.conn_queue", LockRank::CONN_QUEUE, conns),
            cv: RankedCondvar::new(),
        }
    }

    /// Enqueues an accepted connection and wakes one parked worker.
    fn push(&self, conn: QueuedConn) {
        self.state.lock().queued.push_back(conn);
        self.cv.notify_one();
    }

    /// Parks until a connection is queued or `stop` is up; dequeues the
    /// next one and files a clone of it as `worker`'s. `None` once the
    /// queue is empty and `stop` is up. The flag is read under the lock
    /// [`ConnQueue::wake_all`] takes after raising it, so a connection
    /// taken after a stop has its read half shut here instead.
    fn take(&self, worker: usize, stop: &AtomicBool) -> Option<QueuedConn> {
        let mut conns = self.state.lock();
        while conns.queued.is_empty() && !stop.load(Ordering::SeqCst) {
            conns = self.cv.wait(conns);
        }
        let conn = conns.queued.pop_front()?;
        match conn.0.try_clone() {
            Ok(clone) if !stop.load(Ordering::SeqCst) => conns.serving[worker] = Some(clone),
            // stopped, or no handle to wake it with: serve only what the
            // client has already sent
            _ => {
                let _ = conn.0.shutdown(Shutdown::Read);
            }
        }
        Some(conn)
    }

    /// Drops `worker`'s handle once its connection has ended.
    fn done(&self, worker: usize) {
        self.state.lock().serving[worker] = None;
    }

    /// Shuts the read half of every served connection and wakes every
    /// parked worker (shutdown: the stop flag is already up).
    fn wake_all(&self) {
        let conns = self.state.lock();
        for stream in conns.serving.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        self.cv.notify_all();
    }
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    let telemetry = shared.db.obs().is_enabled();
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            return; // `Shared::stop`'s wake-up connection, or a late one: closed unserved
        }
        match accepted {
            Ok((stream, _peer)) => shared.conns.push((stream, telemetry.then(Instant::now))),
            // A failed accept costs only that connection. Fd exhaustion
            // fails again at once until a worker's close frees a
            // descriptor, so back off rather than spin a core the workers
            // need: an error back-off, not a stop-flag poll.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize, cfg: &ServerConfig) {
    while let Some((stream, accepted)) = shared.conns.take(worker, &shared.stop) {
        if let Some(t0) = accepted {
            // Accept-to-dispatch hand-off delay: the connection sat in
            // the queue behind busy workers. No request scope exists
            // yet, so this lands as a system phase.
            shared.db.obs().phase_from("net.queue", t0, 0);
        }
        conn::serve_connection(shared, stream, cfg);
        shared.conns.done(worker);
    }
}
