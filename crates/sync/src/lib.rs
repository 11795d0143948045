//! **mmdb-sync** — rank-checked synchronization primitives.
//!
//! The engine is deliberately single-threaded; every thread that exists
//! in this workspace exists to move work *around* it (shard routers,
//! per-shard background loops, server workers). Those threads
//! share a small set of locks whose nesting discipline is what keeps the
//! system deadlock-free — most critically the cross-shard two-phase
//! commit, which is only safe because shard locks are always acquired in
//! ascending index order, and the group-commit split, which is only fast
//! because the engine lock is never held across the modeled device
//! latency. Until now those rules lived in comments. This crate makes
//! them machine-checked:
//!
//! * [`RankedMutex`] / [`RankedCondvar`] wrap `std::sync` primitives
//!   with a declared [`LockRank`] from the checked-in hierarchy
//!   (`DESIGN.md` §6.6). Locks must be acquired in **strictly
//!   descending rank order**; per-shard engine locks encode the shard
//!   index so ascending-index 2PC acquisition is descending-rank by
//!   construction.
//! * In debug and test builds every acquisition is checked against the
//!   calling thread's held set (**rank inversion** panics naming both
//!   acquisition sites) and registered in a global wait-for graph
//!   (**deadlock cycles** panic with the full chain of holders). Release
//!   builds compile all of this out.
//! * With a [`ContentionSink`] attached (the obs registry implements
//!   one), each lock reports `sync.<name>.contended` (acquisitions that
//!   had to block) and `sync.<name>.held_us` (hold time, excluding
//!   condvar waits) — the contention map that will steer the per-segment
//!   latch refactor. Without a sink the wrappers are passthrough: one
//!   branch on the fast path, no clock reads.
//!
//! Poison tolerance is built in: `lock()` returns the guard directly,
//! recovering from poisoning the same way every hand-written
//! `unwrap_or_else(PoisonError::into_inner)` site in this workspace
//! already did (lint rule **L5** now enforces the standard; these
//! wrappers satisfy it by construction).

#[cfg(debug_assertions)]
use std::panic::Location;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
mod detect;

/// A position in the checked-in lock hierarchy. Locks must be acquired
/// in strictly **descending** rank order: while a thread holds a lock of
/// rank `r`, it may only acquire locks of rank `< r`. Equal ranks never
/// nest (two same-rank locks held together is an inversion).
///
/// The workspace hierarchy, outermost first (see `DESIGN.md` §6.6):
///
/// | rank | lock |
/// |---|---|
/// | 1 100 000 | [`LockRank::CONN_QUEUE`] — server connection queue |
/// | 1 000 000 | [`LockRank::ROUTER_TXNS`] — router interactive-txn map |
/// | 950 000 | [`LockRank::REPL_RESOLVER`] — replica replay resolver |
/// | 900 000 − *i* | [`LockRank::engine`] — shard *i*'s engine |
/// | 600 000 − *j* | [`LockRank::segment`] — segment *j*'s write latch |
/// | 130 000 | [`LockRank::ENGINE_TXNS`] — engine transaction table |
/// | 120 000 | [`LockRank::ENGINE_LOG`] — engine log manager |
/// | 100 000 − *i* | [`LockRank::doorbell`] — shard *i*'s loop doorbell |
/// | 10 000 | [`LockRank::WATERMARK`] — durable-LSN watermark |
/// | 5 000 | [`LockRank::AUDIT`] — audit event recorder |
/// | 40 | [`LockRank::OBS_SLOW`] — slow-request log |
/// | 30 | [`LockRank::OBS_FLIGHT`] — flight-recorder thread ring |
/// | 15 | [`LockRank::OBS_ATTR`] — latency-attribution table |
/// | 10 | [`LockRank::OBS_METRICS`] — telemetry metrics registry |
///
/// [`LockRank::UNRANKED`] opts a lock out of rank checking (it still
/// participates in wait-for cycle detection) — for locks genuinely
/// outside the hierarchy, e.g. test scaffolding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockRank(Option<u32>);

impl LockRank {
    /// Server connection hand-off queue (workers hold it only to
    /// dequeue; it is the outermost lock a worker ever takes).
    pub const CONN_QUEUE: LockRank = LockRank(Some(1_100_000));
    /// The shard router's interactive-transaction binding map (always
    /// taken before any shard engine lock).
    pub const ROUTER_TXNS: LockRank = LockRank(Some(1_000_000));
    /// The replica replay resolver (cross-stream branch and decision pooling):
    /// held while the replayer applies a committed transaction into a
    /// shard engine, so it sits *above* every engine lock.
    pub const REPL_RESOLVER: LockRank = LockRank(Some(950_000));
    /// The engine's active-transaction table, an interior lock taken
    /// only momentarily (begin / finish bookkeeping) by concurrent
    /// shared-mode committers — never across log I/O. Below every
    /// segment latch, above the log manager.
    pub const ENGINE_TXNS: LockRank = LockRank(Some(130_000));
    /// The engine's log manager — the commit pipeline's single
    /// serialization point: shared-mode committers append their whole
    /// REDO group under it. Below the segment latches and the
    /// transaction table, above the shard-loop doorbell.
    pub const ENGINE_LOG: LockRank = LockRank(Some(120_000));
    /// Per-shard durable-LSN watermark state (taken under the engine
    /// lock by the force path; alone by parked committers and
    /// replication pulls).
    pub const WATERMARK: LockRank = LockRank(Some(10_000));
    /// The audit subsystem's shared event recorder (emitted to from
    /// under engine locks).
    pub const AUDIT: LockRank = LockRank(Some(5_000));
    /// The slow-request log (pushed to after a request's flight spans
    /// are collected; never held together with any other obs lock).
    pub const OBS_SLOW: LockRank = LockRank(Some(40));
    /// A flight-recorder per-thread ring — uncontended on the hot path
    /// (each thread owns its ring; the snapshotter is the only other
    /// taker).
    pub const OBS_FLIGHT: LockRank = LockRank(Some(30));
    /// The latency-attribution table, keyed `(opcode, phase)`.
    pub const OBS_ATTR: LockRank = LockRank(Some(15));
    /// The telemetry metrics registry — the innermost lock in the
    /// system: safe to take while holding anything.
    pub const OBS_METRICS: LockRank = LockRank(Some(10));
    /// Outside the hierarchy: rank checks are skipped, wait-for cycle
    /// detection still applies.
    pub const UNRANKED: LockRank = LockRank(None);

    const ENGINE_BASE: u32 = 900_000;
    const SEGMENT_BASE: u32 = 600_000;
    const DOORBELL_BASE: u32 = 100_000;
    /// Widest supported shard topology (matches `mmdb_shard::MAX_SHARDS`).
    pub const MAX_SHARD_INDEX: usize = 100_000 - 10_001;
    /// Widest supported segment space for per-segment write latches:
    /// segment ranks must stay strictly above [`LockRank::ENGINE_TXNS`].
    pub const MAX_SEGMENT_INDEX: usize = (600_000 - 130_001) as usize;

    /// Shard `i`'s engine lock: rank `900_000 − i`, so acquiring engines
    /// in ascending shard-index order (the 2PC discipline) is strictly
    /// descending rank.
    pub fn engine(shard: usize) -> LockRank {
        assert!(
            shard <= Self::MAX_SHARD_INDEX,
            "shard index out of rank range"
        );
        LockRank(Some(Self::ENGINE_BASE - shard as u32))
    }

    /// Segment `j`'s write latch: rank `600_000 − j`, strictly below
    /// every engine lock and strictly above the engine-interior
    /// transaction-table and log locks. Acquiring latches in ascending
    /// segment order (the disjoint-write discipline of concurrent
    /// single-shard transactions) is strictly descending rank, exactly
    /// like the 2PC shard-order rule one level up.
    pub fn segment(segment: usize) -> LockRank {
        assert!(
            segment <= Self::MAX_SEGMENT_INDEX,
            "segment index out of rank range"
        );
        LockRank(Some(Self::SEGMENT_BASE - segment as u32))
    }

    /// Shard `i`'s background-loop doorbell: below every engine lock,
    /// above the watermark.
    pub fn doorbell(shard: usize) -> LockRank {
        assert!(
            shard <= Self::MAX_SHARD_INDEX,
            "shard index out of rank range"
        );
        LockRank(Some(Self::DOORBELL_BASE - shard as u32))
    }

    /// The numeric rank, if ranked.
    pub fn value(self) -> Option<u32> {
        self.0
    }

    /// The named fixed ranks, outermost first — the machine-readable
    /// half of the `DESIGN.md` §6.6 catalog (per-shard ranks are the
    /// parameterized [`LockRank::engine`] / [`LockRank::doorbell`]
    /// families between `ROUTER_TXNS` and `WATERMARK`).
    pub fn catalog() -> &'static [(&'static str, u32)] {
        &[
            ("conn-queue", 1_100_000),
            ("router-txns", 1_000_000),
            ("repl-resolver", 950_000),
            ("engine[i] = 900_000 - i", 900_000),
            ("segment[j] = 600_000 - j", 600_000),
            ("engine-txns", 130_000),
            ("engine-log", 120_000),
            ("doorbell[i] = 100_000 - i", 100_000),
            ("watermark", 10_000),
            ("audit", 5_000),
            ("obs-slow", 40),
            ("obs-flight", 30),
            ("obs-attr", 15),
            ("obs-metrics", 10),
        ]
    }
}

/// Receiver for lock contention telemetry. `mmdb_obs::Obs` implements
/// this; attaching it routes `sync.<name>.contended` /
/// `sync.<name>.held_us` into the shared metrics registry.
pub trait ContentionSink: Send + Sync {
    /// An acquisition of the lock behind `metric` had to block.
    fn contended(&self, metric: &'static str);
    /// The lock behind `metric` was held for `us` microseconds.
    fn held_us(&self, metric: &'static str, us: u64);
}

/// Leaks `name` into a `&'static str` — for per-instance lock names
/// built at startup (e.g. `engine.3`). Bounded: call once per lock.
pub fn leak_name(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

struct SinkSlot {
    sink: Arc<dyn ContentionSink>,
    contended: &'static str,
    held_us: &'static str,
}

struct LockMeta {
    name: &'static str,
    rank: LockRank,
    sink: OnceLock<SinkSlot>,
}

impl LockMeta {
    fn new(name: &'static str, rank: LockRank) -> LockMeta {
        LockMeta {
            name,
            rank,
            sink: OnceLock::new(),
        }
    }

    fn attach(&self, sink: Arc<dyn ContentionSink>) {
        let _ = self.sink.set(SinkSlot {
            sink,
            contended: leak_name(format!("sync.{}.contended", self.name)),
            held_us: leak_name(format!("sync.{}.held_us", self.name)),
        });
    }
}

/// A [`Mutex`] carrying a declared [`LockRank`]. See the module docs
/// for the checking and telemetry semantics.
pub struct RankedMutex<T> {
    inner: Mutex<T>,
    meta: LockMeta,
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedMutex")
            .field("name", &self.meta.name)
            .field("rank", &self.meta.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T> RankedMutex<T> {
    /// A ranked mutex named `name` (the telemetry key) guarding `value`.
    pub fn new(name: &'static str, rank: LockRank, value: T) -> RankedMutex<T> {
        RankedMutex {
            inner: Mutex::new(value),
            meta: LockMeta::new(name, rank),
        }
    }

    /// Routes contention telemetry to `sink` (first call wins; later
    /// calls are ignored). Without a sink the lock never reads a clock.
    pub fn set_sink(&self, sink: Arc<dyn ContentionSink>) {
        self.meta.attach(sink);
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.meta.rank
    }

    /// The declared name (also the `sync.<name>.*` telemetry key).
    pub fn name(&self) -> &'static str {
        self.meta.name
    }

    /// Acquires the lock, blocking if contended. Poison-tolerant: a
    /// panic in another holder does not cascade. In debug/test builds
    /// this panics on rank inversion or a wait-for deadlock cycle,
    /// naming every involved acquisition site.
    #[track_caller]
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let at = Location::caller();
        #[cfg(debug_assertions)]
        detect::check_acquire(self.id(), self.meta.name, self.meta.rank.0, at);

        let sink = self.meta.sink.get();
        let guard = if sink.is_some() || cfg!(debug_assertions) {
            match self.inner.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    if let Some(slot) = sink {
                        slot.sink.contended(slot.contended);
                    }
                    #[cfg(debug_assertions)]
                    detect::wait_begin(self.id(), self.meta.name, at);
                    let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    #[cfg(debug_assertions)]
                    detect::wait_end();
                    g
                }
            }
        } else {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        };

        #[cfg(debug_assertions)]
        detect::acquired(self.id(), self.meta.name, self.meta.rank.0, at);
        RankedGuard {
            inner: Some(guard),
            lock: self,
            since: sink.map(|_| Instant::now()),
        }
    }

    /// Consumes the mutex, returning the value (poison-tolerant).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access without locking: `&mut self` proves no other
    /// thread can hold the mutex, so this is free — no atomics, no rank
    /// bookkeeping. The engine's `&mut self` paths use this so interior
    /// locks cost nothing when the caller already has the whole engine
    /// exclusively.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        std::ptr::from_ref(self) as *const () as usize
    }

    /// Bookkeeping shared by guard drop and condvar-wait release.
    fn on_release(&self, since: Option<Instant>) {
        #[cfg(debug_assertions)]
        detect::released(self.id());
        if let (Some(slot), Some(started)) = (self.meta.sink.get(), since) {
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            slot.sink.held_us(slot.held_us, us);
        }
    }
}

/// Guard returned by [`RankedMutex::lock`]. Dropping it releases the
/// lock, pops the rank bookkeeping, and reports hold time.
pub struct RankedGuard<'a, T> {
    /// `None` only transiently while detached for a condvar wait.
    inner: Option<MutexGuard<'a, T>>,
    lock: &'a RankedMutex<T>,
    since: Option<Instant>,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .unwrap_or_else(|| unreachable!("guard accessed while detached"))
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .unwrap_or_else(|| unreachable!("guard accessed while detached"))
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            // The std guard dropped on the line above: release the
            // mutex *before* the sink touches the (lower-ranked)
            // metrics registry.
            self.lock.on_release(self.since.take());
        }
    }
}

/// A reader/writer lock carrying a declared [`LockRank`] — the
/// shared/exclusive gate of the intra-shard concurrency design
/// (`DESIGN.md` §6.10).
///
/// [`RankedRwLock::lock`] is the **exclusive** acquisition, named
/// `lock` deliberately: it is the drop-in replacement for
/// [`RankedMutex::lock`] on the per-shard engine, keeps the router's
/// choke-point discipline textually identical (lint rule **L2**
/// pattern-matches `.lock()`), and means every pre-existing engine
/// path — checkpointer, recovery, 2PC, quiesce, maintenance — keeps
/// exactly the semantics it had under the mutex. [`RankedRwLock::read`]
/// is the **shared** acquisition used only by concurrent single-shard
/// committers and lock-free-read fallbacks; shared holders get `&T`
/// and therefore can only reach the engine's interior-locked or atomic
/// state.
///
/// Rank bookkeeping treats both modes identically (each acquisition
/// pushes the rank onto the thread's held set; inversions panic in
/// debug builds). The global wait-for table keeps one holder per lock,
/// so with multiple concurrent readers cycle detection is approximate —
/// the rank check, which is per-thread and exact, is the primary
/// discipline, exactly as for [`RankedMutex`].
pub struct RankedRwLock<T> {
    inner: RwLock<T>,
    meta: LockMeta,
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedRwLock")
            .field("name", &self.meta.name)
            .field("rank", &self.meta.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T> RankedRwLock<T> {
    /// A ranked rwlock named `name` (the telemetry key) guarding `value`.
    pub fn new(name: &'static str, rank: LockRank, value: T) -> RankedRwLock<T> {
        RankedRwLock {
            inner: RwLock::new(value),
            meta: LockMeta::new(name, rank),
        }
    }

    /// Routes contention telemetry to `sink` (first call wins).
    pub fn set_sink(&self, sink: Arc<dyn ContentionSink>) {
        self.meta.attach(sink);
    }

    /// The declared rank.
    pub fn rank(&self) -> LockRank {
        self.meta.rank
    }

    /// The declared name (also the `sync.<name>.*` telemetry key).
    pub fn name(&self) -> &'static str {
        self.meta.name
    }

    /// Acquires the lock **exclusively** (the write mode), blocking if
    /// contended. Poison-tolerant; rank-checked in debug builds. This is
    /// the engine-mutex-equivalent acquisition: every path that needs
    /// `&mut` to the guarded value goes through here.
    #[track_caller]
    pub fn lock(&self) -> RankedRwWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let at = Location::caller();
        #[cfg(debug_assertions)]
        detect::check_acquire(self.id(), self.meta.name, self.meta.rank.0, at);

        let sink = self.meta.sink.get();
        let guard = if sink.is_some() || cfg!(debug_assertions) {
            match self.inner.try_write() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    if let Some(slot) = sink {
                        slot.sink.contended(slot.contended);
                    }
                    #[cfg(debug_assertions)]
                    detect::wait_begin(self.id(), self.meta.name, at);
                    let g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
                    #[cfg(debug_assertions)]
                    detect::wait_end();
                    g
                }
            }
        } else {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        };

        #[cfg(debug_assertions)]
        detect::acquired(self.id(), self.meta.name, self.meta.rank.0, at);
        RankedRwWriteGuard {
            inner: Some(guard),
            lock: self,
            since: sink.map(|_| Instant::now()),
        }
    }

    /// Acquires the lock **shared** (the read mode), blocking if a
    /// writer holds or waits. Shared holders coexist; the guard derefs
    /// to `&T` only. Same poison tolerance and rank bookkeeping as
    /// [`RankedRwLock::lock`].
    #[track_caller]
    pub fn read(&self) -> RankedRwReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let at = Location::caller();
        #[cfg(debug_assertions)]
        detect::check_acquire(self.id(), self.meta.name, self.meta.rank.0, at);

        let sink = self.meta.sink.get();
        let guard = if sink.is_some() || cfg!(debug_assertions) {
            match self.inner.try_read() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    if let Some(slot) = sink {
                        slot.sink.contended(slot.contended);
                    }
                    #[cfg(debug_assertions)]
                    detect::wait_begin(self.id(), self.meta.name, at);
                    let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
                    #[cfg(debug_assertions)]
                    detect::wait_end();
                    g
                }
            }
        } else {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        };

        #[cfg(debug_assertions)]
        detect::acquired(self.id(), self.meta.name, self.meta.rank.0, at);
        RankedRwReadGuard {
            inner: Some(guard),
            lock: self,
            since: sink.map(|_| Instant::now()),
        }
    }

    /// Consumes the lock, returning the value (poison-tolerant).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access without locking (see [`RankedMutex::get_mut`]).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        std::ptr::from_ref(self) as *const () as usize
    }

    fn on_release(&self, since: Option<Instant>) {
        #[cfg(debug_assertions)]
        detect::released(self.id());
        if let (Some(slot), Some(started)) = (self.meta.sink.get(), since) {
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            slot.sink.held_us(slot.held_us, us);
        }
    }
}

/// Exclusive guard returned by [`RankedRwLock::lock`].
pub struct RankedRwWriteGuard<'a, T> {
    inner: Option<RwLockWriteGuard<'a, T>>,
    lock: &'a RankedRwLock<T>,
    since: Option<Instant>,
}

impl<T> std::ops::Deref for RankedRwWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .unwrap_or_else(|| unreachable!("guard accessed after release"))
    }
}

impl<T> std::ops::DerefMut for RankedRwWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .unwrap_or_else(|| unreachable!("guard accessed after release"))
    }
}

impl<T> Drop for RankedRwWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.lock.on_release(self.since.take());
        }
    }
}

/// Shared guard returned by [`RankedRwLock::read`].
pub struct RankedRwReadGuard<'a, T> {
    inner: Option<RwLockReadGuard<'a, T>>,
    lock: &'a RankedRwLock<T>,
    since: Option<Instant>,
}

impl<T> std::ops::Deref for RankedRwReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .unwrap_or_else(|| unreachable!("guard accessed after release"))
    }
}

impl<T> Drop for RankedRwReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.lock.on_release(self.since.take());
        }
    }
}

/// A [`Condvar`] paired with [`RankedMutex`] guards. Waiting detaches
/// the guard's bookkeeping (the mutex is released while parked, so the
/// rank is not held) and re-registers it on wake.
#[derive(Default)]
pub struct RankedCondvar {
    inner: Condvar,
}

impl std::fmt::Debug for RankedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedCondvar").finish_non_exhaustive()
    }
}

impl RankedCondvar {
    /// A fresh condvar.
    pub fn new() -> RankedCondvar {
        RankedCondvar::default()
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Blocks on the condvar until notified, releasing `guard`'s mutex
    /// while parked. Callers must re-check their predicate in a loop
    /// (lint rule **L3**). Poison-tolerant, like every acquisition here.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
        let (lock, std_guard) = detach(guard);
        let g = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        reattach(lock, g)
    }

    /// Like [`RankedCondvar::wait`] with a timeout; the `bool` is true
    /// when the wait timed out.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: RankedGuard<'a, T>,
        timeout: Duration,
    ) -> (RankedGuard<'a, T>, bool) {
        let (lock, std_guard) = detach(guard);
        let (g, to) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (reattach(lock, g), to.timed_out())
    }
}

/// Strips a guard down to its std guard for a condvar wait, running the
/// release-side bookkeeping (the mutex is about to be released).
fn detach<'a, T>(mut guard: RankedGuard<'a, T>) -> (&'a RankedMutex<T>, MutexGuard<'a, T>) {
    let lock = guard.lock;
    let inner = guard
        .inner
        .take()
        .unwrap_or_else(|| unreachable!("double detach"));
    let since = guard.since.take();
    // `guard` drops here with `inner == None`: no double bookkeeping.
    #[cfg(debug_assertions)]
    detect::released(lock.id());
    if let (Some(slot), Some(started)) = (lock.meta.sink.get(), since) {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        slot.sink.held_us(slot.held_us, us);
    }
    (lock, inner)
}

/// Re-wraps a std guard after a condvar wake: the mutex is held again,
/// so re-check the rank (against whatever the thread still holds) and
/// restart the hold timer.
#[track_caller]
fn reattach<'a, T>(lock: &'a RankedMutex<T>, inner: MutexGuard<'a, T>) -> RankedGuard<'a, T> {
    #[cfg(debug_assertions)]
    {
        let at = Location::caller();
        detect::check_acquire(lock.id(), lock.meta.name, lock.meta.rank.0, at);
        detect::acquired(lock.id(), lock.meta.name, lock.meta.rank.0, at);
    }
    RankedGuard {
        inner: Some(inner),
        lock,
        since: lock.meta.sink.get().map(|_| Instant::now()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn lock_round_trip_and_into_inner() {
        let m = RankedMutex::new("t", LockRank::WATERMARK, 41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.rank(), LockRank::WATERMARK);
        assert_eq!(m.name(), "t");
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn descending_rank_nesting_is_clean() {
        let outer = RankedMutex::new("outer", LockRank::engine(0), ());
        let inner = RankedMutex::new("inner", LockRank::WATERMARK, ());
        let a = outer.lock();
        let b = inner.lock();
        drop(b);
        drop(a);
    }

    #[test]
    fn ascending_shard_order_is_descending_rank() {
        let shards: Vec<RankedMutex<u32>> = (0..4)
            .map(|i| RankedMutex::new(leak_name(format!("e{i}")), LockRank::engine(i), i as u32))
            .collect();
        let guards: Vec<_> = shards.iter().map(RankedMutex::lock).collect();
        assert_eq!(guards.len(), 4);
        for g in guards.into_iter().rev() {
            drop(g);
        }
    }

    #[test]
    fn condvar_wait_timeout_releases_and_reacquires() {
        let m = RankedMutex::new("cvm", LockRank::WATERMARK, 0u32);
        let cv = RankedCondvar::new();
        let mut g = m.lock();
        let mut timed_out = false;
        while !timed_out {
            let (guard, t) = cv.wait_timeout(g, Duration::from_millis(5));
            g = guard;
            timed_out = t;
        }
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_notify_wakes_a_waiter() {
        let m = Arc::new(RankedMutex::new("nw", LockRank::WATERMARK, false));
        let cv = Arc::new(RankedCondvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                let (guard, timed_out) = cv2.wait_timeout(g, Duration::from_secs(10));
                g = guard;
                if timed_out {
                    return false;
                }
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        assert!(waiter.join().expect("waiter"));
    }

    struct CountingSink {
        contended: AtomicU64,
        held: AtomicU64,
    }

    impl ContentionSink for CountingSink {
        fn contended(&self, _metric: &'static str) {
            self.contended.fetch_add(1, Ordering::SeqCst);
        }
        fn held_us(&self, _metric: &'static str, _us: u64) {
            self.held.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn sink_sees_contention_and_hold_times() {
        let sink = Arc::new(CountingSink {
            contended: AtomicU64::new(0),
            held: AtomicU64::new(0),
        });
        let m = Arc::new(RankedMutex::new("cs", LockRank::UNRANKED, ()));
        m.set_sink(Arc::clone(&sink) as Arc<dyn ContentionSink>);
        {
            let _g = m.lock();
        }
        assert_eq!(sink.held.load(Ordering::SeqCst), 1, "uncontended hold");
        // Force contention: hold the lock while another thread acquires.
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let _g = m2.lock();
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        t.join().expect("contender");
        assert!(
            sink.contended.load(Ordering::SeqCst) >= 1,
            "blocked acquire counted"
        );
        assert_eq!(sink.held.load(Ordering::SeqCst), 3, "every hold reported");
    }

    #[test]
    fn catalog_is_strictly_descending() {
        let ranks: Vec<u32> = LockRank::catalog().iter().map(|(_, r)| *r).collect();
        assert!(ranks.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut m = RankedMutex::new("gm", LockRank::WATERMARK, 1u32);
        *m.get_mut() += 1;
        assert_eq!(*m.lock(), 2);
        let mut rw = RankedRwLock::new("grw", LockRank::WATERMARK, 1u32);
        *rw.get_mut() += 1;
        assert_eq!(*rw.read(), 2);
    }

    #[test]
    fn segment_ranks_sit_between_engine_and_interior_locks() {
        let engine = LockRank::engine(1023).value().unwrap();
        let seg_first = LockRank::segment(0).value().unwrap();
        let seg_last = LockRank::segment(LockRank::MAX_SEGMENT_INDEX)
            .value()
            .unwrap();
        assert!(seg_first < engine);
        assert!(seg_last > LockRank::ENGINE_TXNS.value().unwrap());
        assert!(LockRank::ENGINE_TXNS.value().unwrap() > LockRank::ENGINE_LOG.value().unwrap());
        assert!(LockRank::ENGINE_LOG.value().unwrap() > LockRank::doorbell(0).value().unwrap());
        // ascending segment order is strictly descending rank
        assert!(LockRank::segment(0).value() > LockRank::segment(1).value());
    }

    #[test]
    fn rwlock_write_round_trip_and_into_inner() {
        let rw = RankedRwLock::new("rw", LockRank::WATERMARK, 41);
        *rw.lock() += 1;
        assert_eq!(*rw.read(), 42);
        assert_eq!(rw.rank(), LockRank::WATERMARK);
        assert_eq!(rw.name(), "rw");
        assert_eq!(rw.into_inner(), 42);
    }

    #[test]
    fn rwlock_readers_share_while_writer_excludes() {
        let rw = Arc::new(RankedRwLock::new("share", LockRank::engine(0), 7u32));
        // two threads hold read guards simultaneously
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let rw = Arc::clone(&rw);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let g = rw.read();
                    barrier.wait(); // both inside at once: readers coexist
                    *g
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("reader"), 7);
        }
        // a writer sees the value exclusively afterwards
        *rw.lock() = 8;
        assert_eq!(*rw.read(), 8);
    }

    #[test]
    fn rwlock_engine_then_segment_then_log_nesting_is_clean() {
        // the intra-shard commit pipeline's exact shape: shared engine,
        // then ascending segment latches, then the interior log lock
        let engine = RankedRwLock::new("engine.0", LockRank::engine(0), ());
        let seg2 = RankedMutex::new("seg.2", LockRank::segment(2), ());
        let seg5 = RankedMutex::new("seg.5", LockRank::segment(5), ());
        let log = RankedMutex::new("log.0", LockRank::ENGINE_LOG, ());
        let e = engine.read();
        let a = seg2.lock();
        let b = seg5.lock();
        let l = log.lock();
        drop(l);
        drop(b);
        drop(a);
        drop(e);
    }

    #[test]
    fn rwlock_reports_contention_to_the_sink() {
        let sink = Arc::new(CountingSink {
            contended: AtomicU64::new(0),
            held: AtomicU64::new(0),
        });
        let rw = Arc::new(RankedRwLock::new("rwcs", LockRank::UNRANKED, ()));
        rw.set_sink(Arc::clone(&sink) as Arc<dyn ContentionSink>);
        {
            let _g = rw.read();
        }
        assert_eq!(sink.held.load(Ordering::SeqCst), 1);
        let g = rw.lock();
        let rw2 = Arc::clone(&rw);
        let t = std::thread::spawn(move || {
            let _g = rw2.read();
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        t.join().expect("reader");
        assert!(sink.contended.load(Ordering::SeqCst) >= 1);
        assert_eq!(sink.held.load(Ordering::SeqCst), 3);
    }
}
