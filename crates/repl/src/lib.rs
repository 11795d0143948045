//! **mmdb-repl** — log-shipping replication with hot-standby failover.
//!
//! The paper treats the *backup database* as the recovery-time lever:
//! the fresher the backup, the less log must be replayed after a crash
//! (§2.2's `C_recovery` is dominated by the log-read term). Replication
//! extends that idea across machines: a standby that continuously
//! replays the primary's REDO stream *is* a backup whose staleness is
//! measured in milliseconds, so "recovery" after losing the primary is
//! a promotion, not a log scan.
//!
//! ## Shipping (primary side, [`primary`])
//!
//! Only **durable** bytes ever ship, and they ship from the log device,
//! the log's only copy (paper §3.3: recovery reads the log from the log
//! disks too). Standbys *pull*: each `ReplAck{shard, applied, …}` both
//! acknowledges everything below `applied` (releasing semi-sync
//! committers parked on the [`ReplGate`](mmdb_shard::ReplGate)) and
//! long-polls the shard's durable-LSN watermark — the one every force
//! already publishes to — for the next batch, which is one ranged read
//! cut to whole frames under the shard's shared gate. One
//! request/response round per batch, over the ordinary server port.
//!
//! ## Replay (standby side, [`replica`])
//!
//! One pull connection per shard drains that shard's log stream into a
//! shared [`replica::Replica`], through the same
//! [`Resolver`](mmdb_core::Resolver) crash recovery replays with, one
//! per shard stream: a transaction installs at the frame that commits
//! it on that shard (engine-level re-execution of the after-images —
//! idempotent, so restart-and-replay-from-anywhere is safe), and
//! checkpoint markers resolve to nothing (the standby checkpoints its
//! own engines on its own schedule). The standby serves read-only gets
//! at its tracked applied watermark and rejects writes until
//! [`replica::promote`] stops the pull loops, drains them, resolves the
//! branches still prepared as sharded recovery would (commit if any
//! stream decided commit, presumed abort otherwise), and flips it
//! writable — sub-second, because a continuously replaying standby has
//! no log backlog.
//!
//! ## Lag accounting
//!
//! Once replication is enabled, each shard's durable watermark stamps
//! every force completion, and the primary measures `repl.lag_us` when
//! an ack covers it — replication lag attributed entirely with the
//! primary's clock, no cross-machine clock needed.
//! `repl.lag_lsn` is the instantaneous byte gap. Both are live on
//! `stats` as `repl.*`.

#![warn(missing_docs)]

pub mod primary;
pub mod replica;

pub use primary::{
    serve_hello, serve_pull, serve_scan, MAX_REPL_BATCH_BYTES, MAX_REPL_SCAN_RECORDS,
    MAX_REPL_WAIT_MS,
};
pub use replica::{promote, pull_shard_loop, Replica};
