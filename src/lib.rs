//! **mmdb** — a crash-recoverable main-memory database with pluggable
//! checkpointing, reproducing Salem & Garcia-Molina, *Checkpointing
//! Memory-Resident Databases* (ICDE 1989).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * the engine ([`Mmdb`], [`MmdbConfig`]) from `mmdb-core`,
//! * the analytic model ([`model`]) that regenerates the paper's figures,
//! * the discrete-event simulator ([`sim`]) that cross-validates it,
//! * workload generators ([`workload`]),
//! * the network layer ([`wire`], [`server`]) for serving an engine over
//!   TCP and load-testing it,
//! * the sharding layer ([`shard`]) that hash-partitions the record
//!   space across independent engines with two-phase cross-shard commit,
//! * and the substrate crates ([`storage`], [`log`], [`disk`], [`txn`],
//!   [`checkpoint`], [`recovery`]) for users building their own harnesses.
//!
//! ```
//! use mmdb::{Algorithm, Mmdb, MmdbConfig, RecordId};
//!
//! let mut db = Mmdb::open_in_memory(MmdbConfig::small(Algorithm::CouCopy)).unwrap();
//! let txn = db.begin_txn().unwrap();
//! db.write(txn, RecordId(0), &vec![7; db.record_words()]).unwrap();
//! db.commit(txn).unwrap();
//! db.checkpoint().unwrap();
//! db.crash().unwrap();
//! db.recover().unwrap();
//! assert_eq!(db.read_committed(RecordId(0)).unwrap()[0], 7);
//! ```

#![warn(missing_docs)]

pub use mmdb_core::{
    Algorithm, AuditReport, AuditViolation, CheckerId, CheckpointStart, CkptMode, CkptReport,
    CkptStats, CommitDurability, LogMode, Meters, Mmdb, MmdbConfig, MmdbError, OverheadReport,
    Params, RecordId, RecoveryReport, Result, StepOutcome, TxnId, TxnRun, WalPolicy,
};

/// The analytic performance model and figure generators.
pub mod model {
    pub use mmdb_model::*;
}

/// The discrete-event simulation testbed.
pub mod sim {
    pub use mmdb_sim::*;
}

/// Workload generators (uniform, Zipf, hot-set, Poisson arrivals).
pub mod workload {
    pub use mmdb_workload::*;
}

/// Common types: parameters, identifiers, cost meters.
pub mod types {
    pub use mmdb_types::*;
}

/// The memory-resident storage substrate.
pub mod storage {
    pub use mmdb_storage::*;
}

/// The REDO log substrate.
pub mod log {
    pub use mmdb_log::*;
}

/// The backup-disk substrate (ping-pong stores, disk model).
pub mod disk {
    pub use mmdb_disk::*;
}

/// The transaction-table substrate.
pub mod txn {
    pub use mmdb_txn::*;
}

/// The checkpointing algorithms.
pub mod checkpoint {
    pub use mmdb_checkpoint::*;
}

/// Crash recovery.
pub mod recovery {
    pub use mmdb_recovery::*;
}

/// Online protocol-invariant auditing (event stream + checkers).
pub mod audit {
    pub use mmdb_audit::*;
}

/// Telemetry: tracing spans, latency histograms, metrics snapshots.
pub mod obs {
    pub use mmdb_obs::*;
}

/// Hash-partitioned sharding: per-shard logs, backups and
/// checkpointers, with two-phase cross-shard commit.
pub mod shard {
    pub use mmdb_shard::*;
}

/// Ranked locks: the global lock hierarchy, debug-build deadlock
/// detection, and per-lock contention telemetry (DESIGN.md §6.6).
pub mod sync {
    pub use mmdb_sync::*;
}

/// The network wire protocol and blocking client.
pub mod wire {
    pub use mmdb_wire::*;
}

/// The threaded TCP server and closed-loop network load driver.
pub mod server {
    pub use mmdb_server::*;
}

/// Log-shipping replication: primary-side shipping, standby replay and
/// promotion.
pub mod repl {
    pub use mmdb_repl::*;
}

/// Recovery at scale: parallel partitioned replay and log compaction with
/// compressed cold storage.
pub mod rescale {
    pub use mmdb_rescale::*;
}
