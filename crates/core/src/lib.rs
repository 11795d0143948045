//! `mmdb-core` — a crash-recoverable main-memory database engine, built
//! as a faithful, executable reproduction of Salem & Garcia-Molina,
//! *Checkpointing Memory-Resident Databases* (ICDE 1989).
//!
//! The engine keeps the whole database in main memory and maintains two
//! ping-pong backup copies on disk via one of six checkpointing
//! algorithms (`FUZZYCOPY`, `2CFLUSH`, `2CCOPY`, `COUFLUSH`, `COUCOPY`,
//! `FASTFUZZY`), with a REDO-only log providing the delta between the
//! latest backup and the committed state. After a crash, recovery
//! restores the most recent complete backup and replays the log.
//!
//! # Quickstart
//!
//! ```
//! use mmdb_core::{Mmdb, MmdbConfig};
//! use mmdb_types::{Algorithm, RecordId};
//!
//! let mut db = Mmdb::open_in_memory(MmdbConfig::small(Algorithm::CouCopy)).unwrap();
//! let value = vec![42; db.record_words()];
//!
//! // A transaction: begin, write, commit (shadow-copy updates — nothing
//! // hits the database until commit).
//! let txn = db.begin_txn().unwrap();
//! db.write(txn, RecordId(7), &value).unwrap();
//! db.commit(txn).unwrap();
//!
//! // Take a transaction-consistent checkpoint, then crash and recover.
//! db.checkpoint().unwrap();
//! let before = db.fingerprint();
//! db.crash().unwrap();
//! db.recover().unwrap();
//! assert_eq!(db.fingerprint(), before);
//! assert_eq!(db.read_committed(RecordId(7)).unwrap(), value);
//! ```

#![warn(missing_docs)]

mod config;
mod engine;
mod metrics;

pub use config::{CommitDurability, MmdbConfig};
pub use engine::{CheckpointStart, Mmdb, SegmentStats, TxnRun};
pub use metrics::{Meters, OverheadReport};

// Re-export the pieces users need to drive the public API.
pub use mmdb_audit::{Audit, AuditReport, AuditViolation, CheckerId};
pub use mmdb_checkpoint::{CkptReport, CkptStats, StepOutcome, WalPolicy};
pub use mmdb_log::ChunkInfo;
pub use mmdb_log::{
    DurableWatermark, FlakyControl, FlakyLogDevice, LogDevice, LogRecord, LogStream, PendingForce,
    Stop, MAX_TXN_FRAME_BYTES,
};
pub use mmdb_obs::{
    validate_prometheus, write_flightrec, HistSummary, MetricsSnapshot, Obs, PaperOverhead,
    TraceDumpDoc,
};
pub use mmdb_recovery::{replay_frames, RecoveryReport, Resolver};
pub use mmdb_rescale::{CompactOptions, CompactReport};
pub use mmdb_storage::{PendingInstall, ReadMirror};
pub use mmdb_types::{
    Algorithm, CkptMode, LogMode, Lsn, MmdbError, Params, RecordId, Result, TxnId,
};
