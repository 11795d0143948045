//! REDO-only logging for the memory-resident database.
//!
//! The paper's system (§2.6) logs only after-images: shadow-copy updates
//! mean old versions are never overwritten before commit, so UNDO
//! information is unnecessary. This crate provides:
//!
//! * [`LogRecord`] — record types and a compact, CRC-32C-checksummed
//!   frame encoding (the older FNV-1a envelope still decodes),
//! * [`LogDevice`] — the durable byte store ([`MemLogDevice`] for tests and
//!   simulation, [`SegmentedLogDevice`] for a database directory),
//! * [`LogManager`] — the volatile/stable log tail with LSN-based
//!   durability tracking (the write-ahead gate for checkpointers),
//! * [`DurableWatermark`] / [`PendingForce`] — the group-commit split:
//!   committers park on the watermark while a flusher batches forces and
//!   completes them (modeled latency, watermark publish) outside the
//!   engine lock. A replication shipper long-polls the same watermark,
//!   reads what it ships from the device
//!   ([`LogManager::read_range_aligned`], the log's only copy), and
//!   times standby acks against the watermark's lag marks,
//! * [`LogStream`] — the log's one reader: a device's log, or a byte
//!   string at a base LSN (a standby's pulled batch), through one reused
//!   window. Its validation pass locates the checkpoint markers and
//!   computes replay starts; a second pass reads the frames to replay
//!   (paper §3.3),
//! * [`LogScanner`] — a shim over the stream, kept only because the
//!   benchmark names it.

#![warn(missing_docs)]

mod device;
mod manager;
mod record;
mod scan;
mod segmented;
mod watermark;

pub use device::{ChunkInfo, FlakyControl, FlakyLogDevice, LogDevice, MemLogDevice};
pub use manager::{LogManager, LogStats, PendingForce};
pub use record::{LogRecord, FRAME_OVERHEAD, MAX_TXN_FRAME_BYTES, MIN_COMPACTED_LEN};
pub use scan::{CheckpointMark, LogScanner, LogStream, LogWindow, Stop};
pub use segmented::{SegmentedLogDevice, DEFAULT_CHUNK_BYTES};
pub use watermark::DurableWatermark;
