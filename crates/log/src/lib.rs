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
//! * [`LogStream`] — the crash-tolerant reader: the log through
//!   one reused window, checkpoint marker location and replay-start
//!   computation in a first pass, the frames to replay in a second
//!   (paper §3.3),
//! * [`step`] — the one rule for reading a frame off raw log bytes
//!   (whole, cut short, or corrupt), shared by every reader,
//! * [`LogScanner`] — the same forward scan over a log held whole, for
//!   tests and the benchmark only.

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
pub use scan::{step, CheckpointMark, ForwardIter, LogScanner, LogStream, LogWindow, Step};
pub use segmented::{SegmentedLogDevice, DEFAULT_CHUNK_BYTES};
pub use watermark::DurableWatermark;
