//! Log devices: where the durable portion of the log lives.
//!
//! The engine writes through [`LogDevice`], so the same log manager runs
//! against chunk files in a database directory
//! ([`crate::SegmentedLogDevice`]), an in-memory vector (unit tests) or
//! the simulator's modeled disks.

use mmdb_types::{MmdbError, Result};

/// A durable, append-only byte device holding the stable portion of the
/// log. Offset 0 is the first byte ever written (LSN 0).
pub trait LogDevice: Send + Sync {
    /// Durably appends `bytes` at the current end.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Durable length in bytes: offsets `[start_offset, len)` are
    /// readable; `len` is the device-side durable LSN.
    fn len(&self) -> u64;

    /// First readable offset. 0 unless a prefix has been truncated away
    /// (checkpoints make old log obsolete; see
    /// [`truncate_prefix`](Self::truncate_prefix)).
    fn start_offset(&self) -> u64 {
        0
    }

    /// True if nothing is currently readable.
    fn is_empty(&self) -> bool {
        self.len() == self.start_offset()
    }

    /// Discards log bytes before `offset` (which must be ≤ `len`).
    /// Offsets are *stable*: reads and appends keep using the global
    /// offset space; only the readable window shrinks. Devices that do
    /// not support truncation may ignore the call (the default).
    fn truncate_prefix(&mut self, offset: u64) -> Result<()> {
        let _ = offset;
        Ok(())
    }

    /// Discards the bytes from `end` on (`start_offset ≤ end ≤ len`):
    /// recovery cuts a torn tail back to the log's valid end, so the next
    /// append continues the valid log. Idempotent, so a crash mid-cut
    /// leaves a tail the next recovery cuts again. Devices that cannot
    /// cut refuse every `end` but `len` (the default).
    fn truncate_suffix(&mut self, end: u64) -> Result<()> {
        if end == self.len() {
            return Ok(());
        }
        Err(MmdbError::Invalid(format!(
            "this log device cannot cut its end back to {end}"
        )))
    }

    /// Reads exactly `buf.len()` bytes starting at `offset`; fails if the
    /// range is not fully within the readable window.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Reads the whole readable log (recovery's working set; the paper
    /// assumes the entire relevant log is read, §4). The returned bytes
    /// start at [`start_offset`](Self::start_offset).
    fn read_all(&mut self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; (self.len() - self.start_offset()) as usize];
        let start = self.start_offset();
        self.read_at(start, &mut buf)?;
        Ok(buf)
    }

    /// Seals the active chunk so it becomes *cold* (eligible for
    /// compaction and compression); subsequent appends land in a fresh
    /// chunk. Returns `true` if a rotation actually happened. Devices
    /// without chunk structure ignore the call (the default).
    fn rotate(&mut self) -> Result<bool> {
        Ok(false)
    }

    /// Describes the device's chunk layout, oldest first. The last entry
    /// is the active (append) chunk. Empty for unchunked devices (the
    /// default) — callers must treat an empty map as "no chunk
    /// lifecycle available".
    fn chunk_map(&self) -> Vec<ChunkInfo> {
        Vec::new()
    }

    /// Atomically replaces the cold chunk starting at global offset
    /// `start` with `bytes`, which must have exactly the chunk's logical
    /// length (compaction is length-preserving: it overwrites dead
    /// frames with same-length filler, never moves an offset). With
    /// `compress`, the chunk is stored compressed on disk; its logical
    /// offsets and length are unchanged. Unsupported by default.
    fn rewrite_chunk(&mut self, start: u64, bytes: &[u8], compress: bool) -> Result<()> {
        let _ = (start, bytes, compress);
        Err(MmdbError::Invalid(
            "this log device does not support chunk rewriting".into(),
        ))
    }
}

/// One chunk of a chunked [`LogDevice`], as reported by
/// [`LogDevice::chunk_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Global offset of the chunk's first byte.
    pub start: u64,
    /// Logical length in bytes (the offset span it covers).
    pub len: u64,
    /// Whether the chunk is stored compressed on disk.
    pub compressed: bool,
    /// Bytes the chunk occupies on disk (< `len` when compressed).
    pub disk_bytes: u64,
}

/// An in-memory log device for tests and simulation. Supports prefix and
/// suffix truncation.
#[derive(Debug, Default)]
pub struct MemLogDevice {
    data: Vec<u8>,
    /// Global offset of `data[0]`.
    base: u64,
}

impl MemLogDevice {
    /// An empty device.
    pub fn new() -> MemLogDevice {
        MemLogDevice::default()
    }

    /// Borrow the raw bytes (test assertions).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl LogDevice for MemLogDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    fn start_offset(&self) -> u64 {
        self.base
    }

    fn truncate_prefix(&mut self, offset: u64) -> Result<()> {
        if offset > self.len() {
            return Err(MmdbError::Invalid(format!(
                "truncate_prefix({offset}) past end {}",
                self.len()
            )));
        }
        if offset > self.base {
            self.data.drain(..(offset - self.base) as usize);
            self.base = offset;
        }
        Ok(())
    }

    fn truncate_suffix(&mut self, end: u64) -> Result<()> {
        if end < self.base || end > self.len() {
            return Err(MmdbError::Invalid(format!(
                "truncate_suffix({end}) outside [{}, {}]",
                self.base,
                self.len()
            )));
        }
        self.data.truncate((end - self.base) as usize);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if offset < self.base {
            return Err(MmdbError::Corrupt(format!(
                "log read at {offset} before truncation point {}",
                self.base
            )));
        }
        let start = (offset - self.base) as usize;
        let end = start + buf.len();
        if end > self.data.len() {
            return Err(MmdbError::Corrupt(format!(
                "log read past durable end ({} > {})",
                self.base + end as u64,
                self.len()
            )));
        }
        buf.copy_from_slice(&self.data[start..end]);
        Ok(())
    }
}

/// Shared control handle for a [`FlakyLogDevice`], kept by the test while
/// the device itself is owned by the engine. Arms failures and counts
/// appends through the move.
#[derive(Debug, Default)]
pub struct FlakyControl {
    appends: std::sync::atomic::AtomicU64,
    /// Appends at or past this count fail; `u64::MAX` = never.
    fail_at: std::sync::atomic::AtomicU64,
    /// A failing append still lands its bytes (a lost acknowledgement).
    land_failed: std::sync::atomic::AtomicBool,
}

impl FlakyControl {
    /// Total appends attempted so far (including failed ones).
    pub fn appends(&self) -> u64 {
        self.appends.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Lets the next `n` appends succeed, then fails every one after
    /// until [`heal`](Self::heal) is called.
    pub fn fail_after_next(&self, n: u64) {
        self.land_failed
            .store(false, std::sync::atomic::Ordering::SeqCst);
        self.fail_at
            .store(self.appends() + n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Like [`fail_after_next`](Self::fail_after_next), but each failing
    /// append still lands its bytes on the device: the write reached it
    /// and only its acknowledgement was lost.
    pub fn fail_after_next_landing(&self, n: u64) {
        self.fail_after_next(n);
        self.land_failed
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Stops injecting failures.
    pub fn heal(&self) {
        self.fail_at
            .store(u64::MAX, std::sync::atomic::Ordering::SeqCst);
    }

    fn should_fail(&self, append_index: u64) -> bool {
        append_index >= self.fail_at.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// A fault-injecting in-memory log device: appends fail with an I/O
/// error once armed via the shared [`FlakyControl`]. Test aid for the
/// error paths a healthy device never exercises (sticky deferred-force
/// errors, 2PC phase-two branch failures).
#[derive(Debug)]
pub struct FlakyLogDevice {
    inner: MemLogDevice,
    control: std::sync::Arc<FlakyControl>,
}

impl FlakyLogDevice {
    /// A healthy device plus the control handle that can break it later.
    pub fn new() -> (FlakyLogDevice, std::sync::Arc<FlakyControl>) {
        let control = std::sync::Arc::new(FlakyControl {
            appends: std::sync::atomic::AtomicU64::new(0),
            fail_at: std::sync::atomic::AtomicU64::new(u64::MAX),
            land_failed: std::sync::atomic::AtomicBool::new(false),
        });
        (
            FlakyLogDevice {
                inner: MemLogDevice::new(),
                control: std::sync::Arc::clone(&control),
            },
            control,
        )
    }
}

impl LogDevice for FlakyLogDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let index = self
            .control
            .appends
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if self.control.should_fail(index) {
            if self
                .control
                .land_failed
                .load(std::sync::atomic::Ordering::SeqCst)
            {
                self.inner.append(bytes)?;
            }
            return Err(MmdbError::Io(std::io::Error::other(
                "injected log-device failure",
            )));
        }
        self.inner.append(bytes)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn start_offset(&self) -> u64 {
        self.inner.start_offset()
    }

    fn truncate_prefix(&mut self, offset: u64) -> Result<()> {
        self.inner.truncate_prefix(offset)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_append_read() {
        let mut d = MemLogDevice::new();
        assert!(d.is_empty());
        d.append(b"hello").unwrap();
        d.append(b" world").unwrap();
        assert_eq!(d.len(), 11);
        let mut buf = [0u8; 5];
        d.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert!(d.read_at(7, &mut buf).is_err());
        assert_eq!(d.read_all().unwrap(), b"hello world");
    }

    #[test]
    fn mem_device_truncate_suffix_cuts_the_tail() {
        let mut d = MemLogDevice::new();
        d.append(b"0123456789").unwrap();
        d.truncate_prefix(2).unwrap();
        d.truncate_suffix(4).unwrap();
        d.truncate_suffix(4).unwrap(); // idempotent
        assert_eq!(d.len(), 4);
        assert_eq!(d.read_all().unwrap(), b"23");
        assert!(d.truncate_suffix(5).is_err(), "past the end");
        assert!(d.truncate_suffix(1).is_err(), "before the start");
        d.append(b"x").unwrap();
        assert_eq!(d.read_all().unwrap(), b"23x");
    }
}
