//! A segmented (chunked) file log device.
//!
//! Production log managers do not keep one ever-growing file: the log is
//! split into fixed-size *chunk files*, and truncating the obsolete
//! prefix (everything older than the last two completed checkpoints —
//! see `Mmdb`'s truncation hook) reclaims space by deleting whole
//! chunks. Offsets remain global and stable: chunk files are named by
//! the global offset of their first byte (`<offset>.log`), so a reopened
//! device reconstructs the offset space from the directory listing.
//!
//! ## Cold-chunk lifecycle (rotation, compaction, compression)
//!
//! Every chunk except the last is *cold*: it will never be appended to
//! again. Cold chunks support two in-place transformations, both
//! length-preserving in the logical offset space:
//!
//! * [`rewrite_chunk`](crate::LogDevice::rewrite_chunk) replaces a cold
//!   chunk's bytes (the compactor overwrites dead frames with
//!   same-length `Compacted` filler), optionally storing the result
//!   compressed as `<offset>.logz` — an 8-byte logical-length header
//!   followed by a checksummed [`mmdb_types::lz`] block.
//! * [`rotate`](crate::LogDevice::rotate) seals the active chunk early
//!   so it becomes cold without waiting for it to fill.
//!
//! The rewrite protocol is crash-atomic per chunk: the new image is
//! written to `<offset>.tmp`, synced, renamed over the final name, and
//! only then is a superseded `.log` file unlinked. On open, `.logz` is
//! preferred when both exist (the rename happens only after a complete
//! write), orphaned `.log` twins and stray `.tmp` files are removed, and
//! chunk contiguity is checked on *logical* lengths.

use crate::device::{ChunkInfo, LogDevice};
use mmdb_types::{lz, MmdbError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Default chunk size: 1 MiB.
pub const DEFAULT_CHUNK_BYTES: u64 = 1 << 20;

/// Header of a compressed chunk file: the chunk's logical length (u64
/// LE), so discovery never has to decompress anything.
const LOGZ_HEADER: usize = 8;

/// One chunk file: covers global offsets `[start, start + len)`.
#[derive(Debug)]
struct Chunk {
    start: u64,
    /// Logical length — the span of global offsets covered.
    len: u64,
    /// Bytes on disk (equals `len` for uncompressed chunks).
    disk_bytes: u64,
    compressed: bool,
    path: PathBuf,
}

/// A directory of fixed-capacity chunk files forming one logical log.
#[derive(Debug)]
pub struct SegmentedLogDevice {
    dir: PathBuf,
    chunk_bytes: u64,
    chunks: Vec<Chunk>,
    /// Open handle to the active (last) chunk.
    active: Option<File>,
    sync_on_append: bool,
    /// One-entry cache of the most recently decompressed cold chunk,
    /// keyed by chunk start (sequential recovery scans hit it hard).
    cache: Option<(u64, Vec<u8>)>,
    /// The logical truncation point: a *record boundary* supplied by the
    /// log manager. Chunk files are deleted at whole-chunk granularity,
    /// so the first surviving chunk may physically begin before this
    /// offset; readers must start here (mid-record bytes below it are
    /// unreadable). Persisted in `dir/truncation`.
    logical_start: u64,
}

fn truncation_path(dir: &Path) -> PathBuf {
    dir.join("truncation")
}

fn chunk_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("{start:020}.log"))
}

fn chunk_z_path(dir: &Path, start: u64) -> PathBuf {
    dir.join(format!("{start:020}.logz"))
}

/// Reads and verifies a compressed chunk file, returning its logical
/// bytes.
fn read_compressed_chunk(path: &Path, logical_len: u64) -> Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < LOGZ_HEADER {
        return Err(MmdbError::Corrupt(format!(
            "compressed chunk {path:?} shorter than its header"
        )));
    }
    let stored_len = u64::from_le_bytes(bytes[..LOGZ_HEADER].try_into().expect("8-byte slice"));
    if stored_len != logical_len {
        return Err(MmdbError::Corrupt(format!(
            "compressed chunk {path:?} header length {stored_len} != expected {logical_len}"
        )));
    }
    let raw = lz::decode_block(&bytes[LOGZ_HEADER..])?;
    if raw.len() as u64 != logical_len {
        return Err(MmdbError::Corrupt(format!(
            "compressed chunk {path:?} decoded to {} bytes, expected {logical_len}",
            raw.len()
        )));
    }
    Ok(raw)
}

impl SegmentedLogDevice {
    /// Opens (or creates) a segmented log in `dir` with the given chunk
    /// capacity. Existing chunks are discovered from the directory;
    /// leftovers of an interrupted chunk rewrite (stray `.tmp` files, a
    /// `.log` twin of a completed `.logz`) are cleaned up.
    pub fn open(dir: &Path, chunk_bytes: u64, sync_on_append: bool) -> Result<SegmentedLogDevice> {
        if chunk_bytes == 0 {
            return Err(MmdbError::Invalid("chunk size must be non-zero".into()));
        }
        std::fs::create_dir_all(dir)?;
        let mut plain: Vec<(u64, PathBuf, u64)> = Vec::new();
        let mut packed: Vec<(u64, PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // an interrupted rewrite never renamed this into place;
                // the original chunk file is still authoritative
                std::fs::remove_file(entry.path())?;
            } else if let Some(start_str) = name.strip_suffix(".logz") {
                if let Ok(start) = start_str.parse::<u64>() {
                    packed.push((start, entry.path(), entry.metadata()?.len()));
                }
            } else if let Some(start_str) = name.strip_suffix(".log") {
                if let Ok(start) = start_str.parse::<u64>() {
                    plain.push((start, entry.path(), entry.metadata()?.len()));
                }
            }
        }
        let mut chunks = Vec::new();
        for (start, path, disk) in packed {
            // a `.logz` is only ever renamed into place once complete, so
            // when both forms exist the `.log` is the superseded twin of
            // a rewrite that crashed before its unlink
            if let Some(i) = plain.iter().position(|(s, _, _)| *s == start) {
                let (_, twin, _) = plain.remove(i);
                std::fs::remove_file(twin)?;
            }
            let mut header = [0u8; LOGZ_HEADER];
            let mut f = File::open(&path)?;
            f.read_exact(&mut header).map_err(|_| {
                MmdbError::Corrupt(format!("compressed chunk {path:?} shorter than its header"))
            })?;
            let len = u64::from_le_bytes(header);
            chunks.push(Chunk {
                start,
                len,
                disk_bytes: disk,
                compressed: true,
                path,
            });
        }
        for (start, path, disk) in plain {
            chunks.push(Chunk {
                start,
                len: disk,
                disk_bytes: disk,
                compressed: false,
                path,
            });
        }
        chunks.sort_by_key(|c| c.start);
        // sanity: chunks must tile contiguously in the logical space
        for pair in chunks.windows(2) {
            if pair[0].start + pair[0].len != pair[1].start {
                return Err(MmdbError::Corrupt(format!(
                    "log chunks are not contiguous: {:?} then {:?}",
                    pair[0].path, pair[1].path
                )));
            }
        }
        let mut logical_start = chunks.first().map(|c| c.start).unwrap_or(0);
        if let Ok(bytes) = std::fs::read(truncation_path(dir)) {
            if bytes.len() == 8 {
                let stored = u64::from_le_bytes(bytes.try_into().expect("len checked"));
                logical_start = logical_start.max(stored);
            }
        }
        Ok(SegmentedLogDevice {
            dir: dir.to_path_buf(),
            chunk_bytes,
            chunks,
            active: None,
            sync_on_append,
            cache: None,
            logical_start,
        })
    }

    /// Opens with the default chunk size.
    pub fn open_default(dir: &Path, sync_on_append: bool) -> Result<SegmentedLogDevice> {
        Self::open(dir, DEFAULT_CHUNK_BYTES, sync_on_append)
    }

    /// Number of chunk files currently on disk.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes currently held on disk. Compressed chunks count their
    /// on-disk (compressed) size, so this is what the directory actually
    /// occupies, not the logical window span.
    pub fn disk_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.disk_bytes).sum()
    }

    fn ensure_active(&mut self) -> Result<()> {
        if self.chunks.is_empty() {
            let path = chunk_path(&self.dir, 0);
            let file = OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(true)
                .open(&path)?;
            self.chunks.push(Chunk {
                start: 0,
                len: 0,
                disk_bytes: 0,
                compressed: false,
                path,
            });
            self.active = Some(file);
            return Ok(());
        }
        let last = self.chunks.last().expect("non-empty");
        if last.compressed {
            // the tail chunk was sealed and compressed before a restart;
            // appends must go to a fresh chunk
            return self.roll_chunk();
        }
        if self.active.is_none() {
            self.active = Some(OpenOptions::new().read(true).write(true).open(&last.path)?);
        }
        Ok(())
    }

    fn roll_chunk(&mut self) -> Result<()> {
        let end = self.len();
        let path = chunk_path(&self.dir, end);
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        self.chunks.push(Chunk {
            start: end,
            len: 0,
            disk_bytes: 0,
            compressed: false,
            path,
        });
        self.active = Some(file);
        Ok(())
    }
}

impl LogDevice for SegmentedLogDevice {
    fn append(&mut self, mut bytes: &[u8]) -> Result<()> {
        self.ensure_active()?;
        while !bytes.is_empty() {
            let (room, sealed) = {
                let last = self.chunks.last().expect("active chunk exists");
                (self.chunk_bytes.saturating_sub(last.len), last.compressed)
            };
            if room == 0 || sealed {
                self.roll_chunk()?;
                continue;
            }
            let take = (room as usize).min(bytes.len());
            let (now, rest) = bytes.split_at(take);
            let last = self.chunks.last_mut().expect("active chunk exists");
            let file = self.active.as_mut().expect("active file open");
            // one positional write: no seek syscall ahead of it
            file.write_all_at(now, last.len)?;
            if self.sync_on_append {
                file.sync_data()?;
            }
            last.len += take as u64;
            last.disk_bytes = last.len;
            bytes = rest;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.chunks.last().map(|c| c.start + c.len).unwrap_or(0)
    }

    fn start_offset(&self) -> u64 {
        self.logical_start
    }

    fn truncate_prefix(&mut self, offset: u64) -> Result<()> {
        if offset > self.len() {
            return Err(MmdbError::Invalid(format!(
                "truncate_prefix({offset}) past end {}",
                self.len()
            )));
        }
        if offset <= self.logical_start {
            return Ok(());
        }
        // Persist the logical point first (a record boundary, courtesy of
        // the log manager); then reclaim fully-dead chunks. If we crash
        // between the two, the next open just re-deletes them.
        self.logical_start = offset;
        std::fs::write(truncation_path(&self.dir), offset.to_le_bytes())?;
        while self.chunks.len() > 1 {
            let first = &self.chunks[0];
            if first.start + first.len <= offset {
                if self.cache.as_ref().map(|(s, _)| *s) == Some(first.start) {
                    self.cache = None;
                }
                std::fs::remove_file(&first.path)?;
                self.chunks.remove(0);
            } else {
                break;
            }
        }
        Ok(())
    }

    fn truncate_suffix(&mut self, end: u64) -> Result<()> {
        if end < self.logical_start || end > self.len() {
            return Err(MmdbError::Invalid(format!(
                "truncate_suffix({end}) outside [{}, {}]",
                self.logical_start,
                self.len()
            )));
        }
        if end == self.len() {
            return Ok(());
        }
        // Frames span chunks: the cut deletes the whole chunks past the
        // one holding `end`, newest first so the survivors stay contiguous
        // across a crash, then cuts that one.
        let keep = self.chunks.iter().rposition(|c| c.start < end).unwrap_or(0);
        let holder = &self.chunks[keep];
        let cut = end - holder.start;
        if holder.compressed && cut < holder.len {
            return Err(MmdbError::Corrupt(format!(
                "the log's valid end {end} lies inside the compressed chunk {:?}",
                holder.path
            )));
        }
        self.active = None;
        self.cache = None;
        while self.chunks.len() > keep + 1 {
            std::fs::remove_file(&self.chunks.last().expect("past the kept chunk").path)?;
            self.chunks.pop();
        }
        let last = &mut self.chunks[keep];
        if last.len > cut {
            let file = OpenOptions::new().write(true).open(&last.path)?;
            file.set_len(cut)?;
            file.sync_all()?;
            last.len = cut;
            last.disk_bytes = cut;
        }
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if offset < self.start_offset() || offset + buf.len() as u64 > self.len() {
            return Err(MmdbError::Corrupt(format!(
                "log read [{}, {}) outside readable window [{}, {})",
                offset,
                offset + buf.len() as u64,
                self.start_offset(),
                self.len()
            )));
        }
        let mut pos = offset;
        let mut out = buf;
        while !out.is_empty() {
            let idx = self
                .chunks
                .iter()
                .position(|c| c.start <= pos && pos < c.start + c.len)
                .ok_or_else(|| MmdbError::Corrupt(format!("no chunk covers offset {pos}")))?;
            let (start, len, compressed) = {
                let c = &self.chunks[idx];
                (c.start, c.len, c.compressed)
            };
            let within = (pos - start) as usize;
            let take = ((len as usize) - within).min(out.len());
            let (now, rest) = out.split_at_mut(take);
            if compressed {
                if self.cache.as_ref().map(|(s, _)| *s) != Some(start) {
                    let raw = read_compressed_chunk(&self.chunks[idx].path, len)?;
                    self.cache = Some((start, raw));
                }
                let (_, raw) = self.cache.as_ref().expect("cache just filled");
                now.copy_from_slice(&raw[within..within + take]);
            } else {
                let mut file = File::open(&self.chunks[idx].path)?;
                file.seek(SeekFrom::Start(within as u64))?;
                file.read_exact(now)?;
            }
            pos += take as u64;
            out = rest;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<bool> {
        match self.chunks.last() {
            None => Ok(false),
            Some(last) if last.len == 0 && !last.compressed => Ok(false),
            _ => {
                self.roll_chunk()?;
                Ok(true)
            }
        }
    }

    fn chunk_map(&self) -> Vec<ChunkInfo> {
        self.chunks
            .iter()
            .map(|c| ChunkInfo {
                start: c.start,
                len: c.len,
                compressed: c.compressed,
                disk_bytes: c.disk_bytes,
            })
            .collect()
    }

    fn rewrite_chunk(&mut self, start: u64, bytes: &[u8], compress: bool) -> Result<()> {
        let idx = self
            .chunks
            .iter()
            .position(|c| c.start == start)
            .ok_or_else(|| MmdbError::Invalid(format!("no chunk starts at offset {start}")))?;
        if idx + 1 == self.chunks.len() {
            return Err(MmdbError::Invalid(
                "cannot rewrite the active chunk (rotate first)".into(),
            ));
        }
        if bytes.len() as u64 != self.chunks[idx].len {
            return Err(MmdbError::Invalid(format!(
                "chunk rewrite must preserve logical length ({} != {})",
                bytes.len(),
                self.chunks[idx].len
            )));
        }
        // Never convert a compressed chunk back to plain form in place:
        // `.logz` wins over `.log` at open, so the `.logz → .log` rename
        // direction could resurrect a stale image after a crash. The
        // `.log → .logz` direction is safe (the twin `.log` holds the
        // pre-rewrite image, itself a consistent chunk).
        let to_compressed = compress || self.chunks[idx].compressed;
        let (payload, final_path) = if to_compressed {
            let mut p = Vec::with_capacity(LOGZ_HEADER + bytes.len() / 2);
            p.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            p.extend_from_slice(&lz::encode_block(bytes));
            (p, chunk_z_path(&self.dir, start))
        } else {
            (bytes.to_vec(), chunk_path(&self.dir, start))
        };
        let tmp = self.dir.join(format!("{start:020}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&payload)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &final_path)?;
        if to_compressed && !self.chunks[idx].compressed {
            // unlink the superseded plain twin; a crash right before this
            // is healed at the next open (`.logz` preferred)
            std::fs::remove_file(&self.chunks[idx].path)?;
        }
        let c = &mut self.chunks[idx];
        c.compressed = to_compressed;
        c.disk_bytes = payload.len() as u64;
        c.path = final_path;
        if self.cache.as_ref().map(|(s, _)| *s) == Some(start) {
            self.cache = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-seglog-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_spans_chunks() {
        let dir = tmp("span");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(b"0123456789ABCDEFGHIJKLMNOP").unwrap(); // 26 bytes → 3 chunks
        assert_eq!(d.len(), 26);
        assert_eq!(d.chunk_count(), 3);
        let mut buf = [0u8; 12];
        d.read_at(5, &mut buf).unwrap(); // crosses the 10-byte boundary
        assert_eq!(&buf, b"56789ABCDEFG");
        assert_eq!(d.read_all().unwrap(), b"0123456789ABCDEFGHIJKLMNOP");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_reconstructs_offsets() {
        let dir = tmp("reopen");
        {
            let mut d = SegmentedLogDevice::open(&dir, 8, false).unwrap();
            d.append(b"hello world, this is the log").unwrap();
        }
        let mut d = SegmentedLogDevice::open(&dir, 8, false).unwrap();
        assert_eq!(d.len(), 28);
        assert_eq!(d.start_offset(), 0);
        assert_eq!(d.read_all().unwrap(), b"hello world, this is the log");
        d.append(b"!").unwrap();
        assert_eq!(d.len(), 29);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_deletes_whole_chunks_only() {
        let dir = tmp("trunc");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[7u8; 35]).unwrap(); // chunks: [0,10) [10,20) [20,30) [30,35)
        assert_eq!(d.chunk_count(), 4);

        d.truncate_prefix(25).unwrap(); // chunks [0,10) and [10,20) go
                                        // the logical start is exactly the requested offset (a record
                                        // boundary); the physical chunk [20,30) survives in full
        assert_eq!(d.start_offset(), 25);
        assert_eq!(d.chunk_count(), 2);
        assert_eq!(d.disk_bytes(), 15);
        assert_eq!(d.len(), 35, "global length is unchanged");
        assert_eq!(d.read_all().unwrap(), vec![7u8; 10]);

        // reads below the window fail; reads above succeed
        let mut buf = [0u8; 5];
        assert!(d.read_at(15, &mut buf).is_err());
        d.read_at(25, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_survives_reopen() {
        let dir = tmp("trunc-reopen");
        {
            let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
            d.append(&[1u8; 30]).unwrap();
            d.truncate_prefix(20).unwrap();
        }
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        assert_eq!(d.start_offset(), 20);
        assert_eq!(d.len(), 30);
        assert_eq!(d.read_all().unwrap(), vec![1u8; 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_never_removes_active_chunk() {
        let dir = tmp("keep-active");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[2u8; 10]).unwrap(); // exactly one full chunk
        d.truncate_prefix(10).unwrap();
        assert_eq!(d.chunk_count(), 1, "the only chunk stays");
        d.append(&[3u8; 5]).unwrap();
        assert_eq!(d.len(), 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_past_end_rejected() {
        let dir = tmp("past-end");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[0u8; 5]).unwrap();
        assert!(d.truncate_prefix(6).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_suffix_cuts_the_holding_chunk_and_deletes_later_ones() {
        let dir = tmp("suffix");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ").unwrap(); // 4 chunks
        d.truncate_suffix(37).unwrap_err();
        d.truncate_suffix(14).unwrap();
        d.truncate_suffix(14).unwrap(); // idempotent
        assert_eq!((d.len(), d.chunk_count()), (14, 2));
        d.append(b"!").unwrap();
        drop(d);
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        assert_eq!(d.read_all().unwrap(), b"0123456789ABCD!");
        // a cut on a chunk boundary keeps the chunk before it whole
        d.truncate_suffix(10).unwrap();
        assert_eq!((d.len(), d.chunk_count()), (10, 1));
        // the valid end inside a compressed chunk is rot, not a torn tail
        d.append(b"xyz").unwrap();
        d.rewrite_chunk(0, b"0123456789", true).unwrap();
        assert!(d.truncate_suffix(5).is_err());
        assert_eq!(d.len(), 13, "nothing cut");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noncontiguous_chunks_detected() {
        let dir = tmp("gap");
        {
            let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
            d.append(&[0u8; 25]).unwrap();
        }
        // delete the middle chunk to corrupt the directory
        std::fs::remove_file(chunk_path(&dir, 10)).unwrap();
        assert!(SegmentedLogDevice::open(&dir, 10, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotate_seals_active_chunk() {
        let dir = tmp("rotate");
        let mut d = SegmentedLogDevice::open(&dir, 100, false).unwrap();
        assert!(!d.rotate().unwrap(), "nothing to seal in an empty log");
        d.append(b"some records").unwrap();
        assert_eq!(d.chunk_count(), 1);
        assert!(d.rotate().unwrap());
        assert_eq!(d.chunk_count(), 2);
        assert!(!d.rotate().unwrap(), "fresh empty chunk: nothing to seal");
        d.append(b"more").unwrap();
        assert_eq!(d.len(), 16);
        assert_eq!(d.read_all().unwrap(), b"some recordsmore");
        let map = d.chunk_map();
        assert_eq!(map.len(), 2);
        assert_eq!((map[0].start, map[0].len), (0, 12));
        assert_eq!((map[1].start, map[1].len), (12, 4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_chunk_preserves_offsets() {
        let dir = tmp("rewrite");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[9u8; 25]).unwrap(); // [0,10) [10,20) [20,25)
        d.rewrite_chunk(10, &[4u8; 10], false).unwrap();
        assert_eq!(d.len(), 25);
        let mut buf = [0u8; 15];
        d.read_at(5, &mut buf).unwrap();
        assert_eq!(&buf[..5], &[9u8; 5]);
        assert_eq!(&buf[5..], &[4u8; 10]);
        // wrong length and active-chunk rewrites are rejected
        assert!(d.rewrite_chunk(10, &[0u8; 9], false).is_err());
        assert!(d.rewrite_chunk(20, &[0u8; 5], false).is_err());
        assert!(d.rewrite_chunk(7, &[0u8; 10], false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_chunk_roundtrip_and_reopen() {
        let dir = tmp("compress");
        let mut d = SegmentedLogDevice::open(&dir, 100, false).unwrap();
        let data: Vec<u8> = (0..100u8).map(|i| i % 5).collect();
        d.append(&data).unwrap();
        d.append(b"tail").unwrap(); // rolls into chunk [100,104)
        d.rewrite_chunk(0, &data, true).unwrap();
        let map = d.chunk_map();
        assert!(map[0].compressed);
        assert!(map[0].disk_bytes < map[0].len, "compression paid");
        assert_eq!(map[0].len, 100, "logical length preserved");
        // reads decompress transparently, including boundary-crossers
        let mut buf = [0u8; 8];
        d.read_at(96, &mut buf).unwrap();
        assert_eq!(&buf[..4], &data[96..]);
        assert_eq!(&buf[4..], b"tail");
        let mut all = d.read_all().unwrap();
        assert_eq!(all.split_off(100), b"tail");
        assert_eq!(all, data);
        drop(d);

        // reopen: .logz is discovered with its logical length
        let mut d = SegmentedLogDevice::open(&dir, 100, false).unwrap();
        assert_eq!(d.len(), 104);
        let map = d.chunk_map();
        assert!(map[0].compressed);
        assert_eq!(map[0].len, 100);
        let mut all = d.read_all().unwrap();
        assert_eq!(all.split_off(100), b"tail");
        assert_eq!(all, data);
        // appends still work after reopen
        d.append(b"!").unwrap();
        assert_eq!(d.len(), 105);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compressed_rewrite_stays_compressed() {
        let dir = tmp("stay-z");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[1u8; 15]).unwrap();
        d.rewrite_chunk(0, &[1u8; 10], true).unwrap();
        // a second rewrite without the compress flag must not fall back
        // to plain form (crash-safety of the rename direction)
        d.rewrite_chunk(0, &[2u8; 10], false).unwrap();
        assert!(d.chunk_map()[0].compressed);
        let mut buf = [0u8; 10];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rolls_off_compressed_tail_after_reopen() {
        let dir = tmp("z-tail");
        {
            let mut d = SegmentedLogDevice::open(&dir, 100, false).unwrap();
            d.append(&[5u8; 40]).unwrap();
            assert!(d.rotate().unwrap());
            d.rewrite_chunk(0, &[5u8; 40], true).unwrap();
            // drop with the sealed+compressed chunk as the only non-empty
            // one; delete the empty active chunk to simulate a crash
            // before its first append
        }
        std::fs::remove_file(chunk_path(&dir, 40)).unwrap();
        let mut d = SegmentedLogDevice::open(&dir, 100, false).unwrap();
        assert_eq!(d.len(), 40);
        assert!(d.chunk_map()[0].compressed);
        d.append(b"xy").unwrap(); // must roll, not write into the .logz
        assert_eq!(d.len(), 42);
        let mut buf = [0u8; 2];
        d.read_at(40, &mut buf).unwrap();
        assert_eq!(&buf, b"xy");
        assert_eq!(d.chunk_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_rewrite_leftovers_cleaned_at_open() {
        let dir = tmp("leftovers");
        {
            let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
            d.append(&[3u8; 25]).unwrap();
            d.rewrite_chunk(0, &[3u8; 10], true).unwrap();
        }
        // simulate a crash mid-rewrite of chunk 10: tmp file present,
        // original intact — and a crash right before the twin unlink of
        // chunk 0: both .log and .logz present
        std::fs::write(dir.join(format!("{:020}.tmp", 10u64)), b"junk").unwrap();
        std::fs::write(chunk_path(&dir, 0), [9u8; 10]).unwrap();
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        assert_eq!(d.chunk_count(), 3);
        assert!(d.chunk_map()[0].compressed, ".logz preferred over .log");
        assert!(!chunk_path(&dir, 0).exists(), "orphan .log removed");
        assert!(
            !dir.join(format!("{:020}.tmp", 10u64)).exists(),
            "stray tmp removed"
        );
        let mut buf = [0u8; 10];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 10], "compressed image wins, not the stale twin");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_compressed_chunk_detected_on_read() {
        let dir = tmp("z-corrupt");
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        d.append(&[8u8; 15]).unwrap();
        d.rewrite_chunk(0, &[8u8; 10], true).unwrap();
        let zpath = chunk_z_path(&dir, 0);
        let mut bytes = std::fs::read(&zpath).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&zpath, &bytes).unwrap();
        let mut d = SegmentedLogDevice::open(&dir, 10, false).unwrap();
        let mut buf = [0u8; 10];
        assert!(d.read_at(0, &mut buf).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
