//! The backup database store.
//!
//! Two complete backup copies are kept and updated alternately — the
//! *ping-pong* scheme of paper §2.6 — so that a crash during checkpoint
//! `k` (which writes copy `k mod 2`) always leaves the other copy
//! complete.
//!
//! The store enforces the ping-pong discipline explicitly:
//!
//! 1. [`BackupStore::begin_checkpoint`] marks the target copy
//!    *in-progress* (durably, before any segment is overwritten);
//! 2. segment images are written with per-segment checksums;
//! 3. [`BackupStore::complete_checkpoint`] durably marks the copy
//!    *complete* with the checkpoint id.
//!
//! Recovery asks both copies for their status and restores from the
//! complete copy with the highest checkpoint id. A torn checkpoint leaves
//! its target copy in-progress and therefore ineligible.

use mmdb_types::{
    hash::{crc32c, fnv1a, Fnv1a},
    CheckpointId, DbParams, MmdbError, Result, SegmentId, Word, WORD_BYTES,
};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Durable status of one backup copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStatus {
    /// Never completed a checkpoint.
    Empty,
    /// A checkpoint is (or was, at crash time) overwriting this copy.
    InProgress(CheckpointId),
    /// Holds the complete image of the given checkpoint.
    Complete(CheckpointId),
}

impl CopyStatus {
    /// The checkpoint id if the copy is complete.
    pub fn complete_ckpt(self) -> Option<CheckpointId> {
        match self {
            CopyStatus::Complete(c) => Some(c),
            _ => None,
        }
    }
}

/// A store holding the two ping-pong backup copies.
///
/// Implementations do not charge I/O costs: the *checkpointer* initiates
/// the I/Os and charges `C_io` per operation, matching the paper's
/// accounting (the store is the passive device).
pub trait BackupStore: Send + Sync {
    /// The database shape this store was created for.
    fn shape(&self) -> DbParams;

    /// Durably marks `copy` as in-progress for `ckpt`. Must be called
    /// before any segment of this checkpoint is written.
    fn begin_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()>;

    /// Writes one segment image into `copy`.
    fn write_segment(&mut self, copy: usize, sid: SegmentId, data: &[Word]) -> Result<()>;

    /// Durably marks `copy` complete with `ckpt`'s image.
    fn complete_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()>;

    /// The durable status of `copy`.
    fn copy_status(&mut self, copy: usize) -> Result<CopyStatus>;

    /// Reads one segment image from `copy`, verifying its checksum.
    fn read_segment(&mut self, copy: usize, sid: SegmentId, buf: &mut [Word]) -> Result<()>;

    /// The copy recovery should restore from: the complete copy with the
    /// highest checkpoint id.
    fn recovery_copy(&mut self) -> Result<(usize, CheckpointId)> {
        let mut best: Option<(usize, CheckpointId)> = None;
        for copy in 0..2 {
            if let CopyStatus::Complete(c) = self.copy_status(copy)? {
                if best.map(|(_, b)| c > b).unwrap_or(true) {
                    best = Some((copy, c));
                }
            }
        }
        best.ok_or(MmdbError::NoCompleteBackup)
    }
}

fn check_copy(copy: usize) -> Result<()> {
    if copy > 1 {
        return Err(MmdbError::Invalid(format!(
            "ping-pong copy index must be 0 or 1, got {copy}"
        )));
    }
    Ok(())
}

fn check_shape(db: &DbParams, sid: SegmentId, data_len: usize) -> Result<()> {
    if sid.raw() as u64 >= db.n_segments() {
        return Err(MmdbError::SegmentOutOfRange {
            segment: sid,
            n_segments: db.n_segments(),
        });
    }
    if data_len as u64 != db.s_seg {
        return Err(MmdbError::Invalid(format!(
            "segment image has {} words, expected {}",
            data_len, db.s_seg
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// In-memory implementation (tests, simulator)
// ---------------------------------------------------------------------------

/// An in-memory backup store with checksum emulation and torn-write
/// injection for crash tests.
#[derive(Debug)]
pub struct MemBackup {
    db: DbParams,
    copies: [MemCopy; 2],
}

#[derive(Debug)]
struct MemCopy {
    status: CopyStatus,
    segments: Vec<Option<SegmentImage>>,
}

#[derive(Debug, Clone)]
struct SegmentImage {
    data: Box<[Word]>,
    torn: bool,
}

impl MemBackup {
    /// An empty store for a database of the given shape.
    pub fn new(db: DbParams) -> MemBackup {
        let n = db.n_segments() as usize;
        MemBackup {
            db,
            copies: [
                MemCopy {
                    status: CopyStatus::Empty,
                    segments: vec![None; n],
                },
                MemCopy {
                    status: CopyStatus::Empty,
                    segments: vec![None; n],
                },
            ],
        }
    }

    /// Fault injection: marks a stored segment image as torn, as if the
    /// crash interrupted its write. Subsequent reads fail the checksum.
    pub fn tear_segment(&mut self, copy: usize, sid: SegmentId) -> Result<()> {
        check_copy(copy)?;
        match &mut self.copies[copy].segments[sid.index()] {
            Some(img) => {
                img.torn = true;
                Ok(())
            }
            None => Err(MmdbError::Invalid(format!("{sid} never written"))),
        }
    }
}

impl BackupStore for MemBackup {
    fn shape(&self) -> DbParams {
        self.db
    }

    fn begin_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()> {
        check_copy(copy)?;
        self.copies[copy].status = CopyStatus::InProgress(ckpt);
        Ok(())
    }

    fn write_segment(&mut self, copy: usize, sid: SegmentId, data: &[Word]) -> Result<()> {
        check_copy(copy)?;
        check_shape(&self.db, sid, data.len())?;
        if !matches!(self.copies[copy].status, CopyStatus::InProgress(_)) {
            return Err(MmdbError::Invalid(
                "write_segment outside begin/complete window".into(),
            ));
        }
        self.copies[copy].segments[sid.index()] = Some(SegmentImage {
            data: data.into(),
            torn: false,
        });
        Ok(())
    }

    fn complete_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()> {
        check_copy(copy)?;
        match self.copies[copy].status {
            CopyStatus::InProgress(c) if c == ckpt => {
                self.copies[copy].status = CopyStatus::Complete(ckpt);
                Ok(())
            }
            s => Err(MmdbError::Invalid(format!(
                "complete_checkpoint({ckpt}) but copy {copy} is {s:?}"
            ))),
        }
    }

    fn copy_status(&mut self, copy: usize) -> Result<CopyStatus> {
        check_copy(copy)?;
        Ok(self.copies[copy].status)
    }

    fn read_segment(&mut self, copy: usize, sid: SegmentId, buf: &mut [Word]) -> Result<()> {
        check_copy(copy)?;
        check_shape(&self.db, sid, buf.len())?;
        match &self.copies[copy].segments[sid.index()] {
            Some(img) if !img.torn => {
                buf.copy_from_slice(&img.data);
                Ok(())
            }
            Some(_) => Err(MmdbError::Corrupt(format!(
                "segment {sid} in copy {copy}: checksum mismatch (torn write)"
            ))),
            None => Err(MmdbError::Corrupt(format!(
                "segment {sid} in copy {copy}: never written"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// File-backed implementation (the real engine)
// ---------------------------------------------------------------------------

const MAGIC: u64 = 0x4d4d_4442_424b_5550; // "MMDBBKUP"
const HEADER_LEN: u64 = 4096;
const FORMAT_VERSION: u32 = 1;
/// Per-segment trailer: checksum (8) + kind word (8). The kind word's
/// low byte is the slot codec, the rest of it the checksum kind.
const SEG_TRAILER: u64 = 16;

const STATE_EMPTY: u32 = 0;
const STATE_IN_PROGRESS: u32 = 1;
const STATE_COMPLETE: u32 = 2;

/// Per-slot codec ids, stored in the low byte of the trailer's kind
/// word. Raw is 0 so every slot written before compression existed
/// decodes unchanged.
const SLOT_RAW: u64 = 0;
const SLOT_LZ: u64 = 1;

/// Checksum kinds, stored in the trailer's kind word above the codec.
/// FNV-1a is 0 so every slot written before CRC-32C slots existed
/// verifies unchanged; new slots are written CRC-32C.
const SUM_FNV1A: u64 = 0;
const SUM_CRC32C: u64 = 1 << 8;
const CODEC_MASK: u64 = 0xFF;

/// A file-backed backup store: one file per ping-pong copy, each laid out
/// as a 4 KiB header followed by fixed-size checksummed segment slots.
#[derive(Debug)]
pub struct FileBackup {
    db: DbParams,
    files: [File; 2],
    paths: [PathBuf; 2],
    sync: bool,
    compress: bool,
    /// One slot (image and trailer), reused by every segment write and
    /// read.
    slot: Vec<u8>,
}

impl FileBackup {
    /// Creates (or opens) the pair of backup files `<base>.0` and
    /// `<base>.1`. Existing files with valid headers are kept (so a
    /// recovering engine sees its pre-crash backups); anything else is
    /// initialized empty.
    pub fn open(base: &Path, db: DbParams, sync: bool) -> Result<FileBackup> {
        db.validate().map_err(MmdbError::Invalid)?;
        let paths = [base.with_extension("0"), base.with_extension("1")];
        let open_one = |path: &Path| -> Result<File> {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            Ok(file)
        };
        let files = [open_one(&paths[0])?, open_one(&paths[1])?];
        let slot_len = db.s_seg as usize * WORD_BYTES + SEG_TRAILER as usize;
        let mut store = FileBackup {
            db,
            files,
            paths,
            sync,
            compress: false,
            slot: vec![0; slot_len],
        };
        for copy in 0..2 {
            if store.read_header(copy).is_err() {
                store.write_header(copy, STATE_EMPTY, CheckpointId(0))?;
            }
        }
        Ok(store)
    }

    /// The backing file paths.
    pub fn paths(&self) -> [&Path; 2] {
        [&self.paths[0], &self.paths[1]]
    }

    /// Compress segment slots written from now on. The slot grid is
    /// unchanged (random access stays O(1)); a compressed slot writes
    /// only its block plus the trailer, leaving the rest of the slot as
    /// a file hole. Reads are per-slot self-describing, so compressed
    /// and raw slots mix freely within a copy and the flag can change
    /// between checkpoints.
    pub fn set_compress(&mut self, on: bool) {
        self.compress = on;
    }

    fn seg_offset(&self, sid: SegmentId) -> u64 {
        HEADER_LEN + sid.raw() as u64 * self.slot.len() as u64
    }

    fn write_header(&mut self, copy: usize, state: u32, ckpt: CheckpointId) -> Result<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN as usize);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&state.to_le_bytes());
        buf.extend_from_slice(&ckpt.raw().to_le_bytes());
        buf.extend_from_slice(&self.db.s_db.to_le_bytes());
        buf.extend_from_slice(&self.db.s_rec.to_le_bytes());
        buf.extend_from_slice(&self.db.s_seg.to_le_bytes());
        let mut h = Fnv1a::new();
        h.update(&buf);
        buf.extend_from_slice(&h.finish().to_le_bytes());
        buf.resize(HEADER_LEN as usize, 0);
        let f = &mut self.files[copy];
        f.seek(SeekFrom::Start(0))?;
        f.write_all(&buf)?;
        if self.sync {
            f.sync_data()?;
        }
        Ok(())
    }

    fn read_header(&mut self, copy: usize) -> Result<(u32, CheckpointId)> {
        let f = &mut self.files[copy];
        let mut buf = [0u8; 56];
        f.seek(SeekFrom::Start(0))?;
        f.read_exact(&mut buf)
            .map_err(|_| MmdbError::Corrupt("backup header too short".into()))?;
        let magic = u64::from_le_bytes(buf[0..8].try_into().expect("fixed-size slice"));
        if magic != MAGIC {
            return Err(MmdbError::Corrupt("bad backup magic".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("fixed-size slice"));
        if version != FORMAT_VERSION {
            return Err(MmdbError::Corrupt(format!(
                "unsupported backup format version {version}"
            )));
        }
        let state = u32::from_le_bytes(buf[12..16].try_into().expect("fixed-size slice"));
        let ckpt = u64::from_le_bytes(buf[16..24].try_into().expect("fixed-size slice"));
        let s_db = u64::from_le_bytes(buf[24..32].try_into().expect("fixed-size slice"));
        let s_rec = u64::from_le_bytes(buf[32..40].try_into().expect("fixed-size slice"));
        let s_seg = u64::from_le_bytes(buf[40..48].try_into().expect("fixed-size slice"));
        let stored = u64::from_le_bytes(buf[48..56].try_into().expect("fixed-size slice"));
        let mut h = Fnv1a::new();
        h.update(&buf[0..48]);
        if h.finish() != stored {
            return Err(MmdbError::Corrupt("backup header checksum mismatch".into()));
        }
        if (s_db, s_rec, s_seg) != (self.db.s_db, self.db.s_rec, self.db.s_seg) {
            return Err(MmdbError::Corrupt(format!(
                "backup shape mismatch: file has s_db={s_db} s_rec={s_rec} s_seg={s_seg}"
            )));
        }
        Ok((state, CheckpointId(ckpt)))
    }
}

impl BackupStore for FileBackup {
    fn shape(&self) -> DbParams {
        self.db
    }

    fn begin_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()> {
        check_copy(copy)?;
        self.write_header(copy, STATE_IN_PROGRESS, ckpt)
    }

    fn write_segment(&mut self, copy: usize, sid: SegmentId, data: &[Word]) -> Result<()> {
        check_copy(copy)?;
        check_shape(&self.db, sid, data.len())?;
        let offset = self.seg_offset(sid);
        let (image, trailer) = self.slot.split_at_mut(data.len() * WORD_BYTES);
        for (bytes, w) in image.chunks_exact_mut(WORD_BYTES).zip(data) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
        // The trailer checksum always covers the *raw* image, whatever
        // the slot codec — a decoder bug can never masquerade as a clean
        // read.
        let sum = u64::from(crc32c(image));
        let block = self
            .compress
            .then(|| mmdb_types::lz::encode_block(image))
            .filter(|block| block.len() <= image.len());
        let codec = if block.is_some() { SLOT_LZ } else { SLOT_RAW };
        trailer[..8].copy_from_slice(&sum.to_le_bytes());
        trailer[8..].copy_from_slice(&(SUM_CRC32C | codec).to_le_bytes());
        let f = &self.files[copy];
        match block {
            // write only the block; the rest of the slot stays a hole
            Some(block) => {
                f.write_all_at(&block, offset)?;
                f.write_all_at(trailer, offset + image.len() as u64)?;
            }
            None => f.write_all_at(&self.slot, offset)?,
        }
        if self.sync {
            f.sync_data()?;
        }
        Ok(())
    }

    fn complete_checkpoint(&mut self, copy: usize, ckpt: CheckpointId) -> Result<()> {
        check_copy(copy)?;
        match self.read_header(copy)? {
            (STATE_IN_PROGRESS, c) if c == ckpt => self.write_header(copy, STATE_COMPLETE, ckpt),
            (state, c) => Err(MmdbError::Invalid(format!(
                "complete_checkpoint({ckpt}) but copy {copy} header is state={state} ckpt={c}"
            ))),
        }
    }

    fn copy_status(&mut self, copy: usize) -> Result<CopyStatus> {
        check_copy(copy)?;
        match self.read_header(copy) {
            Ok((STATE_COMPLETE, c)) => Ok(CopyStatus::Complete(c)),
            Ok((STATE_IN_PROGRESS, c)) => Ok(CopyStatus::InProgress(c)),
            Ok((STATE_EMPTY, _)) => Ok(CopyStatus::Empty),
            Ok((s, _)) => Err(MmdbError::Corrupt(format!("unknown backup state {s}"))),
            // An unreadable header is treated as an unusable copy rather
            // than a fatal error: the other copy may still be complete.
            Err(_) => Ok(CopyStatus::Empty),
        }
    }

    fn read_segment(&mut self, copy: usize, sid: SegmentId, buf: &mut [Word]) -> Result<()> {
        check_copy(copy)?;
        check_shape(&self.db, sid, buf.len())?;
        let offset = self.seg_offset(sid);
        self.files[copy]
            .read_exact_at(&mut self.slot, offset)
            .map_err(|_| MmdbError::Corrupt(format!("{sid}: short read from backup")))?;
        let (slot, trailer) = self.slot.split_at(buf.len() * WORD_BYTES);
        let stored = u64::from_le_bytes(trailer[..8].try_into().expect("fixed-size slice"));
        let kind = u64::from_le_bytes(trailer[8..].try_into().expect("fixed-size slice"));
        let checksum: fn(&[u8]) -> u64 = match kind & !CODEC_MASK {
            SUM_FNV1A => fnv1a,
            SUM_CRC32C => |bytes| u64::from(crc32c(bytes)),
            k => {
                return Err(MmdbError::Corrupt(format!(
                    "{sid} in copy {copy}: unknown slot checksum kind {:#x}",
                    k >> 8
                )))
            }
        };
        let image: Vec<u8>;
        let bytes: &[u8] = match kind & CODEC_MASK {
            SLOT_RAW => slot,
            SLOT_LZ => {
                image = mmdb_types::lz::decode_block(slot).map_err(|e| {
                    MmdbError::Corrupt(format!("{sid} in copy {copy}: bad compressed slot: {e}"))
                })?;
                if image.len() != slot.len() {
                    return Err(MmdbError::Corrupt(format!(
                        "{sid} in copy {copy}: compressed slot decoded to {} bytes, expected {}",
                        image.len(),
                        slot.len()
                    )));
                }
                &image
            }
            c => {
                return Err(MmdbError::Corrupt(format!(
                    "{sid} in copy {copy}: unknown slot codec {c}"
                )))
            }
        };
        if checksum(bytes) != stored {
            return Err(MmdbError::Corrupt(format!(
                "{sid} in copy {copy}: checksum mismatch"
            )));
        }
        for (w, bytes) in buf.iter_mut().zip(bytes.chunks_exact(WORD_BYTES)) {
            *w = Word::from_le_bytes(bytes.try_into().expect("one word"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::Params;

    fn db() -> DbParams {
        Params::small().db // 32 segments × 2048 words
    }

    fn seg_data(fill: Word) -> Vec<Word> {
        vec![fill; db().s_seg as usize]
    }

    fn full_checkpoint(store: &mut dyn BackupStore, copy: usize, ckpt: u64, fill: Word) {
        store.begin_checkpoint(copy, CheckpointId(ckpt)).unwrap();
        for sid in 0..db().n_segments() as u32 {
            store
                .write_segment(copy, SegmentId(sid), &seg_data(fill))
                .unwrap();
        }
        store.complete_checkpoint(copy, CheckpointId(ckpt)).unwrap();
    }

    fn exercise_store(store: &mut dyn BackupStore) {
        // initially nothing to recover from
        assert!(store.recovery_copy().is_err());

        full_checkpoint(store, 0, 1, 0xA);
        assert_eq!(
            store.copy_status(0).unwrap(),
            CopyStatus::Complete(CheckpointId(1))
        );
        assert_eq!(store.recovery_copy().unwrap(), (0, CheckpointId(1)));

        full_checkpoint(store, 1, 2, 0xB);
        assert_eq!(store.recovery_copy().unwrap(), (1, CheckpointId(2)));

        // checkpoint 3 starts on copy 0 and crashes before completing
        store.begin_checkpoint(0, CheckpointId(3)).unwrap();
        store
            .write_segment(0, SegmentId(0), &seg_data(0xC))
            .unwrap();
        assert_eq!(
            store.copy_status(0).unwrap(),
            CopyStatus::InProgress(CheckpointId(3))
        );
        // recovery still finds the complete copy 1
        assert_eq!(store.recovery_copy().unwrap(), (1, CheckpointId(2)));

        let mut buf = seg_data(0);
        store.read_segment(1, SegmentId(5), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0xB));
    }

    #[test]
    fn mem_backup_pingpong_discipline() {
        let mut store = MemBackup::new(db());
        exercise_store(&mut store);
    }

    #[test]
    fn file_backup_pingpong_discipline() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = FileBackup::open(&dir.join("backup"), db(), false).unwrap();
        exercise_store(&mut store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        {
            let mut store = FileBackup::open(&base, db(), false).unwrap();
            full_checkpoint(&mut store, 0, 7, 0x77);
        }
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        assert_eq!(store.recovery_copy().unwrap(), (0, CheckpointId(7)));
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(3), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x77));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_shape_mismatch_detected() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        {
            let mut store = FileBackup::open(&base, db(), false).unwrap();
            full_checkpoint(&mut store, 0, 1, 1);
        }
        let other = DbParams {
            s_db: 32 << 10,
            s_rec: 32,
            s_seg: 1024,
        };
        let mut store = FileBackup::open(&base, other, false).unwrap();
        // the old header fails shape validation, so the copy reads as Empty
        assert_eq!(store.copy_status(0).unwrap(), CopyStatus::Empty);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_backup_torn_segment_detected() {
        let mut store = MemBackup::new(db());
        full_checkpoint(&mut store, 0, 1, 0xA);
        store.tear_segment(0, SegmentId(4)).unwrap();
        let mut buf = seg_data(0);
        assert!(store.read_segment(0, SegmentId(4), &mut buf).is_err());
        // other segments still fine
        store.read_segment(0, SegmentId(5), &mut buf).unwrap();
    }

    #[test]
    fn file_backup_torn_segment_detected() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        full_checkpoint(&mut store, 0, 1, 0xA);
        // corrupt a few bytes of segment 4's slot directly
        {
            let mut f = OpenOptions::new()
                .write(true)
                .open(base.with_extension("0"))
                .unwrap();
            let offset = HEADER_LEN + 4 * (db().s_seg * 4 + SEG_TRAILER) + 100;
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        }
        let mut buf = seg_data(0);
        assert!(store.read_segment(0, SegmentId(4), &mut buf).is_err());
        store.read_segment(0, SegmentId(5), &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_compressed_slots_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        store.set_compress(true);
        full_checkpoint(&mut store, 0, 1, 0x5A);
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(7), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x5A));
        // a reopened store (compression off by default) still reads them
        drop(store);
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        assert_eq!(store.recovery_copy().unwrap(), (0, CheckpointId(1)));
        store.read_segment(0, SegmentId(31), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x5A));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_mixes_raw_and_compressed_slots() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        // checkpoint 1 raw, checkpoint 3 compressed, into the same copy:
        // slot codecs are self-describing per write
        full_checkpoint(&mut store, 0, 1, 0x11);
        store.set_compress(true);
        store.begin_checkpoint(0, CheckpointId(3)).unwrap();
        store
            .write_segment(0, SegmentId(4), &seg_data(0x33))
            .unwrap();
        store.complete_checkpoint(0, CheckpointId(3)).unwrap();
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(4), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x33));
        store.read_segment(0, SegmentId(5), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x11));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_corrupt_compressed_slot_detected() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        store.set_compress(true);
        full_checkpoint(&mut store, 0, 1, 0x42);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .open(base.with_extension("0"))
                .unwrap();
            let offset = HEADER_LEN + 4 * (db().s_seg * 4 + SEG_TRAILER) + 20;
            f.seek(SeekFrom::Start(offset)).unwrap();
            f.write_all(&[0xDE, 0xAD]).unwrap();
        }
        let mut buf = seg_data(0);
        assert!(store.read_segment(0, SegmentId(4), &mut buf).is_err());
        store.read_segment(0, SegmentId(5), &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The byte offset of segment `sid`'s slot in a backup file.
    fn slot_offset(sid: u32) -> u64 {
        HEADER_LEN + u64::from(sid) * (db().s_seg * WORD_BYTES as u64 + SEG_TRAILER)
    }

    /// Overwrites `bytes` at `offset` of `path`.
    fn patch(path: &Path, offset: u64, bytes: &[u8]) {
        let f = OpenOptions::new().write(true).open(path).unwrap();
        f.write_all_at(bytes, offset).unwrap();
    }

    /// Flips the low bit of the byte at `offset` of `path`.
    fn flip(path: &Path, offset: u64) {
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut byte = [0];
        f.read_exact_at(&mut byte, offset).unwrap();
        f.write_all_at(&[byte[0] ^ 1], offset).unwrap();
    }

    /// The trailer's kind word of segment `sid` in `path`.
    fn slot_kind(path: &Path, sid: u32) -> u64 {
        let f = File::open(path).unwrap();
        let mut kind = [0; 8];
        let image_len = db().s_seg * WORD_BYTES as u64;
        f.read_exact_at(&mut kind, slot_offset(sid) + image_len + 8)
            .unwrap();
        u64::from_le_bytes(kind)
    }

    fn corrupt_message(store: &mut FileBackup, sid: u32) -> String {
        match store.read_segment(0, SegmentId(sid), &mut seg_data(0)) {
            Err(MmdbError::Corrupt(msg)) => msg,
            other => panic!("{sid}: expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn file_backup_reads_a_slot_in_the_fnv1a_layout() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        full_checkpoint(&mut store, 0, 1, 0x11);
        assert_eq!(slot_kind(&base.with_extension("0"), 6), SUM_CRC32C);
        // segment 6 as a build before CRC-32C slots wrote it: the image,
        // its FNV-1a sum, and a kind word holding only the raw codec
        let words: Vec<Word> = (0..db().s_seg as u32).map(|i| i * 7 + 1).collect();
        let mut slot: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut h = Fnv1a::new();
        h.update(&slot);
        slot.extend(h.finish().to_le_bytes());
        slot.extend(SLOT_RAW.to_le_bytes());
        patch(&base.with_extension("0"), slot_offset(6), &slot);
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(6), &mut buf).unwrap();
        assert_eq!(buf, words);
        // the legacy sum is still checked
        flip(&base.with_extension("0"), slot_offset(6) + 9);
        assert!(corrupt_message(&mut store, 6).contains("checksum mismatch"));
        store.read_segment(0, SegmentId(5), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x11));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_flipped_byte_is_a_checksum_mismatch() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk9-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        full_checkpoint(&mut store, 0, 1, 0xA5);
        // one bit of an image byte, of its last byte and of the stored
        // sum, each flipped and then restored
        let path = base.with_extension("0");
        let image_len = db().s_seg * WORD_BYTES as u64;
        for at in [1234, image_len - 1, image_len] {
            flip(&path, slot_offset(4) + at);
            let msg = corrupt_message(&mut store, 4);
            assert!(msg.contains("checksum mismatch"), "{at}: {msg}");
            flip(&path, slot_offset(4) + at);
        }
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(4), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0xA5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_lz_slot_carries_the_crc_kind() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk10-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        store.set_compress(true);
        full_checkpoint(&mut store, 0, 1, 0x3C);
        assert_eq!(
            slot_kind(&base.with_extension("0"), 9),
            SUM_CRC32C | SLOT_LZ
        );
        let mut buf = seg_data(0);
        store.read_segment(0, SegmentId(9), &mut buf).unwrap();
        assert_eq!(buf, seg_data(0x3C));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_backup_unknown_checksum_kind_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("mmdb-bk11-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("backup");
        let mut store = FileBackup::open(&base, db(), false).unwrap();
        full_checkpoint(&mut store, 0, 1, 0x42);
        let path = base.with_extension("0");
        let kind_at = slot_offset(2) + db().s_seg * WORD_BYTES as u64 + 8;
        patch(&path, kind_at, &(SUM_CRC32C << 1).to_le_bytes());
        let msg = corrupt_message(&mut store, 2);
        assert!(msg.contains("unknown slot checksum kind"), "{msg}");
        // the image and its sum are intact: only the kind is refused
        patch(&path, kind_at, &SUM_CRC32C.to_le_bytes());
        store
            .read_segment(0, SegmentId(2), &mut seg_data(0))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_requires_begin_mem() {
        let mut store = MemBackup::new(db());
        assert!(store.write_segment(0, SegmentId(0), &seg_data(1)).is_err());
    }

    #[test]
    fn complete_requires_matching_begin() {
        let mut store = MemBackup::new(db());
        store.begin_checkpoint(0, CheckpointId(1)).unwrap();
        assert!(store.complete_checkpoint(0, CheckpointId(2)).is_err());
        assert!(store.complete_checkpoint(1, CheckpointId(1)).is_err());
        store.complete_checkpoint(0, CheckpointId(1)).unwrap();
        // completing twice is invalid (no longer in progress)
        assert!(store.complete_checkpoint(0, CheckpointId(1)).is_err());
    }

    #[test]
    fn bad_copy_index_rejected() {
        let mut store = MemBackup::new(db());
        assert!(store.begin_checkpoint(2, CheckpointId(1)).is_err());
        assert!(store.copy_status(9).is_err());
    }

    #[test]
    fn bad_segment_shape_rejected() {
        let mut store = MemBackup::new(db());
        store.begin_checkpoint(0, CheckpointId(1)).unwrap();
        assert!(store
            .write_segment(0, SegmentId(999), &seg_data(1))
            .is_err());
        assert!(store.write_segment(0, SegmentId(0), &[1, 2, 3]).is_err());
    }
}
