//! Log record types and their on-disk encoding.
//!
//! The system uses REDO-only logging (paper §2.6): updates are buffered in
//! the transaction until commit, so no UNDO (before-image) records are
//! needed. The log carries:
//!
//! * one `TxnCommit` frame per committed transaction, holding every
//!   *after-image* it wrote (physical REDO — full record images make
//!   replay idempotent, which is what lets a fuzzy backup be repaired by
//!   replaying from the begin-checkpoint marker). The transaction is
//!   committed because the frame exists and checksums;
//! * for a branch of a cross-shard transaction, whose outcome is decided
//!   elsewhere: begin, one update record per after-image and `Prepare`,
//!   written together at prepare, then commit or abort at the decision.
//!   Logs written before `TxnCommit` existed use these frames for every
//!   transaction;
//! * begin-checkpoint markers carrying the checkpoint's id, timestamp
//!   `τ(CH)` and the list of prepared branches open at the marker (used
//!   by fuzzy recovery to extend the backward scan, §3.3),
//! * end-checkpoint markers (so recovery can identify the most recently
//!   *completed* checkpoint, §3.3 footnote).
//!
//! Frame layout (all little-endian):
//!
//! ```text
//! +--------+------+-------------+----------+--------+
//! | len u32| tag  |   payload   | fnv  u64 | len u32|
//! +--------+------+-------------+----------+--------+
//! ```
//!
//! `len` is the *total* frame length and is repeated at the end so the log
//! can be scanned backward (paper §3.3 scans the log backward to find the
//! checkpoint marker). The checksum covers tag + payload (FNV-1a; over the
//! tag + span prefix only for a filler) and lets recovery stop cleanly at
//! a torn final record.

use mmdb_types::{
    hash::fnv1a, CheckpointId, Lsn, MmdbError, RecordId, Result, Timestamp, TxnId, Word,
};

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A transaction began (prepared branches and pre-`TxnCommit` logs).
    TxnBegin {
        /// The transaction.
        txn: TxnId,
        /// Its timestamp `τ(T)`.
        tau: Timestamp,
    },
    /// A committed (or to-be-committed) update's after-image.
    Update {
        /// The writing transaction.
        txn: TxnId,
        /// The updated record.
        record: RecordId,
        /// The new value (full record image).
        value: Vec<Word>,
    },
    /// The transaction committed; its updates are now installable/replayable.
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// The transaction aborted; its updates must be ignored by replay.
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A checkpoint began.
    BeginCheckpoint {
        /// The checkpoint.
        ckpt: CheckpointId,
        /// The checkpoint timestamp `τ(CH)` (meaningful for COU).
        tau: Timestamp,
        /// Prepared branches open when the marker was written: their
        /// frames lie before it, so replay starts at the oldest one's
        /// `TxnBegin`. Empty for COU checkpoints (the system is quiesced).
        active: Vec<TxnId>,
    },
    /// A checkpoint completed (all segment images durable in its ping-pong
    /// copy).
    EndCheckpoint {
        /// The checkpoint.
        ckpt: CheckpointId,
    },
    /// The transaction is *prepared* as a participant branch of a
    /// cross-shard (global) transaction: all of its `Update` records are
    /// durable and the branch can no longer unilaterally abort. Written
    /// forced during phase one of the sharded engine's two-phase commit.
    Prepare {
        /// The local participant transaction.
        txn: TxnId,
        /// The global transaction id shared by every participant branch.
        gid: u64,
    },
    /// The coordinator's durable commit/abort decision for a global
    /// transaction (written forced to the coordinator shard's log only).
    /// Recovery resolves prepared branches by looking for this record;
    /// absent a decision, presumed abort applies.
    Decide {
        /// The global transaction id being decided.
        gid: u64,
        /// `true` for commit, `false` for an explicit abort decision.
        commit: bool,
    },
    /// Filler left by log compaction where dropped frames used to be.
    ///
    /// Compaction rewrites cold log chunks in place: frames whose replay
    /// effect is dead (updates of durably-aborted transactions, or
    /// updates superseded by a later durably-committed write to the same
    /// record) are replaced by filler of *exactly the same total length*
    /// (one frame, or several where a run of them is longer than
    /// [`MAX_TXN_FRAME_BYTES`]), so every surviving frame keeps its
    /// original LSN and
    /// the global offset space stays stable for replication and backward
    /// scans. Replay ignores fillers entirely. The frame checksum covers
    /// only the tag and span (the zero padding is never trusted), so
    /// scanning a filler costs O(1) regardless of its size.
    Compacted {
        /// Total encoded frame length in bytes — the byte span of the
        /// frames this filler replaced. At least
        /// [`MIN_COMPACTED_LEN`](crate::record::MIN_COMPACTED_LEN), and
        /// at most [`MAX_TXN_FRAME_BYTES`] unless an older compactor,
        /// which did not split long runs, wrote it.
        span: u64,
    },
    /// A whole committed transaction in one frame: the only thing a
    /// transaction that is not a cross-shard branch writes. Replay
    /// installs the images on sight, in frame order.
    TxnCommit {
        /// The transaction.
        txn: TxnId,
        /// Its after-images in program order, all of one length.
        writes: Vec<(RecordId, Vec<Word>)>,
    },
}

const TAG_TXN_BEGIN: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_BEGIN_CKPT: u8 = 5;
const TAG_END_CKPT: u8 = 6;
const TAG_PREPARE: u8 = 7;
const TAG_DECIDE: u8 = 8;
const TAG_COMPACTED: u8 = 9;
const TAG_TXN_COMMIT: u8 = 10;

/// Frame overhead: leading len (4) + tag (1) + checksum (8) + trailing len (4).
pub const FRAME_OVERHEAD: usize = 4 + 1 + 8 + 4;

/// Smallest legal [`LogRecord::Compacted`] frame: overhead plus the
/// 8-byte span field. Every droppable frame (updates are ≥ 41 bytes) is
/// larger, so any run of dropped frames can be covered by one filler.
pub const MIN_COMPACTED_LEN: usize = FRAME_OVERHEAD + 8;

/// Largest frame the engine or the compactor writes. A transaction is
/// one [`LogRecord::TxnCommit`] frame however many records it updates,
/// and a standby receives that frame in one wire message (8 MiB cap), so
/// a commit whose frame would be longer is refused before anything is
/// appended; a longer run of compacted frames becomes several fillers.
pub const MAX_TXN_FRAME_BYTES: usize = 6 << 20;

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::TxnBegin { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Prepare { txn, .. }
            | LogRecord::TxnCommit { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// Total length of a [`LogRecord::TxnCommit`] frame holding `n_writes`
    /// images of `words_per_image` words.
    pub const fn txn_commit_len(n_writes: usize, words_per_image: usize) -> usize {
        FRAME_OVERHEAD + 8 + 4 + 4 + n_writes * (8 + 4 * words_per_image)
    }

    /// Appends the [`LogRecord::TxnCommit`] frame of `txn` to `out`,
    /// encoded straight from borrowed images.
    ///
    /// # Panics
    ///
    /// If the images are not all of one length: the frame stores that
    /// length once.
    pub fn encode_txn_commit<'a>(
        txn: TxnId,
        writes: impl ExactSizeIterator<Item = (RecordId, &'a [Word])>,
        out: &mut Vec<u8>,
    ) {
        let n_writes = writes.len();
        let mut writes = writes.peekable();
        let words = writes.peek().map_or(0, |(_, image)| image.len());
        write_frame(out, LogRecord::txn_commit_len(n_writes, words), |out| {
            out.push(TAG_TXN_COMMIT);
            out.extend_from_slice(&txn.raw().to_le_bytes());
            out.extend_from_slice(&(n_writes as u32).to_le_bytes());
            out.extend_from_slice(&(words as u32).to_le_bytes());
            for (record, image) in writes {
                assert_eq!(
                    image.len(),
                    words,
                    "images of one transaction differ in length"
                );
                out.extend_from_slice(&record.raw().to_le_bytes());
                for w in image {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        });
    }

    fn payload_len(&self) -> usize {
        match self {
            LogRecord::TxnBegin { .. } => 8 + 8,
            LogRecord::Update { value, .. } => 8 + 8 + 4 + value.len() * 4,
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => 8,
            LogRecord::BeginCheckpoint { active, .. } => 8 + 8 + 4 + active.len() * 8,
            LogRecord::EndCheckpoint { .. } => 8,
            LogRecord::Prepare { .. } => 8 + 8,
            LogRecord::Decide { .. } => 8 + 1,
            LogRecord::Compacted { span } => (*span as usize).saturating_sub(FRAME_OVERHEAD),
            LogRecord::TxnCommit { writes, .. } => {
                let words = writes.first().map_or(0, |(_, image)| image.len());
                LogRecord::txn_commit_len(writes.len(), words) - FRAME_OVERHEAD
            }
        }
    }

    /// Total encoded frame length in bytes.
    pub fn encoded_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload_len()
    }

    /// Encoded frame length in words (for the paper's log-bulk
    /// accounting, which measures the log in words).
    pub fn encoded_words(&self) -> u64 {
        self.encoded_len().div_ceil(4) as u64
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if let LogRecord::TxnCommit { txn, writes } = self {
            let images = writes.iter().map(|(r, image)| (*r, image.as_slice()));
            return LogRecord::encode_txn_commit(*txn, images, out);
        }
        write_frame(out, self.encoded_len(), |out| match self {
            LogRecord::TxnBegin { txn, tau } => {
                out.push(TAG_TXN_BEGIN);
                out.extend_from_slice(&txn.raw().to_le_bytes());
                out.extend_from_slice(&tau.raw().to_le_bytes());
            }
            LogRecord::Update { txn, record, value } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&txn.raw().to_le_bytes());
                out.extend_from_slice(&record.raw().to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                for w in value {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
            LogRecord::Commit { txn } => {
                out.push(TAG_COMMIT);
                out.extend_from_slice(&txn.raw().to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&txn.raw().to_le_bytes());
            }
            LogRecord::BeginCheckpoint { ckpt, tau, active } => {
                out.push(TAG_BEGIN_CKPT);
                out.extend_from_slice(&ckpt.raw().to_le_bytes());
                out.extend_from_slice(&tau.raw().to_le_bytes());
                out.extend_from_slice(&(active.len() as u32).to_le_bytes());
                for t in active {
                    out.extend_from_slice(&t.raw().to_le_bytes());
                }
            }
            LogRecord::EndCheckpoint { ckpt } => {
                out.push(TAG_END_CKPT);
                out.extend_from_slice(&ckpt.raw().to_le_bytes());
            }
            LogRecord::Prepare { txn, gid } => {
                out.push(TAG_PREPARE);
                out.extend_from_slice(&txn.raw().to_le_bytes());
                out.extend_from_slice(&gid.to_le_bytes());
            }
            LogRecord::Decide { gid, commit } => {
                out.push(TAG_DECIDE);
                out.extend_from_slice(&gid.to_le_bytes());
                out.push(u8::from(*commit));
            }
            LogRecord::Compacted { span } => {
                debug_assert!(*span as usize >= MIN_COMPACTED_LEN);
                out.push(TAG_COMPACTED);
                out.extend_from_slice(&span.to_le_bytes());
                out.resize(out.len() + *span as usize - MIN_COMPACTED_LEN, 0);
            }
            LogRecord::TxnCommit { .. } => unreachable!("encoded above"),
        });
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame from the start of `bytes`. Returns the record and
    /// the number of bytes consumed. Fails (without panicking) on torn or
    /// corrupt frames.
    pub fn decode(bytes: &[u8]) -> Result<(LogRecord, usize)> {
        LogRecord::decode_frame(bytes, true)
    }

    /// [`LogRecord::decode`] for a frame that an earlier `decode` of these
    /// same bytes accepted: everything is checked again except the
    /// checksum.
    pub fn decode_verified(bytes: &[u8]) -> Result<(LogRecord, usize)> {
        LogRecord::decode_frame(bytes, false)
    }

    fn decode_frame(bytes: &[u8], verify: bool) -> Result<(LogRecord, usize)> {
        let corrupt = |msg: &str| MmdbError::Corrupt(format!("log record: {msg}"));
        let total = LogRecord::frame_len(bytes)
            .filter(|&total| total >= FRAME_OVERHEAD)
            .ok_or_else(|| corrupt("truncated frame or bad frame length"))?;
        let frame = &bytes[..total];
        let trailer =
            u32::from_le_bytes(frame[total - 4..].try_into().expect("4-byte slice")) as usize;
        if trailer != total {
            return Err(corrupt("trailer length mismatch"));
        }
        let body = &frame[4..total - 12];
        let stored = u64::from_le_bytes(
            frame[total - 12..total - 4]
                .try_into()
                .expect("8-byte slice"),
        );
        if body.is_empty() || (body[0] == TAG_COMPACTED && body.len() < 9) {
            return Err(corrupt("empty frame body or short filler frame"));
        }
        if verify && checksum(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if body[0] == TAG_COMPACTED {
            let span = u64::from_le_bytes(body[1..9].try_into().expect("8-byte slice"));
            if span as usize != total || total < MIN_COMPACTED_LEN {
                return Err(corrupt("filler span disagrees with frame length"));
            }
            return Ok((LogRecord::Compacted { span }, total));
        }

        let mut r = Reader { buf: body, pos: 1 };
        let rec = match body[0] {
            TAG_TXN_BEGIN => LogRecord::TxnBegin {
                txn: TxnId(r.u64()?),
                tau: Timestamp(r.u64()?),
            },
            TAG_UPDATE => {
                let txn = TxnId(r.u64()?);
                let record = RecordId(r.u64()?);
                let n = r.u32()? as usize;
                let value = r.words(n)?;
                LogRecord::Update { txn, record, value }
            }
            TAG_COMMIT => LogRecord::Commit {
                txn: TxnId(r.u64()?),
            },
            TAG_ABORT => LogRecord::Abort {
                txn: TxnId(r.u64()?),
            },
            TAG_BEGIN_CKPT => {
                let ckpt = CheckpointId(r.u64()?);
                let tau = Timestamp(r.u64()?);
                let n = r.u32()? as usize;
                let mut active = Vec::with_capacity(n);
                for _ in 0..n {
                    active.push(TxnId(r.u64()?));
                }
                LogRecord::BeginCheckpoint { ckpt, tau, active }
            }
            TAG_END_CKPT => LogRecord::EndCheckpoint {
                ckpt: CheckpointId(r.u64()?),
            },
            TAG_PREPARE => LogRecord::Prepare {
                txn: TxnId(r.u64()?),
                gid: r.u64()?,
            },
            TAG_DECIDE => {
                let gid = r.u64()?;
                let commit = match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(corrupt(&format!("bad decide flag {b}"))),
                };
                LogRecord::Decide { gid, commit }
            }
            TAG_TXN_COMMIT => {
                let txn = TxnId(r.u64()?);
                let (n, words) = (r.u32()? as usize, r.u32()? as usize);
                // bound the allocation by the payload actually in hand
                let per_write = words.checked_mul(4).and_then(|image| image.checked_add(8));
                if per_write.and_then(|w| w.checked_mul(n)) != Some(body.len() - r.pos) {
                    return Err(corrupt("write count disagrees with payload length"));
                }
                let mut writes = Vec::with_capacity(n);
                for _ in 0..n {
                    let record = RecordId(r.u64()?);
                    writes.push((record, r.words(words)?));
                }
                LogRecord::TxnCommit { txn, writes }
            }
            t => return Err(corrupt(&format!("unknown tag {t}"))),
        };
        if r.pos != body.len() {
            return Err(corrupt("trailing garbage in payload"));
        }
        Ok((rec, total))
    }

    /// Reads the frame length stored in the *last* 4 bytes of a frame
    /// ending at `end` within `bytes`, for backward scanning. Returns the
    /// frame start offset.
    pub fn frame_start_before(bytes: &[u8], end: usize) -> Result<usize> {
        if end < FRAME_OVERHEAD || end > bytes.len() {
            return Err(MmdbError::Corrupt("backward scan out of range".into()));
        }
        let len =
            u32::from_le_bytes(bytes[end - 4..end].try_into().expect("4-byte slice")) as usize;
        if len < FRAME_OVERHEAD || len > end {
            return Err(MmdbError::Corrupt("bad trailing frame length".into()));
        }
        Ok(end - len)
    }

    /// The LSN just past this record, given the record's own LSN.
    pub fn end_lsn(&self, lsn: Lsn) -> Lsn {
        lsn.advance(self.encoded_len() as u64)
    }

    /// The total frame length declared by the header at the start of
    /// `bytes`, when that many bytes are in hand. `None` means the frame
    /// is longer than `bytes` (a cut mid-frame: more bytes may complete
    /// it); `Some` with a failing [`LogRecord::decode`] means the whole
    /// frame is present and corrupt.
    pub fn frame_len(bytes: &[u8]) -> Option<usize> {
        LogRecord::declared_len(bytes).filter(|&total| total <= bytes.len())
    }

    /// The total frame length the header at the start of `bytes` declares,
    /// however many of those bytes are in hand; `None` short of a header.
    pub(crate) fn declared_len(bytes: &[u8]) -> Option<usize> {
        let header = bytes.first_chunk::<4>()?;
        Some(u32::from_le_bytes(*header) as usize)
    }
}

/// Appends one frame of `total` bytes to `out`: the envelope around
/// whatever `body` writes (tag first).
fn write_frame(out: &mut Vec<u8>, total: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let len = (total as u32).to_le_bytes();
    out.extend_from_slice(&len);
    let body_start = out.len();
    body(out);
    let sum = checksum(&out[body_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&len);
    debug_assert_eq!(out.len() - body_start + 4, total);
}

/// The checksum a frame stores for `body`, its tag + payload.
fn checksum(body: &[u8]) -> u64 {
    match body[0] {
        // Filler padding is never trusted, so the checksum covers only the
        // tag + span prefix — a filler scans in O(1) whatever its size.
        TAG_COMPACTED => fnv1a(&body[..9]),
        _ => fnv1a(body),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.pos + n > self.buf.len() {
            return Err(MmdbError::Corrupt("log record: short payload".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn words(&mut self, n: usize) -> Result<Vec<Word>> {
        Ok(self
            .take(n.saturating_mul(4))?
            .chunks_exact(4)
            .map(|w| Word::from_le_bytes(w.try_into().expect("4-byte chunk")))
            .collect())
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte slice"),
        ))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::hash::Fnv1a;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::TxnBegin {
                txn: TxnId(42),
                tau: Timestamp(7),
            },
            LogRecord::Update {
                txn: TxnId(42),
                record: RecordId(1234),
                value: vec![1, 2, 3, 0xFFFF_FFFF],
            },
            LogRecord::Update {
                txn: TxnId(1),
                record: RecordId(0),
                value: vec![],
            },
            LogRecord::Commit { txn: TxnId(42) },
            LogRecord::Abort { txn: TxnId(9) },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(3),
                tau: Timestamp(100),
                active: vec![TxnId(5), TxnId(6)],
            },
            LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(4),
                tau: Timestamp(200),
                active: vec![],
            },
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(3),
            },
            LogRecord::Prepare {
                txn: TxnId(42),
                gid: 0xDEAD_BEEF,
            },
            LogRecord::Decide {
                gid: 0xDEAD_BEEF,
                commit: true,
            },
            LogRecord::Decide {
                gid: 99,
                commit: false,
            },
            txn_commit(2, 4),
            txn_commit(0, 0),
        ]
    }

    /// A `TxnCommit` of `n` distinct images of `words` words.
    fn txn_commit(n: u64, words: usize) -> LogRecord {
        LogRecord::TxnCommit {
            txn: TxnId(42),
            writes: (0..n)
                .map(|i| (RecordId(100 + i), vec![i as Word + 1; words]))
                .collect(),
        }
    }

    /// Recomputes the checksum of a frame whose payload was edited.
    fn reseal(enc: &mut [u8]) {
        let len = enc.len();
        let sum = checksum(&enc[4..len - 12]);
        enc[len - 12..len - 4].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn txn_commit_sizes_are_the_documented_ones() {
        assert_eq!(txn_commit(5, 32).encoded_len(), 713);
        assert_eq!(txn_commit(1, 32).encoded_len(), 169);
        assert_eq!(txn_commit(2, 32).encoded_len(), 305);
        assert_eq!(txn_commit(0, 0).encoded_len(), 33);
        assert_eq!(LogRecord::txn_commit_len(5, 32), 713);
        assert_eq!(txn_commit(1, 4).txn(), Some(TxnId(42)));
    }

    #[test]
    fn txn_commit_torn_at_every_prefix_and_flipped_at_every_byte() {
        let enc = txn_commit(3, 4).encode();
        for cut in 0..enc.len() {
            assert!(LogRecord::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x10;
            if let Ok((dec, _)) = LogRecord::decode(&bad) {
                panic!("flip at byte {i} decoded as {dec:?}");
            }
        }
    }

    #[test]
    fn txn_commit_counts_must_agree_with_the_payload() {
        let enc = txn_commit(3, 4).encode();
        // payload: tag(1) txn(8) n_writes(4) words_per_image(4) ...
        let (n_at, words_at) = (4 + 1 + 8, 4 + 1 + 8 + 4);
        for (at, value) in [(n_at, 2u32), (n_at, 4), (words_at, 3), (words_at, 5)] {
            let mut bad = enc.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bad);
            assert!(LogRecord::decode(&bad).is_err(), "{value} at {at}");
        }
        // a count that would overflow the length arithmetic, or ask for a
        // huge allocation, is refused from the payload length alone
        let mut bad = enc.clone();
        bad[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[words_at..words_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        assert!(LogRecord::decode(&bad).is_err());
    }

    #[test]
    fn txn_commit_trailing_garbage_is_rejected() {
        // four more payload bytes than the counts account for, lengths
        // and checksum all consistent
        let enc = txn_commit(2, 4).encode();
        let total = (enc.len() + 4) as u32;
        let mut bad = total.to_le_bytes().to_vec();
        bad.extend_from_slice(&enc[4..enc.len() - 12]);
        bad.extend_from_slice(&[0xAB; 4]);
        bad.extend_from_slice(&[0; 8]);
        bad.extend_from_slice(&total.to_le_bytes());
        reseal(&mut bad);
        assert!(LogRecord::decode(&bad).is_err());
        // and bytes after a whole frame are simply the next frame's
        let mut stream = enc.clone();
        stream.extend_from_slice(&[0xFF; 7]);
        assert_eq!(LogRecord::decode(&stream).unwrap().1, enc.len());
    }

    #[test]
    fn roundtrip_all_variants() {
        for rec in samples() {
            let enc = rec.encode();
            assert_eq!(enc.len(), rec.encoded_len(), "{rec:?}");
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, rec);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn decode_from_stream_with_following_data() {
        let a = LogRecord::Commit { txn: TxnId(1) };
        let b = LogRecord::Abort { txn: TxnId(2) };
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        let (dec, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(dec, a);
        let (dec2, _) = LogRecord::decode(&buf[used..]).unwrap();
        assert_eq!(dec2, b);
    }

    #[test]
    fn torn_frame_detected() {
        let rec = LogRecord::Update {
            txn: TxnId(1),
            record: RecordId(2),
            value: vec![1, 2, 3, 4, 5, 6, 7, 8],
        };
        let enc = rec.encode();
        for cut in 0..enc.len() {
            assert!(
                LogRecord::decode(&enc[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn bitflip_detected() {
        let rec = LogRecord::Commit { txn: TxnId(77) };
        let enc = rec.encode();
        // flip one bit in each byte of the tag/payload/checksum region
        for i in 4..enc.len() - 4 {
            let mut bad = enc.clone();
            bad[i] ^= 0x10;
            match LogRecord::decode(&bad) {
                Err(_) => {}
                Ok((dec, _)) => panic!("bitflip at byte {i} decoded as {dec:?}"),
            }
        }
    }

    #[test]
    fn backward_frame_lookup() {
        let mut buf = Vec::new();
        let recs = samples();
        let mut starts = Vec::new();
        for r in &recs {
            starts.push(buf.len());
            r.encode_into(&mut buf);
        }
        // walk backward from the end recovering each start offset
        let mut end = buf.len();
        for (&start, rec) in starts.iter().zip(&recs).rev() {
            let s = LogRecord::frame_start_before(&buf, end).unwrap();
            assert_eq!(s, start);
            let (dec, _) = LogRecord::decode(&buf[s..]).unwrap();
            assert_eq!(&dec, rec);
            end = s;
        }
        assert_eq!(end, 0);
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Commit { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        assert_eq!(
            LogRecord::EndCheckpoint {
                ckpt: CheckpointId(1)
            }
            .txn(),
            None
        );
        assert_eq!(
            LogRecord::Prepare {
                txn: TxnId(8),
                gid: 1
            }
            .txn(),
            Some(TxnId(8))
        );
        assert_eq!(
            LogRecord::Decide {
                gid: 1,
                commit: true
            }
            .txn(),
            None
        );
    }

    #[test]
    fn decide_flag_byte_validated() {
        let rec = LogRecord::Decide {
            gid: 5,
            commit: false,
        };
        let mut enc = rec.encode();
        // the flag byte is the last payload byte: total - trailer(4) - fnv(8) - 1
        let flag_at = enc.len() - 4 - 8 - 1;
        assert_eq!(enc[flag_at], 0);
        // a non-boolean flag byte must be rejected even with a valid checksum
        enc[flag_at] = 7;
        let body = &enc[4..enc.len() - 12];
        let mut h = Fnv1a::new();
        h.update(body);
        let sum = h.finish().to_le_bytes();
        let len = enc.len();
        enc[len - 12..len - 4].copy_from_slice(&sum);
        assert!(LogRecord::decode(&enc).is_err());
    }

    #[test]
    fn compacted_roundtrip_various_spans() {
        for span in [
            MIN_COMPACTED_LEN as u64,
            41,
            100,
            4096,
            1 << 20, // a megabyte-scale filler still scans in O(1)
        ] {
            let rec = LogRecord::Compacted { span };
            let enc = rec.encode();
            assert_eq!(enc.len(), span as usize, "span {span}");
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, rec);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn compacted_padding_is_untrusted() {
        // corrupting the zero padding must NOT invalidate the frame — the
        // checksum deliberately covers only the tag + span prefix, so a
        // compactor never has to hash the dead bytes it overwrites.
        let rec = LogRecord::Compacted { span: 200 };
        let mut enc = rec.encode();
        enc[60] = 0xAB;
        enc[150] ^= 0xFF;
        let (dec, _) = LogRecord::decode(&enc).unwrap();
        assert_eq!(dec, rec);
        // but the hashed prefix (tag + span) is protected
        let mut bad = rec.encode();
        bad[5] ^= 0x01; // low byte of span
        assert!(LogRecord::decode(&bad).is_err());
    }

    #[test]
    fn compacted_span_must_match_frame_length() {
        // a filler whose span field disagrees with the frame length would
        // desynchronize the LSN space — forge one and ensure it's rejected
        let span = 64u64;
        let total = 80usize;
        let mut enc = Vec::new();
        enc.extend_from_slice(&(total as u32).to_le_bytes());
        enc.push(TAG_COMPACTED);
        enc.extend_from_slice(&span.to_le_bytes());
        enc.resize(total - 12, 0);
        let mut h = Fnv1a::new();
        h.update(&enc[4..13]);
        enc.extend_from_slice(&h.finish().to_le_bytes());
        enc.extend_from_slice(&(total as u32).to_le_bytes());
        assert!(LogRecord::decode(&enc).is_err());
    }

    #[test]
    fn compacted_has_no_txn() {
        assert_eq!(LogRecord::Compacted { span: 64 }.txn(), None);
    }

    #[test]
    fn frame_len_tells_a_cut_frame_from_a_whole_one() {
        let enc = LogRecord::Commit { txn: TxnId(1) }.encode();
        assert_eq!(LogRecord::frame_len(&enc), Some(enc.len()));
        for cut in 0..enc.len() {
            assert_eq!(LogRecord::frame_len(&enc[..cut]), None, "cut at {cut}");
        }
        // a whole frame with a flipped payload byte is in hand, and corrupt
        let mut bad = enc.clone();
        bad[6] ^= 0x01;
        assert_eq!(LogRecord::frame_len(&bad), Some(bad.len()));
        assert!(LogRecord::decode(&bad).is_err());
    }

    #[test]
    fn encoded_words_rounds_up() {
        let rec = LogRecord::Commit { txn: TxnId(1) };
        assert_eq!(rec.encoded_len(), 25);
        assert_eq!(rec.encoded_words(), 7);
    }

    #[test]
    fn end_lsn_advances_by_frame_len() {
        let rec = LogRecord::Commit { txn: TxnId(1) };
        assert_eq!(rec.end_lsn(Lsn(100)), Lsn(100 + 25));
    }
}
