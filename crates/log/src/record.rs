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
//! * one forced `TxnPrepare` frame per participant branch of a
//!   cross-shard transaction, whose outcome is decided elsewhere, then
//!   commit or abort at the decision. Older logs hold a branch as begin,
//!   updates and `Prepare` (and, before `TxnCommit`, every transaction as
//!   begin, updates and commit): those still decode, but are never
//!   written;
//! * one forced `TxnDecide` frame per cross-shard transaction, on the
//!   coordinator's log: the coordinator's own branch, installed on sight
//!   like a `TxnCommit`, and the commit decision for its gid (the last
//!   agent). Older logs hold the decision as a separate `Decide` frame
//!   after a prepared coordinator branch: it still decodes, but is never
//!   written;
//! * begin-checkpoint markers carrying the checkpoint's id, timestamp
//!   `τ(CH)` and the list of prepared branches open at the marker (used
//!   by fuzzy recovery to extend the replay window, §3.3),
//! * end-checkpoint markers (so recovery can identify the most recently
//!   *completed* checkpoint, §3.3 footnote).
//!
//! Frame layout (little-endian), a 9-byte header and no trailer:
//!
//! ```text
//! len u32 (bit 31 set) · crc32c u32 · tag u8 · payload
//! TxnCommit payload:     txn varint · n varint · n × record varint · n × image
//! TxnPrepare payload:    txn varint · gid varint · n varint · n × record varint · n × image
//! TxnDecide payload:     txn varint · gid varint · n varint · n × record varint · n × image
//! ```
//!
//! Written: `TxnCommit`, `TxnPrepare`, `TxnDecide`, control frames. The CRC-32C covers `len`, the tag and the payload (a `Compacted`
//! filler's, `len` and the tag: its padding is never trusted), and lets
//! recovery stop cleanly at a torn final record. Varints are canonical
//! LEB128; an image's length is the rest of the payload split evenly.
//! The paper's 5 × 32-word transaction with 3-byte ids is 668 bytes, one
//! such record 144, none 11; a branch writing that one record under a
//! gid below 2¹⁴ is 146. With bit 31 clear a frame has the older
//! envelope, `len · tag · payload · fnv64 · len`, a fixed-width
//! `TxnCommit` and an 8-byte filler span: it still decodes, but is never
//! written. A frame whose checksum verifies but which does not decode
//! came from a newer build: it fails with [`MmdbError::NewerFormat`], and
//! recovery stops there rather than cut it off as a torn tail. A binary
//! older than `TxnDecide` cuts its log at the first such frame, so
//! **downgrade is unsupported** (replication version 4).

use mmdb_types::{
    hash::{crc32c, crc32c_append, fnv1a},
    CheckpointId, MmdbError, RecordId, Result, Timestamp, TxnId, Word, WORD_BYTES,
};

/// A single log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A transaction began (older logs only).
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
        /// first frame. Empty for COU checkpoints (the system is quiesced).
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
    /// durable and the branch can no longer unilaterally abort (older
    /// logs only: [`LogRecord::TxnPrepare`] replaces it).
    Prepare {
        /// The local participant transaction.
        txn: TxnId,
        /// The global transaction id shared by every participant branch.
        gid: u64,
    },
    /// The coordinator's durable commit/abort decision for a global
    /// transaction (older logs only: [`LogRecord::TxnDecide`] replaces
    /// it). Recovery resolves prepared branches by looking for a
    /// decision; absent one, presumed abort applies.
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
    /// original LSN and the global offset space stays stable for
    /// replication. Replay ignores fillers entirely. The frame checksum
    /// covers only the header (the zero padding is never trusted), so
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
    /// A whole participant branch of a cross-shard transaction, forced in
    /// phase one of two-phase commit: replay stages its images until the
    /// branch's own `Commit` frame.
    TxnPrepare {
        /// The local participant transaction.
        txn: TxnId,
        /// The global transaction id shared by every participant branch.
        gid: u64,
        /// Its after-images in program order, all of one length.
        writes: Vec<(RecordId, Vec<Word>)>,
    },
    /// The coordinator's branch of a cross-shard transaction, forced once
    /// every participant branch is prepared: it *is* the commit point.
    /// Replay installs its images on sight, like a `TxnCommit`, and counts
    /// it as the decision `Decide{gid, commit: true}`.
    TxnDecide {
        /// The coordinator's local transaction.
        txn: TxnId,
        /// The global transaction id shared by every participant branch.
        gid: u64,
        /// Its after-images in program order, all of one length.
        writes: Vec<(RecordId, Vec<Word>)>,
    },
}

/// Which frame [`LogRecord::encode_txn`] writes for a transaction's
/// images: they differ only in their tag and whether a gid follows the
/// transaction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnFrame {
    /// [`LogRecord::TxnCommit`]: a whole committed transaction.
    Commit,
    /// [`LogRecord::TxnPrepare`]: a participant branch of global
    /// transaction `gid`.
    Prepare(u64),
    /// [`LogRecord::TxnDecide`]: the coordinator's branch of global
    /// transaction `gid`, and its commit point.
    Decide(u64),
}

impl TxnFrame {
    /// The global transaction id the frame carries, if any.
    pub fn gid(self) -> Option<u64> {
        match self {
            TxnFrame::Commit => None,
            TxnFrame::Prepare(gid) | TxnFrame::Decide(gid) => Some(gid),
        }
    }

    /// Whether the frame commits its images: every kind but a prepared
    /// branch.
    pub fn commits(self) -> bool {
        !matches!(self, TxnFrame::Prepare(_))
    }

    fn tag(self) -> u8 {
        match self {
            TxnFrame::Commit => TAG_TXN_COMMIT,
            TxnFrame::Prepare(_) => TAG_TXN_PREPARE,
            TxnFrame::Decide(_) => TAG_TXN_DECIDE,
        }
    }
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
const TAG_TXN_PREPARE: u8 = 11;
const TAG_TXN_DECIDE: u8 = 12;

/// Bit 31 of a frame's `len`: set on every frame this build writes.
const ENVELOPE_BIT: u32 = 1 << 31;

/// Frame overhead: len (4) + crc32c (4) + tag (1).
pub const FRAME_OVERHEAD: usize = 4 + 4 + 1;

/// Overhead of an older frame: len (4) + tag (1) + fnv64 (8) + len (4).
const LEGACY_OVERHEAD: usize = 4 + 1 + 8 + 4;

/// Smallest legal [`LogRecord::Compacted`] frame: the bare header. No
/// frame is shorter, so any run of dropped frames can be covered by one
/// filler.
pub const MIN_COMPACTED_LEN: usize = FRAME_OVERHEAD;

/// Largest frame the engine or the compactor writes. A transaction is
/// one [`LogRecord::TxnCommit`] frame however many records it updates,
/// and a standby receives that frame in one wire message (8 MiB cap), so
/// a commit whose frame would be longer is refused before anything is
/// appended; a longer run of compacted frames becomes several fillers.
pub const MAX_TXN_FRAME_BYTES: usize = 6 << 20;

/// Bytes of `v` as a LEB128 varint.
const fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl LogRecord {
    /// The transaction this record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::TxnBegin { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Prepare { txn, .. }
            | LogRecord::TxnCommit { txn, .. }
            | LogRecord::TxnPrepare { txn, .. }
            | LogRecord::TxnDecide { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// Total length of the frame [`encode_txn`](Self::encode_txn) writes
    /// for `txn` and `gid` with `records`, each an image of
    /// `words_per_image` words.
    pub fn txn_len(
        txn: TxnId,
        gid: Option<u64>,
        records: impl IntoIterator<Item = RecordId>,
        words_per_image: usize,
    ) -> usize {
        let (mut n, mut ids) = (0, 0);
        for record in records {
            n += 1;
            ids += varint_len(record.raw());
        }
        FRAME_OVERHEAD
            + varint_len(txn.raw())
            + gid.map_or(0, varint_len)
            + varint_len(n as u64)
            + ids
            + n * 4 * words_per_image
    }

    /// Appends the `kind` frame of `txn` to `out`, encoded straight from
    /// borrowed images.
    ///
    /// # Panics
    ///
    /// If the images are not all of one length: the frame derives that
    /// length from its size.
    pub fn encode_txn<'a>(
        txn: TxnId,
        kind: TxnFrame,
        writes: impl ExactSizeIterator<Item = (RecordId, &'a [Word])> + Clone,
        out: &mut Vec<u8>,
    ) {
        write_frame(out, |out| {
            out.push(kind.tag());
            put_varint(out, txn.raw());
            if let Some(gid) = kind.gid() {
                put_varint(out, gid);
            }
            put_varint(out, writes.len() as u64);
            for (record, _) in writes.clone() {
                put_varint(out, record.raw());
            }
            let mut words = None;
            for (_, image) in writes {
                assert_eq!(
                    *words.get_or_insert(image.len()),
                    image.len(),
                    "images of one transaction differ in length"
                );
                let start = out.len();
                out.resize(start + image.len() * WORD_BYTES, 0);
                for (bytes, w) in out[start..].chunks_exact_mut(WORD_BYTES).zip(image) {
                    bytes.copy_from_slice(&w.to_le_bytes());
                }
            }
        });
    }

    fn payload_len(&self) -> usize {
        let txn_len = |txn, gid, writes: &[(RecordId, Vec<Word>)]| {
            let words = writes.first().map_or(0, |(_, image)| image.len());
            let records = writes.iter().map(|(record, _)| *record);
            LogRecord::txn_len(txn, gid, records, words) - FRAME_OVERHEAD
        };
        match self {
            LogRecord::TxnBegin { .. } => 8 + 8,
            LogRecord::Update { value, .. } => 8 + 8 + 4 + value.len() * 4,
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => 8,
            LogRecord::BeginCheckpoint { active, .. } => 8 + 8 + 4 + active.len() * 8,
            LogRecord::EndCheckpoint { .. } => 8,
            LogRecord::Prepare { .. } => 8 + 8,
            LogRecord::Decide { .. } => 8 + 1,
            LogRecord::Compacted { span } => (*span as usize).saturating_sub(FRAME_OVERHEAD),
            LogRecord::TxnCommit { txn, writes } => txn_len(*txn, None, writes),
            LogRecord::TxnPrepare { txn, gid, writes }
            | LogRecord::TxnDecide { txn, gid, writes } => txn_len(*txn, Some(*gid), writes),
        }
    }

    /// Total length of the frame [`encode_into`](Self::encode_into)
    /// writes. For a decoded record that is the length it was decoded
    /// from only if this envelope wrote it: an older frame re-encodes
    /// shorter, so log positions come from the bytes a decode consumed.
    pub fn encoded_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload_len()
    }

    /// Appends the encoded frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (txn, kind, writes) = match self {
            LogRecord::TxnCommit { txn, writes } => (*txn, TxnFrame::Commit, writes),
            LogRecord::TxnPrepare { txn, gid, writes } => (*txn, TxnFrame::Prepare(*gid), writes),
            LogRecord::TxnDecide { txn, gid, writes } => (*txn, TxnFrame::Decide(*gid), writes),
            _ => return self.encode_other(out),
        };
        let images = writes.iter().map(|(r, image)| (*r, image.as_slice()));
        LogRecord::encode_txn(txn, kind, images, out);
    }

    /// Appends the frame of any record but a transaction frame.
    fn encode_other(&self, out: &mut Vec<u8>) {
        write_frame(out, |out| match self {
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
                out.resize(out.len() + *span as usize - MIN_COMPACTED_LEN, 0);
            }
            LogRecord::TxnCommit { .. }
            | LogRecord::TxnPrepare { .. }
            | LogRecord::TxnDecide { .. } => unreachable!("encode_txn"),
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
            .filter(|&total| total <= bytes.len())
            .ok_or_else(|| corrupt("truncated frame"))?;
        let frame = &bytes[..total];
        let legacy = LogRecord::is_legacy(frame);
        // the envelope's content: tag + payload (a filler's is padding)
        let body = if legacy {
            if total < LEGACY_OVERHEAD {
                return Err(corrupt("bad frame length"));
            }
            let body = &frame[4..total - 12];
            let stored = &frame[total - 12..total - 4];
            let stored = u64::from_le_bytes(stored.try_into().expect("8-byte slice"));
            let trailer = u32::from_le_bytes(frame[total - 4..].try_into().expect("4-byte slice"));
            if trailer as usize != total || (body[0] == TAG_COMPACTED && body.len() < 9) {
                return Err(corrupt("trailer length mismatch or short filler frame"));
            }
            let summed = if body[0] == TAG_COMPACTED {
                &body[..9]
            } else {
                body
            };
            if verify && fnv1a(summed) != stored {
                return Err(corrupt("checksum mismatch"));
            }
            body
        } else {
            if !(FRAME_OVERHEAD..=MAX_TXN_FRAME_BYTES).contains(&total) {
                return Err(corrupt("bad frame length"));
            }
            let stored = u32::from_le_bytes(frame[4..8].try_into().expect("4-byte slice"));
            if verify && frame_crc(frame) != stored {
                return Err(corrupt("checksum mismatch"));
            }
            &frame[8..]
        };
        // A whole CRC-32C frame that checksums but does not decode was
        // written by a newer build, not torn by a crash (no newer build
        // writes the older envelope).
        LogRecord::decode_body(body, total, legacy).map_err(|e| match e {
            MmdbError::Corrupt(msg) if !legacy => MmdbError::NewerFormat(msg),
            e => e,
        })
    }

    /// Decodes the tag and payload `body` of a `total`-byte frame whose
    /// envelope checked out.
    fn decode_body(body: &[u8], total: usize, legacy: bool) -> Result<(LogRecord, usize)> {
        let corrupt = |msg: &str| MmdbError::Corrupt(format!("log record: {msg}"));
        let mut r = Reader { buf: body, pos: 1 };
        let rec = match body[0] {
            TAG_COMPACTED => {
                let span = if legacy { r.u64()? } else { total as u64 };
                if span as usize != total {
                    return Err(corrupt("filler span disagrees with frame length"));
                }
                return Ok((LogRecord::Compacted { span }, total));
            }
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
                let mut active = Vec::with_capacity(n.min(body.len() / 8));
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
            TAG_TXN_COMMIT if legacy => {
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
            tag @ (TAG_TXN_COMMIT | TAG_TXN_PREPARE | TAG_TXN_DECIDE) if !legacy => {
                let txn = TxnId(r.varint()?);
                let gid = (tag != TAG_TXN_COMMIT).then(|| r.varint()).transpose()?;
                let n = r.varint()?;
                // every id takes a byte: bound the allocation by the
                // payload actually in hand
                if n > (body.len() - r.pos) as u64 {
                    return Err(corrupt("write count exceeds payload length"));
                }
                let records = (0..n)
                    .map(|_| r.varint().map(RecordId))
                    .collect::<Result<Vec<_>>>()?;
                let rest = body.len() - r.pos;
                let words = match rest.checked_div(4 * records.len()) {
                    Some(words) if words * 4 * records.len() == rest => words,
                    None if rest == 0 => 0,
                    _ => return Err(corrupt("images do not divide the payload")),
                };
                let writes = (records.into_iter())
                    .map(|record| Ok((record, r.words(words)?)))
                    .collect::<Result<_>>()?;
                match (tag, gid) {
                    (TAG_TXN_DECIDE, Some(gid)) => LogRecord::TxnDecide { txn, gid, writes },
                    (_, Some(gid)) => LogRecord::TxnPrepare { txn, gid, writes },
                    (_, None) => LogRecord::TxnCommit { txn, writes },
                }
            }
            t => return Err(corrupt(&format!("unknown tag {t}"))),
        };
        if r.pos != body.len() {
            return Err(corrupt("trailing garbage in payload"));
        }
        Ok((rec, total))
    }

    /// The total frame length declared by the header at the start of
    /// `bytes`, when that many bytes are in hand. `None` means the frame
    /// is longer than `bytes` (a cut mid-frame: more bytes may complete
    /// it); `Some` with a failing [`LogRecord::decode`] means the frame is
    /// corrupt: whole and failing its checks, or declaring a length past
    /// [`MAX_TXN_FRAME_BYTES`], which no frame of this envelope has.
    pub fn frame_len(bytes: &[u8]) -> Option<usize> {
        let total = LogRecord::declared_len(bytes)?;
        let never = !LogRecord::is_legacy(bytes) && total > MAX_TXN_FRAME_BYTES;
        (total <= bytes.len() || never).then_some(total)
    }

    /// The total frame length the header at the start of `bytes` declares,
    /// however many of those bytes are in hand; `None` short of a header.
    pub(crate) fn declared_len(bytes: &[u8]) -> Option<usize> {
        let header = u32::from_le_bytes(*bytes.first_chunk::<4>()?);
        Some((header & !ENVELOPE_BIT) as usize)
    }

    /// Whether the frame at the start of `bytes` has the older envelope,
    /// which repeats its length in its last four bytes.
    pub(crate) fn is_legacy(bytes: &[u8]) -> bool {
        bytes.get(3).is_some_and(|&b| b & 0x80 == 0)
    }
}

/// Appends one frame to `out`: room for the header, whatever `body`
/// writes (tag first), then the header's length and checksum.
fn write_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let total = out.len() - start;
    debug_assert!(total < ENVELOPE_BIT as usize);
    out[start..start + 4].copy_from_slice(&(total as u32 | ENVELOPE_BIT).to_le_bytes());
    let sum = frame_crc(&out[start..]);
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
}

/// The CRC-32C a frame stores: over `len`, the tag and the payload — for
/// a filler, `len` and the tag only (its padding is never trusted, so a
/// filler scans in O(1) whatever its size).
fn frame_crc(frame: &[u8]) -> u32 {
    let body = match frame[8] {
        TAG_COMPACTED => &frame[8..9],
        _ => &frame[8..],
    };
    crc32c_append(crc32c(&frame[..4]), body)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if n > self.buf.len() - self.pos {
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

    /// A canonical LEB128 varint: at most ten bytes, no bit past the
    /// 64th, no needless trailing zero group — so decoding then encoding
    /// is the identity.
    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            if i == 9 && b > 1 {
                break; // past 64 bits, or an eleventh byte
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    break; // overlong
                }
                return Ok(v);
            }
        }
        Err(MmdbError::Corrupt(
            "log record: overlong or overflowing varint".into(),
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `rec` in the older envelope, built by hand: what a log an older
    /// binary wrote holds.
    pub(crate) fn legacy(rec: &LogRecord) -> Vec<u8> {
        let mut body = match rec {
            LogRecord::TxnCommit { txn, writes } => {
                let words = writes.first().map_or(0, |(_, image)| image.len());
                let mut body = vec![TAG_TXN_COMMIT];
                body.extend_from_slice(&txn.raw().to_le_bytes());
                body.extend_from_slice(&(writes.len() as u32).to_le_bytes());
                body.extend_from_slice(&(words as u32).to_le_bytes());
                for (record, image) in writes {
                    body.extend_from_slice(&record.raw().to_le_bytes());
                    body.extend(image.iter().flat_map(|w| w.to_le_bytes()));
                }
                body
            }
            LogRecord::Compacted { span } => {
                let mut body = vec![TAG_COMPACTED];
                body.extend_from_slice(&span.to_le_bytes());
                body.resize(*span as usize - (LEGACY_OVERHEAD - 1), 0);
                body
            }
            // every other payload is the same in both envelopes
            _ => rec.encode()[8..].to_vec(),
        };
        let total = (body.len() + LEGACY_OVERHEAD - 1) as u32;
        let sum = fnv1a(if body[0] == TAG_COMPACTED {
            &body[..9]
        } else {
            &body
        });
        let mut out = total.to_le_bytes().to_vec();
        out.append(&mut body);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&total.to_le_bytes());
        out
    }

    /// A new-envelope frame around `body` (tag + payload), whatever it says.
    fn seal(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        sealed(&mut out, body);
        out
    }

    /// Appends [`seal`]`(body)` to `out`.
    pub(crate) fn sealed(out: &mut Vec<u8>, body: &[u8]) {
        write_frame(out, |out| out.extend_from_slice(body));
    }

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
            LogRecord::Compacted { span: 64 },
            txn_commit(2, 4),
            txn_commit(0, 0),
            LogRecord::TxnCommit {
                txn: TxnId(u64::MAX),
                writes: vec![(RecordId(u64::MAX), vec![]), (RecordId(0), vec![])],
            },
            txn_prepare(2, 4),
            LogRecord::TxnPrepare {
                txn: TxnId(u64::MAX),
                gid: u64::MAX,
                writes: vec![],
            },
            txn_decide(2, 4),
            LogRecord::TxnDecide {
                txn: TxnId(0),
                gid: u64::MAX,
                writes: vec![],
            },
        ]
    }

    /// A `TxnDecide` of `n` distinct images of `words` words.
    fn txn_decide(n: u64, words: usize) -> LogRecord {
        let LogRecord::TxnPrepare { txn, gid, writes } = txn_prepare(n, words) else {
            unreachable!()
        };
        LogRecord::TxnDecide { txn, gid, writes }
    }

    /// A `TxnPrepare` of `n` distinct images of `words` words.
    fn txn_prepare(n: u64, words: usize) -> LogRecord {
        let LogRecord::TxnCommit { txn, writes } = txn_commit(n, words) else {
            unreachable!()
        };
        LogRecord::TxnPrepare {
            txn,
            gid: 300,
            writes,
        }
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

    /// The paper's transaction shape: `n` images of 32 words, its id and
    /// record ids three varint bytes each.
    fn paper_txn(n: u64) -> LogRecord {
        LogRecord::TxnCommit {
            txn: TxnId((1 << 21) - 1),
            writes: (0..n)
                .map(|i| (RecordId((1 << 14) + i * 100_000), vec![7; 32]))
                .collect(),
        }
    }

    #[test]
    fn frame_sizes_are_the_documented_ones() {
        assert_eq!(paper_txn(5).encoded_len(), 668);
        assert_eq!(paper_txn(1).encoded_len(), 144);
        assert_eq!(txn_commit(0, 0).encoded_len(), 11);
        let ids = (0..5).map(|i| RecordId((1 << 14) + i * 100_000));
        assert_eq!(LogRecord::txn_len(TxnId((1 << 21) - 1), None, ids, 32), 668);
        for n in [0, 1, 5] {
            assert_eq!(paper_txn(n).encode().len(), paper_txn(n).encoded_len());
        }
        assert_eq!(LogRecord::Compacted { span: 9 }.encode().len(), 9);
        assert_eq!(MIN_COMPACTED_LEN, 9);
        assert_eq!(LogRecord::Commit { txn: TxnId(1) }.encoded_len(), 17);
        assert_eq!(txn_commit(1, 4).txn(), Some(TxnId(42)));
        // a branch writing one such record under a two-byte gid
        let LogRecord::TxnCommit { txn, writes } = paper_txn(1) else {
            unreachable!()
        };
        let records = writes.iter().map(|(r, _)| *r).collect::<Vec<_>>();
        let branch = LogRecord::TxnPrepare {
            txn,
            gid: 1 << 13,
            writes,
        };
        assert_eq!(branch.encoded_len(), 146);
        assert_eq!(branch.encode().len(), 146);
        assert_eq!(LogRecord::txn_len(txn, Some(1 << 13), records, 32), 146);
        assert_eq!(branch.txn(), Some(txn));
        // the coordinator's commit point is the size of the branch frame
        let LogRecord::TxnPrepare { txn, gid, writes } = branch else {
            unreachable!()
        };
        let decide = LogRecord::TxnDecide { txn, gid, writes };
        assert_eq!(decide.encoded_len(), 146);
        assert_eq!(decide.encode().len(), 146);
        assert_eq!(decide.txn(), Some(txn));
    }

    #[test]
    fn txn_commit_bytes_are_pinned() {
        let rec = LogRecord::TxnCommit {
            txn: TxnId(5),
            writes: vec![(RecordId(300), vec![7])],
        };
        let enc = rec.encode();
        let (head, body) = enc.split_at(8);
        assert_eq!(body, [10, 5, 1, 0xAC, 0x02, 7, 0, 0, 0]);
        assert_eq!(head[..4], [17, 0, 0, 0x80]);
        let sum = crc32c(&[&head[..4], body].concat());
        assert_eq!(head[4..], sum.to_le_bytes());
        // the branch's frame: the same body with the gid after the txn id
        let rec = LogRecord::TxnPrepare {
            txn: TxnId(5),
            gid: 9,
            writes: vec![(RecordId(300), vec![7])],
        };
        assert_eq!(rec.encode()[8..], [11, 5, 9, 1, 0xAC, 0x02, 7, 0, 0, 0]);
        // and the coordinator's commit point: the same under its own tag
        let LogRecord::TxnPrepare { txn, gid, writes } = rec else {
            unreachable!()
        };
        let rec = LogRecord::TxnDecide { txn, gid, writes };
        assert_eq!(rec.encode()[8..], [12, 5, 9, 1, 0xAC, 0x02, 7, 0, 0, 0]);
    }

    #[test]
    fn a_whole_frame_that_does_not_decode_is_from_a_newer_format() {
        let newer = |rec: Result<(LogRecord, usize)>| matches!(rec, Err(MmdbError::NewerFormat(_)));
        // a tag this build does not know, checksummed: a newer writer's
        let unknown = seal(&[0xEE, 1, 2, 3]);
        let err = LogRecord::decode(&unknown).unwrap_err();
        assert!(
            err.to_string().contains("frame from a newer log format"),
            "{err}"
        );
        assert!(newer(LogRecord::decode_verified(&unknown)));
        // so is a known tag whose checksummed payload does not parse
        let mut body = LogRecord::Commit { txn: TxnId(3) }.encode()[8..].to_vec();
        body.extend([0xAB; 4]);
        assert!(newer(LogRecord::decode(&seal(&body))));
        // a torn or flipped frame is corrupt, as before
        let mut flipped = unknown.clone();
        flipped[9] ^= 1;
        assert!(matches!(
            LogRecord::decode(&flipped),
            Err(MmdbError::Corrupt(_))
        ));
        assert!(matches!(
            LogRecord::decode(&unknown[..unknown.len() - 1]),
            Err(MmdbError::Corrupt(_))
        ));
        // no newer build writes the older envelope: its frames stay corrupt
        let mut old = legacy(&LogRecord::Commit { txn: TxnId(1) });
        old[4] = 0xEE;
        let len = old.len();
        let sum = fnv1a(&old[4..len - 12]);
        old[len - 12..len - 4].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            LogRecord::decode(&old),
            Err(MmdbError::Corrupt(_))
        ));
    }

    #[test]
    fn roundtrip_all_variants_is_the_identity() {
        for rec in samples() {
            let enc = rec.encode();
            assert_eq!(enc.len(), rec.encoded_len(), "{rec:?}");
            let (dec, used) = LogRecord::decode(&enc).unwrap();
            assert_eq!(dec, rec);
            assert_eq!(used, enc.len());
            assert_eq!(dec.encode(), enc, "{rec:?}");
        }
    }

    #[test]
    fn hand_built_older_frames_decode_for_every_tag() {
        // one spelled out byte by byte: Commit of txn 1
        let mut commit = vec![25, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0];
        commit.extend(fnv1a(&commit[4..]).to_le_bytes());
        commit.extend([25, 0, 0, 0]);
        assert_eq!(commit, legacy(&LogRecord::Commit { txn: TxnId(1) }));
        let mut older = samples();
        older.extend([
            LogRecord::Compacted { span: 25 },
            LogRecord::Compacted { span: 4096 },
        ]);
        // no older binary wrote a branch as one frame
        let (branches, older): (Vec<_>, Vec<_>) = (older.into_iter()).partition(|rec| {
            matches!(
                rec,
                LogRecord::TxnPrepare { .. } | LogRecord::TxnDecide { .. }
            )
        });
        for rec in branches {
            assert!(LogRecord::decode(&legacy(&rec)).is_err(), "{rec:?}");
        }
        for rec in older {
            let old = legacy(&rec);
            assert_eq!(LogRecord::decode(&old).unwrap(), (rec.clone(), old.len()));
            assert_eq!(LogRecord::decode_verified(&old).unwrap().1, old.len());
            // the writer's envelope is the shorter one: a position comes
            // from the bytes consumed, never from `encoded_len`
            if !matches!(rec, LogRecord::Compacted { .. }) {
                assert!(rec.encoded_len() < old.len(), "{rec:?}");
            }
        }
    }

    #[test]
    fn torn_at_every_prefix_and_flipped_at_every_bit() {
        for enc in [
            txn_commit(3, 4).encode(),
            txn_prepare(1, 32).encode(),
            txn_decide(1, 32).encode(),
            LogRecord::Compacted { span: 9 }.encode(),
            legacy(&txn_commit(2, 3)),
        ] {
            for cut in 0..enc.len() {
                assert!(LogRecord::decode(&enc[..cut]).is_err(), "cut at {cut}");
            }
            for i in 0..enc.len() {
                for bit in 0..8 {
                    let mut bad = enc.clone();
                    bad[i] ^= 1 << bit;
                    if let Ok((dec, _)) = LogRecord::decode(&bad) {
                        panic!("flip of bit {bit} of byte {i} decoded as {dec:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn varints_must_be_canonical() {
        // tag, txn varint, n = 0: the empty transaction
        assert!(LogRecord::decode(&seal(&[10, 5, 0])).is_ok());
        for txn in [
            &[0x85, 0x00][..],                                             // overlong 5
            &[0x80, 0x80, 0x00],                                           // overlong 0
            &[0xFF; 11],                                                   // eleven bytes
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02], // past 64 bits
            &[0x80; 10],                                                   // never ends
        ] {
            let mut body = vec![10];
            body.extend_from_slice(txn);
            body.push(0);
            assert!(LogRecord::decode(&seal(&body)).is_err(), "{txn:?}");
        }
        // a branch's gid is held to the same rule: tag, txn 5, gid, n = 0
        assert!(LogRecord::decode(&seal(&[11, 5, 3, 0])).is_ok());
        for gid in [&[0x83, 0x00][..], &[0x80; 10], &[0xFF; 11]] {
            let mut body = vec![11, 5];
            body.extend_from_slice(gid);
            body.push(0);
            assert!(LogRecord::decode(&seal(&body)).is_err(), "{gid:?}");
        }
        // the largest id, in ten bytes, is canonical
        let mut body = vec![10];
        body.extend([0xFF; 9]);
        body.extend([0x01, 0]);
        let (rec, _) = LogRecord::decode(&seal(&body)).unwrap();
        assert_eq!(rec.txn(), Some(TxnId(u64::MAX)));
        assert_eq!(rec.encode(), seal(&body));
    }

    #[test]
    fn images_must_divide_the_payload_and_counts_must_fit_it() {
        // n = 2, ids 1 and 2, then 12 image bytes: 6 per image, not words
        let mut body = vec![10, 42, 2, 1, 2];
        body.extend([0; 12]);
        assert!(LogRecord::decode(&seal(&body)).is_err());
        body.extend([0; 4]);
        let (rec, _) = LogRecord::decode(&seal(&body)).unwrap();
        assert_eq!(
            rec,
            LogRecord::TxnCommit {
                txn: TxnId(42),
                writes: vec![(RecordId(1), vec![0, 0]), (RecordId(2), vec![0, 0])],
            }
        );
        // no writes and something left over
        assert!(LogRecord::decode(&seal(&[10, 42, 0, 0, 0, 0, 0])).is_err());
        // a huge count is refused from the payload length, before any
        // allocation
        let mut huge = vec![10, 42];
        huge.extend([0xFF; 9]);
        huge.extend([0x01, 1, 2, 3]);
        assert!(LogRecord::decode(&seal(&huge)).is_err());
        // ids cut short by the frame's end
        assert!(LogRecord::decode(&seal(&[10, 42, 2, 1, 0x80])).is_err());

        // a branch's frame, gid 7 after the txn id, by the same rules
        let mut body = vec![11, 42, 7, 2, 1, 2];
        body.extend([0; 12]);
        assert!(LogRecord::decode(&seal(&body)).is_err());
        body.extend([0; 4]);
        let (rec, _) = LogRecord::decode(&seal(&body)).unwrap();
        assert!(
            matches!(rec, LogRecord::TxnPrepare { gid: 7, ref writes, .. }
            if writes == &[(RecordId(1), vec![0, 0]), (RecordId(2), vec![0, 0])])
        );
        assert!(LogRecord::decode(&seal(&[11, 42, 7, 0, 0, 0, 0])).is_err());
        let mut huge = vec![11, 42, 7];
        huge.extend([0xFF; 9]);
        huge.extend([0x01, 1, 2, 3]);
        assert!(LogRecord::decode(&seal(&huge)).is_err());
        // the gid cut short
        assert!(LogRecord::decode(&seal(&[11, 42, 0x80])).is_err());
    }

    #[test]
    fn a_length_past_the_frame_bound_is_corrupt_not_cut() {
        let len = (MAX_TXN_FRAME_BYTES as u32 + 1) | ENVELOPE_BIT;
        let head = len.to_le_bytes();
        assert_eq!(LogRecord::frame_len(&head), Some(MAX_TXN_FRAME_BYTES + 1));
        assert!(LogRecord::decode(&head).is_err());
        // at the bound it is a cut frame, more bytes may complete it
        let at = (MAX_TXN_FRAME_BYTES as u32 | ENVELOPE_BIT).to_le_bytes();
        assert_eq!(LogRecord::frame_len(&at), None);
        // an older frame has no such bound
        let old = (MAX_TXN_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert_eq!(LogRecord::frame_len(&old), None);
    }

    #[test]
    fn legacy_txn_commit_counts_must_agree_with_the_payload() {
        let enc = legacy(&txn_commit(3, 4));
        let reseal = |bad: &mut Vec<u8>| {
            let len = bad.len();
            let sum = fnv1a(&bad[4..len - 12]);
            bad[len - 12..len - 4].copy_from_slice(&sum.to_le_bytes());
        };
        // payload: tag(1) txn(8) n_writes(4) words_per_image(4) ...
        let (n_at, words_at) = (4 + 1 + 8, 4 + 1 + 8 + 4);
        for (at, value) in [(n_at, 2u32), (n_at, 4), (words_at, 3), (words_at, 5)] {
            let mut bad = enc.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bad);
            assert!(LogRecord::decode(&bad).is_err(), "{value} at {at}");
        }
        let mut bad = enc.clone();
        bad[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bad[words_at..words_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bad);
        assert!(LogRecord::decode(&bad).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let enc = txn_commit(2, 4).encode();
        // a Commit with four bytes too many, sealed
        let mut body = LogRecord::Commit { txn: TxnId(3) }.encode()[8..].to_vec();
        body.extend([0xAB; 4]);
        assert!(LogRecord::decode(&seal(&body)).is_err());
        // and bytes after a whole frame are simply the next frame's
        let mut stream = enc.clone();
        stream.extend_from_slice(&[0xFF; 7]);
        assert_eq!(LogRecord::decode(&stream).unwrap().1, enc.len());
    }

    #[test]
    fn decode_from_stream_with_following_data() {
        let a = LogRecord::Commit { txn: TxnId(1) };
        let b = LogRecord::Abort { txn: TxnId(2) };
        let mut buf = a.encode();
        buf.extend_from_slice(&legacy(&b));
        let (dec, used) = LogRecord::decode(&buf).unwrap();
        assert_eq!(dec, a);
        let (dec2, _) = LogRecord::decode(&buf[used..]).unwrap();
        assert_eq!(dec2, b);
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Commit { txn: TxnId(3) }.txn(), Some(TxnId(3)));
        let end = LogRecord::EndCheckpoint {
            ckpt: CheckpointId(1),
        };
        assert_eq!(end.txn(), None);
        let prepare = LogRecord::Prepare {
            txn: TxnId(8),
            gid: 1,
        };
        assert_eq!(prepare.txn(), Some(TxnId(8)));
        let decide = LogRecord::Decide {
            gid: 1,
            commit: true,
        };
        assert_eq!(decide.txn(), None);
        assert_eq!(txn_prepare(1, 1).txn(), Some(TxnId(42)));
        assert_eq!(txn_decide(1, 1).txn(), Some(TxnId(42)));
        assert_eq!(LogRecord::Compacted { span: 64 }.txn(), None);
    }

    #[test]
    fn decide_flag_byte_validated() {
        let enc = LogRecord::Decide {
            gid: 5,
            commit: false,
        }
        .encode();
        // the flag byte is the last payload byte; a non-boolean one must
        // be rejected even under a valid checksum
        let mut body = enc[8..].to_vec();
        *body.last_mut().unwrap() = 7;
        assert!(LogRecord::decode(&seal(&body)).is_err());
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
        // checksum deliberately covers only the header, so a compactor
        // never has to hash the dead bytes it overwrites
        for enc in [
            LogRecord::Compacted { span: 200 }.encode(),
            legacy(&LogRecord::Compacted { span: 200 }),
        ] {
            let mut padded = enc.clone();
            padded[60] = 0xAB;
            padded[150] ^= 0xFF;
            let (dec, _) = LogRecord::decode(&padded).unwrap();
            assert_eq!(dec, LogRecord::Compacted { span: 200 });
            // but the length is protected
            let mut bad = enc.clone();
            bad[0] ^= 0x01;
            assert!(LogRecord::decode(&bad).is_err());
        }
    }

    #[test]
    fn legacy_compacted_span_must_match_frame_length() {
        // a filler whose span field disagrees with the frame length would
        // desynchronize the LSN space — forge one and ensure it's rejected
        let mut enc = legacy(&LogRecord::Compacted { span: 80 });
        enc[5..13].copy_from_slice(&64u64.to_le_bytes());
        let sum = fnv1a(&enc[4..13]);
        enc[80 - 12..80 - 4].copy_from_slice(&sum.to_le_bytes());
        assert!(LogRecord::decode(&enc).is_err());
    }

    #[test]
    fn frame_len_tells_a_cut_frame_from_a_whole_one() {
        for enc in [
            LogRecord::Commit { txn: TxnId(1) }.encode(),
            legacy(&LogRecord::Commit { txn: TxnId(1) }),
        ] {
            assert_eq!(LogRecord::frame_len(&enc), Some(enc.len()));
            for cut in 0..enc.len() {
                assert_eq!(LogRecord::frame_len(&enc[..cut]), None, "cut at {cut}");
            }
            // a whole frame with a flipped payload byte is in hand, and corrupt
            let mut bad = enc.clone();
            bad[10] ^= 0x01;
            assert_eq!(LogRecord::frame_len(&bad), Some(bad.len()));
            assert!(LogRecord::decode(&bad).is_err());
        }
    }
}
