//! Live log compaction (recovery pillar 2).
//!
//! Rotation alone bounds the *chunk size*, not the *replay window*: a
//! workload that keeps overwriting the same records accretes cold
//! chunks full of superseded after-images that recovery still has to
//! read. This pass rewrites cold chunks in place, replacing frames that
//! can no longer influence any future recovery with length-preserving
//! [`LogRecord::Compacted`] filler, so every surviving LSN is unchanged
//! and scanners, replication shipping, and `dump-archive` all keep
//! working on the rewritten log.
//!
//! **Drop rules** (conservative by construction):
//!
//! * A `TxnCommit` frame carries its own outcome: each of its writes is
//!   committed at the frame's LSN, and a write is dropped iff it is
//!   **superseded** — a later durably-committed write (a later frame, or
//!   a later write of the same frame) hits the same record. Replay
//!   installs in commit order, so dropping a non-winner changes
//!   intermediate values only, never the recovered state. The frame is
//!   re-encoded in place with its surviving writes, its start LSN
//!   unchanged, and the freed bytes behind it become filler; a frame with
//!   no surviving write becomes filler whole.
//! * The update frames of a cross-shard branch (and of every transaction
//!   in a log older than `TxnCommit`) are classified by the transaction's
//!   outcome: dropped iff it durably **aborted**, or it durably
//!   **committed**, was never **prepared** (two-phase branches stay
//!   intact for the resolver) and the update is superseded.
//! * Such outcomes bind to a transaction **instance**, never to a bare
//!   `TxnId`: ids restart at 1 every time the directory is opened, so a
//!   log written across re-opens reuses them. As in the replay core's
//!   `Resolver`, a `TxnBegin` starts a fresh instance of its id, and a
//!   `Commit`/`Abort`/`Prepare` resolves the instance opened since that
//!   id's last begin or outcome. Frames of an instance cut off by a
//!   later begin have no outcome.
//! * Everything else is kept: control frames (checkpoint markers,
//!   begin/commit/abort/prepare/decide), updates of instances with
//!   no durable outcome, all updates of prepared transactions, and any
//!   frame that crosses a chunk boundary (filler never spans chunks —
//!   chunk rewrites are atomic per chunk).
//!
//! **Eligibility:** only *cold* chunks (not the active tail) that lie
//! entirely below every pin — the replication truncation pins of
//! attached standbys and whatever checkpoint clamp the caller adds.
//! Classification itself only trusts the checksum-validated prefix of
//! the log ([`LogScanner`] is the arbiter, exactly as in recovery), and
//! chunks not fully inside that prefix are never touched.
//!
//! Compression (pillar 3) rides along: with [`CompactOptions::compress`]
//! set, an eligible chunk is rewritten `.logz` even when nothing is
//! droppable, and filler runs full of zeros make compressed chunks
//! dramatically smaller.

use mmdb_log::{LogDevice, LogRecord, LogScanner, MAX_TXN_FRAME_BYTES, MIN_COMPACTED_LEN};
use mmdb_obs::Obs;
use mmdb_types::{MmdbError, RecordId, Result, TxnId};
use std::collections::{HashMap, HashSet};

/// A `TxnCommit` frame with no writes: what remains of the frame's length
/// is its after-images.
const EMPTY_TXN_COMMIT_LEN: u64 = LogRecord::txn_commit_len(0, 0) as u64;

/// What the compactor may touch and how.
#[derive(Debug, Clone, Default)]
pub struct CompactOptions {
    /// LSN ceilings the pass must stay below (replication truncation
    /// pins, checkpoint clamps). A chunk is eligible only if it ends at
    /// or below *every* pin; an empty list means no ceiling.
    pub pins: Vec<u64>,
    /// Also rewrite eligible chunks compressed (`.logz`). Chunks that
    /// are already compressed stay compressed regardless.
    pub compress: bool,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Cold chunks inspected for droppable frames.
    pub chunks_examined: u64,
    /// Chunks rewritten (dropped frames and/or newly compressed).
    pub chunks_rewritten: u64,
    /// After-images newly replaced by filler this pass: update frames,
    /// and writes cut out of `TxnCommit` frames.
    pub frames_dropped: u64,
    /// Bytes of those images (the log stays the same logical length —
    /// this is dead weight turned into filler, which compression then
    /// collapses).
    pub bytes_reclaimed: u64,
    /// Physical bytes of the examined chunks before the pass.
    pub disk_bytes_before: u64,
    /// Physical bytes of those chunks after the pass.
    pub disk_bytes_after: u64,
}

/// One frame's place and the after-images it carries, from the validated
/// prefix.
struct FrameAt {
    start: u64,
    len: u64,
    /// One image for an update frame, one per write for a `TxnCommit`,
    /// none for anything else.
    images: Vec<Image>,
    /// Filler an earlier pass left: dead already.
    filler: bool,
}

struct Image {
    record: RecordId,
    outcome: Outcome,
    /// Orders the images one transaction wrote: the update frame's LSN,
    /// or the write's index within its `TxnCommit` frame.
    pos: u64,
}

/// Durable fate of the transaction instance that wrote an image.
#[derive(Clone, Copy)]
enum Outcome {
    /// None in the validated prefix: keep.
    Open,
    Aborted,
    /// Committed at `lsn`. A prepared branch is never dropped, but its
    /// images still supersede older ones.
    Committed {
        lsn: u64,
        prepared: bool,
    },
}

/// Runs one compaction pass over `device`. Devices without chunk
/// support (`chunk_map` empty) produce an all-zero report — the pass is
/// a no-op, not an error, so callers can run it unconditionally.
pub fn compact_device(
    device: &mut dyn LogDevice,
    opts: &CompactOptions,
    obs: &Obs,
) -> Result<CompactReport> {
    let mut report = CompactReport::default();
    let chunks = device.chunk_map();
    if chunks.len() < 2 {
        // nothing cold: zero or one (active) chunk
        return Ok(report);
    }
    let timer = obs.timer();

    // Classify the checksum-validated prefix, exactly the window
    // recovery would trust. Frames beyond it are never touched.
    let scanner = LogScanner::from_device(device)?;
    let valid_end = scanner.end_lsn().raw();
    let mut frames: Vec<FrameAt> = Vec::new();
    // Per id, the instance open right now: its update frames (indices
    // into `frames`) and whether it has prepared.
    let mut open: HashMap<TxnId, (Vec<usize>, bool)> = HashMap::new();
    for (lsn, rec) in scanner.forward_from(scanner.base_lsn()) {
        let mut images = Vec::new();
        match &rec {
            LogRecord::TxnBegin { txn, .. } => {
                // whatever an earlier incarnation left open under this
                // id stays without an outcome
                open.insert(*txn, Default::default());
            }
            LogRecord::Update { txn, record, .. } => {
                open.entry(*txn).or_default().0.push(frames.len());
                images.push(Image {
                    record: *record,
                    outcome: Outcome::Open,
                    pos: lsn.raw(),
                });
            }
            // its own outcome: every write is committed at the frame's LSN
            LogRecord::TxnCommit { writes, .. } => {
                images.extend(writes.iter().zip(0..).map(|((record, _), pos)| Image {
                    record: *record,
                    outcome: Outcome::Committed {
                        lsn: lsn.raw(),
                        prepared: false,
                    },
                    pos,
                }));
            }
            LogRecord::Prepare { txn, .. } => open.entry(*txn).or_default().1 = true,
            LogRecord::Commit { txn } | LogRecord::Abort { txn } => {
                let (updates, prepared) = open.remove(txn).unwrap_or_default();
                let resolved = match rec {
                    LogRecord::Commit { .. } => Outcome::Committed {
                        lsn: lsn.raw(),
                        prepared,
                    },
                    _ => Outcome::Aborted,
                };
                for i in updates {
                    frames[i].images[0].outcome = resolved;
                }
            }
            _ => {}
        }
        frames.push(FrameAt {
            start: lsn.raw(),
            len: rec.encoded_len() as u64,
            images,
            filler: matches!(rec, LogRecord::Compacted { .. }),
        });
    }

    // Winner per record: max (commit LSN, position) among durably
    // committed images.
    let mut winner: HashMap<RecordId, (u64, u64)> = HashMap::new();
    for image in frames.iter().flat_map(|f| &f.images) {
        if let Outcome::Committed { lsn, .. } = image.outcome {
            let key = (lsn, image.pos);
            let w = winner.entry(image.record).or_insert(key);
            *w = key.max(*w);
        }
    }
    let lost = |image: &Image| match image.outcome {
        Outcome::Aborted => true,
        Outcome::Committed {
            lsn,
            prepared: false,
        } => winner.get(&image.record) != Some(&(lsn, image.pos)),
        // a prepared branch, or no durable outcome: keep
        _ => false,
    };
    // How many of the frame's images no recovery needs, and the bytes at
    // the frame's end that go with them: the whole frame when it loses
    // every image, the freed images of a `TxnCommit` that loses some
    // (when they make a filler), nothing of a live frame.
    let dead = |f: &FrameAt| -> (u64, u64) {
        if f.filler {
            return (0, f.len); // dead already; merges into runs
        }
        let n = f.images.len() as u64;
        match f.images.iter().filter(|image| lost(image)).count() as u64 {
            0 => (0, 0),
            n_lost if n_lost == n => (n_lost, f.len),
            // a `TxnCommit` losing some of its equal-sized writes
            n_lost => match n_lost * (f.len - EMPTY_TXN_COMMIT_LEN) / n {
                freed if freed >= MIN_COMPACTED_LEN as u64 => (n_lost, freed),
                _ => (0, 0),
            },
        }
    };

    let ceiling = opts.pins.iter().copied().min().unwrap_or(u64::MAX);
    let bytes = device.read_all()?;
    let base = device.start_offset();
    let last = chunks.len() - 1;
    let mut examined: HashSet<u64> = HashSet::new();
    for chunk in &chunks[..last] {
        let end = chunk.start + chunk.len;
        if chunk.start < base || end > ceiling || end > valid_end {
            // The chunk straddles the truncation point (its head bytes
            // are no longer readable, and the whole chunk dies at the
            // next truncation past its end), is pinned by a standby, or
            // is not fully validated: leave it alone.
            continue;
        }
        report.chunks_examined += 1;
        report.disk_bytes_before += chunk.disk_bytes;
        examined.insert(chunk.start);

        // Dead bytes of the frames fully inside this chunk, merged into
        // contiguous runs. Boundary-crossing frames are copied verbatim.
        let mut runs: Vec<(u64, u64)> = Vec::new(); // (start, len), chunk-relative
        let mut shrunk: Vec<&FrameAt> = Vec::new();
        let mut new_drops = 0u64;
        let mut dropped_bytes = 0u64;
        for f in &frames {
            if f.start < chunk.start || f.start + f.len > end {
                continue;
            }
            let (drops, dead_len) = dead(f);
            if dead_len == 0 {
                continue;
            }
            if drops > 0 {
                new_drops += drops;
                dropped_bytes += dead_len;
            }
            if dead_len < f.len {
                shrunk.push(f);
            }
            let rel = f.start + f.len - dead_len - chunk.start;
            match runs.last_mut() {
                Some((s, l)) if *s + *l == rel => *l += dead_len,
                _ => runs.push((rel, dead_len)),
            }
        }
        let recompress = opts.compress && !chunk.compressed;
        if new_drops == 0 && !recompress {
            continue; // pre-existing fillers alone are no new gain
        }

        let off = (chunk.start - base) as usize;
        let mut rewritten = bytes[off..off + chunk.len as usize].to_vec();
        for f in shrunk {
            // the frame again, at the same LSN, with its winning writes
            let rel = (f.start - chunk.start) as usize;
            let (rec, _) = LogRecord::decode(&rewritten[rel..rel + f.len as usize])?;
            let LogRecord::TxnCommit { txn, writes } = rec else {
                return Err(MmdbError::Corrupt(format!(
                    "frame at {} is no longer the TxnCommit it was classified as",
                    f.start
                )));
            };
            let kept = writes
                .iter()
                .zip(&f.images)
                .filter_map(|((record, image), was)| {
                    (!lost(was)).then_some((*record, image.as_slice()))
                });
            let mut frame = Vec::with_capacity(f.len as usize);
            LogRecord::encode_txn_commit(txn, kept.collect::<Vec<_>>().into_iter(), &mut frame);
            rewritten[rel..rel + frame.len()].copy_from_slice(&frame);
        }
        for &(mut rel, mut len) in &runs {
            debug_assert!(len as usize >= MIN_COMPACTED_LEN);
            // One filler per run, or several when the run is longer than
            // any frame a reader is bound to take whole (a standby's
            // pull, recovery's window): no piece over the bound, none too
            // short to be a frame.
            while len > 0 {
                let mut span = len.min(MAX_TXN_FRAME_BYTES as u64);
                if len - span > 0 && len - span < MIN_COMPACTED_LEN as u64 {
                    span -= MIN_COMPACTED_LEN as u64;
                }
                let mut filler = Vec::with_capacity(span as usize);
                LogRecord::Compacted { span }.encode_into(&mut filler);
                if filler.len() as u64 != span {
                    return Err(MmdbError::Invalid(format!(
                        "filler frame for a {span}-byte run encoded to {} bytes",
                        filler.len()
                    )));
                }
                rewritten[rel as usize..(rel + span) as usize].copy_from_slice(&filler);
                rel += span;
                len -= span;
            }
        }
        device.rewrite_chunk(chunk.start, &rewritten, opts.compress)?;
        report.chunks_rewritten += 1;
        report.frames_dropped += new_drops;
        report.bytes_reclaimed += dropped_bytes;
    }
    // Re-read physical sizes for the chunks we examined.
    for chunk in device.chunk_map() {
        if examined.contains(&chunk.start) {
            report.disk_bytes_after += chunk.disk_bytes;
        }
    }

    obs.counter("compact.runs", 1);
    obs.counter("compact.frames_dropped", report.frames_dropped);
    obs.counter("compact.chunks_rewritten", report.chunks_rewritten);
    obs.counter("compact.bytes_reclaimed", report.bytes_reclaimed);
    obs.phase_hist(
        "compact.pass",
        "compact.pass_ns",
        timer,
        report.chunks_rewritten,
    );
    Ok(report)
}
