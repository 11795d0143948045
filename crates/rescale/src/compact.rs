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
//! **Drop rule:** only `TxnCommit` writes are ever dropped. A `TxnCommit`
//! frame carries its own outcome: each of its writes is committed at the
//! frame's LSN, and a write is dropped iff it is **superseded** — a later
//! `TxnCommit` write (a later frame, or a later write of the same frame)
//! hits the same record. Replay installs in commit order, so dropping a
//! non-winner changes intermediate values only, never the recovered
//! state. The frame is re-encoded in place with its surviving writes, its
//! start LSN unchanged, and the freed bytes behind it become filler; a
//! frame with no surviving write becomes filler whole.
//!
//! Every other frame survives verbatim: control frames (checkpoint
//! markers, prepare/decide), cross-shard branches — their `TxnPrepare`
//! frames, or an older log's begin/update/prepare runs, and their
//! commit/abort, whether committed, aborted or in doubt — the
//! transactions of logs written before `TxnCommit` existed, and any frame
//! that crosses a chunk boundary (filler never spans chunks — chunk
//! rewrites are atomic per chunk). A branch's writes never count as
//! superseding a `TxnCommit` write, so whichever of the two commits last
//! still replays last.
//!
//! **Eligibility:** only *cold* chunks (not the active tail) that lie
//! entirely below every pin — the replication truncation pins of
//! attached standbys and whatever checkpoint clamp the caller adds.
//! Classification only trusts the checksum-validated prefix of the log
//! ([`LogStream::validate`], recovery's own first pass), and chunks not
//! fully inside that prefix are never touched.
//!
//! **Memory:** two streamed passes, never the log whole. The validation
//! pass holds the stream's window and keeps the winning write per record
//! and where each chunk's first whole frame starts; the rewrite pass reads
//! one eligible chunk at a time into one reused buffer.
//!
//! Compression (pillar 3) rides along: with [`CompactOptions::compress`]
//! set, an eligible chunk is rewritten `.logz` even when nothing is
//! droppable, and filler runs full of zeros make compressed chunks
//! dramatically smaller.

use mmdb_log::{LogDevice, LogRecord, LogStream, MAX_TXN_FRAME_BYTES, MIN_COMPACTED_LEN};
use mmdb_obs::Obs;
use mmdb_types::{MmdbError, RecordId, Result};
use std::collections::{HashMap, HashSet};

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
    /// After-images newly replaced by filler this pass: the writes cut
    /// out of `TxnCommit` frames.
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

    // Pass 1: the checksum-validated prefix, exactly the window recovery
    // would trust (frames beyond it are never touched). Frames arrive in
    // log order, so the last `TxnCommit` write of a record is its winner.
    let mut winner: HashMap<RecordId, (u64, usize)> = HashMap::new();
    // per chunk, the first frame boundary at or after its start
    let mut heads: Vec<u64> = Vec::with_capacity(chunks.len());
    let window = LogStream::new(&mut *device).validate(|lsn, rec, _| {
        let lsn = lsn.raw();
        while heads.len() < chunks.len() && chunks[heads.len()].start <= lsn {
            heads.push(lsn);
        }
        if let LogRecord::TxnCommit { writes, .. } = rec {
            for (pos, (record, _)) in writes.iter().enumerate() {
                winner.insert(*record, (lsn, pos));
            }
        }
    })?;
    let valid_end = window.end_lsn().raw();
    heads.resize(chunks.len(), valid_end);

    // Pass 2: each eligible cold chunk, read whole into one buffer.
    let ceiling = opts.pins.iter().copied().min().unwrap_or(u64::MAX);
    let base = device.start_offset();
    let mut examined: HashSet<u64> = HashSet::new();
    let (mut buf, mut frame) = (Vec::new(), Vec::new());
    for (chunk, &head) in chunks[..chunks.len() - 1].iter().zip(&heads) {
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
        buf.resize(chunk.len as usize, 0);
        device.read_at(chunk.start, &mut buf)?;

        // Dead bytes of the frames wholly inside this chunk, merged into
        // contiguous `(start, len)` runs; losing writes are cut out of
        // their frames in `buf` as the walk passes them. A frame the
        // chunk's end cuts short stops the walk and is kept verbatim.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut new_drops = 0u64;
        let mut dropped_bytes = 0u64;
        let mut rel = (head.min(end) - chunk.start) as usize;
        while let Ok((rec, used)) = LogRecord::decode_verified(&buf[rel..]) {
            let lsn = chunk.start + rel as u64;
            // (writes dropped, dead bytes at the frame's end)
            let (drops, dead_len) = match rec {
                LogRecord::Compacted { .. } => (0, used), // dead already; merges into runs
                LogRecord::TxnCommit { txn, writes } => {
                    let kept: Vec<_> = (writes.iter().enumerate())
                        .filter(|&(pos, (record, _))| winner.get(record) == Some(&(lsn, pos)))
                        .map(|(_, (record, image))| (*record, &image[..]))
                        .collect();
                    let lost = (writes.len() - kept.len()) as u64;
                    if lost == 0 {
                        (0, 0)
                    } else if kept.is_empty() {
                        (lost, used)
                    } else {
                        // the frame again, at the same LSN, with its
                        // winning writes — when the bytes it frees make
                        // a filler
                        frame.clear();
                        LogRecord::encode_txn(txn, None, kept.into_iter(), &mut frame);
                        match used - frame.len() {
                            freed if freed >= MIN_COMPACTED_LEN => {
                                buf[rel..rel + frame.len()].copy_from_slice(&frame);
                                (lost, freed)
                            }
                            _ => (0, 0),
                        }
                    }
                }
                _ => (0, 0),
            };
            if drops > 0 {
                new_drops += drops;
                dropped_bytes += dead_len as u64;
            }
            if dead_len > 0 {
                let at = rel + used - dead_len;
                match runs.last_mut() {
                    Some((s, l)) if *s + *l == at => *l += dead_len,
                    _ => runs.push((at, dead_len)),
                }
            }
            rel += used;
        }
        let recompress = opts.compress && !chunk.compressed;
        if new_drops == 0 && !recompress {
            continue; // pre-existing fillers alone are no new gain
        }

        for &(mut rel, mut len) in &runs {
            debug_assert!(len >= MIN_COMPACTED_LEN);
            // One filler per run, or several when the run is longer than
            // any frame a reader is bound to take whole (a standby's
            // pull, recovery's window): no piece over the bound, none too
            // short to be a frame.
            while len > 0 {
                let mut span = len.min(MAX_TXN_FRAME_BYTES);
                if len - span > 0 && len - span < MIN_COMPACTED_LEN {
                    span -= MIN_COMPACTED_LEN;
                }
                frame.clear();
                LogRecord::Compacted { span: span as u64 }.encode_into(&mut frame);
                if frame.len() != span {
                    return Err(MmdbError::Invalid(format!(
                        "filler frame for a {span}-byte run encoded to {} bytes",
                        frame.len()
                    )));
                }
                buf[rel..rel + span].copy_from_slice(&frame);
                rel += span;
                len -= span;
            }
        }
        device.rewrite_chunk(chunk.start, &buf, opts.compress)?;
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
