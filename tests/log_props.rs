//! Property-based tests of the log substrate: arbitrary record streams
//! must round-trip through the frame encoding, read forward identically
//! when older-envelope frames are mixed in, survive torn tails, and read
//! the same off a device as off a pulled batch.

// Test helpers exercise infallible setup paths; panicking on them is the point.
#![allow(clippy::unwrap_used)]

use mmdb::log::{LogDevice, LogRecord, LogStream, LogWindow, MemLogDevice, Stop};
use mmdb::types::hash::fnv1a;
use mmdb::types::{CheckpointId, Lsn, RecordId, Timestamp, TxnId};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(t, tau)| LogRecord::TxnBegin {
            txn: TxnId(t),
            tau: Timestamp(tau),
        }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..64)
        )
            .prop_map(|(t, r, value)| LogRecord::Update {
                txn: TxnId(t),
                record: RecordId(r),
                value,
            }),
        any::<u64>().prop_map(|t| LogRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| LogRecord::Abort { txn: TxnId(t) }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>().prop_map(TxnId), 0..8)
        )
            .prop_map(|(c, tau, active)| LogRecord::BeginCheckpoint {
                ckpt: CheckpointId(c),
                tau: Timestamp(tau),
                active,
            }),
        any::<u64>().prop_map(|c| LogRecord::EndCheckpoint {
            ckpt: CheckpointId(c)
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(t, gid)| LogRecord::Prepare { txn: TxnId(t), gid }),
        (any::<u64>(), any::<bool>()).prop_map(|(gid, commit)| LogRecord::Decide { gid, commit }),
        (25u64..300).prop_map(|span| LogRecord::Compacted { span }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..6),
            0usize..9,
            any::<u32>(),
        )
            .prop_map(|(t, records, words, fill)| LogRecord::TxnCommit {
                txn: TxnId(t),
                writes: (records.into_iter())
                    .map(|r| (RecordId(r), vec![fill; words]))
                    .collect(),
            }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..6),
            0usize..9,
        )
            .prop_map(|(t, gid, records, words)| LogRecord::TxnPrepare {
                txn: TxnId(t),
                gid,
                writes: (records.into_iter())
                    .map(|r| (RecordId(r), vec![r as u32; words]))
                    .collect(),
            }),
    ]
}

/// `rec` in the envelope a binary from before the CRC-32C header wrote:
/// `len · tag · payload · fnv64 · len`, a fixed-width `TxnCommit` and an
/// 8-byte filler span.
fn legacy(rec: &LogRecord) -> Vec<u8> {
    let mut body = match rec {
        LogRecord::TxnCommit { txn, writes } => {
            let words = writes.first().map_or(0, |(_, image)| image.len());
            let mut body = vec![10];
            body.extend(txn.raw().to_le_bytes());
            body.extend((writes.len() as u32).to_le_bytes());
            body.extend((words as u32).to_le_bytes());
            for (record, image) in writes {
                body.extend(record.raw().to_le_bytes());
                body.extend(image.iter().flat_map(|w| w.to_le_bytes()));
            }
            body
        }
        LogRecord::Compacted { span } => {
            let mut body = vec![9];
            body.extend(span.to_le_bytes());
            body.resize(*span as usize - 16, 0);
            body
        }
        // the other payloads did not change: everything after the
        // current 8-byte header
        _ => rec.encode()[8..].to_vec(),
    };
    let total = (body.len() + 16) as u32;
    let sum = fnv1a(if body[0] == 9 { &body[..9] } else { &body });
    let mut out = total.to_le_bytes().to_vec();
    out.append(&mut body);
    out.extend(sum.to_le_bytes());
    out.extend(total.to_le_bytes());
    out
}

/// The frames of `recs`, those picked by `older` in the older envelope
/// (never a `TxnPrepare`, which no older binary wrote), and the offset
/// each frame ends at.
fn mixed(recs: &[LogRecord], older: &[bool]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for (r, &old) in recs.iter().zip(older.iter().cycle()) {
        match old && !matches!(r, LogRecord::TxnPrepare { .. }) {
            true => bytes.extend(legacy(r)),
            false => r.encode_into(&mut bytes),
        }
        ends.push(bytes.len());
    }
    (bytes, ends)
}

/// What a validation pass over `bytes`, read as a batch at LSN 0,
/// accepts: the window and every frame.
fn validated(bytes: &[u8]) -> (LogWindow, Vec<(Lsn, LogRecord)>) {
    let mut frames = Vec::new();
    let window = (LogStream::over(Lsn::ZERO, bytes))
        .validate(|lsn, rec, _| frames.push((lsn, rec.clone())))
        .unwrap();
    (window, frames)
}

/// Every frame one verified pass over `stream`'s input accepts, where it
/// stopped and why.
fn read_through(stream: &mut LogStream) -> (Vec<(Lsn, LogRecord)>, Lsn, Stop) {
    let mut frames = Vec::new();
    let (end, stop) = stream
        .read(Lsn::ZERO, |lsn, rec, _| {
            frames.push((lsn, rec));
            Ok(())
        })
        .unwrap();
    (frames, end, stop)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn encode_decode_roundtrip(rec in record_strategy()) {
        let bytes = rec.encode();
        prop_assert_eq!(bytes.len(), rec.encoded_len());
        let (decoded, used) = LogRecord::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&decoded.encode(), &bytes);
        prop_assert_eq!(decoded, rec);
    }

    #[test]
    fn mixed_format_stream_round_trips_forward(
        recs in proptest::collection::vec(record_strategy(), 0..50),
        older in proptest::collection::vec(any::<bool>(), 1..8),
    ) {
        let (bytes, ends) = mixed(&recs, &older);
        let (window, forward) = validated(&bytes);
        prop_assert_eq!(window.end_lsn().raw() as usize, ends.last().copied().unwrap_or(0));
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let want: Vec<_> = (starts.zip(&recs))
            .map(|(at, rec)| (Lsn(at as u64), rec.clone()))
            .collect();
        prop_assert_eq!(forward, want);
    }

    #[test]
    fn torn_tail_keeps_exactly_the_intact_prefix(
        recs in proptest::collection::vec(record_strategy(), 1..30),
        older in proptest::collection::vec(any::<bool>(), 1..8),
        cut_back in 1usize..64,
    ) {
        let (bytes, ends) = mixed(&recs, &older);
        let mut boundaries = vec![0usize];
        boundaries.extend(&ends);
        // tear somewhere inside the last record (or further back)
        let cut = bytes.len().saturating_sub(cut_back.min(bytes.len() - boundaries[boundaries.len() - 2] + 1).max(1));
        let (window, frames) = validated(&bytes[..cut]);
        // the validated prefix must end exactly at a record boundary ≤ cut
        let expected_intact = boundaries.iter().rev().find(|&&b| b <= cut).copied().unwrap();
        prop_assert_eq!(window.end_lsn().raw() as usize, expected_intact);
        // and every surviving record decodes to the original
        let survivors = boundaries.iter().filter(|&&b| b < expected_intact).count();
        let scanned: Vec<_> = frames.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(scanned.len(), survivors);
        prop_assert_eq!(&scanned[..], &recs[..survivors]);
    }

    #[test]
    fn corruption_never_panics(
        recs in proptest::collection::vec(record_strategy(), 1..10),
        older in proptest::collection::vec(any::<bool>(), 1..8),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (mut bytes, _) = mixed(&recs, &older);
        let i = flip_at % bytes.len();
        bytes[i] ^= 1 << flip_bit;
        // scanning corrupt data must terminate cleanly, never panic, and
        // only yield records that decode (prefix property)
        let (window, frames) = validated(&bytes);
        prop_assert!(frames.len() <= recs.len());
        let _ = window.last_complete_checkpoint();
    }

    #[test]
    fn a_device_and_a_pulled_batch_read_the_same_frames(
        recs in proptest::collection::vec(record_strategy(), 1..20),
        older in proptest::collection::vec(any::<bool>(), 1..8),
        base in 1u64..1 << 40,
        at in any::<usize>(),
        flip in 0u8..9,
    ) {
        // torn at any byte (`flip` 8), or one bit flipped
        let (mut bytes, ends) = mixed(&recs, &older);
        let at = at % bytes.len();
        match flip {
            8 => bytes.truncate(at),
            bit => bytes[at] ^= 1 << bit,
        }
        let mut device = MemLogDevice::new();
        device.append(&bytes).unwrap();
        let (stored, stored_end, stored_stop) = read_through(&mut LogStream::new(&mut device));
        let (pulled, pulled_end, pulled_stop) = read_through(&mut LogStream::over(Lsn(base), &bytes));
        let shifted: Vec<_> = (stored.into_iter())
            .map(|(lsn, rec)| (Lsn(lsn.raw() + base), rec))
            .collect();
        prop_assert_eq!(shifted, pulled);
        prop_assert_eq!(stored_end.raw() + base, pulled_end.raw());
        prop_assert_eq!(
            std::mem::discriminant(&stored_stop),
            std::mem::discriminant(&pulled_stop),
            "{:?} vs {:?}", stored_stop, pulled_stop
        );
        // a tear on a frame boundary is the end of the input; inside a
        // frame, a cut
        if flip == 8 {
            let on_boundary = at == 0 || ends.contains(&at);
            prop_assert_eq!(matches!(pulled_stop, Stop::End), on_boundary);
            prop_assert_eq!(matches!(pulled_stop, Stop::Cut), !on_boundary);
        }
    }
}
