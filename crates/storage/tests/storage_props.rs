//! Property-based tests of the storage substrate: record addressing,
//! dirty tracking, captures and record-granular COU old copies against a
//! plain reference model, under arbitrary operation sequences. Every read
//! is an owned copy out of the one record store.

use mmdb_storage::Storage;
use mmdb_types::{CostMeter, CostParams, DbParams, Lsn, RecordId, SegmentId, Timestamp};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const N_RECORDS: u64 = 256; // 4 segments × 64 records
fn shape() -> DbParams {
    DbParams {
        s_db: 8 << 10,
        s_rec: 32,
        s_seg: 2048,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Install { rid: u64, fill: u32 },
    CouSave { sid: u32 },
    TakeOld { sid: u32 },
    Flush { sid: u32, copy: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..N_RECORDS, any::<u32>()).prop_map(|(rid, fill)| Op::Install { rid, fill }),
        2 => (0u32..4).prop_map(|sid| Op::CouSave { sid }),
        2 => (0u32..4).prop_map(|sid| Op::TakeOld { sid }),
        3 => ((0u32..4), (0u8..2)).prop_map(|(sid, copy)| Op::Flush { sid, copy }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn storage_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut storage = Storage::new(shape()).unwrap();
        let meter = CostMeter::new(CostParams::default());
        // reference: record → fill, plus per open COU copy the segment's
        // snapshot and the records saved into it so far
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut old_copies: HashMap<u32, (HashMap<u64, u32>, HashSet<u64>)> = HashMap::new();
        // per (segment, copy): set of records modified since last flush
        let mut dirty: HashMap<(u32, u8), bool> = HashMap::new();
        let mut lsn = 0u64;
        let mut tau = 0u64;

        for op in &ops {
            match *op {
                Op::Install { rid, fill } => {
                    lsn += 1;
                    tau += 1;
                    let sid = (rid / 64) as u32;
                    // the COU hook's discipline: an install into a segment
                    // with an open copy saves the record's pre-image first,
                    // once per copy
                    let save = storage.cou_save_record(RecordId(rid), &meter);
                    match old_copies.get_mut(&sid) {
                        Some((_, saved)) => prop_assert_eq!(save.unwrap(), saved.insert(rid)),
                        None => prop_assert!(save.is_err(), "save with no copy open"),
                    }
                    storage
                        .install_record(
                            RecordId(rid),
                            &[fill; 32],
                            Lsn(lsn),
                            Timestamp(tau),
                            &meter,
                        )
                        .unwrap();
                    reference.insert(rid, fill);
                    dirty.insert((sid, 0), true);
                    dirty.insert((sid, 1), true);
                }
                Op::CouSave { sid } => {
                    let had = storage.has_old(SegmentId(sid)).unwrap();
                    let result = storage.cou_save_old(SegmentId(sid), &meter);
                    if had {
                        prop_assert!(result.is_err(), "double save must fail");
                    } else {
                        result.unwrap();
                        // snapshot = current reference content of the segment
                        let snap: HashMap<u64, u32> = (sid as u64 * 64..(sid as u64 + 1) * 64)
                            .filter_map(|r| reference.get(&r).map(|f| (r, *f)))
                            .collect();
                        old_copies.insert(sid, (snap, HashSet::new()));
                    }
                }
                Op::TakeOld { sid } => {
                    let taken = storage.take_old(SegmentId(sid), &meter).ok();
                    match (taken, old_copies.remove(&sid)) {
                        (Some(old), Some((snap, _))) => {
                            // the old copy must hold the snapshot content
                            for r in sid as u64 * 64..(sid as u64 + 1) * 64 {
                                let expected = snap.get(&r).copied().unwrap_or(0);
                                let off = ((r % 64) * 32) as usize;
                                prop_assert_eq!(
                                    old.data[off], expected,
                                    "old copy of segment {} record {}", sid, r
                                );
                            }
                        }
                        (None, None) => {}
                        (a, b) => {
                            return Err(TestCaseError::fail(format!(
                                "old copy disagreement for segment {sid}: storage {:?} vs model {:?}",
                                a.is_some(),
                                b.is_some()
                            )))
                        }
                    }
                }
                Op::Flush { sid, copy } => {
                    let is_dirty = storage.is_dirty(SegmentId(sid), copy as usize).unwrap();
                    let expected = dirty.get(&(sid, copy)).copied().unwrap_or(false);
                    prop_assert_eq!(is_dirty, expected, "dirty bit for segment {} copy {}", sid, copy);
                    // the image a flush would write is the reference content,
                    // whichever way it is captured
                    let owned = storage.capture_copy(SegmentId(sid)).unwrap();
                    let cap = storage.capture(SegmentId(sid)).unwrap();
                    prop_assert_eq!(cap.data, &owned.data[..]);
                    for r in sid as u64 * 64..(sid as u64 + 1) * 64 {
                        let expected = reference.get(&r).copied().unwrap_or(0);
                        let off = ((r % 64) * 32) as usize;
                        prop_assert!(cap.data[off..off + 32].iter().all(|w| *w == expected));
                    }
                    let cap_version = cap.version;
                    prop_assert_eq!(cap_version, owned.version);
                    storage.mark_flushed(SegmentId(sid), copy as usize, cap_version).unwrap();
                    dirty.insert((sid, copy), false);
                }
            }
        }

        // final sweep: every record matches the reference
        for rid in 0..N_RECORDS {
            let expected = reference.get(&rid).copied().unwrap_or(0);
            let value = storage.read_record(RecordId(rid)).unwrap();
            prop_assert!(value.iter().all(|w| *w == expected), "record {}", rid);
        }
    }

    #[test]
    fn record_addressing_never_overlaps(rid_a in 0..N_RECORDS, rid_b in 0..N_RECORDS, fill in 1u32..) {
        prop_assume!(rid_a != rid_b);
        let mut storage = Storage::new(shape()).unwrap();
        let meter = CostMeter::new(CostParams::default());
        storage
            .install_record(RecordId(rid_a), &[fill; 32], Lsn(1), Timestamp(1), &meter)
            .unwrap();
        // the other record is untouched
        let other = storage.read_record(RecordId(rid_b)).unwrap();
        prop_assert!(other.iter().all(|w| *w == 0));
        // and the fingerprint changes iff content changes
        let f1 = storage.fingerprint();
        storage
            .install_record(RecordId(rid_b), &[fill ^ 1; 32], Lsn(2), Timestamp(2), &meter)
            .unwrap();
        prop_assert_ne!(storage.fingerprint(), f1);
    }

    #[test]
    fn load_segment_roundtrips_arbitrary_content(words in proptest::collection::vec(any::<u32>(), 2048)) {
        let mut storage = Storage::new(shape()).unwrap();
        let meter = CostMeter::new(CostParams::default());
        storage.load_segment(SegmentId(2), &words, Some(1), &meter).unwrap();
        prop_assert_eq!(storage.segment_data(SegmentId(2)).unwrap(), &words[..]);
        // records within the segment decode at the right offsets
        for r in 0..64u64 {
            let rid = 2 * 64 + r;
            let value = storage.read_record(RecordId(rid)).unwrap();
            prop_assert_eq!(value, &words[(r * 32) as usize..((r + 1) * 32) as usize]);
        }
    }
}
