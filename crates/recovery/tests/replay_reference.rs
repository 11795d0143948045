//! Differential test of the replay core against a naive reference
//! replayer that exists only here: decode everything, index it, sort the
//! commits by LSN, apply. The reference shares no staging, resolution or
//! window code with the core; the two must agree on the recovered
//! contents and on every resolution field of the report, on intact, torn
//! and bit-flipped logs alike.

#![allow(clippy::unwrap_used, clippy::type_complexity)]

use mmdb_disk::{BackupStore, MemBackup};
use mmdb_log::{LogDevice, LogRecord, MemLogDevice};
use mmdb_obs::Obs;
use mmdb_recovery::{recover_observed, InDoubtTxn, RecoveryReport};
use mmdb_storage::Storage;
use mmdb_types::{
    hash::fnv1a_words, CheckpointId, CostMeter, CostParams, DbParams, Lsn, Params, RecordId,
    SegmentId, Timestamp, TxnId, Word,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const CKPT: CheckpointId = CheckpointId(3);

/// What the naive replayer concludes from a crashed log.
#[derive(Debug, PartialEq)]
struct Expected {
    fingerprint: u64,
    replay_start: Lsn,
    in_doubt: Vec<InDoubtTxn>,
    decisions: Vec<(u64, bool)>,
    max_gid: u64,
    txns_replayed: u64,
    txns_discarded: u64,
}

/// The database image every test backup holds: segment `s` is all `1000 + s`.
fn backup_image(db: &DbParams) -> Vec<Word> {
    (0..db.n_segments())
        .flat_map(|s| vec![1000 + s as Word; db.s_seg as usize])
        .collect()
}

/// The reference: `None` when the valid window holds no begin marker for
/// [`CKPT`] (recovery must then fail).
fn reference(db: &DbParams, log: &[u8]) -> Option<Expected> {
    // decode everything up to the first bad frame
    let mut recs: Vec<(u64, LogRecord)> = Vec::new();
    let mut pos = 0usize;
    while let Ok((rec, used)) = LogRecord::decode(&log[pos..]) {
        recs.push((pos as u64, rec));
        pos += used;
    }
    let mark = recs.iter().rposition(
        |(_, r)| matches!(r, LogRecord::BeginCheckpoint { ckpt, .. } if *ckpt == CKPT),
    )?;
    let LogRecord::BeginCheckpoint { active, .. } = &recs[mark].1 else {
        unreachable!()
    };
    // the window opens at the nearest begin of the oldest active
    // transaction, when no outcome of it lies between that begin and the
    // marker (a transaction with an outcome is no longer active)
    let start = active
        .iter()
        .filter_map(|t| {
            let last = recs[..mark]
                .iter()
                .rposition(|(_, r)| r.txn() == Some(*t))?;
            let begins = |r: &LogRecord| {
                matches!(r, LogRecord::TxnBegin { .. } | LogRecord::TxnPrepare { .. })
            };
            let decides = |r: &LogRecord| {
                matches!(
                    r,
                    LogRecord::Commit { .. }
                        | LogRecord::Abort { .. }
                        | LogRecord::TxnCommit { .. }
                        | LogRecord::TxnDecide { .. }
                )
            };
            let ours = recs[..=last].iter().enumerate().rev();
            let mut ours = ours.filter(|(_, (_, r))| r.txn() == Some(*t));
            ours.find(|(_, (_, r))| begins(r) || decides(r))
                .filter(|(_, (_, r))| begins(r))
                .map(|(i, _)| i)
        })
        .min()
        .unwrap_or(mark);
    let window = &recs[start..];

    // per transaction: the updates since its last begin or outcome, and
    // its parking; a `TxnCommit` is a commit of exactly its own writes,
    // and so is a `TxnDecide`, which is also the decision for its gid
    let mut image = backup_image(db);
    let mut commits: Vec<(u64, Vec<(RecordId, Vec<Word>)>)> = Vec::new();
    let mut open: BTreeMap<TxnId, Vec<(RecordId, Vec<Word>)>> = BTreeMap::new();
    let mut parked: BTreeMap<TxnId, u64> = BTreeMap::new();
    let mut decisions: BTreeMap<u64, bool> = BTreeMap::new();
    let mut max_gid = 0;
    for (lsn, rec) in window {
        match rec {
            LogRecord::TxnCommit { txn, writes } => {
                commits.push((*lsn, writes.clone()));
                parked.remove(txn);
            }
            LogRecord::TxnDecide { txn, gid, writes } => {
                commits.push((*lsn, writes.clone()));
                parked.remove(txn);
                decisions.insert(*gid, true);
                max_gid = max_gid.max(*gid);
            }
            LogRecord::TxnBegin { txn, .. } => {
                open.insert(*txn, Vec::new());
            }
            LogRecord::TxnPrepare { txn, gid, writes } => {
                open.insert(*txn, writes.clone());
                parked.insert(*txn, *gid);
                max_gid = max_gid.max(*gid);
            }
            LogRecord::Update { txn, record, value } => {
                open.entry(*txn).or_default().push((*record, value.clone()));
            }
            LogRecord::Commit { txn } => {
                commits.push((*lsn, open.remove(txn).unwrap_or_default()));
                parked.remove(txn);
            }
            LogRecord::Abort { txn } => {
                open.remove(txn);
                parked.remove(txn);
            }
            LogRecord::Prepare { txn, gid } => {
                parked.insert(*txn, *gid);
                max_gid = max_gid.max(*gid);
            }
            LogRecord::Decide { gid, commit } => {
                decisions.insert(*gid, *commit);
                max_gid = max_gid.max(*gid);
            }
            _ => {}
        }
    }
    commits.sort_by_key(|(lsn, _)| *lsn);
    for (record, value) in commits.iter().flat_map(|(_, writes)| writes) {
        let at = (record.raw() * db.s_rec) as usize;
        image[at..at + value.len()].copy_from_slice(value);
    }
    let mut in_doubt: Vec<InDoubtTxn> = parked
        .iter()
        .map(|(&txn, &gid)| InDoubtTxn {
            gid,
            txn,
            writes: open.remove(&txn).unwrap_or_default(),
        })
        .collect();
    in_doubt.sort_by_key(|t| (t.gid, t.txn));
    Some(Expected {
        fingerprint: fnv1a_words(&image),
        replay_start: Lsn(window[0].0),
        in_doubt,
        decisions: decisions.into_iter().collect(),
        max_gid,
        txns_replayed: commits.len() as u64,
        txns_discarded: open.len() as u64,
    })
}

/// Recovers `log` over the test backup.
fn recover(db: DbParams, log: &[u8]) -> mmdb_types::Result<(RecoveryReport, Storage)> {
    let mut backup = MemBackup::new(db);
    backup.begin_checkpoint(1, CKPT).unwrap();
    for (s, image) in backup_image(&db).chunks(db.s_seg as usize).enumerate() {
        backup.write_segment(1, SegmentId(s as u32), image).unwrap();
    }
    backup.complete_checkpoint(1, CKPT).unwrap();
    let mut device = MemLogDevice::new();
    device.append(log).unwrap();
    let mut storage = Storage::new(db).unwrap();
    let report = recover_observed(
        &mut storage,
        &mut backup,
        &mut device,
        &Params::small().disk,
        &CostMeter::new(CostParams::default()),
        &Obs::disabled(),
    )?;
    Ok((report, storage))
}

/// The core agrees with the reference.
fn check(log: &[u8]) -> Option<Expected> {
    let db = Params::small().db;
    let want = reference(&db, log);
    let got = recover(db, log);
    let Some(want) = want else {
        assert!(got.is_err(), "recovered without a marker");
        return None;
    };
    let (report, storage) = got.unwrap();
    let seen = Expected {
        fingerprint: storage.fingerprint(),
        replay_start: report.replay_start,
        in_doubt: report.in_doubt,
        decisions: report.decisions,
        max_gid: report.max_gid,
        txns_replayed: report.txns_replayed,
        txns_discarded: report.txns_discarded,
    };
    assert_eq!(seen, want, "core vs reference");
    Some(want)
}

#[derive(Debug, Clone)]
enum Step {
    /// A whole transaction in one `TxnCommit` frame: `(record, fill)` writes.
    Txn(u64, Vec<(u64, Word)>),
    /// A whole prepared branch in one `TxnPrepare` frame: txn, gid, writes.
    Branch(u64, u64, Vec<(u64, Word)>),
    /// A coordinator's branch in one `TxnDecide` frame, the commit point
    /// of its gid: txn, gid, writes.
    Point(u64, u64, Vec<(u64, Word)>),
    Begin(u64),
    Update(u64, u64, Word),
    Commit(u64),
    Abort(u64),
    Prepare(u64, u64),
    Decide(u64, bool),
}

fn encode(steps: &[Step], out: &mut Vec<u8>) {
    let s_rec = Params::small().db.s_rec as usize;
    let images = |writes: &[(u64, Word)]| {
        (writes.iter())
            .map(|&(rid, fill)| (RecordId(rid), vec![fill; s_rec]))
            .collect()
    };
    for step in steps {
        match *step {
            Step::Txn(t, ref writes) => LogRecord::TxnCommit {
                txn: TxnId(t),
                writes: images(writes),
            },
            Step::Branch(t, gid, ref writes) => LogRecord::TxnPrepare {
                txn: TxnId(t),
                gid,
                writes: images(writes),
            },
            Step::Point(t, gid, ref writes) => LogRecord::TxnDecide {
                txn: TxnId(t),
                gid,
                writes: images(writes),
            },
            Step::Begin(t) => LogRecord::TxnBegin {
                txn: TxnId(t),
                tau: Timestamp(t),
            },
            Step::Update(t, rid, fill) => LogRecord::Update {
                txn: TxnId(t),
                record: RecordId(rid),
                value: vec![fill; s_rec],
            },
            Step::Commit(t) => LogRecord::Commit { txn: TxnId(t) },
            Step::Abort(t) => LogRecord::Abort { txn: TxnId(t) },
            Step::Prepare(t, gid) => LogRecord::Prepare { txn: TxnId(t), gid },
            Step::Decide(gid, commit) => LogRecord::Decide { gid, commit },
        }
        .encode_into(out);
    }
}

/// `before`, the begin marker of [`CKPT`] listing `active`, then `after`.
/// Returns the log and the offset just past the marker.
fn crashed_log(before: &[Step], active: &[u64], after: &[Step]) -> (Vec<u8>, usize) {
    let mut log = Vec::new();
    encode(before, &mut log);
    LogRecord::BeginCheckpoint {
        ckpt: CKPT,
        tau: Timestamp(99),
        active: active.iter().map(|&t| TxnId(t)).collect(),
    }
    .encode_into(&mut log);
    let tail_at = log.len();
    encode(after, &mut log);
    (log, tail_at)
}

/// A whole committed transaction, in the frames an older engine wrote for
/// a cross-shard branch (and, before `TxnCommit`, for every transaction).
fn txn(t: u64, records: &[u64], fill: Word) -> Vec<Step> {
    let mut steps = vec![Step::Begin(t)];
    steps.extend(records.iter().map(|&r| Step::Update(t, r, fill)));
    steps.push(Step::Commit(t));
    steps
}

#[test]
fn aborted_tail_case() {
    // a crash state whose tail holds two commits and an abort
    let mut after = txn(1, &[0, 550], 8);
    after.extend(txn(2, &[550, 1, 901], 9));
    after.extend([
        Step::Begin(3),
        Step::Update(3, 2, 99),
        Step::Update(3, 700, 99),
    ]);
    after.push(Step::Abort(3));
    let want = check(&crashed_log(&txn(0, &[0, 100, 2000], 7), &[], &after).0).unwrap();
    assert_eq!(want.txns_replayed, 2);
    assert_eq!(want.txns_discarded, 0);
}

#[test]
fn in_doubt_branch_case() {
    // a prepared branch with no outcome behind a commit
    let mut after = txn(1, &[10], 2);
    after.extend([
        Step::Begin(2),
        Step::Update(2, 20, 3),
        Step::Update(2, 21, 3),
    ]);
    after.push(Step::Prepare(2, 77));
    let want = check(&crashed_log(&[], &[], &after).0).unwrap();
    assert_eq!(want.in_doubt.len(), 1);
    assert_eq!((want.in_doubt[0].gid, want.in_doubt[0].txn), (77, TxnId(2)));
    assert_eq!(want.in_doubt[0].writes.len(), 2);
    assert_eq!(want.max_gid, 77);
}

#[test]
fn corrupt_update_payload_ends_the_log() {
    // One flipped byte inside the after-image of the first update past
    // the marker: the frame is structurally whole, its checksum is bad,
    // so the log ends there and both commits behind it vanish.
    let mut after = txn(1, &[5, 6, 7], 2);
    after.extend(txn(2, &[5], 3));
    let (mut log, tail_at) = crashed_log(&txn(0, &[0, 100], 1), &[], &after);
    let begin_len = LogRecord::TxnBegin {
        txn: TxnId(1),
        tau: Timestamp(1),
    }
    .encoded_len();
    log[tail_at + begin_len + 30] ^= 0xff;
    let want = check(&log).unwrap();
    assert_eq!(want.txns_replayed, 0);
    assert_eq!(
        want.fingerprint,
        fnv1a_words(&backup_image(&Params::small().db))
    );
}

#[test]
fn fuzzy_marker_extends_the_window_to_the_oldest_active_begin() {
    // txn 1 began and logged an update before the marker and commits
    // after it; txn 0 committed before txn 1 began and is outside.
    let mut before = txn(0, &[9], 4);
    before.extend([Step::Begin(1), Step::Update(1, 70, 5)]);
    let after = [Step::Update(1, 71, 5), Step::Commit(1)];
    let (log, _) = crashed_log(&before, &[1], &after);
    let want = check(&log).unwrap();
    assert_eq!(want.txns_replayed, 1);
    assert!(want.replay_start > Lsn::ZERO);
}

#[test]
fn reused_id_does_not_commit_an_earlier_incarnations_open_update() {
    // Ids start over at 1 with every open of a directory. The first
    // incarnation logged an update of record 40 under id 1 and was killed
    // before any outcome; the second reuses id 1 for a transaction that
    // writes record 41 only. Its commit must not install record 40.
    let db = Params::small().db;
    let first = [Step::Begin(1), Step::Update(1, 40, 7)];
    let second = [Step::Begin(1), Step::Update(1, 41, 8), Step::Commit(1)];
    let (log, _) = crashed_log(&[], &[], &[&first[..], &second[..]].concat());
    let want = check(&log).unwrap();
    assert_eq!((want.txns_replayed, want.txns_discarded), (1, 0));
    let (_, storage) = recover(db, &log).unwrap();
    let checkpointed = backup_image(&db)[(40 * db.s_rec) as usize];
    assert_eq!(storage.read_record(RecordId(40)).unwrap()[0], checkpointed);
    assert_eq!(storage.read_record(RecordId(41)).unwrap()[0], 8);
}

#[test]
fn mixed_old_and_txn_commit_frames_replay_in_log_order() {
    // An old-frame transaction, a `TxnCommit` and a prepared branch take
    // turns at record 5 around the marker; the last commit in the log wins
    // and the undecided branch stays in doubt with its image.
    let mut before = txn(1, &[5, 6], 1);
    before.push(Step::Txn(2, vec![(5, 2)]));
    let mut after = vec![Step::Txn(1, vec![(5, 3), (7, 3)])];
    after.extend(txn(2, &[5], 4));
    after.extend([Step::Begin(3), Step::Update(3, 5, 9), Step::Prepare(3, 6)]);
    after.push(Step::Txn(4, vec![]));
    let (log, _) = crashed_log(&before, &[], &after);
    let want = check(&log).unwrap();
    assert_eq!(want.txns_replayed, 3);
    assert_eq!(want.in_doubt.len(), 1);
    assert_eq!(want.in_doubt[0].writes, vec![(RecordId(5), vec![9; 32])]);
    let (_, storage) = recover(Params::small().db, &log).unwrap();
    assert_eq!(storage.read_record(RecordId(5)).unwrap()[0], 4);
}

#[test]
fn branches_of_both_shapes_reuse_ids_and_stay_in_doubt() {
    // Before the marker: an older-shape branch of id 1 that commits, and
    // a one-frame branch of id 2 still open at the marker, which lists 1
    // and 2. After it: id 1 again as a one-frame branch that commits, id
    // 3 in doubt in each shape (the one-frame one reusing the id of the
    // older one, which a crash left without a `Prepare`), and id 4 in
    // doubt in the older shape.
    let before = [
        Step::Begin(1),
        Step::Update(1, 10, 1),
        Step::Prepare(1, 5),
        Step::Commit(1),
        Step::Branch(2, 6, vec![(11, 2), (12, 2)]),
    ];
    let after = [
        Step::Decide(6, true),
        Step::Commit(2),
        Step::Branch(1, 7, vec![(10, 3)]),
        Step::Commit(1),
        Step::Begin(3),
        Step::Update(3, 13, 4),
        Step::Branch(3, 8, vec![(14, 5)]),
        Step::Begin(4),
        Step::Update(4, 15, 6),
        Step::Prepare(4, 9),
    ];
    let (log, _) = crashed_log(&before, &[1, 2], &after);
    let want = check(&log).unwrap();
    // id 1's first commit lies before the window
    assert_eq!((want.txns_replayed, want.txns_discarded), (2, 0));
    let in_doubt: Vec<_> = (want.in_doubt.iter())
        .map(|t| (t.gid, t.txn, t.writes.len()))
        .collect();
    assert_eq!(in_doubt, [(8, TxnId(3), 1), (9, TxnId(4), 1)]);
    assert_eq!(want.in_doubt[0].writes[0].0, RecordId(14));
    assert_eq!(want.max_gid, 9);
    // replay opens at the one-frame branch, the only listed id still open
    let mut head = Vec::new();
    encode(&before[..4], &mut head);
    assert_eq!(want.replay_start, Lsn(head.len() as u64));
    let (_, storage) = recover(Params::small().db, &log).unwrap();
    assert_eq!(storage.read_record(RecordId(10)).unwrap()[0], 3);
    assert_eq!(storage.read_record(RecordId(12)).unwrap()[0], 2);
}

#[test]
fn a_commit_point_installs_its_writes_and_decides_its_gid() {
    // A participant branch of gid 4 prepares before the marker, which
    // lists it; the coordinator's commit point of gid 4 follows, then the
    // participant's own commit. A second branch of gid 5 has a commit
    // point but no commit of its own: it stays in doubt for the pool,
    // which finds the decision beside it. A third, gid 6, has an older
    // log's explicit abort decision and no outcome.
    let before = [Step::Branch(1, 4, vec![(20, 1)])];
    let after = [
        Step::Point(2, 4, vec![(21, 2), (22, 2)]),
        Step::Commit(1),
        Step::Branch(3, 5, vec![(23, 3)]),
        Step::Point(4, 5, vec![(24, 4)]),
        Step::Branch(0, 6, vec![(25, 5)]),
        Step::Decide(6, false),
    ];
    let (log, _) = crashed_log(&before, &[1], &after);
    let want = check(&log).unwrap();
    assert_eq!(want.replay_start, Lsn::ZERO, "the participant opens replay");
    assert_eq!((want.txns_replayed, want.txns_discarded), (3, 0));
    assert_eq!(want.decisions, [(4, true), (5, true), (6, false)]);
    assert_eq!(want.max_gid, 6);
    let in_doubt: Vec<_> = (want.in_doubt.iter()).map(|t| (t.gid, t.txn)).collect();
    assert_eq!(in_doubt, [(5, TxnId(3)), (6, TxnId(0))]);
    let (_, storage) = recover(Params::small().db, &log).unwrap();
    for (rid, fill) in [(20, 1), (21, 2), (22, 2), (24, 4)] {
        assert_eq!(storage.read_record(RecordId(rid)).unwrap()[0], fill);
    }
}

#[test]
fn torn_txn_commit_is_no_transaction_at_all() {
    // every cut inside the frame: the transaction before it survives, no
    // part of the torn one is installed or counted
    let (intact, tail_at) = crashed_log(&[], &[], &[Step::Txn(1, vec![(3, 5)])]);
    let (log, _) = crashed_log(
        &[],
        &[],
        &[
            Step::Txn(1, vec![(3, 5)]),
            Step::Txn(2, vec![(3, 6), (4, 6)]),
        ],
    );
    for cut in intact.len()..log.len() {
        let want = check(&log[..cut]).unwrap();
        assert_eq!((want.txns_replayed, want.txns_discarded), (1, 0), "{cut}");
    }
    assert!(tail_at < intact.len());
}

/// The ids an engine could list at a marker after `before`: those whose
/// latest begin (`TxnBegin` or `TxnPrepare`) follows any outcome of theirs.
fn open_ids(before: &[Step]) -> Vec<u64> {
    let mut open = BTreeMap::new();
    for step in before {
        match *step {
            Step::Begin(t) | Step::Branch(t, ..) => open.insert(t, true),
            Step::Txn(t, _) | Step::Point(t, ..) | Step::Commit(t) | Step::Abort(t) => {
                open.insert(t, false)
            }
            _ => None,
        };
    }
    open.into_iter()
        .filter(|&(_, o)| o)
        .map(|(t, _)| t)
        .collect()
}

/// The window rule that ignores outcomes: replay opens at the nearest
/// begin before the marker of the oldest listed id.
fn nearest_begin(before: &[Step], active: &[u64]) -> Lsn {
    let (mut at, mut begins) = (0, BTreeMap::new());
    for step in before {
        if let Step::Begin(t) | Step::Branch(t, ..) = *step {
            begins.insert(t, at);
        }
        let mut frame = Vec::new();
        encode(std::slice::from_ref(step), &mut frame);
        at += frame.len() as u64;
    }
    Lsn(active
        .iter()
        .filter_map(|t| begins.get(t))
        .min()
        .copied()
        .unwrap_or(at))
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let n_records = Params::small().db.n_records();
    let write = (0..n_records, any::<Word>());
    let write_point = write.clone();
    prop_oneof![
        4 => (0u64..5, proptest::collection::vec(write.clone(), 0..4)).prop_map(|(t, w)| Step::Txn(t, w)),
        // a one-frame branch, under an id an older-shape one may hold
        3 => (0u64..5, 1u64..4, proptest::collection::vec(write, 0..4))
            .prop_map(|(t, g, w)| Step::Branch(t, g, w)),
        // a begin under an id that is still open is a later incarnation
        // reusing the id
        3 => (0u64..5).prop_map(Step::Begin),
        6 => (0u64..5, 0..n_records, any::<Word>()).prop_map(|(t, r, f)| Step::Update(t, r, f)),
        3 => (0u64..5).prop_map(Step::Commit),
        1 => (0u64..5).prop_map(Step::Abort),
        2 => (0u64..5, 1u64..4).prop_map(|(t, g)| Step::Prepare(t, g)),
        1 => (1u64..4, any::<bool>()).prop_map(|(g, c)| Step::Decide(g, c)),
        // the coordinator's commit point of a gid a branch may hold
        2 => (0u64..5, 1u64..4, proptest::collection::vec(write_point, 0..4))
            .prop_map(|(t, g, w)| Step::Point(t, g, w)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Arbitrary interleavings — well-formed or not — of `TxnCommit`
    /// transactions, old-frame transactions, prepared branches of both
    /// shapes and commit points of both shapes (`TxnDecide`, `Decide`)
    /// around
    /// a marker with an arbitrary active list, optionally damaged past
    /// the marker.
    #[test]
    fn core_matches_reference_on_random_interleavings(
        before in proptest::collection::vec(step_strategy(), 0..20),
        active in (0u8..32).prop_map(|set| (0u64..5).filter(|t| set >> t & 1 == 1).collect::<Vec<_>>()),
        after in proptest::collection::vec(step_strategy(), 0..60),
        damage in 0u8..3,
        at in any::<usize>(),
    ) {
        let (mut log, tail_at) = crashed_log(&before, &active, &after);
        if log.len() > tail_at {
            let at = tail_at + at % (log.len() - tail_at);
            match damage {
                1 => log.truncate(at), // torn tail
                2 => log[at] ^= 0x20,  // one flipped byte
                _ => {}
            }
        }
        check(&log);
    }

    /// On a log an engine could write — every listed id still open at the
    /// marker — outcomes never move the window: it opens at the nearest
    /// begin of the oldest listed id, as it did before ids were dropped
    /// at their outcomes.
    #[test]
    fn engine_shaped_markers_open_replay_at_the_nearest_begin(
        before in proptest::collection::vec(step_strategy(), 0..20),
        set in any::<u8>(),
        after in proptest::collection::vec(step_strategy(), 0..20),
    ) {
        let open = open_ids(&before);
        let active: Vec<_> = (open.iter().enumerate())
            .filter(|(i, _)| set >> i & 1 == 1)
            .map(|(_, &t)| t)
            .collect();
        let (log, _) = crashed_log(&before, &active, &after);
        let want = check(&log).unwrap();
        prop_assert_eq!(want.replay_start, nearest_begin(&before, &active));
    }
}
