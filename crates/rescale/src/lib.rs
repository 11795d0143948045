//! Recovery at scale: live log compaction and compressed cold storage.
//!
//! What a memory-resident database needs once logs stop being small
//! (replay itself is `mmdb-recovery`'s, on one lane):
//!
//! * [`compact_device`] — a background pass that rewrites cold log
//!   chunks, replacing superseded `TxnCommit` writes with
//!   length-preserving filler so the REDO window stays bounded while
//!   every LSN survives. It streams the log (one validation window, then
//!   one chunk at a time) and is clamped below replication pins.
//! * Compression — cold chunks and backup segments use the
//!   dependency-free block codec in [`mmdb_types::lz`]; compaction's
//!   zero-filled filler is exactly what makes compressed cold chunks
//!   collapse.
//!
//! Rotation (sealing the active chunk) lives on [`mmdb_log::LogDevice`]
//! itself; this crate provides the policy that makes rotation useful.

#![warn(missing_docs)]

mod compact;

pub use compact::{compact_device, CompactOptions, CompactReport};

use mmdb_disk::BackupStore;
use mmdb_log::LogDevice;
use mmdb_obs::Obs;
use mmdb_recovery::RecoveryReport;
use mmdb_storage::Storage;
use mmdb_types::{CostMeter, DiskParams, Result};

/// [`mmdb_recovery::recover_observed`] under the name `benchmark/` pins.
/// `workers` is ignored; recovery replays on one lane; deleted by the
/// next `benchmark`-archetype PR.
#[doc(hidden)]
pub fn recover_parallel(
    storage: &mut Storage,
    backup: &mut dyn BackupStore,
    log_device: &mut dyn LogDevice,
    disk: &DiskParams,
    meter: &CostMeter,
    obs: &Obs,
    _workers: usize,
) -> Result<RecoveryReport> {
    mmdb_recovery::recover_observed(storage, backup, log_device, disk, meter, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_disk::MemBackup;
    use mmdb_log::{
        LogManager, LogRecord, LogStream, LogWindow, MemLogDevice, SegmentedLogDevice, TxnFrame,
    };
    use mmdb_recovery::recover;
    use mmdb_types::{
        Algorithm, CkptMode, CostParams, LogMode, Lsn, Params, RecordId, Timestamp, TxnId,
    };
    use std::path::PathBuf;

    /// The validated window of `dev`'s log and every frame in it, with
    /// where each starts and ends.
    fn scan(dev: &mut dyn LogDevice) -> (LogWindow, Vec<(Lsn, LogRecord, Lsn)>) {
        let mut frames = Vec::new();
        let mut stream = LogStream::new(dev);
        let window = stream.validate(|lsn, rec, end| frames.push((lsn, rec.clone(), end)));
        (window.unwrap(), frames)
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmdb-rescale-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A miniature engine (storage + log + backup + checkpointer), the
    /// same shape as the recovery crate's harness, but with a pluggable
    /// log device so compaction can run against real chunk files.
    struct Mini {
        storage: Storage,
        log: LogManager,
        backup: MemBackup,
        ckpt: mmdb_checkpoint::Checkpointer,
        meter: CostMeter,
        next_tau: u64,
        next_txn: u64,
    }

    impl Mini {
        fn with_device(device: Box<dyn LogDevice>) -> Mini {
            let p = Params::small();
            Mini {
                storage: Storage::new(p.db).unwrap(),
                log: LogManager::new(
                    device,
                    LogMode::VolatileTail,
                    CostMeter::shared(CostParams::default()),
                ),
                backup: MemBackup::new(p.db),
                ckpt: mmdb_checkpoint::Checkpointer::new(
                    Algorithm::FuzzyCopy,
                    CkptMode::Partial,
                    mmdb_checkpoint::WalPolicy::Force,
                    CostMeter::shared(CostParams::default()),
                ),
                meter: CostMeter::new(CostParams::default()),
                next_tau: 0,
                next_txn: 1000,
            }
        }

        fn tau(&mut self) -> Timestamp {
            self.next_tau += 1;
            Timestamp(self.next_tau)
        }

        /// Runs a whole committed transaction updating `records` with
        /// `fill` the way the engine logs one: a single forced `TxnCommit`.
        fn txn(&mut self, records: &[u64], fill: u32) {
            let writes: Vec<_> = records.iter().map(|&rid| (rid, fill)).collect();
            self.txn_commit(&writes);
        }

        /// [`Mini::txn`] the way an engine before `TxnCommit` logged it
        /// (and an older engine logged a cross-shard branch): begin, one
        /// update frame per record, a forced commit.
        fn legacy_txn(&mut self, records: &[u64], fill: u32) {
            let tau = self.tau();
            self.next_txn += 1;
            let txn = TxnId(self.next_txn);
            self.log.append(&LogRecord::TxnBegin { txn, tau });
            let s_rec = self.storage.db_params().s_rec as usize;
            let mut installs = Vec::new();
            for &rid in records {
                let value = vec![fill; s_rec];
                let rec = LogRecord::Update {
                    txn,
                    record: RecordId(rid),
                    value: value.clone(),
                };
                self.log.append(&rec);
                installs.push((RecordId(rid), value, self.log.next_lsn()));
            }
            self.log.append_forced(&LogRecord::Commit { txn }).unwrap();
            for (rid, value, end_lsn) in installs {
                self.ckpt
                    .on_before_install(&mut self.storage, rid, &self.meter)
                    .unwrap();
                self.storage
                    .install_record(rid, &value, end_lsn, tau, &self.meter)
                    .unwrap();
            }
        }

        /// A transaction that durably aborts after logging its updates.
        fn aborted_txn(&mut self, records: &[u64], fill: u32) {
            let tau = self.tau();
            self.next_txn += 1;
            let txn = TxnId(self.next_txn);
            self.log.append(&LogRecord::TxnBegin { txn, tau });
            let s_rec = self.storage.db_params().s_rec as usize;
            for &rid in records {
                self.log.append(&LogRecord::Update {
                    txn,
                    record: RecordId(rid),
                    value: vec![fill; s_rec],
                });
            }
            self.log.append_forced(&LogRecord::Abort { txn }).unwrap();
        }

        /// A prepared branch with no durable outcome (in doubt): one
        /// forced `TxnPrepare` frame, or with `older` the begin, updates
        /// and forced `Prepare` an older engine wrote.
        fn prepared_txn(&mut self, records: &[u64], fill: u32, gid: u64, older: bool) -> TxnId {
            let tau = self.tau();
            self.next_txn += 1;
            let txn = TxnId(self.next_txn);
            let s_rec = self.storage.db_params().s_rec as usize;
            if !older {
                let image = vec![fill; s_rec];
                let writes = records.iter().map(|&rid| (RecordId(rid), &image[..]));
                self.log.append_txn(txn, TxnFrame::Prepare(gid), writes);
                self.log.force().unwrap();
                return txn;
            }
            self.log.append(&LogRecord::TxnBegin { txn, tau });
            for &rid in records {
                self.log.append(&LogRecord::Update {
                    txn,
                    record: RecordId(rid),
                    value: vec![fill; s_rec],
                });
            }
            self.log
                .append_forced(&LogRecord::Prepare { txn, gid })
                .unwrap();
            txn
        }

        fn checkpoint(&mut self) {
            let tau = self.tau();
            self.ckpt
                .begin(&mut self.storage, &mut self.log, &mut self.backup, &[], tau)
                .unwrap();
            self.ckpt
                .run_to_completion(&mut self.storage, &mut self.log, &mut self.backup)
                .unwrap();
        }

        fn crash(&mut self) {
            self.log.crash().unwrap();
            self.ckpt.crash(&mut self.storage);
        }

        /// Recovers the crashed state into fresh storage.
        fn recovery(&mut self) -> (RecoveryReport, Storage) {
            let mut s = Storage::new(*self.storage.db_params()).unwrap();
            let report = recover(
                &mut s,
                &mut self.backup,
                self.log.device_mut(),
                &Params::small().disk,
                &self.meter,
            )
            .unwrap();
            (report, s)
        }

        /// Fingerprint recovered from the crashed state.
        fn recovered(&mut self) -> u64 {
            self.recovery().1.fingerprint()
        }

        /// `(lsn, raw bytes)` of every frame in the validated log that is
        /// neither a `TxnCommit` nor a filler: what compaction must leave
        /// byte for byte.
        fn verbatim_frames(&mut self) -> Vec<(u64, Vec<u8>)> {
            let dev = self.log.device_mut();
            let (_, frames) = scan(dev);
            frames
                .into_iter()
                .filter(|(_, rec, _)| {
                    !matches!(
                        rec,
                        LogRecord::TxnCommit { .. } | LogRecord::Compacted { .. }
                    )
                })
                .map(|(lsn, _, end)| {
                    let mut bytes = vec![0; (end.raw() - lsn.raw()) as usize];
                    dev.read_at(lsn.raw(), &mut bytes).unwrap();
                    (lsn.raw(), bytes)
                })
                .collect()
        }
    }

    /// Segmented-device harness with small chunks so rotation and
    /// compaction have something to chew on.
    fn segmented_mini(name: &str, chunk_bytes: u64) -> (Mini, PathBuf) {
        let dir = scratch_dir(name);
        let dev = SegmentedLogDevice::open(&dir, chunk_bytes, false).unwrap();
        (Mini::with_device(Box::new(dev)), dir)
    }

    #[test]
    fn compaction_drops_superseded_frames_and_recovery_agrees() {
        let (mut m, dir) = segmented_mini("compact-super", 4096);
        m.txn(&[0, 1, 2, 3], 1);
        m.checkpoint();
        // Overwrite the same records many times: everything but the last
        // committed image of each record is superseded.
        for round in 2..30 {
            m.txn(&[0, 1, 2, 3], round);
        }
        m.log.rotate().unwrap();
        m.crash();
        let pre = m.recovered();

        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert!(report.chunks_examined > 0);
        assert!(report.frames_dropped > 0, "{report:?}");
        assert!(report.chunks_rewritten > 0);

        // Length-preserving: the log's logical extent is unchanged and
        // recovery over the compacted log reaches the same state.
        assert_eq!(m.recovered(), pre);

        // A second pass finds nothing new.
        let again = compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(again.frames_dropped, 0);
        assert_eq!(again.chunks_rewritten, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_respects_pins() {
        let (mut m, dir) = segmented_mini("compact-pins", 4096);
        m.txn(&[0, 1], 1);
        m.checkpoint();
        for round in 2..30 {
            m.txn(&[0, 1], round);
        }
        m.log.rotate().unwrap();
        m.crash();
        // Pin at zero: everything is above the ceiling, nothing moves —
        // this is the lagging-standby contract.
        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions {
                pins: vec![0],
                compress: false,
            },
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(report.chunks_examined, 0);
        assert_eq!(report.chunks_rewritten, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_skips_chunk_straddling_the_truncation_point() {
        // Checkpoint-driven truncation cuts at a record boundary that
        // usually lands *inside* a chunk: fully-dead chunks below the
        // cut are deleted, but the straddling chunk keeps its original
        // start — now below the device's start_offset. The compactor
        // must leave that chunk alone (its head bytes are unreadable),
        // not underflow the offset arithmetic.
        let (mut m, dir) = segmented_mini("compact-midtrunc", 4096);
        for round in 1..20 {
            m.txn(&[0, 1, 2, 3], round); // several chunks of dead prefix
        }
        m.checkpoint();
        for round in 20..40 {
            m.txn(&[0, 1, 2, 3], round);
        }
        m.log.rotate().unwrap();
        m.crash();

        // Cut at a frame boundary strictly inside the second chunk,
        // below the completed checkpoint's begin marker (recovery still
        // needs that marker).
        let (_copy, ckpt) = m.backup.recovery_copy().unwrap();
        let dev = m.log.device_mut();
        let (lo, hi) = {
            let chunks = dev.chunk_map();
            assert!(
                chunks.len() >= 4,
                "workload built only {} chunks",
                chunks.len()
            );
            (chunks[1].start, chunks[1].start + chunks[1].len)
        };
        let cut = {
            let (window, frames) = scan(dev);
            let marker = window.checkpoint_mark(ckpt).unwrap().0.begin_lsn.raw();
            frames
                .into_iter()
                .map(|(lsn, ..)| lsn.raw())
                .find(|&l| l > lo && l < hi && l <= marker)
                .expect("a frame boundary inside the second chunk below the marker")
        };
        dev.truncate_prefix(cut).unwrap();
        let cold = {
            let chunks = dev.chunk_map();
            assert!(
                chunks[0].start < dev.start_offset(),
                "cut must land mid-chunk"
            );
            chunks.len() - 1
        };

        let pre = m.recovered();

        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        // The straddler was skipped; every other cold chunk was examined
        // and the superseded prefix still compacted.
        assert_eq!(report.chunks_examined, cold as u64 - 1);
        assert!(report.chunks_rewritten > 0, "{report:?}");

        // Recovery over the truncated-then-compacted log is unchanged.
        assert_eq!(m.recovered(), pre);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_keeps_prepared_and_undecided_branches() {
        for older in [false, true] {
            keeps_prepared_and_undecided_branches(older);
        }
    }

    fn keeps_prepared_and_undecided_branches(older: bool) {
        let (mut m, dir) = segmented_mini(&format!("compact-prep-{older}"), 4096);
        m.txn(&[0, 1], 1);
        m.checkpoint();
        let prepared = m.prepared_txn(&[0, 1], 42, 9, older);
        for round in 2..30 {
            m.txn(&[0, 1], round);
        }
        m.log.rotate().unwrap();
        m.crash();
        compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        // The prepared branch's updates survive compaction verbatim.
        let (_, frames) = scan(m.log.device_mut());
        let kept: usize = frames
            .into_iter()
            .map(|(_, rec, _)| match rec {
                LogRecord::Update { txn, .. } if txn == prepared => 1,
                LogRecord::TxnPrepare { txn, writes, .. } if txn == prepared => writes.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(kept, 2);
        // And recovery still reports it in doubt.
        let (report, _) = m.recovery();
        assert_eq!(report.in_doubt.len(), 1);
        assert_eq!(report.in_doubt[0].txn, prepared);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `TxnTable` ids restart at 1 on every open of a directory, so a
    /// log written across re-opens reuses them. A log written before
    /// `TxnCommit` holds such reused ids in begin/update/commit runs:
    /// compaction leaves every one of those frames as it was, and
    /// recovery over the compacted log agrees with the uncompacted one.
    #[test]
    fn compaction_binds_outcomes_per_incarnation_when_ids_are_reused() {
        /// Writes the same log into a fresh device and recovers it,
        /// compacted first or not.
        fn recovered(compact: bool) -> u64 {
            let (mut m, dir) = segmented_mini(&format!("compact-reinc-{compact}"), 4096);
            m.legacy_txn(&[0], 1);
            m.checkpoint();
            // Incarnation 1, ids 1..=8: all commit. Txn 3 overwrites
            // what txn 2 wrote to record 20.
            m.next_txn = 0;
            m.legacy_txn(&[10, 11], 101);
            m.legacy_txn(&[20, 21], 102);
            m.legacy_txn(&[20, 30], 103);
            for fill in 104..=108 {
                m.legacy_txn(&[40, 41, 42, 43], fill);
            }
            // Incarnation 2 reuses the ids: 1 aborts, 2 commits other
            // records, 3 is open at the crash, the rest churn in the
            // current one-frame shape.
            m.next_txn = 0;
            m.aborted_txn(&[500, 10], 201);
            m.legacy_txn(&[600], 202);
            m.next_txn += 1;
            let open = TxnId(m.next_txn);
            let tau = m.tau();
            m.log.append(&LogRecord::TxnBegin { txn: open, tau });
            let value = vec![203; m.storage.db_params().s_rec as usize];
            m.log.append(&LogRecord::Update {
                txn: open,
                record: RecordId(30),
                value,
            });
            for fill in 204..=230 {
                m.txn(&[40, 41, 42, 43], fill);
            }
            m.log.rotate().unwrap();
            m.crash();
            if compact {
                let before = m.verbatim_frames();
                let report = compact_device(
                    m.log.device_mut(),
                    &CompactOptions::default(),
                    &Obs::disabled(),
                )
                .unwrap();
                assert!(report.chunks_rewritten > 0, "{report:?}");
                assert_eq!(m.verbatim_frames(), before);
            }
            let (_, s) = m.recovery();
            for (rid, fill) in [(10, 101), (11, 101), (20, 103), (21, 102), (30, 103)] {
                assert_eq!(
                    s.read_record(RecordId(rid)).unwrap()[0],
                    fill,
                    "record {rid}, compacted: {compact}"
                );
            }
            let _ = std::fs::remove_dir_all(dir);
            s.fingerprint()
        }
        assert_eq!(recovered(true), recovered(false));
    }

    #[test]
    fn compaction_with_compression_shrinks_cold_chunks() {
        let (mut m, dir) = segmented_mini("compact-z", 4096);
        m.txn(&[0, 1, 2, 3], 1);
        m.checkpoint();
        for round in 2..40 {
            m.txn(&[0, 1, 2, 3], round);
        }
        m.log.rotate().unwrap();
        m.crash();
        let pre = m.recovered();
        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions {
                pins: Vec::new(),
                compress: true,
            },
            &Obs::disabled(),
        )
        .unwrap();
        assert!(report.chunks_rewritten > 0);
        assert!(
            report.disk_bytes_after < report.disk_bytes_before,
            "{report:?}"
        );
        // Logical layout intact: recovery agrees bit for bit.
        assert_eq!(m.recovered(), pre);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_noop_on_unchunked_devices() {
        let mut dev = MemLogDevice::new();
        let report =
            compact_device(&mut dev, &CompactOptions::default(), &Obs::disabled()).unwrap();
        assert_eq!(report, CompactReport::default());
    }

    #[test]
    fn compaction_keeps_writes_only_a_branch_supersedes_and_branches_verbatim() {
        for older in [false, true] {
            keeps_writes_only_a_branch_supersedes(older);
        }
    }

    /// A `TxnPrepare` (with `older`, an `Update`) write of a record never
    /// supersedes an earlier `TxnCommit` write of it.
    fn keeps_writes_only_a_branch_supersedes(older: bool) {
        let (mut m, dir) = segmented_mini(&format!("compact-branches-{older}"), 4096);
        m.txn(&[0, 1], 1);
        m.checkpoint();
        // record 5's last `TxnCommit` write is superseded only by a
        // committed 2PC branch; 6 and 7 are written by an aborted and an
        // in-doubt branch over `TxnCommit` writes
        m.txn(&[5, 6, 7], 2);
        let committed = m.prepared_txn(&[5], 3, 1, older);
        m.log
            .append_forced(&LogRecord::Commit { txn: committed })
            .unwrap();
        let aborted = m.prepared_txn(&[6], 4, 2, older);
        m.log
            .append_forced(&LogRecord::Abort { txn: aborted })
            .unwrap();
        m.prepared_txn(&[7], 5, 3, older);
        for round in 10..40 {
            m.txn(&[0, 1], round);
        }
        m.log.rotate().unwrap();
        m.crash();
        let (twin, twin_state) = m.recovery();
        assert_eq!(twin_state.read_record(RecordId(5)).unwrap()[0], 3);
        let before = m.verbatim_frames();

        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert!(report.frames_dropped > 0, "{report:?}");
        // the branches' frames are all still there, byte for byte, and so
        // is the `TxnCommit` write the committed branch replaces
        assert_eq!(m.verbatim_frames(), before);
        let writes_to = |rid: u64, frames: &[(u64, LogRecord)]| {
            frames
                .iter()
                .filter(|(_, rec)| match rec {
                    LogRecord::TxnCommit { writes, .. } => {
                        writes.iter().any(|(r, _)| *r == RecordId(rid))
                    }
                    _ => false,
                })
                .count()
        };
        let after = m.txn_commits();
        assert_eq!((writes_to(5, &after), writes_to(6, &after)), (1, 1));
        let (report, state) = m.recovery();
        assert_eq!(report.in_doubt, twin.in_doubt);
        assert_eq!(state.fingerprint(), twin_state.fingerprint());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A log device that remembers how it was read.
    struct Counting<'a> {
        inner: &'a mut dyn LogDevice,
        largest_read: usize,
        read_alls: u64,
    }

    impl LogDevice for Counting<'_> {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.inner.append(bytes)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn start_offset(&self) -> u64 {
            self.inner.start_offset()
        }

        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.largest_read = self.largest_read.max(buf.len());
            self.inner.read_at(offset, buf)
        }

        fn read_all(&mut self) -> Result<Vec<u8>> {
            self.read_alls += 1;
            self.inner.read_all()
        }

        fn chunk_map(&self) -> Vec<mmdb_log::ChunkInfo> {
            self.inner.chunk_map()
        }

        fn rewrite_chunk(&mut self, start: u64, bytes: &[u8], compress: bool) -> Result<()> {
            self.inner.rewrite_chunk(start, bytes, compress)
        }
    }

    #[test]
    fn compaction_streams_the_log_and_reads_one_chunk_at_a_time() {
        let dir = scratch_dir("compact-stream");
        let chunk_bytes = 64 << 10;
        let dev = SegmentedLogDevice::open(&dir, chunk_bytes, false).unwrap();
        let mut log = LogManager::new(
            Box::new(dev),
            LogMode::VolatileTail,
            CostMeter::shared(CostParams::default()),
        );
        // well over the stream's 1 MiB window of transactions that keep
        // rewriting the same 64 records
        let image = &[7u32; 32][..];
        let writes = |t: u64| (0..16u32).map(move |k| (RecordId(t % 4 * 16 + u64::from(k)), image));
        for t in 0..1_500 {
            log.append_txn(TxnId(t + 1), TxnFrame::Commit, writes(t));
        }
        log.rotate().unwrap();
        log.append_txn(TxnId(9_999), TxnFrame::Commit, writes(0));
        log.force().unwrap();
        let log_len = log.device_mut().len();
        assert!(log_len > 2 << 20, "a {log_len}-byte log is too short");

        let mut device = Counting {
            inner: log.device_mut(),
            largest_read: 0,
            read_alls: 0,
        };
        let largest_chunk = device.chunk_map().iter().map(|c| c.len).max().unwrap();
        let report =
            compact_device(&mut device, &CompactOptions::default(), &Obs::disabled()).unwrap();
        assert!(report.frames_dropped > 0, "{report:?}");
        assert_eq!(device.read_alls, 0, "the log was read whole");
        let bound = largest_chunk.max(1 << 20);
        assert!(
            device.largest_read as u64 <= bound,
            "one read of {} bytes, bound {bound}",
            device.largest_read
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    // ----- `TxnCommit` frames in detail: how a frame shrinks, splits and
    // keeps its LSN.

    impl Mini {
        /// A committed transaction the way the engine logs one: a single
        /// forced `TxnCommit` frame of `(record, fill)` writes.
        fn txn_commit(&mut self, writes: &[(u64, u32)]) {
            let tau = self.tau();
            self.next_txn += 1;
            let s_rec = self.storage.db_params().s_rec as usize;
            let images: Vec<_> = writes.iter().map(|&(_, fill)| vec![fill; s_rec]).collect();
            let frame = writes.iter().zip(&images);
            self.log.append_txn(
                TxnId(self.next_txn),
                TxnFrame::Commit,
                frame.map(|(&(rid, _), image)| (RecordId(rid), &image[..])),
            );
            self.log.force().unwrap();
            let end_lsn = self.log.next_lsn();
            for (&(rid, _), image) in writes.iter().zip(&images) {
                self.ckpt
                    .on_before_install(&mut self.storage, RecordId(rid), &self.meter)
                    .unwrap();
                self.storage
                    .install_record(RecordId(rid), image, end_lsn, tau, &self.meter)
                    .unwrap();
            }
        }

        /// `(lsn, frame)` of every `TxnCommit` in the validated log.
        fn txn_commits(&mut self) -> Vec<(u64, LogRecord)> {
            let (_, frames) = scan(self.log.device_mut());
            frames
                .into_iter()
                .filter(|(_, rec, _)| matches!(rec, LogRecord::TxnCommit { .. }))
                .map(|(lsn, rec, _)| (lsn.raw(), rec))
                .collect()
        }
    }

    #[test]
    fn compaction_shrinks_txn_commit_frames_in_place_and_recovery_agrees() {
        let (mut m, dir) = segmented_mini("compact-txn-commit", 4096);
        m.txn_commit(&[(0, 1), (1, 1)]);
        m.checkpoint();
        // Records 0 and 1 are rewritten every round (superseded by the
        // next), 100 + round only once (it survives): each frame keeps one
        // write of three. Every fifth round touches nothing that lasts and
        // goes whole; one writes a record twice, and its later image wins.
        for round in 2..40u32 {
            match round % 5 {
                0 => m.txn_commit(&[(0, round), (1, round)]),
                1 => m.txn_commit(&[(2000, round), (0, round), (2000, round + 500)]),
                _ => m.txn_commit(&[(0, round), (100 + u64::from(round), round), (1, round)]),
            }
        }
        // an older-format transaction survives whole, and recovery still
        // orders it between the `TxnCommit` writes around it
        m.legacy_txn(&[0, 150], 77);
        m.txn_commit(&[(150, 78), (1, 78)]);
        let end_lsn = m.log.next_lsn();
        m.log.rotate().unwrap();
        m.crash();
        let twin = m.recovered();
        let before = m.txn_commits();

        let compress = CompactOptions {
            pins: Vec::new(),
            compress: true,
        };
        let report = compact_device(m.log.device_mut(), &compress, &Obs::disabled()).unwrap();
        assert!(report.chunks_rewritten > 0, "{report:?}");
        assert!(report.frames_dropped > 60, "{report:?}");
        assert!(report.disk_bytes_after < report.disk_bytes_before);

        // the log covers the same LSNs, and recovers to the uncompacted
        // twin's state
        assert_eq!(scan(m.log.device_mut()).0.end_lsn(), end_lsn);
        assert_eq!(m.recovered(), twin);

        // every surviving frame sits at its old LSN under its old id with
        // a subset of its old writes, in their old order
        let after = m.txn_commits();
        assert!(after.len() < before.len(), "some frames went whole");
        let mut shrunk = 0;
        for (lsn, rec) in &after {
            let old = before.iter().find(|(l, _)| l == lsn).expect("same LSN");
            let (LogRecord::TxnCommit { txn, writes }, LogRecord::TxnCommit { txn: t, writes: w }) =
                (rec, &old.1)
            else {
                unreachable!()
            };
            assert_eq!(txn, t);
            let mut rest = w.iter();
            assert!(writes.iter().all(|kept| rest.any(|had| had == kept)));
            shrunk += usize::from(writes.len() < w.len());
        }
        assert!(shrunk > 20, "{shrunk} frames shrank in place");

        // a second pass finds nothing new
        let again = compact_device(m.log.device_mut(), &compress, &Obs::disabled()).unwrap();
        assert_eq!((again.frames_dropped, again.chunks_rewritten), (0, 0));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_splits_a_filler_run_longer_than_the_frame_bound() {
        use mmdb_log::{MAX_TXN_FRAME_BYTES, MIN_COMPACTED_LEN};
        // one 8 MiB chunk holding more than 6 MiB of transactions that all
        // rewrite the same 64 records: everything but the last is dead
        let (mut m, dir) = segmented_mini("compact-cap", 8 << 20);
        let writes = |fill: u32| (0..64u64).map(|r| (r, fill)).collect::<Vec<_>>();
        let first = m.log.next_lsn();
        m.txn_commit(&writes(1));
        let first_len = m.log.next_lsn().raw() - first.raw();
        m.checkpoint();
        let dead_from = m.log.next_lsn();
        let frame_len = LogRecord::txn_len(TxnId(1), None, (0..64).map(RecordId), 32) as u64;
        let rounds = MAX_TXN_FRAME_BYTES as u64 / frame_len + 40;
        for round in 0..rounds {
            m.txn_commit(&writes(2 + round as u32));
        }
        let dead_to = m.log.next_lsn();
        m.txn_commit(&writes(9_999));
        m.log.rotate().unwrap();
        m.txn_commit(&[(70, 5)]);
        m.crash();
        let twin = m.recovered();

        let report = compact_device(
            m.log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(report.chunks_rewritten, 1, "{report:?}");
        // (the frame in front of the checkpoint is dead too)
        let dead = dead_to.raw() - dead_from.raw();
        assert_eq!(report.bytes_reclaimed, first_len + dead);

        // the dead run is tiled by fillers, none over the bound
        let (_, frames) = scan(m.log.device_mut());
        let spans: Vec<u64> = frames
            .into_iter()
            .filter(|(lsn, ..)| (dead_from..dead_to).contains(lsn))
            .map(|(_, rec, _)| match rec {
                LogRecord::Compacted { span } => span,
                other => panic!("live frame in the dead run: {other:?}"),
            })
            .collect();
        assert!(spans.len() > 1, "{spans:?}");
        assert_eq!(spans.iter().sum::<u64>(), dead_to.raw() - dead_from.raw());
        let legal = MIN_COMPACTED_LEN as u64..=MAX_TXN_FRAME_BYTES as u64;
        assert!(spans.iter().all(|span| legal.contains(span)), "{spans:?}");

        // a standby pulling from the head of the run gets frames, not the
        // empty batch an over-long filler reads as
        let (_, pulled) = m.log.read_range_aligned(dead_from, 64 << 10).unwrap();
        let (first, used) = LogRecord::decode(&pulled).unwrap();
        assert_eq!(first, LogRecord::Compacted { span: spans[0] });
        assert_eq!(used, pulled.len());

        // and the compacted log recovers to its uncompacted twin's state
        assert_eq!(m.recovered(), twin);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_keeps_a_write_whose_freed_bytes_make_no_filler() {
        // one-word records: a dropped write frees 5 bytes (its id and its
        // image), fewer than the smallest filler frame, so a frame losing
        // one of its writes is left alone, one losing two is cut, and one
        // losing all of them goes whole
        let dir = scratch_dir("compact-tiny");
        let dev = SegmentedLogDevice::open(&dir, 4096, false).unwrap();
        let mut log = LogManager::new(
            Box::new(dev),
            LogMode::VolatileTail,
            CostMeter::shared(CostParams::default()),
        );
        let image = [9u32];
        let frame = |log: &mut LogManager, records: &[u64]| {
            let writes = records.iter().map(|&r| (RecordId(r), &image[..]));
            log.append_txn(TxnId(1), TxnFrame::Commit, writes)
        };
        let one_lost = frame(&mut log, &[1, 10]);
        let two_lost = frame(&mut log, &[1, 2, 11]);
        let all_lost = frame(&mut log, &[1, 2]);
        frame(&mut log, &[1, 2]);
        log.rotate().unwrap();
        frame(&mut log, &[12]);
        log.force().unwrap();

        let report = compact_device(
            log.device_mut(),
            &CompactOptions::default(),
            &Obs::disabled(),
        )
        .unwrap();
        assert_eq!(report.frames_dropped, 2 + 2, "{report:?}");
        let (_, frames) = scan(log.device_mut());
        let records_at = |lsn| {
            let (_, rec, _) = frames.iter().find(|(l, ..)| *l == lsn).expect("frame");
            match rec {
                LogRecord::TxnCommit { writes, .. } => {
                    writes.iter().map(|(r, _)| r.raw()).collect::<Vec<_>>()
                }
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(records_at(one_lost), [1, 10]);
        assert_eq!(records_at(two_lost), [11]);
        // the cut frame's freed tail and the dead frame behind it are one
        // filler, so every later frame keeps its LSN
        let cut_len = LogRecord::txn_len(TxnId(1), None, [RecordId(11)], 1) as u64;
        let (_, filler, _) = &frames[2];
        assert_eq!(frames[2].0, two_lost.advance(cut_len));
        let span = frames[3].0.raw() - frames[2].0.raw();
        assert_eq!(filler, &LogRecord::Compacted { span });
        assert!(frames[2].0 < all_lost && all_lost < frames[3].0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
