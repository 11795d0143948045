//! Recovery's log memory is one window however long the log is — held
//! to account at the device, where every byte of log enters: the log is
//! never read whole, and no single read is larger than the window plus
//! one frame.

#![allow(clippy::unwrap_used)]

use mmdb_disk::{BackupStore, MemBackup};
use mmdb_log::{LogDevice, LogRecord, MemLogDevice};
use mmdb_obs::Obs;
use mmdb_recovery::recover_observed;
use mmdb_storage::Storage;
use mmdb_types::{
    CheckpointId, CostMeter, CostParams, Params, RecordId, Result, SegmentId, Timestamp, TxnId,
};

const CKPT: CheckpointId = CheckpointId(1);

/// A log device that remembers how it was read.
#[derive(Default)]
struct Counting {
    inner: MemLogDevice,
    largest_read: usize,
    read_alls: u64,
}

impl LogDevice for Counting {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.largest_read = self.largest_read.max(buf.len());
        self.inner.read_at(offset, buf)
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.read_alls += 1;
        self.inner.read_all()
    }
}

#[test]
fn recovery_reads_a_long_log_one_window_at_a_time() {
    let db = Params::small().db;
    let mut backup = MemBackup::new(db);
    backup.begin_checkpoint(0, CKPT).unwrap();
    let image = vec![0; db.s_seg as usize];
    for sid in (0..db.n_segments() as u32).map(SegmentId) {
        backup.write_segment(0, sid, &image).unwrap();
    }
    backup.complete_checkpoint(0, CKPT).unwrap();

    // the marker, then a few distinct 64-record transactions over and over
    let mut device = Counting::default();
    let marker = LogRecord::BeginCheckpoint {
        ckpt: CKPT,
        tau: Timestamp(1),
        active: vec![],
    };
    device.append(&marker.encode()).unwrap();
    let frames: Vec<Vec<u8>> = (0..7u64)
        .map(|t| {
            let writes = (0..64)
                .map(|k| {
                    let rid = RecordId((t * 293 + k * 31) % db.n_records());
                    (rid, vec![(t * 64 + k) as u32; db.s_rec as usize])
                })
                .collect();
            LogRecord::TxnCommit {
                txn: TxnId(t + 1),
                writes,
            }
            .encode()
        })
        .collect();
    let frame_len = frames.iter().map(Vec::len).max().unwrap();
    let n_frames = 2_600usize;
    for frame in frames.iter().cycle().take(n_frames) {
        device.append(frame).unwrap();
    }
    let log_len = device.len();

    let obs = Obs::enabled();
    let mut storage = Storage::new(db).unwrap();
    let report = recover_observed(
        &mut storage,
        &mut backup,
        &mut device,
        &Params::small().disk,
        &CostMeter::new(CostParams::default()),
        &obs,
    )
    .unwrap();
    assert_eq!(report.txns_replayed, n_frames as u64);

    let (window, read) = obs
        .with_registry(|r| {
            (
                r.gauge_value("recovery.log_window_peak_bytes").unwrap(),
                r.counter_value("recovery.log_bytes_read"),
            )
        })
        .unwrap();
    assert!(
        log_len >= 20 * window,
        "a {log_len}-byte log is no test of a {window}-byte window"
    );
    assert_eq!(device.read_alls, 0, "the log was read whole");
    assert!(
        device.largest_read as u64 <= window + frame_len as u64,
        "one read of {} bytes, window {window}",
        device.largest_read
    );
    // two passes, both from the marker at the head of the log
    assert_eq!(read, 2 * log_len);
}
