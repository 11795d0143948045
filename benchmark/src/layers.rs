//! The `--layers` pass: each substrate crate driven standalone through
//! its public functions, timed from here. Every number is the median of
//! `BATCHES` batches; a batch's figure is the mean over its calls. The
//! instances are smaller than the workloads' (`LAYER_SEGMENTS`), so the
//! pass fits in a traced run; the disk numbers use the full shape.

use crate::common::{self, err, median, Opts, Outcome, Res, Scratch};
use crate::config::{self, N_RU, N_SEGMENTS, S_REC, S_SEG};
use crate::gen;
use crate::hist::Hist;
use crate::trace::Tracer;
use crate::workloads::embedded_update;
use mmdb::disk::{BackupStore, FileBackup};
use mmdb::log::{LogDevice, LogManager, LogRecord, LogScanner, MemLogDevice, SegmentedLogDevice};
use mmdb::obs::Obs;
use mmdb::server::{Server, ServerConfig};
use mmdb::shard::ShardedMmdb;
use mmdb::storage::Storage;
use mmdb::types::{CheckpointId, CostMeter, Lsn, SegmentId, Timestamp};
use mmdb::wire::{read_frame, write_frame, Client, Request, Response};
use mmdb::{Algorithm, CommitDurability, Mmdb, MmdbConfig, RecordId, StepOutcome, TxnId};
use rand::RngExt;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const BATCHES: usize = 5;
/// Segments of the standalone instances (16 MiB).
const LAYER_SEGMENTS: u64 = 512;
/// Transactions in the shorter recovery tail; the longer one has three
/// times as many.
const TAIL_TXNS: u64 = 10_000;

type Values = Vec<(&'static str, f64)>;

/// Calls per batch: `n`, scaled down for `--quick`.
#[derive(Clone, Copy)]
struct Scale(bool);

impl Scale {
    fn calls(self, n: usize) -> usize {
        if self.0 {
            (n / config::QUICK_DIVISOR as usize).max(2)
        } else {
            n
        }
    }
}

/// Median over the batches of the mean time of one call, ns.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&means)
}

/// Like [`per_call_ns`] for calls that need untimed preparation: `f`
/// returns the time of the one call it made.
fn per_timed_call_ns(calls: usize, mut f: impl FnMut() -> Res<u64>) -> Res<f64> {
    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut total = 0u64;
        for _ in 0..calls {
            total += f()?;
        }
        means.push(total as f64 / calls as f64);
    }
    Ok(median(&means))
}

fn small_config(durability: CommitDurability) -> MmdbConfig {
    config::engine_config(durability, LAYER_SEGMENTS)
}

fn value(fill: u32) -> Vec<u32> {
    vec![fill; S_REC]
}

fn wire(scale: Scale, v: &mut Values) -> Res<()> {
    let req = Request::Batch {
        updates: vec![(RecordId(3), value(7)), (RecordId(1_000_003), value(9))],
    };
    let resp = Response::Committed {
        txn: TxnId(1 << 40),
        runs: 1,
    };
    let (req_bytes, resp_bytes) = (req.encode(), resp.encode());
    let n = scale.calls(100_000);
    v.push((
        "wire.encode_ns",
        per_call_ns(n, || {
            black_box(black_box(&req).encode());
            black_box(black_box(&resp).encode());
        }),
    ));
    let mut bad = false;
    v.push((
        "wire.decode_ns",
        per_call_ns(n, || {
            bad |= Request::decode(black_box(&req_bytes)).is_err();
            bad |= Response::decode(black_box(&resp_bytes)).is_err();
        }),
    ));
    let mut pipe = Vec::with_capacity(2 * req_bytes.len());
    v.push((
        "wire.frame_rt_ns",
        per_call_ns(n, || {
            pipe.clear();
            bad |= write_frame(&mut pipe, black_box(&req_bytes)).is_err();
            bad |= !matches!(read_frame(&mut pipe.as_slice()), Ok(Some(_)));
        }),
    ));
    if bad {
        return Err("wire round trip failed".into());
    }
    Ok(())
}

fn shard_and_server(scale: Scale, dir: &Path, v: &mut Values) -> Res<()> {
    const SHARDS: u64 = 2;
    let (db, _) =
        ShardedMmdb::open_dir(small_config(CommitDurability::Group), dir, SHARDS as usize)
            .map_err(err("open_dir"))?;
    let per_shard = db.n_records() / SHARDS;
    let mut rng = gen::rng(1, 7);
    let mut updates = gen::updates_buffer(2);
    let mut seq = 0u64;
    // Both records on one shard, or one on each.
    let mut next_batch = |updates: &mut gen::Updates, cross: bool| {
        seq += 1;
        let first = rng.random_range(0..SHARDS);
        let second = if cross { 1 - first } else { first };
        let k0 = rng.random_range(0..per_shard);
        let k1 = (k0 + 1 + rng.random_range(0..per_shard - 1)) % per_shard;
        updates[0].0 = RecordId(k0 * SHARDS + first);
        updates[1].0 = RecordId(k1 * SHARDS + second);
        for (slot, (_, value)) in updates.iter_mut().enumerate() {
            value.fill(gen::fill_word(3, seq, slot));
        }
    };
    let mut failed = false;
    for (name, cross) in [
        ("shard.run_txn_us", false),
        ("shard.run_txn_cross_us", true),
    ] {
        let ns = per_call_ns(scale.calls(300), || {
            next_batch(&mut updates, cross);
            failed |= db.run_txn(&updates).is_err();
        });
        v.push((name, ns / 1e3));
    }
    let n_records = db.n_records();
    let mut rid = 0u64;
    v.push((
        "shard.read_committed_ns",
        per_call_ns(scale.calls(100_000), || {
            rid = (rid + 7919) % n_records;
            failed |= db.read_committed(RecordId(rid)).is_err();
        }),
    ));

    // The same database behind a loopback server with no background
    // checkpoints: what remains over the in-process numbers is the wire
    // codec and the connection hand-off.
    let server = ServerConfig {
        workers: 2,
        checkpoint_interval: None,
        slow_trace_us: 0,
        ..ServerConfig::default()
    };
    let handle = Server::spawn_sharded(db, server).map_err(err("spawn server"))?;
    let mut client = Client::connect(handle.local_addr()).map_err(err("connect"))?;
    v.push((
        "server.ping_rt_us",
        per_call_ns(scale.calls(2_000), || failed |= client.ping().is_err()) / 1e3,
    ));
    v.push((
        "server.get_rt_us",
        per_call_ns(scale.calls(2_000), || {
            rid = (rid + 7919) % n_records;
            failed |= client.get(RecordId(rid)).is_err();
        }) / 1e3,
    ));
    for (name, cross) in [
        ("server.batch_rt_us", false),
        ("server.batch_cross_rt_us", true),
    ] {
        let ns = per_call_ns(scale.calls(300), || {
            next_batch(&mut updates, cross);
            failed |= client.batch(&updates).is_err();
        });
        v.push((name, ns / 1e3));
    }
    drop(client);
    drop(handle.shutdown_join());
    if failed {
        return Err("a shard or server call failed in the layer pass".into());
    }
    Ok(())
}

fn core(scale: Scale, dir: &Path, v: &mut Values) -> Res<()> {
    let (mut db, _) =
        Mmdb::open_dir(small_config(CommitDurability::Force), dir).map_err(err("open_dir"))?;
    let n_records = db.n_records();
    let mut rng = gen::rng(1, 8);
    let mut updates = gen::updates_buffer(N_RU);
    let mut seq = 0u64;
    let mut failed = false;
    v.push((
        "core.run_txn_us",
        per_call_ns(scale.calls(10_000), || {
            seq += 1;
            gen::uniform_txn(&mut updates, &mut rng, 4, seq, n_records);
            failed |= db.run_txn(&updates).is_err();
        }) / 1e3,
    ));
    let mut rid = 0u64;
    v.push((
        "core.read_committed_ns",
        per_call_ns(scale.calls(100_000), || {
            rid = (rid + 7919) % n_records;
            failed |= db.read_committed(RecordId(rid)).is_err();
        }),
    ));

    // Checkpoint calls on an all-dirty database, as the workloads make them.
    let mut begins = Vec::new();
    let mut steps = Vec::new();
    let mut one = gen::updates_buffer(1);
    let recs_per_seg = S_SEG / S_REC as u64;
    for _ in 0..BATCHES {
        for seg in 0..db.n_segments() {
            seq += 1;
            one[0].0 = RecordId(seg * recs_per_seg);
            one[0].1.fill(gen::fill_word(4, seq, 0));
            db.run_txn(&one).map_err(err("run_txn"))?;
        }
        let t = Instant::now();
        db.try_begin_checkpoint()
            .map_err(err("try_begin_checkpoint"))?;
        begins.push(t.elapsed().as_nanos() as f64);
        let (t, mut n) = (Instant::now(), 0u64);
        loop {
            n += 1;
            if let StepOutcome::Done { .. } =
                db.checkpoint_step().map_err(err("checkpoint_step"))?
            {
                break;
            }
        }
        steps.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    v.push(("checkpoint.begin_us", median(&begins) / 1e3));
    v.push(("checkpoint.step_us", median(&steps) / 1e3));
    drop(db);

    // The shared-gate commit path: one record, no force at commit.
    let db = Mmdb::open_in_memory(small_config(CommitDurability::Group))
        .map_err(err("open_in_memory"))?;
    let mut single = gen::updates_buffer(1);
    let mut refused = false;
    let ns = per_call_ns(scale.calls(20_000), || {
        seq += 1;
        rid = (rid + 7919) % n_records;
        single[0].0 = RecordId(rid);
        single[0].1.fill(gen::fill_word(4, seq, 0));
        refused |= !matches!(db.try_commit_shared(&single), Ok(Some(_)));
    });
    v.push(("core.commit_shared_us", ns / 1e3));
    if failed || refused {
        return Err("an engine call failed in the layer pass".into());
    }
    Ok(())
}

fn storage(scale: Scale, v: &mut Values) -> Res<()> {
    let db = small_config(CommitDurability::Force).params.db;
    let mut storage = Storage::new(db).map_err(err("Storage::new"))?;
    let meter = CostMeter::default();
    let n_records = storage.n_records();
    let val = value(11);
    let (mut rid, mut i, mut failed) = (0u64, 0u64, false);
    v.push((
        "storage.install_record_ns",
        per_call_ns(scale.calls(100_000), || {
            rid = (rid + 7919) % n_records;
            i += 1;
            failed |= storage
                .install_record(RecordId(rid), &val, Lsn(i), Timestamp(i), &meter)
                .is_err();
        }),
    ));
    let mirror = storage.mirror().clone();
    let mut out = value(0);
    v.push((
        "storage.mirror_read_ns",
        per_call_ns(scale.calls(100_000), || {
            rid = (rid + 7919) % n_records;
            failed |= !mirror.try_read(RecordId(rid), &mut out);
        }),
    ));
    v.push((
        "storage.mirror_publish_ns",
        per_call_ns(scale.calls(100_000), || {
            rid = (rid + 7919) % n_records;
            mirror.publish(RecordId(rid), black_box(&val));
        }),
    ));
    let n_segments = storage.n_segments() as u32;
    let mut image = vec![0u32; S_SEG as usize];
    let mut sid = 0u32;
    v.push((
        "storage.capture_us",
        per_call_ns(scale.calls(2_000), || {
            sid = (sid + 1) % n_segments;
            match storage.capture(SegmentId(sid)) {
                Ok(c) => image.copy_from_slice(c.data),
                Err(_) => failed = true,
            }
            black_box(&image);
        }) / 1e3,
    ));
    let mut saves = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for sid in 0..n_segments {
            failed |= storage.cou_save_old(SegmentId(sid), &meter).is_err();
        }
        saves.push(t.elapsed().as_nanos() as f64 / n_segments as f64);
        storage.drop_all_old(&meter);
    }
    v.push(("storage.cou_save_us", median(&saves) / 1e3));
    if failed {
        return Err("a storage call failed in the layer pass".into());
    }
    Ok(())
}

fn update_record(i: u64) -> LogRecord {
    LogRecord::Update {
        txn: TxnId(i),
        record: RecordId(i % 1000),
        value: value(i as u32),
    }
}

fn log(scale: Scale, scratch: &Scratch, v: &mut Values) -> Res<()> {
    let rec = update_record(5);
    let mut buf = Vec::with_capacity(256);
    v.push((
        "log.record_encode_ns",
        per_call_ns(scale.calls(100_000), || {
            buf.clear();
            black_box(&rec).encode_into(&mut buf);
            black_box(&buf);
        }),
    ));
    let costs = small_config(CommitDurability::Force).params;
    let mut mem = LogManager::new(
        Box::new(MemLogDevice::new()),
        costs.log_mode,
        CostMeter::shared(costs.cost),
    );
    let mut failed = false;
    // The tail is forced between batches only, so a timed append is the
    // encode into the tail and nothing else.
    let ns = {
        let means: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let calls = scale.calls(50_000);
                let t = Instant::now();
                for _ in 0..calls {
                    black_box(mem.append(black_box(&rec)));
                }
                let ns = t.elapsed().as_nanos() as f64 / calls as f64;
                failed |= mem.force().is_err();
                ns
            })
            .collect();
        median(&means)
    };
    v.push(("log.append_ns", ns));

    // A force of a 4 KiB tail onto the file device, without and with fsync.
    let per_force = 4096 / rec.encoded_len() as u64;
    for (name, sync, calls) in [("log.force_us", false, 500), ("log.fsync_us", true, 10)] {
        let dir = scratch.sub("log")?;
        let device = SegmentedLogDevice::open(&dir, mmdb::log::DEFAULT_CHUNK_BYTES, sync)
            .map_err(err("open log"))?;
        let mut file = LogManager::new(
            Box::new(device),
            costs.log_mode,
            CostMeter::shared(costs.cost),
        );
        let mut i = 0u64;
        let ns = per_timed_call_ns(scale.calls(calls), || {
            for _ in 0..per_force {
                i += 1;
                file.append(&update_record(i));
            }
            let t = Instant::now();
            file.force().map_err(err("force"))?;
            Ok(t.elapsed().as_nanos() as u64)
        })?;
        v.push((name, ns / 1e3));
    }
    if failed {
        return Err("a log call failed in the layer pass".into());
    }
    Ok(())
}

fn checkpoint_algorithms(v: &mut Values) -> Res<()> {
    let recs_per_seg = S_SEG / S_REC as u64;
    for (name, alg) in [
        ("checkpoint.pass_s.fuzzy_copy", Algorithm::FuzzyCopy),
        (
            "checkpoint.pass_s.two_color_flush",
            Algorithm::TwoColorFlush,
        ),
        ("checkpoint.pass_s.two_color_copy", Algorithm::TwoColorCopy),
        ("checkpoint.pass_s.cou_flush", Algorithm::CouFlush),
        ("checkpoint.pass_s.cou_copy", Algorithm::CouCopy),
    ] {
        let mut cfg = small_config(CommitDurability::Force);
        cfg.algorithm = alg;
        let mut db = Mmdb::open_in_memory(cfg).map_err(err("open_in_memory"))?;
        let mut one = gen::updates_buffer(1);
        let mut passes = Vec::with_capacity(BATCHES);
        for pass in 0..BATCHES as u64 {
            for seg in 0..db.n_segments() {
                one[0].0 = RecordId(seg * recs_per_seg);
                one[0].1.fill(gen::fill_word(5, pass, 0));
                db.run_txn(&one).map_err(err("run_txn"))?;
            }
            let t = Instant::now();
            let report = db.checkpoint().map_err(err("checkpoint"))?;
            passes.push(t.elapsed().as_secs_f64());
            if report.segments_flushed != db.n_segments() {
                return Err(format!(
                    "{name}: a pass over an all-dirty database flushed {} segments",
                    report.segments_flushed
                ));
            }
        }
        v.push((name, median(&passes)));
    }
    Ok(())
}

fn disk(scratch: &Scratch, v: &mut Values) -> Res<()> {
    let db = common::full_config(CommitDurability::Force).params.db;
    let dir = scratch.sub("disk")?;
    let mut backup =
        FileBackup::open(&dir.join("backup"), db, false).map_err(err("open backup"))?;
    let image: Vec<u32> = (0..S_SEG as u32).collect();
    let mut buf = vec![0u32; S_SEG as usize];
    let megabytes = config::USER_BYTES as f64 / 1e6;
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for rep in 0..BATCHES {
        let (copy, ckpt) = (rep % 2, CheckpointId(rep as u64 + 1));
        backup
            .begin_checkpoint(copy, ckpt)
            .map_err(err("begin_checkpoint"))?;
        let t = Instant::now();
        for sid in 0..N_SEGMENTS as u32 {
            backup
                .write_segment(copy, SegmentId(sid), &image)
                .map_err(err("write_segment"))?;
        }
        writes.push(megabytes / t.elapsed().as_secs_f64());
        backup
            .complete_checkpoint(copy, ckpt)
            .map_err(err("complete_checkpoint"))?;
        let t = Instant::now();
        for sid in 0..N_SEGMENTS as u32 {
            backup
                .read_segment(copy, SegmentId(sid), &mut buf)
                .map_err(err("read_segment"))?;
        }
        reads.push(megabytes / t.elapsed().as_secs_f64());
        if buf != image {
            return Err("a backup segment read back differently".into());
        }
    }
    v.push(("disk.backup_write_mb_per_s", median(&writes)));
    v.push(("disk.backup_read_mb_per_s", median(&reads)));
    Ok(())
}

/// One `mmdb::recovery::recover` (or `recover_parallel`) of the crashed
/// directory, on fresh substrate objects: its wall time, its report and
/// the recovered fingerprint.
fn substrate_recover(
    cfg: &MmdbConfig,
    dir: &Path,
    workers: usize,
) -> Res<(f64, mmdb::RecoveryReport, u64)> {
    let mut storage = Storage::new(cfg.params.db).map_err(err("Storage::new"))?;
    let mut backup =
        FileBackup::open(&dir.join("backup"), cfg.params.db, false).map_err(err("open backup"))?;
    let mut device = SegmentedLogDevice::open(&dir.join("log"), cfg.log_chunk_bytes, false)
        .map_err(err("open log"))?;
    let meter = CostMeter::new(cfg.params.cost);
    let t = Instant::now();
    let report = if workers > 1 {
        mmdb::rescale::recover_parallel(
            &mut storage,
            &mut backup,
            &mut device,
            &cfg.params.disk,
            &meter,
            &Obs::disabled(),
            workers,
        )
    } else {
        mmdb::recovery::recover(
            &mut storage,
            &mut backup,
            &mut device,
            &cfg.params.disk,
            &meter,
        )
    }
    .map_err(err("recover"))?;
    Ok((t.elapsed().as_secs_f64(), report, storage.fingerprint()))
}

/// Median time of three recoveries of `dir`, the last one's report and
/// fingerprint.
fn recover_thrice(
    cfg: &MmdbConfig,
    dir: &Path,
    workers: usize,
) -> Res<(f64, mmdb::RecoveryReport, u64)> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let (s, report, fp) = substrate_recover(cfg, dir, workers)?;
        times.push(s);
        last = Some((report, fp));
    }
    let (report, fp) = last.ok_or("no recovery ran")?;
    Ok((median(&times), report, fp))
}

fn recovery_and_rescale(
    opts: &Opts,
    scale: Scale,
    scratch: &Scratch,
    out: &mut Outcome,
    v: &mut Values,
) -> Res<()> {
    let cfg = small_config(CommitDurability::Force);
    let dir = scratch.sub("recovery")?;
    let tail = scale.calls(TAIL_TXNS as usize) as u64;
    let mut db = common::setup_embedded(cfg, &dir, opts.seed)?;
    db.crash().map_err(err("crash"))?;
    drop(db);
    let (load_s, _, _) = recover_thrice(&cfg, &dir, 1)?;
    v.push(("recovery.backup_load_s", load_s));

    // Grow the tail to `tail` and then to `3 * tail` transactions; no
    // checkpoint runs in between, so each open replays all of it.
    let mut rng = gen::rng(opts.seed, 9);
    let mut updates = gen::updates_buffer(N_RU);
    let mut seq = 0u64;
    let mut grown = Vec::new();
    for more in [tail, 2 * tail] {
        let (mut db, _) = Mmdb::open_dir(cfg, &dir).map_err(err("open_dir"))?;
        for _ in 0..more {
            seq += 1;
            gen::uniform_txn(&mut updates, &mut rng, 6, seq, db.n_records());
            db.run_txn(&updates).map_err(err("run_txn"))?;
        }
        let committed = db.fingerprint();
        db.crash().map_err(err("crash"))?;
        drop(db);
        let (s, report, fp) = recover_thrice(&cfg, &dir, 1)?;
        if fp != committed {
            out.fail("layer pass: serial recovery lost committed transactions".into());
        }
        grown.push((s, report, fp));
    }
    let (t1, t3) = (grown[0].0, grown[1].0);
    let (report3, serial_fp) = (&grown[1].1, grown[1].2);
    v.push(("recovery.serial_s.log1x", t1));
    v.push(("recovery.serial_s.log3x", t3));
    // Replay time only: the backup load is the same in both.
    v.push((
        "recovery.superlinearity",
        (t3 - load_s) / (3.0 * (t1 - load_s)),
    ));
    v.push((
        "recovery.us_per_txn_replayed",
        (t3 - load_s) * 1e6 / report3.txns_replayed.max(1) as f64,
    ));

    let (parallel_s, _, parallel_fp) = recover_thrice(&cfg, &dir, 2)?;
    v.push(("rescale.recover_parallel_s", parallel_s));
    if parallel_fp != serial_fp {
        out.fail(format!(
            "layer pass: parallel replay fingerprint {parallel_fp:#x} differs from serial {serial_fp:#x}"
        ));
    }

    let mut device = SegmentedLogDevice::open(&dir.join("log"), cfg.log_chunk_bytes, false)
        .map_err(err("open log"))?;
    let scans: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let scanner = LogScanner::from_device(&mut device)?;
            let records = scanner.forward_from(scanner.base_lsn()).count();
            black_box(records);
            Ok(scanner.valid_len() as f64 / 1e6 / t.elapsed().as_secs_f64())
        })
        .collect::<mmdb::Result<_>>()
        .map_err(err("scan log"))?;
    v.push(("log.scan_mb_per_s", median(&scans)));

    let sample = device.read_all().map_err(err("read log"))?;
    let sample = &sample[..sample.len().min(4 << 20)];
    let lz: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(mmdb::types::lz::compress(black_box(sample)));
            sample.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    v.push(("rescale.lz_mb_per_s", median(&lz)));

    drop(device);

    // Compaction rewrites the log, so it gets an image of its own: the
    // same tail written by one engine incarnation and closed without a
    // crash (`compact_device` tells transactions apart by `TxnId`, and ids
    // start over at every open).
    let dir = scratch.sub("compact")?;
    let mut db = common::setup_embedded(cfg, &dir, opts.seed)?;
    for _ in 0..3 * tail {
        seq += 1;
        gen::uniform_txn(&mut updates, &mut rng, 6, seq, db.n_records());
        db.run_txn(&updates).map_err(err("run_txn"))?;
    }
    let committed = db.fingerprint();
    drop(db);
    let (compact_s, report) = compact(&cfg, &dir)?;
    v.push((
        "rescale.compact_mb_per_s",
        report.disk_bytes_before as f64 / 1e6 / compact_s,
    ));
    v.push((
        "rescale.compact_ratio",
        report.disk_bytes_before as f64 / report.disk_bytes_after.max(1) as f64,
    ));
    if substrate_recover(&cfg, &dir, 1)?.2 != committed {
        out.fail("layer pass: recovery after compaction lands on a different state".into());
    }
    Ok(())
}

/// One compressing compaction pass over the log in `dir`: its wall time
/// and report.
fn compact(cfg: &MmdbConfig, dir: &Path) -> Res<(f64, mmdb::rescale::CompactReport)> {
    let mut device = SegmentedLogDevice::open(&dir.join("log"), cfg.log_chunk_bytes, false)
        .map_err(err("open log"))?;
    let options = mmdb::rescale::CompactOptions {
        pins: Vec::new(),
        compress: true,
    };
    let t = Instant::now();
    let report = mmdb::rescale::compact_device(&mut device, &options, &Obs::disabled())
        .map_err(err("compact"))?;
    Ok((t.elapsed().as_secs_f64(), report))
}

/// `embedded_update`'s loop on a small engine, telemetry on against off.
fn telemetry_overhead(opts: &Opts, scale: Scale, scratch: &Scratch, v: &mut Values) -> Res<()> {
    let txns = scale.calls(15_000) as u64;
    let mut rates = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (telemetry, rates) in [false, true].into_iter().zip(rates.iter_mut()) {
            let mut cfg = small_config(CommitDurability::Force);
            cfg.telemetry = telemetry;
            let dir = scratch.sub("telemetry")?;
            let (mut db, _) = Mmdb::open_dir(cfg, &dir).map_err(err("open_dir"))?;
            let mut lp = embedded_update::Loop::new(opts.seed);
            let t = Instant::now();
            lp.run(&mut db, txns, &mut Tracer::off(), &mut Hist::new())?;
            rates.push(txns as f64 / t.elapsed().as_secs_f64());
        }
    }
    v.push(("obs.overhead_frac", median(&rates[1]) / median(&rates[0])));
    Ok(())
}

fn generator(scale: Scale, v: &mut Values) {
    let mut rng = gen::rng(1, 10);
    let mut updates = gen::updates_buffer(N_RU);
    let mut seq = 0u64;
    v.push((
        "bench.gen_ns",
        per_call_ns(scale.calls(100_000), || {
            seq += 1;
            gen::uniform_txn(&mut updates, &mut rng, 0, seq, config::N_RECORDS);
            black_box(&updates);
        }),
    ));
}

/// Runs the pass; correctness failures land in `out`.
pub fn run(opts: &Opts, scratch: &Scratch, out: &mut Outcome) -> Res<Values> {
    let scale = Scale(opts.quick);
    let mut v = Values::new();
    wire(scale, &mut v)?;
    shard_and_server(scale, &scratch.sub("shard")?, &mut v)?;
    core(scale, &scratch.sub("core")?, &mut v)?;
    storage(scale, &mut v)?;
    log(scale, scratch, &mut v)?;
    checkpoint_algorithms(&mut v)?;
    disk(scratch, &mut v)?;
    recovery_and_rescale(opts, scale, scratch, out, &mut v)?;
    telemetry_overhead(opts, scale, scratch, &mut v)?;
    generator(scale, &mut v);
    Ok(v)
}
