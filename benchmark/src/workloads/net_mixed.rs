//! `net_mixed`: the only workload with the wire codec, the server's
//! connection hand-off, the shard router, two-phase commit and the
//! group-commit flusher on the path. An in-process server over 2 shards
//! (2 workers, a checkpoint per shard every 50 ms, `Group` durability)
//! serves 2 closed-loop `wire::Client` connections, one thread each:
//! 50 % `get`, 40 % single-shard `batch` of 2 updates, 10 % cross-shard
//! `batch`. Callers each wait for a reply, so the loop is closed, with 2
//! clients. Each connection writes only its own half of the record space
//! and remembers the last acknowledged fill of every record in it.

use crate::common::{self, err, CkptDelta, LogCount, Opts, Outcome, Res, Scratch};
use crate::config::{self, rate, RECORD_BYTES};
use crate::gen;
use crate::hist::{peak_rss_bytes, Hist};
use crate::trace::{self, Tracer};
use mmdb::server::{Server, ServerConfig, ServerHandle};
use mmdb::shard::ShardedMmdb;
use mmdb::wire::Client;
use mmdb::{CommitDurability, MmdbConfig, RecordId};
use rand::RngExt;
use std::path::Path;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const CONNS: usize = 2;
const CKPT_PAUSE: Duration = Duration::from_millis(50);

fn config() -> MmdbConfig {
    common::full_config(CommitDurability::Group)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: CONNS,
        checkpoint_interval: Some(CKPT_PAUSE),
        slow_trace_us: 0,
        ..ServerConfig::default()
    }
}

/// Connection `c` owns the records whose id, shifted past the shard bit,
/// has parity `c`; each owner therefore has records on both shards.
fn owner(rid: u64) -> usize {
    ((rid >> 1) & 1) as usize
}

/// The `k`-th record of connection `c` on shard `shard`.
fn owned_rid(c: usize, shard: u64, k: u64) -> u64 {
    (k << 2) | ((c as u64) << 1) | shard
}

struct Conn {
    id: usize,
    client: Client,
    rng: rand::rngs::StdRng,
    batch: gen::Updates,
    /// Last acknowledged fill of every record, indexed by record id;
    /// only this connection's own records are ever updated.
    acked: Vec<u32>,
    seq: u64,
    updates_acked: u64,
    bad_reads: u64,
    lat: Hist,
}

impl Conn {
    fn run(&mut self, n: u64, record: bool, tr: &mut Tracer) -> Res<()> {
        let op = trace::name("bench.op");
        let names = [
            trace::name("server.get_rt"),
            trace::name("server.batch_rt"),
            trace::name("server.batch_cross_rt"),
        ];
        let n_records = self.acked.len() as u64;
        let per_owner_shard = n_records / 4;
        for _ in 0..n {
            self.seq += 1;
            let kind = match self.rng.random_range(0..10u32) {
                0..=4 => 0,
                5..=8 => 1,
                _ => 2,
            };
            let mut get_rid = 0;
            if kind == 0 {
                get_rid = self.rng.random_range(0..n_records);
            } else {
                let first = self.rng.random_range(0..2u64);
                let k0 = self.rng.random_range(0..per_owner_shard);
                let mut k1 = self.rng.random_range(0..per_owner_shard);
                let second = if kind == 1 { first } else { 1 - first };
                if second == first && k1 == k0 {
                    k1 = (k1 + 1) % per_owner_shard;
                }
                self.batch[0].0 = RecordId(owned_rid(self.id, first, k0));
                self.batch[1].0 = RecordId(owned_rid(self.id, second, k1));
                for (slot, (_, value)) in self.batch.iter_mut().enumerate() {
                    value.fill(gen::fill_word(self.id as u64, self.seq, slot));
                }
            }
            tr.open(op, self.seq);
            let t = Instant::now();
            if kind == 0 {
                let got = tr.span(names[0], self.seq, || self.client.get(RecordId(get_rid)));
                if record {
                    self.lat.record(t.elapsed().as_nanos() as u64);
                }
                let value = got.map_err(err("get"))?;
                let mine = owner(get_rid) == self.id;
                if !common::untorn(&value) || mine && value[0] != self.acked[get_rid as usize] {
                    self.bad_reads += 1;
                }
            } else {
                let sent = tr.span(names[kind], self.seq, || self.client.batch(&self.batch));
                if record {
                    self.lat.record(t.elapsed().as_nanos() as u64);
                }
                sent.map_err(err("batch"))?;
                for (rid, value) in &self.batch {
                    self.acked[rid.raw() as usize] = value[0];
                }
                self.updates_acked += self.batch.len() as u64;
            }
            tr.close();
        }
        Ok(())
    }
}

/// Sends `n` requests on every connection at once.
fn phase(conns: &mut [Conn], tracers: &mut [Tracer], n: u64, record: bool) -> Res<(f64, Vec<f64>)> {
    common::run_threads(conns, tracers, |c, tr| c.run(n, record, tr))
}

/// Everything setup builds: the running server, its connections, and the
/// counters read before the server took the database.
struct Built {
    handle: ServerHandle,
    clients: Vec<Client>,
    log0: LogCount,
    ckpt0: CkptDelta,
}

fn ckpt_counters(db: &ShardedMmdb) -> CkptDelta {
    (0..db.shards())
        .map(|i| db.with_shard(i, |e| CkptDelta::of(e)))
        .fold(CkptDelta::default(), CkptDelta::plus)
}

fn setup(dir: &Path, seed: u64) -> Res<Built> {
    let db = common::setup_sharded(config(), dir, SHARDS, seed)?;
    let log0 = LogCount::of_sharded(&db);
    let ckpt0 = ckpt_counters(&db);
    let handle = Server::spawn_sharded(db, server_config()).map_err(err("spawn server"))?;
    let clients = (0..CONNS)
        .map(|_| Client::connect(handle.local_addr()).map_err(err("connect")))
        .collect::<Res<Vec<_>>>()?;
    Ok(Built {
        handle,
        clients,
        log0,
        ckpt0,
    })
}

/// Runs the workload; `tracers` has one recorder per connection.
pub fn run(opts: &Opts, scratch: &Scratch, tracers: &mut [Tracer]) -> Res<Outcome> {
    let mut out = Outcome::new();
    let setup = |dir: &Path| setup(dir, opts.seed);
    let discard = |built: Built| {
        drop(built.clients);
        drop(built.handle.shutdown_join());
    };
    out.setup_s = common::throwaway_setups(opts.setups_before(), scratch, setup, discard)?;
    let (built, dir, setup_s) = common::timed_setup(scratch, &mut tracers[0], setup)?;
    out.setup_s.push(setup_s);
    let Built {
        handle,
        clients,
        log0,
        ckpt0,
    } = built;

    let n_records = config::N_RECORDS;
    let initial: Vec<u32> = (0..n_records)
        .map(|rid| gen::setup_fill(opts.seed, rid))
        .collect();
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(id, client)| Conn {
            id,
            client,
            rng: gen::rng(opts.seed, id as u64),
            batch: gen::updates_buffer(2),
            acked: initial.clone(),
            seq: 0,
            updates_acked: 0,
            bad_reads: 0,
            lat: Hist::new(),
        })
        .collect();
    drop(initial);

    let reqs = opts.ops(rate::NET_MIXED_REQS_PER_CONN);
    let mut off: Vec<Tracer> = (0..CONNS).map(|_| Tracer::off()).collect();
    phase(&mut conns, &mut off, opts.warmup(reqs), false)?;

    let ckpts0 = handle.checkpoints_completed();
    let total = |n: u64| n * CONNS as u64;
    if opts.trace {
        // First half untraced, second half traced; see `embedded_update`.
        let half = reqs / 2;
        out.timed_ops = total(half);
        out.phase_s = phase(&mut conns, &mut off, half, true)?.0;
        for tr in tracers.iter_mut() {
            tr.reset_aggregates();
        }
        let (traced_s, each) = phase(&mut conns, tracers, reqs - half, false)?;
        out.measured_s = out.phase_s + traced_s;
        out.traced_ops_per_s = Some(total(reqs - half) as f64 / traced_s);
        out.span_coverage = tracers
            .iter()
            .zip(&each)
            .map(|(tr, wall)| tr.top_level_ns() as f64 / 1e9 / wall)
            .reduce(f64::min);
    } else {
        out.timed_ops = total(reqs);
        out.phase_s = phase(&mut conns, tracers, reqs, true)?.0;
        out.measured_s = out.phase_s;
    }
    out.peak_rss_bytes = peak_rss_bytes()?;
    // A quick run can end before the first background pass does; give
    // it the time to, so that there is a pass to report.
    let mut passes = handle.checkpoints_completed() - ckpts0;
    let mut window_s = out.measured_s;
    let waiting = Instant::now();
    while passes == 0 && waiting.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
        passes = handle.checkpoints_completed() - ckpts0;
        window_s = out.measured_s + waiting.elapsed().as_secs_f64();
    }
    out.attempted = total(reqs);
    for c in &conns {
        out.latency.merge(&c.lat);
    }

    // The server's own threads checkpoint, so a pass is timed from
    // outside: each shard alternates one pass with one 50 ms pause.
    out.ckpt_passes = passes;
    out.ckpt_pass_is_mean = true;
    if passes > 0 {
        let per_pass = window_s * SHARDS as f64 / passes as f64;
        out.ckpt_pass_s = vec![per_pass - CKPT_PAUSE.as_secs_f64()];
        out.ckpt_busy_s = window_s - passes as f64 * CKPT_PAUSE.as_secs_f64() / SHARDS as f64;
    }

    let acked: Vec<Vec<u32>> = conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.acked))
        .collect();
    let bad_reads: u64 = conns.iter().map(|c| c.bad_reads).sum();
    let updates_acked: u64 = conns.iter().map(|c| c.updates_acked).sum();
    drop(conns);
    let tr = &mut tracers[0];
    let db = tr.span(trace::name("server.shutdown"), 0, || handle.shutdown_join());

    // The log and checkpoint counters cover the server's whole life,
    // warm-up included, and so does the count of acknowledged updates:
    // the ratios are those of the request mix.
    out.user_bytes = updates_acked * RECORD_BYTES;
    out.log = LogCount::of_sharded(&db).since(log0);
    out.ckpt = ckpt_counters(&db).since(ckpt0);
    if bad_reads > 0 {
        out.fail(format!("{bad_reads} gets returned a torn or stale value"));
    }

    let committed = db.fingerprint();
    tr.open(trace::name("core.crash"), 0);
    let crashed: Res<()> =
        (0..SHARDS).try_for_each(|i| db.with_shard(i, |e| e.crash()).map_err(err("crash")));
    tr.close();
    crashed?;
    drop(db);
    let (db, recovery_s, mut setup_s) = common::recoveries_and_setups(
        opts,
        scratch,
        trace::name("shard.open_dir"),
        tr,
        || {
            ShardedMmdb::open_dir(config(), &dir, SHARDS)
                .map(|(db, _)| db)
                .map_err(err("cold open_dir"))
        },
        setup,
        discard,
    )?;
    out.setup_s.append(&mut setup_s);
    out.recovery_s = recovery_s;
    if db.fingerprint() != committed {
        out.fail(format!(
            "recovered fingerprint {:#x} differs from the committed one {committed:#x}",
            db.fingerprint()
        ));
    }
    // Every record must read back as the last fill its owner saw
    // acknowledged (the setup fill if it was never written), untorn.
    let mut lost = 0u64;
    for rid in 0..n_records {
        let value = db
            .read_committed(RecordId(rid))
            .map_err(err("read_committed"))?;
        if !common::untorn(&value) || value[0] != acked[owner(rid)][rid as usize] {
            lost += 1;
        }
    }
    if lost > 0 {
        out.fail(format!(
            "{lost} records lost their last acknowledged value or are torn"
        ));
    }
    Ok(out)
}
