//! Closed-loop network load driver.
//!
//! Spawns one thread per connection; each thread replays a
//! [`mmdb_workload`] update stream (Uniform or Zipf, deterministic per
//! seed) as `Batch` transactions over its own [`Client`]. Each commit
//! acks before the next send, so offered load tracks service capacity:
//! a smoke-test load generator, not a latency measurement (a closed
//! loop stops offering load during a stall, so it under-reports tail
//! latency; the measurement of record is `benchmark/`).
//!
//! Transient server errors (two-color aborts surfacing through a
//! quiesce, COU quiesce refusals) are retried and *counted as retries*,
//! not errors: under continuous checkpointing they are the ordinary
//! cost of transaction-consistent checkpoints (paper §3.2), not
//! failures. Anything else increments `errors` — a correct run reports
//! zero.

use mmdb_obs::hist::{HistSummary, Histogram};
use mmdb_types::{RecordId, Word};
use mmdb_wire::{Client, ErrorCode, WireError, WireResult};
use mmdb_workload::{UniformWorkload, Workload, ZipfWorkload};
use std::time::{Duration, Instant};

/// Which record-selection distribution each connection replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Uniform over the whole record space.
    Uniform,
    /// Zipf-like with the given skew parameter `theta` in `[0, 1)`.
    Zipf(f64),
}

impl WorkloadKind {
    /// Stable label, as `bench-net` prints it.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Zipf(_) => "zipf",
        }
    }
}

/// Parameters for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `"127.0.0.1:7878"`.
    pub addr: String,
    /// Concurrent connections (one closed-loop thread each).
    pub connections: usize,
    /// Transactions each connection commits.
    pub txns_per_conn: u64,
    /// Records updated per transaction.
    pub updates_per_txn: u32,
    /// Base RNG seed; connection `i` derives an independent stream.
    pub seed: u64,
    /// Record-selection distribution.
    pub workload: WorkloadKind,
    /// Max transparent retries per transaction on transient errors.
    pub max_retries: u32,
    /// Per-response timeout for every connection.
    pub timeout: Duration,
    /// Shard count of the *server* topology (1 = unsharded). When > 1,
    /// each connection remaps its generated records onto a home shard
    /// (`connection_index % shards`) so the steady-state workload is
    /// shard-affine — the scale-out regime the topology is for. The
    /// distribution's shape is preserved within the shard.
    pub shards: usize,
    /// Fraction of transactions (per connection, deterministic) that
    /// deliberately span shards instead of staying on the home shard,
    /// exercising the two-phase cross-shard commit path. Ignored when
    /// `shards == 1`.
    pub cross_fraction: f64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            connections: 8,
            txns_per_conn: 200,
            updates_per_txn: 4,
            seed: 42,
            workload: WorkloadKind::Uniform,
            max_retries: 1000,
            timeout: Duration::from_secs(30),
            shards: 1,
            cross_fraction: 0.0,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections that ran.
    pub connections: usize,
    /// Transactions committed across all connections.
    pub committed: u64,
    /// Non-transient failures (0 in a correct run).
    pub errors: u64,
    /// Transparent transient retries absorbed by the driver.
    pub retries: u64,
    /// Wall-clock time from first spawn to last join.
    pub elapsed: Duration,
    /// Committed transactions per wall-clock second.
    pub throughput_tps: f64,
    /// Commit latency digest in microseconds, merged over connections.
    pub latency_us: HistSummary,
}

struct ConnOutcome {
    committed: u64,
    errors: u64,
    retries: u64,
    latency_us: Histogram,
}

/// Runs the closed-loop driver to completion. Fails only on setup
/// errors (connect/info); per-transaction failures are counted in the
/// report instead.
pub fn run_load(cfg: &LoadConfig) -> WireResult<LoadReport> {
    let info = {
        let mut probe = Client::connect(&cfg.addr)?;
        probe.set_timeout(Some(cfg.timeout))?;
        probe.info()?
    };
    let s_rec = info.record_words as usize;
    let n_records = info.n_records;

    let started = Instant::now();
    let mut joins = Vec::with_capacity(cfg.connections);
    for i in 0..cfg.connections {
        let cfg = cfg.clone();
        joins.push(std::thread::spawn(move || -> WireResult<ConnOutcome> {
            run_connection(&cfg, i, n_records, s_rec)
        }));
    }

    let mut report = LoadReport {
        connections: cfg.connections,
        committed: 0,
        errors: 0,
        retries: 0,
        elapsed: Duration::ZERO,
        throughput_tps: 0.0,
        latency_us: HistSummary::default(),
    };
    let mut merged = Histogram::new();
    let mut first_err: Option<WireError> = None;
    for j in joins {
        match j.join() {
            Ok(Ok(out)) => {
                report.committed += out.committed;
                report.errors += out.errors;
                report.retries += out.retries;
                merged.merge(&out.latency_us);
            }
            Ok(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Err(_) => {
                if first_err.is_none() {
                    first_err = Some(WireError::Unexpected("load thread panicked".into()));
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.elapsed = started.elapsed();
    report.latency_us = merged.summary();
    let secs = report.elapsed.as_secs_f64();
    report.throughput_tps = if secs > 0.0 {
        report.committed as f64 / secs
    } else {
        0.0
    };
    Ok(report)
}

fn run_connection(
    cfg: &LoadConfig,
    index: usize,
    n_records: u64,
    s_rec: usize,
) -> WireResult<ConnOutcome> {
    let mut client = Client::connect(&cfg.addr)?;
    client.set_timeout(Some(cfg.timeout))?;

    // Independent deterministic stream per connection.
    let seed = cfg
        .seed
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut workload: Box<dyn Workload> = match cfg.workload {
        WorkloadKind::Uniform => {
            Box::new(UniformWorkload::new(n_records, cfg.updates_per_txn, seed))
        }
        WorkloadKind::Zipf(theta) => Box::new(ZipfWorkload::new(
            n_records,
            cfg.updates_per_txn,
            theta,
            seed,
        )),
    };

    let mut out = ConnOutcome {
        committed: 0,
        errors: 0,
        retries: 0,
        latency_us: Histogram::new(),
    };
    // Deterministic per-connection stream deciding which transactions
    // deliberately cross shards (xorshift64, independent of the record
    // distribution so remapping never perturbs it).
    let mut cross_rng = seed ^ 0x5DEE_CE66_D000_000B;
    if cross_rng == 0 {
        cross_rng = 0x9E37_79B9_7F4A_7C15;
    }
    for _ in 0..cfg.txns_per_conn {
        let mut updates: Vec<(RecordId, Vec<Word>)> = workload.next_txn().materialize(s_rec);
        if cfg.shards > 1 {
            cross_rng ^= cross_rng << 13;
            cross_rng ^= cross_rng >> 7;
            cross_rng ^= cross_rng << 17;
            let cross = cfg.cross_fraction > 0.0
                && ((cross_rng >> 11) as f64) / ((1u64 << 53) as f64) < cfg.cross_fraction;
            remap_to_shards(&mut updates, index, cfg.shards, n_records, cross);
        }
        let t0 = Instant::now();
        match client.retry_transient(cfg.max_retries, |c| c.batch(&updates)) {
            Ok((_committed, retries)) => {
                out.committed += 1;
                out.retries += u64::from(retries);
                let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                out.latency_us.record(us);
            }
            Err(WireError::Remote {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {
                // the server is draining: stop offering load (and do not
                // keep the connection pinned open, which would stall the
                // server's graceful shutdown); not a protocol failure
                return Ok(out);
            }
            Err(WireError::Io(_) | WireError::Protocol(_)) => {
                // the connection is gone or desynchronized: surface it
                out.errors += 1;
                return Ok(out);
            }
            Err(_) => out.errors += 1,
        }
    }
    Ok(out)
}

/// Rewrites each generated record onto the sharded record space: record
/// `r` becomes `(r / shards) * shards + target`, which lands on shard
/// `target` (`rid % shards` routing) while preserving the workload
/// distribution's shape within the shard. An affine transaction targets
/// only the connection's home shard; a cross transaction spreads
/// successive updates over successive shards.
fn remap_to_shards(
    updates: &mut [(RecordId, Vec<Word>)],
    conn_index: usize,
    shards: usize,
    n_records: u64,
    cross: bool,
) {
    let shards = shards as u64;
    let home = conn_index as u64 % shards;
    for (j, (rid, _)) in updates.iter_mut().enumerate() {
        let target = if cross {
            (home + j as u64) % shards
        } else {
            home
        };
        let mut g = (rid.raw() / shards) * shards + target;
        if g >= n_records {
            // the last partial stride: step back one stride, staying on
            // the same shard (valid whenever n_records >= shards)
            g = g.saturating_sub(shards);
        }
        *rid = RecordId(g.min(n_records.saturating_sub(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_remap_preserves_residue_and_range() {
        let words = vec![0u32; 4];
        for n_records in [16u64, 17, 19, 2048] {
            for shards in [2usize, 4, 8] {
                for conn in 0..shards {
                    let mut updates: Vec<(RecordId, Vec<Word>)> = (0..n_records)
                        .map(|r| (RecordId(r), words.clone()))
                        .collect();
                    remap_to_shards(&mut updates, conn, shards, n_records, false);
                    let home = (conn % shards) as u64;
                    for (rid, _) in &updates {
                        assert!(rid.raw() < n_records);
                        assert_eq!(rid.raw() % shards as u64, home);
                    }
                }
            }
        }
    }

    #[test]
    fn shard_remap_cross_txn_spans_multiple_shards() {
        let words = vec![0u32; 4];
        let mut updates: Vec<(RecordId, Vec<Word>)> =
            (100..104).map(|r| (RecordId(r), words.clone())).collect();
        remap_to_shards(&mut updates, 0, 4, 2048, true);
        let mut shards_hit: Vec<u64> = updates.iter().map(|(r, _)| r.raw() % 4).collect();
        shards_hit.sort_unstable();
        shards_hit.dedup();
        assert_eq!(shards_hit, vec![0, 1, 2, 3]);
    }

    #[test]
    fn workload_kind_labels_are_stable() {
        assert_eq!(WorkloadKind::Uniform.label(), "uniform");
        assert_eq!(WorkloadKind::Zipf(0.5).label(), "zipf");
    }
}
