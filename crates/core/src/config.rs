//! Engine configuration.

use mmdb_checkpoint::WalPolicy;
use mmdb_types::{Algorithm, Params};

/// When a commit becomes durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitDurability {
    /// Force the log tail at every commit: a successful `commit()` is
    /// durable (no committed work is ever lost). This is the default and
    /// what the durability property tests assume.
    #[default]
    Force,
    /// Group commit with full durability: `commit()` only appends the
    /// commit record, and the *caller* — the shard router or server
    /// worker — then releases the engine lock and waits on the log's
    /// durable-LSN watermark ([`mmdb_log::DurableWatermark`]) until a
    /// batched force covers the commit's end-LSN. The ack is therefore
    /// exactly as durable as [`Force`](Self::Force), but one real force is
    /// amortized over every commit that arrived while the previous force
    /// was in flight — the paper's wish to avoid "forcing transaction
    /// updates to disk before commit" (§1) without its cost. Only
    /// meaningful with a volatile tail (a stable tail is durable on
    /// append). An engine used directly (not through `mmdb-shard` /
    /// `mmdb-server`) does no wait: its commit becomes durable at the
    /// next force ([`Mmdb::force_log`](crate::Mmdb::force_log), a full
    /// tail), and a crash before then loses a suffix of committed
    /// transactions but lands on a consistent prefix.
    Group,
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmdbConfig {
    /// The paper's model parameters (database shape, costs, disks, load).
    pub params: Params,
    /// The checkpointing algorithm.
    pub algorithm: Algorithm,
    /// What to do when the write-ahead gate blocks a flush.
    pub wal_policy: WalPolicy,
    /// Commit durability discipline.
    pub commit_durability: CommitDurability,
    /// `fsync` file devices on write (real durability; slower tests).
    pub sync_files: bool,
    /// Modeled log-device force latency, in microseconds (`0` disables).
    /// The paper evaluates checkpointing with parameterized I/O costs
    /// rather than wall-clock hardware; this knob is the wall-clock
    /// analogue for the log disk: every log force additionally waits
    /// this long, standing in for the rotational log device whose write
    /// latency dominates commit cost in the paper's era. Benchmarks use
    /// it to study commit-serialization effects (e.g. shard scaling) in
    /// the regime the paper assumes, on hardware where a real flush is
    /// too fast to expose them.
    pub log_force_latency_us: u32,
    /// After each completed checkpoint, truncate the log prefix that no
    /// recovery can ever need (everything before the older complete
    /// ping-pong copy's replay floor). Space is actually reclaimed on
    /// devices that support it (the segmented log deletes whole chunks).
    pub auto_truncate_log: bool,
    /// Chunk size for the segmented on-disk log used by
    /// [`Mmdb::open_dir`](crate::Mmdb::open_dir).
    pub log_chunk_bytes: u64,
    /// Run the online protocol-invariant audit: the engine, checkpointer,
    /// log manager and backup store emit a typed event stream that five
    /// checker state machines validate as it happens (WAL gate, paint
    /// discipline, COU old-copy lifetime, ping-pong alternation, LSN /
    /// checkpoint-id monotonicity). Violations surface through
    /// [`Mmdb::audit_violations`](crate::Mmdb::audit_violations). Off by
    /// default for production-shaped runs; [`MmdbConfig::small`] turns it
    /// on so every test runs fully checked.
    pub audit: bool,
    /// Ignored; recovery replays on one lane; deleted by the next
    /// `benchmark`-archetype PR (`benchmark/` still assigns it).
    #[doc(hidden)]
    pub recovery_workers: usize,
    /// Compress backup segment slots as checkpoints write them. Reads
    /// are per-slot self-describing, so the flag can change between
    /// checkpoints and old backups stay readable either way.
    pub compress_backups: bool,
    /// Compress cold log chunks when the compactor rewrites them.
    pub compress_log_chunks: bool,
    /// Run the telemetry layer: spans, latency histograms, and the
    /// unified metrics registry behind
    /// [`Mmdb::metrics_snapshot`](crate::Mmdb::metrics_snapshot) and
    /// [`Mmdb::obs`](crate::Mmdb::obs). When off (the default for
    /// production-shaped runs) every instrumentation point is a no-op on
    /// a `None` handle — no clock reads, no label formatting, no
    /// allocation. [`MmdbConfig::small`] turns it on so every test
    /// exercises the instrumented paths.
    pub telemetry: bool,
}

impl MmdbConfig {
    /// A configuration with the paper's defaults and the given algorithm.
    pub fn new(algorithm: Algorithm) -> MmdbConfig {
        MmdbConfig {
            params: Params::paper_defaults(),
            algorithm,
            wal_policy: WalPolicy::Force,
            commit_durability: CommitDurability::Force,
            sync_files: false,
            log_force_latency_us: 0,
            auto_truncate_log: true,
            log_chunk_bytes: mmdb_log::DEFAULT_CHUNK_BYTES,
            recovery_workers: 1,
            compress_backups: false,
            compress_log_chunks: false,
            audit: false,
            telemetry: false,
        }
    }

    /// A laptop-scale configuration (small database) with the given
    /// algorithm — what the tests and examples use.
    pub fn small(algorithm: Algorithm) -> MmdbConfig {
        MmdbConfig {
            params: Params::small(),
            audit: true,
            telemetry: true,
            ..MmdbConfig::new(algorithm)
        }
    }

    /// Validates internal consistency (shape constraints, algorithm/log
    /// soundness).
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if !self.algorithm.sound_under(self.params.log_mode) {
            return Err(format!(
                "{} requires a stable log tail (set params.log_mode = LogMode::StableTail)",
                self.algorithm
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::LogMode;

    #[test]
    fn default_config_is_valid() {
        for alg in Algorithm::BASE_FIVE {
            MmdbConfig::new(alg).validate().unwrap();
            MmdbConfig::small(alg).validate().unwrap();
        }
    }

    #[test]
    fn fastfuzzy_needs_stable_tail() {
        let mut c = MmdbConfig::small(Algorithm::FastFuzzy);
        assert!(c.validate().is_err());
        c.params.log_mode = LogMode::StableTail;
        c.validate().unwrap();
    }

    #[test]
    fn bad_shape_rejected() {
        let mut c = MmdbConfig::small(Algorithm::FuzzyCopy);
        c.params.db.s_seg = 100;
        assert!(c.validate().is_err());
    }
}
