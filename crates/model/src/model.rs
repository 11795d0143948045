//! The analytic performance model (paper §4, re-derived; see DESIGN.md §5).
//!
//! The model computes, for one checkpoint algorithm at one parameter
//! setting, the paper's two metrics:
//!
//! * **processor overhead** in instructions per transaction — synchronous
//!   (work done on behalf of a transaction: LSN maintenance, COU segment
//!   copies, rerun transaction bodies) plus asynchronous (the
//!   checkpointer's work, amortized over the transactions that run during
//!   one checkpoint interval: §4 "the asynchronous cost is divided by the
//!   number of transactions that run during the duration of the
//!   checkpoint and then added to the synchronous cost");
//! * **recovery time** in seconds — reading the backup database plus the
//!   relevant portion of the log (§4).
//!
//! The cost terms deliberately mirror the executable engine
//! (`mmdb-checkpoint`) operation for operation, so the discrete-event
//! simulator can cross-validate the model: the same lock/alloc/IO/LSN/
//! move charges appear in both.

use mmdb_types::{Algorithm, CkptMode, Params, RecordId, TxnId};

/// Words assumed per backup header I/O (begin/complete markers). The
/// headers bound the minimum checkpoint duration at very low loads.
const HEADER_WORDS: u64 = 1024;

/// One evaluated operating point of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelPoint {
    /// The algorithm evaluated.
    pub algorithm: Algorithm,
    /// Checkpoint interval `D` (begin-to-begin), seconds.
    pub duration: f64,
    /// Active flush time `D_act ≤ D`, seconds.
    pub active_duration: f64,
    /// Expected segments flushed per checkpoint.
    pub segments_flushed: f64,
    /// Expected COU old-copy saves per checkpoint (0 for non-COU).
    pub cou_copies: f64,
    /// Expected COU record saves per checkpoint (0 for non-COU, and
    /// under [`CouGranularity::Segment`]).
    pub cou_record_saves: f64,
    /// Probability an arriving transaction is aborted at least once by
    /// the two-color rule (0 for non-2C).
    pub p_restart: f64,
    /// Expected reruns per arriving transaction (one rerun per abort:
    /// the aborted transaction is resubmitted after the conflicting
    /// checkpoint completes, where it cannot conflict again).
    pub expected_reruns: f64,
    /// Synchronous checkpoint overhead, instructions/transaction.
    pub sync_per_txn: f64,
    /// Asynchronous checkpoint overhead, instructions/transaction.
    pub async_per_txn: f64,
    /// Log words that recovery must replay (1.5 intervals of production).
    pub log_replay_words: f64,
    /// Recovery time, seconds.
    pub recovery_seconds: f64,
}

impl ModelPoint {
    /// Total checkpoint overhead per transaction — the figures' y-axis.
    pub fn overhead_per_txn(&self) -> f64 {
        self.sync_per_txn + self.async_per_txn
    }
}

/// What a COU checkpoint copies for a racing update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouGranularity {
    /// The paper's: the first update after the begin copies its whole
    /// segment, `C_alloc + S_seg` on the transaction.
    Segment,
    /// The engine's: the first update opens an empty copy (`C_alloc`),
    /// each update saves the record it overwrites once (`S_rec`), both on
    /// the transaction; the sweep builds the `S_seg` snapshot image.
    Record,
}

/// The analytic model for one algorithm at one parameter set.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticModel {
    /// Model parameters.
    pub params: Params,
    /// Algorithm under evaluation.
    pub algorithm: Algorithm,
}

impl AnalyticModel {
    /// A model instance. Panics if the algorithm is unsound under the
    /// parameterized log mode (FASTFUZZY needs a stable tail).
    pub fn new(params: Params, algorithm: Algorithm) -> AnalyticModel {
        assert!(
            algorithm.sound_under(params.log_mode),
            "{algorithm} requires a stable log tail"
        );
        AnalyticModel { params, algorithm }
    }

    fn n_seg(&self) -> f64 {
        self.params.db.n_segments() as f64
    }

    /// Per-segment I/O service time `T_seek + T_trans·S_seg`.
    fn t_io(&self) -> f64 {
        self.params.disk.service_time(self.params.db.s_seg)
    }

    fn t_header(&self) -> f64 {
        self.params.disk.service_time(HEADER_WORDS)
    }

    /// Segment update rate `μ = λ·N_ru/N_seg`.
    fn mu(&self) -> f64 {
        self.params.segment_update_rate()
    }

    /// Expected segments dirty w.r.t. the target ping-pong copy after an
    /// interval `d` of updates. With ping-pong alternation the target
    /// copy was last written **two** intervals ago, so the dirtying
    /// window is `2d`.
    pub fn expected_flushed(&self, d: f64) -> f64 {
        if self.params.ckpt_mode == CkptMode::Full {
            return self.n_seg();
        }
        let window = 2.0 * d;
        self.n_seg() * (1.0 - (-self.mu() * window).exp())
    }

    /// Active flush time for a checkpoint flushing `n_flush` segments:
    /// two header I/Os plus the segment flushes at array bandwidth.
    pub fn active_time(&self, n_flush: f64) -> f64 {
        2.0 * self.t_header() + n_flush * self.t_io() / self.params.disk.n_bdisks as f64
    }

    /// The minimum checkpoint duration: the fixed point of
    /// `D = active_time(expected_flushed(D))` (§4: "The minimum possible
    /// checkpoint duration is a function of the bandwidth to the backup
    /// disks and the rate at which transactions dirty database
    /// segments").
    pub fn min_duration(&self) -> f64 {
        let mut d = self.active_time(self.n_seg()); // start from the full-flush time
        for _ in 0..200 {
            let next = self.active_time(self.expected_flushed(d));
            if (next - d).abs() < 1e-9 {
                return next;
            }
            d = next;
        }
        d
    }

    /// Expected COU old-copy saves during one checkpoint: the sweep
    /// reaches segment `i` at `t_i ≈ (i/N_seg)·D_act`; the segment is
    /// copied iff updated before being swept, so
    /// `E[copies] = N_seg − (N_seg/(μ·D_act))·(1 − e^{−μ·D_act})`.
    pub fn expected_cou_copies(&self, d_act: f64) -> f64 {
        self.updated_before_swept(self.n_seg(), d_act)
    }

    /// Expected COU record saves during one checkpoint: the same sweep
    /// with records for segments, `ν = λ·N_ru/N_rec` for `μ`.
    pub fn expected_cou_record_saves(&self, d_act: f64) -> f64 {
        self.updated_before_swept(self.params.db.n_records() as f64, d_act)
    }

    /// Of `n` uniformly updated units swept over `d_act`, how many are
    /// updated before the sweep reaches them (0 for non-COU).
    fn updated_before_swept(&self, n: f64, d_act: f64) -> f64 {
        if !self.algorithm.is_cou() {
            return 0.0;
        }
        let x = self.params.txn.lambda * self.params.txn.n_ru as f64 / n * d_act;
        if x < 1e-12 {
            return 0.0;
        }
        n * (1.0 - (1.0 - (-x).exp()) / x)
    }

    /// Average probability that an arriving transaction straddles colors
    /// at least once, given the white fraction at checkpoint begin `w0`
    /// and the active fraction `f = D_act/D`. White fraction decays
    /// linearly while the checkpointer is active:
    /// `p̄ = f · ∫₀¹ [1 − (1−w0·u)^N − (w0·u)^N] du`.
    pub fn p_restart(&self, w0: f64, active_fraction: f64) -> f64 {
        if !self.algorithm.is_two_color() || w0 <= 0.0 {
            return 0.0;
        }
        let n = self.params.txn.n_ru as f64;
        // ∫₀¹ (1−w0·u)^N du = (1 − (1−w0)^{N+1}) / (w0·(N+1))
        let int_black = (1.0 - (1.0 - w0).powf(n + 1.0)) / (w0 * (n + 1.0));
        // ∫₀¹ (w0·u)^N du = w0^N / (N+1)
        let int_white = w0.powf(n) / (n + 1.0);
        let p = 1.0 - int_black - int_white;
        (active_fraction * p).clamp(0.0, 1.0 - 1e-9)
    }

    /// Evaluates the model with the paper's segment-granular COU copies.
    /// `interval` requests a checkpoint duration; values below the
    /// minimum are clamped up to it (`None` = minimum, the paper's "as
    /// quickly as possible").
    pub fn evaluate(&self, interval: Option<f64>) -> ModelPoint {
        self.evaluate_with(interval, CouGranularity::Segment)
    }

    /// [`evaluate`](Self::evaluate) with COU copies of the given
    /// granularity: [`CouGranularity::Record`] is what the engine pays.
    pub fn evaluate_with(&self, interval: Option<f64>, cou: CouGranularity) -> ModelPoint {
        let p = &self.params;
        let c = &p.cost;
        let d_min = self.min_duration();
        let d = interval.map(|i| i.max(d_min)).unwrap_or(d_min);
        let n_flush = self.expected_flushed(d);
        let d_act = self.active_time(n_flush).min(d);
        let txns_per_interval = (p.txn.lambda * d).max(1e-9);
        let s_seg = p.db.s_seg as f64;
        let gating = self.algorithm.needs_lsn_gating(p.log_mode);

        // ----- asynchronous (checkpointer) cost per checkpoint -----------
        // Mirrors mmdb-checkpoint operation for operation. The sweep
        // examines one instruction per segment visited: the non-2C
        // algorithms scan the whole database for dirty bits; the
        // two-color algorithms pay one paint/dirty pass at begin and then
        // sweep only the frozen white list.
        let scan = if self.algorithm.is_two_color() {
            (self.n_seg() + n_flush) * c.c_move_per_word as f64
        } else {
            self.n_seg() * c.c_move_per_word as f64
        };
        let paint = 0.0;
        // begin header + complete header + end-marker log force
        // (+ begin log force for COU)
        let fixed_io = if self.algorithm.is_cou() { 4.0 } else { 3.0 };

        let cou_copies = self.expected_cou_copies(d_act);
        // Of the copied segments, the fraction that is dirty w.r.t. the
        // target copy gets flushed from the old copy; copies and dirtiness
        // are both ~uniform over segments, so scale by the flush fraction.
        let old_flushes = cou_copies * (n_flush / self.n_seg()).min(1.0);
        let live_flushes = (n_flush - old_flushes).max(0.0);

        let per_flush = |lock_ops: f64, allocs: f64, copy_words: f64, lsn_ops: f64| {
            lock_ops * c.c_lock as f64
                + allocs * c.c_alloc as f64
                + copy_words * c.c_move_per_word as f64
                + lsn_ops * c.c_lsn as f64
                + c.c_io as f64
        };
        let lsn = if gating { 1.0 } else { 0.0 };
        let async_flush_cost = match self.algorithm {
            Algorithm::FastFuzzy => n_flush * per_flush(0.0, 0.0, 0.0, 0.0),
            Algorithm::FuzzyCopy => n_flush * per_flush(0.0, 2.0, s_seg, lsn),
            Algorithm::TwoColorFlush => n_flush * per_flush(2.0, 0.0, 0.0, lsn),
            Algorithm::TwoColorCopy => n_flush * per_flush(2.0, 2.0, s_seg, lsn),
            Algorithm::CouFlush => {
                live_flushes * per_flush(2.0, 0.0, 0.0, 0.0)
                    + old_flushes * per_flush(2.0, 1.0, 0.0, 0.0)
            }
            Algorithm::CouCopy => {
                live_flushes * per_flush(2.0, 2.0, s_seg, 0.0)
                    + old_flushes * per_flush(2.0, 1.0, 0.0, 0.0)
            }
            // COUAC: COUCOPY's cost shape, plus the LSN check on live
            // flushes (its non-quiesced snapshot must respect the WAL).
            Algorithm::CouAc => {
                live_flushes * per_flush(2.0, 2.0, s_seg, lsn)
                    + old_flushes * per_flush(2.0, 1.0, 0.0, 0.0)
            }
        };
        // COU old-copy saves: the paper's alloc + full-segment copy on the
        // transaction, or the engine's alloc + record saves on the
        // transaction and the snapshot image on the sweep.
        let move_word = c.c_move_per_word as f64;
        let (cou_record_saves, sync_cou_per_ckpt, cou_images) = match cou {
            CouGranularity::Segment => (
                0.0,
                cou_copies * (c.c_alloc as f64 + s_seg * move_word),
                0.0,
            ),
            CouGranularity::Record => {
                let saves = self.expected_cou_record_saves(d_act);
                let s_rec = p.db.s_rec as f64;
                let sync = cou_copies * c.c_alloc as f64 + saves * s_rec * move_word;
                (saves, sync, cou_copies * s_seg * move_word)
            }
        };
        let async_per_ckpt =
            scan + paint + fixed_io * c.c_io as f64 + async_flush_cost + cou_images;
        let async_per_txn = async_per_ckpt / txns_per_interval;

        // ----- synchronous (transaction-side) cost per transaction -------
        // LSN maintenance on every update (gated algorithms only).
        let sync_lsn = if gating {
            p.txn.n_ru as f64 * c.c_lsn as f64
        } else {
            0.0
        };
        let sync_cou = sync_cou_per_ckpt / txns_per_interval;
        // Two-color reruns: each reruns the whole transaction (body + its
        // synchronous LSN work).
        let w0 = (n_flush / self.n_seg()).min(1.0);
        let p_restart = self.p_restart(w0, d_act / d);
        // One rerun per abort: the resubmission happens after the
        // conflicting checkpoint completes (the simulator implements
        // exactly this policy, which is what lets it validate the model).
        let expected_reruns = p_restart;
        let sync_rerun = expected_reruns * (p.txn.c_trans as f64 + sync_lsn);
        let sync_per_txn = sync_lsn + sync_cou + sync_rerun;

        // ----- recovery time ----------------------------------------------
        let log_replay_words = self.log_replay_words(d, expected_reruns);
        let recovery_seconds = self.recovery_seconds(log_replay_words);

        ModelPoint {
            algorithm: self.algorithm,
            duration: d,
            active_duration: d_act,
            segments_flushed: n_flush,
            cou_copies,
            cou_record_saves,
            p_restart,
            expected_reruns,
            sync_per_txn,
            async_per_txn,
            log_replay_words,
            recovery_seconds,
        }
    }

    /// Log words per committed transaction, computed from the engine's
    /// actual record encoding (one `TxnCommit` frame of `N_ru` images),
    /// every id as wide as the database's largest record id.
    pub fn log_words_per_txn(&self) -> f64 {
        let (n_ru, db) = (self.params.txn.n_ru as usize, &self.params.db);
        let widest = db.n_records() - 1;
        let records = std::iter::repeat(RecordId(widest)).take(n_ru);
        let len = mmdb_log::LogRecord::txn_len(TxnId(widest), None, records, db.s_rec as usize);
        len.div_ceil(4) as f64
    }

    /// Log words an aborted (rerun) transaction leaves behind: none. (The
    /// engine logs a transaction only when it commits, so an aborted run
    /// never reaches the log — no log-bulk penalty at all, where the
    /// paper's update-time-logging design pays the updates, noted in
    /// DESIGN.md.)
    pub fn log_words_per_abort(&self) -> f64 {
        0.0
    }

    /// Log words recovery must replay: the completed checkpoint's begin
    /// marker is on average 1.5 intervals old (ping-pong), and every
    /// transaction in that span contributed its bulk (reruns add theirs).
    pub fn log_replay_words(&self, d: f64, expected_reruns: f64) -> f64 {
        let per_txn = self.log_words_per_txn() + expected_reruns * self.log_words_per_abort();
        1.5 * d * self.params.txn.lambda * per_txn
    }

    /// Inverts the overhead/recovery trade-off (Figure 4b) as a pacing
    /// policy: the longest checkpoint interval whose predicted recovery
    /// time stays within `target_seconds`. Longer intervals mean lower
    /// per-transaction overhead, so the returned interval is the
    /// cheapest operating point that honors the recovery budget.
    ///
    /// Returns `None` when the budget is infeasible — recovery at even
    /// the minimum interval (dominated by the backup read) already
    /// exceeds it. The result is clamped to at most `2^40` seconds.
    pub fn interval_for_recovery(&self, target_seconds: f64) -> Option<f64> {
        let d_min = self.min_duration();
        if self.evaluate(Some(d_min)).recovery_seconds > target_seconds {
            return None;
        }
        // recovery time is monotone in the interval: bracket then bisect
        let mut lo = d_min;
        let mut hi = d_min.max(1.0);
        while self.evaluate(Some(hi)).recovery_seconds <= target_seconds {
            hi *= 2.0;
            if hi > (1u64 << 40) as f64 {
                return Some(hi);
            }
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.evaluate(Some(mid)).recovery_seconds <= target_seconds {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Recovery time for a given log replay volume: full backup read at
    /// array bandwidth plus a sequential striped log read (§4).
    pub fn recovery_seconds(&self, log_words: f64) -> f64 {
        let disk = &self.params.disk;
        let backup = disk.array_time(self.params.db.n_segments(), self.params.db.s_seg);
        let log = if log_words <= 0.0 {
            0.0
        } else {
            disk.t_seek + log_words * disk.t_trans / disk.n_bdisks as f64
        };
        backup + log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::{DiskParams, LogMode};

    fn model(algorithm: Algorithm) -> AnalyticModel {
        let mut p = Params::paper_defaults();
        if algorithm == Algorithm::FastFuzzy {
            p.log_mode = LogMode::StableTail;
        }
        AnalyticModel::new(p, algorithm)
    }

    #[test]
    fn min_duration_near_full_flush_time_at_default_load() {
        // At λ=1000 essentially every segment is dirty over 2·D, so the
        // minimum duration ≈ the full-database flush time ≈ 90 s.
        let m = model(Algorithm::FuzzyCopy);
        let d = m.min_duration();
        assert!((85.0..95.0).contains(&d), "got {d}");
        assert!(m.expected_flushed(d) > 0.99 * 32768.0);
    }

    #[test]
    fn min_duration_small_at_low_load() {
        let mut p = Params::paper_defaults();
        p.txn.lambda = 10.0;
        let m = AnalyticModel::new(p, Algorithm::FuzzyCopy);
        let d = m.min_duration();
        assert!(d < 1.0, "low-load checkpoints are quick, got {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn fastfuzzy_calibration_anchor() {
        // Paper §4: with a stable log tail, FASTFUZZY costs "only a few
        // hundred instructions per transaction".
        let point = model(Algorithm::FastFuzzy).evaluate(None);
        let o = point.overhead_per_txn();
        assert!((100.0..900.0).contains(&o), "got {o}");
    }

    #[test]
    fn cou_is_no_more_costly_than_fuzzy() {
        // Paper §4 / Figure 4a: "generating a transaction consistent
        // backup with a COU algorithm is no more costly than generating a
        // fuzzy backup".
        let fuzzy = model(Algorithm::FuzzyCopy)
            .evaluate(None)
            .overhead_per_txn();
        for alg in [Algorithm::CouCopy, Algorithm::CouFlush] {
            let cou = model(alg).evaluate(None).overhead_per_txn();
            assert!(
                cou < fuzzy * 1.15,
                "{alg}: {cou} should be ≈≤ fuzzy {fuzzy}"
            );
        }
    }

    #[test]
    fn record_granular_cou_moves_the_segment_copy_to_the_sweep() {
        for alg in Algorithm::ALL_EXTENDED {
            let m = model(alg);
            let (paper, engine) = (
                m.evaluate(None),
                m.evaluate_with(None, CouGranularity::Record),
            );
            if !alg.is_cou() {
                assert_eq!(paper, engine, "{alg}: no COU term");
                continue;
            }
            // each copied segment saves some of its records, never more
            let per_copy = engine.cou_record_saves / engine.cou_copies;
            assert!(per_copy > 1.0 && per_copy < 256.0, "{alg}: {per_copy}");
            // the S_seg copy leaves the transaction for the sweep's image
            assert!(engine.sync_per_txn < paper.sync_per_txn / 10.0, "{alg}");
            assert!(engine.async_per_txn > paper.async_per_txn, "{alg}");
            let ratio = engine.overhead_per_txn() / paper.overhead_per_txn();
            assert!((0.9..1.1).contains(&ratio), "{alg}: {ratio}");
        }
    }

    #[test]
    fn two_color_dominated_by_reruns() {
        // Paper §4: "Most obvious is the relatively high cost of the
        // two-color checkpoint algorithms. Most of the cost comes from
        // rerunning transactions."
        let fuzzy = model(Algorithm::FuzzyCopy)
            .evaluate(None)
            .overhead_per_txn();
        for alg in [Algorithm::TwoColorCopy, Algorithm::TwoColorFlush] {
            let point = model(alg).evaluate(None);
            assert!(
                point.overhead_per_txn() > 3.0 * fuzzy,
                "{alg} should dwarf fuzzy: {} vs {fuzzy}",
                point.overhead_per_txn()
            );
            let rerun_cost = point.expected_reruns * 25_000.0;
            assert!(
                rerun_cost > 0.5 * point.overhead_per_txn(),
                "{alg}: rerun cost should dominate"
            );
        }
    }

    #[test]
    fn recovery_times_cluster_but_two_color_slightly_higher() {
        // Paper §4: "Recovery times seem to vary little from among the
        // algorithms. The slightly longer times for the two-color
        // algorithms arises from the added log bulk."
        let base: Vec<f64> = [Algorithm::FuzzyCopy, Algorithm::CouCopy]
            .iter()
            .map(|a| model(*a).evaluate(None).recovery_seconds)
            .collect();
        let tc = model(Algorithm::TwoColorCopy)
            .evaluate(None)
            .recovery_seconds;
        for b in &base {
            assert!(tc >= *b, "2C recovery at least as long");
            assert!(tc < b * 1.25, "but within ~25%: {tc} vs {b}");
        }
    }

    #[test]
    fn longer_duration_trades_overhead_for_recovery() {
        // Figure 4b's trade-off.
        let m = model(Algorithm::CouCopy);
        let fast = m.evaluate(None);
        let slow = m.evaluate(Some(fast.duration * 4.0));
        assert!(slow.overhead_per_txn() < fast.overhead_per_txn());
        assert!(slow.recovery_seconds > fast.recovery_seconds);
    }

    #[test]
    fn more_disks_help_two_color_more() {
        // Figure 4b: "the increased bandwidth is much more beneficial to
        // 2CCOPY than to COUCOPY... an incoming transaction is less
        // likely to encounter an ongoing checkpoint". The comparison is
        // at equal checkpoint duration (equal recovery time): doubling
        // the disks shrinks the *active* portion of the interval.
        let d = model(Algorithm::TwoColorCopy).min_duration();
        let gain = |alg: Algorithm| {
            let slow = model(alg).evaluate(Some(d)).overhead_per_txn();
            let mut p = Params::paper_defaults();
            p.disk.n_bdisks = 40;
            let fast = AnalyticModel::new(p, alg)
                .evaluate(Some(d))
                .overhead_per_txn();
            slow - fast
        };
        assert!(gain(Algorithm::TwoColorCopy) > 3.0 * gain(Algorithm::CouCopy).abs());
    }

    #[test]
    fn overhead_decreases_with_load() {
        // Figure 4c's general trend.
        for alg in [
            Algorithm::FuzzyCopy,
            Algorithm::CouCopy,
            Algorithm::TwoColorCopy,
        ] {
            let at = |lambda: f64| {
                let mut p = Params::paper_defaults();
                p.txn.lambda = lambda;
                AnalyticModel::new(p, alg).evaluate(None).overhead_per_txn()
            };
            assert!(
                at(100.0) > at(1000.0),
                "{alg}: higher load should amortize better"
            );
        }
    }

    #[test]
    fn two_cflush_cheapest_at_low_load_costly_at_high() {
        // Figure 4c: "2CFLUSH is the least costly low-load alternative,
        // yet is one of the most costly at high loads."
        let at = |alg: Algorithm, lambda: f64| {
            let mut p = Params::paper_defaults();
            p.txn.lambda = lambda;
            AnalyticModel::new(p, alg).evaluate(None).overhead_per_txn()
        };
        let rivals = [
            Algorithm::FuzzyCopy,
            Algorithm::TwoColorCopy,
            Algorithm::CouCopy,
        ];
        for r in rivals {
            assert!(
                at(Algorithm::TwoColorFlush, 20.0) < at(r, 20.0),
                "at low load 2CFLUSH beats {r}"
            );
        }
        assert!(
            at(Algorithm::TwoColorFlush, 1000.0) > at(Algorithm::CouCopy, 1000.0),
            "at high load 2CFLUSH loses to COUCOPY"
        );
    }

    #[test]
    fn segment_size_effects_match_figure_4d() {
        let at = |alg: Algorithm, s_seg: u64, interval: Option<f64>| {
            let mut p = Params::paper_defaults();
            p.db.s_seg = s_seg;
            AnalyticModel::new(p, alg)
                .evaluate(interval)
                .overhead_per_txn()
        };
        // as fast as possible: copy algorithms get worse with big segments
        assert!(at(Algorithm::TwoColorCopy, 32768, None) > at(Algorithm::TwoColorCopy, 2048, None));
        assert!(at(Algorithm::CouCopy, 32768, None) > at(Algorithm::CouCopy, 2048, None));
        // ...while 2CFLUSH gets better
        assert!(
            at(Algorithm::TwoColorFlush, 32768, None) < at(Algorithm::TwoColorFlush, 2048, None)
        );
        // at a fixed 300 s interval, the 2C algorithms improve with
        // segment size (lower active fraction → fewer aborts)
        assert!(
            at(Algorithm::TwoColorCopy, 32768, Some(300.0))
                < at(Algorithm::TwoColorCopy, 2048, Some(300.0))
        );
    }

    #[test]
    fn stable_tail_leaves_non_fast_algorithms_nearly_unchanged() {
        // Figure 4e: "The costs of the other algorithms are nearly
        // identical to those from Figure 4a, since the savings in log
        // synchronization costs is not significant."
        for alg in [
            Algorithm::FuzzyCopy,
            Algorithm::TwoColorCopy,
            Algorithm::CouCopy,
        ] {
            let volatile = model(alg).evaluate(None).overhead_per_txn();
            let mut p = Params::paper_defaults();
            p.log_mode = LogMode::StableTail;
            let stable = AnalyticModel::new(p, alg).evaluate(None).overhead_per_txn();
            assert!(stable <= volatile, "{alg}");
            assert!(
                (volatile - stable) / volatile < 0.05,
                "{alg}: LSN savings should be small ({volatile} → {stable})"
            );
        }
    }

    #[test]
    fn interval_below_minimum_is_clamped() {
        let m = model(Algorithm::FuzzyCopy);
        let min = m.min_duration();
        let p = m.evaluate(Some(min / 10.0));
        assert!((p.duration - min).abs() < 1e-6);
    }

    #[test]
    fn p_restart_bounds_and_monotonicity() {
        let m = model(Algorithm::TwoColorCopy);
        assert_eq!(m.p_restart(0.0, 1.0), 0.0);
        let p_half = m.p_restart(0.5, 1.0);
        let p_full = m.p_restart(1.0, 1.0);
        assert!(p_half > 0.0 && p_half < p_full);
        assert!(p_full < 1.0);
        // N=5, w0=1, f=1 → p = 1 − 2/6 = 2/3
        assert!((p_full - 2.0 / 3.0).abs() < 1e-9);
        // idle fraction scales it down linearly
        assert!((m.p_restart(1.0, 0.5) - p_full / 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_two_color_never_restarts() {
        for alg in [
            Algorithm::FuzzyCopy,
            Algorithm::CouCopy,
            Algorithm::CouFlush,
        ] {
            let p = model(alg).evaluate(None);
            assert_eq!(p.p_restart, 0.0, "{alg}");
            assert_eq!(p.expected_reruns, 0.0, "{alg}");
        }
    }

    #[test]
    fn full_mode_flushes_everything() {
        let mut p = Params::paper_defaults();
        p.ckpt_mode = CkptMode::Full;
        p.txn.lambda = 1.0; // even with almost no load
        let m = AnalyticModel::new(p, Algorithm::FuzzyCopy);
        assert_eq!(m.expected_flushed(10.0), 32768.0);
    }

    #[test]
    fn doubling_disks_halves_min_duration() {
        let m20 = model(Algorithm::FuzzyCopy);
        let mut p = Params::paper_defaults();
        p.disk = DiskParams {
            n_bdisks: 40,
            ..p.disk
        };
        let m40 = AnalyticModel::new(p, Algorithm::FuzzyCopy);
        let ratio = m20.min_duration() / m40.min_duration();
        assert!((ratio - 2.0).abs() < 0.05, "got {ratio}");
    }

    #[test]
    fn interval_for_recovery_honors_the_budget() {
        let m = model(Algorithm::CouCopy);
        let floor = m.evaluate(None).recovery_seconds;

        // infeasible budget: even the minimum interval recovers slower
        assert!(m.interval_for_recovery(floor * 0.5).is_none());

        // a feasible budget: the returned interval's recovery fits, and
        // a slightly longer interval would bust it (maximality)
        let target = floor * 1.5;
        let d = m.interval_for_recovery(target).unwrap();
        assert!(d >= m.min_duration());
        let at = m.evaluate(Some(d)).recovery_seconds;
        assert!(at <= target * 1.0001, "{at} vs {target}");
        let beyond = m.evaluate(Some(d * 1.05)).recovery_seconds;
        assert!(beyond > target, "returned interval should be near-maximal");

        // looser budgets yield longer (cheaper) intervals
        let d2 = m.interval_for_recovery(floor * 2.0).unwrap();
        assert!(d2 > d);
        assert!(m.evaluate(Some(d2)).overhead_per_txn() < m.evaluate(Some(d)).overhead_per_txn());
    }

    #[test]
    fn log_bulk_is_positive_and_scales_with_n_ru() {
        let m = model(Algorithm::FuzzyCopy);
        let base = m.log_words_per_txn();
        assert!(base > 5.0 * 32.0, "at least the update payloads");
        let mut p = Params::paper_defaults();
        p.txn.n_ru = 10;
        let m10 = AnalyticModel::new(p, Algorithm::FuzzyCopy);
        assert!(m10.log_words_per_txn() > 1.8 * base);
    }
}
