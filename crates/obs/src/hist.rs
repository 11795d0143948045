//! Fixed-bucket log-linear histograms in the spirit of HdrHistogram.
//!
//! Values are unsigned integers (nanoseconds, words, counts — the unit is
//! the caller's business). The bucket layout is *log-linear*: each power
//! of two is split into [`SUB_BUCKETS`] equal-width linear sub-buckets, so
//! the worst-case relative quantile error is bounded by
//! `1 / SUB_BUCKETS` (6.25%) regardless of magnitude, while the whole
//! `u64` range fits in under a thousand buckets (&lt;8 KiB per histogram).
//! Recording is O(1) with no allocation; merging is element-wise.

/// Number of linear sub-buckets per power-of-two group (must be 2^k).
pub const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros(); // 4

/// Total bucket count covering all of `u64`.
///
/// Values below `SUB_BUCKETS` get one exact bucket each; every group of
/// values sharing a highest set bit `h >= SUB_BITS` gets `SUB_BUCKETS`
/// buckets of width `2^(h - SUB_BITS)`.
pub const N_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Map a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
    let group = (h - SUB_BITS + 1) as usize;
    let sub = ((v >> (h - SUB_BITS)) - SUB_BUCKETS) as usize;
    group * SUB_BUCKETS as usize + sub
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        return i as u64;
    }
    let group = i / SUB_BUCKETS as usize;
    let sub = (i % SUB_BUCKETS as usize) as u64;
    let h = (group as u32) + SUB_BITS - 1;
    (1u64 << h) + (sub << (h - SUB_BITS))
}

/// Highest value mapping to bucket `i` (inclusive).
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        return u64::MAX;
    }
    bucket_low(i + 1) - 1
}

/// A mergeable log-linear histogram with exact count/sum/min/max and
/// bounded-error quantiles.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation of `v`.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (element-wise; exact stats combine).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact, 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`0.0 <= q <= 1.0`). The returned value is `>=` the exact order
    /// statistic and overshoots it by at most a factor `1 + 1/SUB_BUCKETS`.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target order statistic, 1-based ceil as in HdrHistogram.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the exact max.
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Shorthand for [`Histogram::quantile`] at 0.50.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand for [`Histogram::quantile`] at 0.99.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Shorthand for [`Histogram::quantile`] at 0.999.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Condense into the exported summary form.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            mean: self.mean(),
            p50: self.p50(),
            p90: self.quantile(0.90),
            p99: self.p99(),
            p999: self.p999(),
        }
    }
}

/// The exported digest of a [`Histogram`]: exact count/sum/min/max plus
/// bounded-error quantiles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (upper bucket bound, <= 6.25% high).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate — the coordinated-omission-sensitive
    /// tail the load driver's intended-send-time recording feeds.
    pub p999: u64,
}

impl HistSummary {
    /// Folds in `other`, the same metric from another shard. Count, sum,
    /// min and max stay exact; each quantile becomes the larger of the
    /// two, an upper bound on the combined population's.
    pub fn merge(&mut self, other: &HistSummary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.mean = self.sum as f64 / self.count as f64;
        self.p50 = self.p50.max(other.p50);
        self.p90 = self.p90.max(other.p90);
        self.p99 = self.p99.max(other.p99);
        self.p999 = self.p999.max(other.p999);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_ordered() {
        let mut prev_high = None;
        for i in 0..N_BUCKETS {
            let lo = bucket_low(i);
            let hi = bucket_high(i);
            assert!(lo <= hi, "bucket {i}: low {lo} > high {hi}");
            if let Some(p) = prev_high {
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            prev_high = if hi == u64::MAX { None } else { Some(hi) };
        }
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let probes = [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            255,
            256,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS);
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v={v} i={i}");
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in SUB_BUCKETS as usize..N_BUCKETS - 1 {
            let lo = bucket_low(i);
            let hi = bucket_high(i);
            let width = hi - lo + 1;
            assert!(
                (width as f64) <= lo as f64 / SUB_BUCKETS as f64 * 2.0,
                "bucket {i}: width {width} too wide for low {lo}"
            );
        }
    }

    #[test]
    fn record_and_basic_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [5u64, 5, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 277.5).abs() < 1e-9);
        // p50 falls in the exact bucket for 5.
        assert_eq!(h.p50(), 5);
    }

    #[test]
    fn quantile_never_exceeds_max_and_is_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 7);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let e = h.quantile(q);
            assert!(e >= prev, "quantile not monotone at q={q}");
            assert!(e <= h.max());
            prev = e;
        }
        assert_eq!(h.quantile(1.0), 7000);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            all.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 11 + 7);
            all.record(v * 11 + 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record_n(42, 10);
        let before = a.summary();
        a.merge(&Histogram::new());
        assert_eq!(a.summary(), before);
    }
}
