//! A fixed-size log-linear latency histogram owned by the harness.
//!
//! 128 sub-buckets per power of two give a bucket width of at most 1/128
//! (0.78 %) of the value, against the ~5 % of `mmdb::obs::Histogram`,
//! whose quantisation alone moves a p50 by half a regression bound. A
//! per-sample vector would be exact but would grow `mem_amp` with the op
//! count. Quantiles interpolate inside the bucket, so they are not snapped
//! to bucket edges.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (~18 min) land in the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) << SUB_BITS;

/// Latencies in nanoseconds.
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (((exp - SUB_BITS + 1) as u64) << SUB_BITS | sub) as usize
}

/// Lowest value of bucket `i` and the bucket's width.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    ((SUB | (i & (SUB - 1))) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram; allocates once, here.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (low, width) = bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return low as f64 + inside * width as f64;
            }
            seen += c;
        }
        bounds(BUCKETS - 1).0 as f64
    }

    /// Samples above the `q`-quantile.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        ((1.0 - q) * self.total as f64) as u64
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes: the
/// kernel tracks it exactly, so no reading can fall between two peaks.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or("/proc/self/status has no VmHWM".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bounds(i);
            assert_eq!(low, next, "bucket {i}");
            assert_eq!(index(low), i);
            assert_eq!(index(low + width - 1), i);
            assert!(width == 1 || (width as f64) / (low as f64) <= 1.0 / 128.0);
            next = low + width;
        }
        assert_eq!(next, 1 << MAX_EXP);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "{p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "{p99}");
        assert_eq!(h.samples_beyond(0.99), 1000);
    }
}
