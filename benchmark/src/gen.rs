//! Workload inputs, all derived from `--seed`: the same seed gives the
//! same keys, the same values and the same op mix. The engine sees only
//! what this module generates.

use crate::config::{N_RU, S_REC};
use mmdb::RecordId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One update list, reused across transactions so generating an op
/// allocates nothing.
pub type Updates = Vec<(RecordId, Vec<u32>)>;

/// An independent generator for load thread `stream` of a run.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// An update list with room for `n` records.
pub fn updates_buffer(n: usize) -> Updates {
    (0..n).map(|_| (RecordId(0), vec![0; S_REC])).collect()
}

/// A non-zero fill word that identifies `(stream, seq, slot)`.
#[inline]
pub fn fill_word(stream: u64, seq: u64, slot: usize) -> u32 {
    let x = (seq.wrapping_mul(N_RU as u64 + 3) + slot as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(stream << 29);
    (x as u32) | 1
}

/// The fill word setup writes into record `rid`.
#[inline]
pub fn setup_fill(seed: u64, rid: u64) -> u32 {
    ((rid.wrapping_add(seed).wrapping_mul(0x85EB_CA6B)) as u32) | 1
}

/// Fills `out` with distinct records drawn by `pick`, each with a fresh
/// fill value.
#[inline]
pub fn fill_txn(
    out: &mut Updates,
    rng: &mut StdRng,
    stream: u64,
    seq: u64,
    mut pick: impl FnMut(&mut StdRng) -> u64,
) {
    for slot in 0..out.len() {
        let rid = loop {
            let r = pick(rng);
            if out[..slot].iter().all(|(prev, _)| prev.raw() != r) {
                break r;
            }
        };
        out[slot].0 = RecordId(rid);
        out[slot].1.fill(fill_word(stream, seq, slot));
    }
}

/// A uniform transaction over `n_records` records.
#[inline]
pub fn uniform_txn(out: &mut Updates, rng: &mut StdRng, stream: u64, seq: u64, n_records: u64) {
    fill_txn(out, rng, stream, seq, |r| r.random_range(0..n_records));
}

/// Zipf-distributed record ids, drawn once into a table and then read in
/// order: a draw in the measured loop costs one sequential load, not a
/// `powf`, so the generator stays a small share of a ~100 ns read.
pub struct ZipfTable {
    ids: Vec<u32>,
}

impl ZipfTable {
    /// Table length; a run cycles through it.
    pub const LEN: usize = 1 << 20;

    /// Draws [`Self::LEN`] ids over `n` records with exponent `theta`
    /// (Gray et al.'s closed form, as YCSB uses it). Popular ranks are
    /// scattered over the id space by a fixed odd multiplier, so the hot
    /// records do not all sit in segment 0.
    pub fn new(n: u64, theta: f64, rng: &mut StdRng) -> ZipfTable {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        let ids = (0..Self::LEN)
            .map(|_| {
                let u: f64 = rng.random_range(0.0..1.0);
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                };
                (rank.wrapping_mul(0x9E37_79B1) % n) as u32
            })
            .collect();
        ZipfTable { ids }
    }

    /// A reader of the table starting at `start`; load threads share one
    /// table and start apart.
    pub fn cursor(&self, start: usize) -> ZipfCursor<'_> {
        ZipfCursor {
            ids: &self.ids,
            next: start % Self::LEN,
        }
    }
}

/// One thread's position in a [`ZipfTable`].
pub struct ZipfCursor<'a> {
    ids: &'a [u32],
    next: usize,
}

impl ZipfCursor<'_> {
    /// The next record id.
    #[inline]
    pub fn next(&mut self) -> u64 {
        let id = self.ids[self.next];
        self.next = (self.next + 1) & (ZipfTable::LEN - 1);
        id as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (rng(7, 1), rng(7, 1));
        let (mut ua, mut ub) = (updates_buffer(N_RU), updates_buffer(N_RU));
        for seq in 0..100 {
            uniform_txn(&mut ua, &mut a, 1, seq, 1000);
            uniform_txn(&mut ub, &mut b, 1, seq, 1000);
            assert_eq!(ua, ub);
            let mut ids: Vec<u64> = ua.iter().map(|(r, _)| r.raw()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), N_RU, "records of a transaction are distinct");
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 10_000;
        let table = ZipfTable::new(n, 0.99, &mut rng(1, 0));
        let mut t = table.cursor(0);
        let mut counts = vec![0u32; n as usize];
        for _ in 0..ZipfTable::LEN {
            counts[t.next() as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts[..10].iter().sum();
        assert!(
            top10 as usize > ZipfTable::LEN / 5,
            "top 10 of 10k records draw {top10}"
        );
    }
}
