//! Seeded, forkable random number generation.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::fxhash::FxHashMap;

/// A deterministic random number generator for simulations.
///
/// Wraps a fast non-cryptographic PRNG seeded from a `u64`. Two features
/// matter for reproducible experiments:
///
/// * The same seed always produces the same stream, across runs and
///   platforms.
/// * [`SimRng::fork`] derives an *independent* child stream from a label,
///   so per-component generators (one per peer, one for churn, one for
///   latency jitter) do not perturb each other when the number of draws by
///   one component changes.
///
/// ```
/// use nylon_sim::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.gen_range(0..1_000_000), b.gen_range(0..1_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

/// SplitMix64 step; used to mix seeds for forked streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(splitmix64(seed)), seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a labelled sub-component.
    ///
    /// Forking with the same `(seed, label)` always yields the same stream,
    /// and streams for different labels are statistically independent.
    pub fn fork(&self, label: u64) -> SimRng {
        let mixed = splitmix64(self.seed ^ splitmix64(label.wrapping_add(0xA076_1D64_78BD_642F)));
        SimRng { inner: SmallRng::seed_from_u64(mixed), seed: mixed }
    }

    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: rand::distributions::uniform::SampleUniform,
        R: rand::distributions::uniform::SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A uniform `u64`.
    pub fn gen_u64(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// A uniformly chosen element of `items`, or `None` if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        self.pick_index(items.len()).map(|i| &items[i])
    }

    /// A uniformly chosen index into a collection of length `len`, or `None`
    /// if `len == 0`.
    pub fn pick_index(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.inner.gen_range(0..len))
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        items.shuffle(&mut self.inner);
    }

    /// Chooses `n` distinct elements uniformly without replacement: a
    /// partial Fisher–Yates shuffle, so every ordered `n`-subset of `items`
    /// is equally likely.
    ///
    /// Returns fewer than `n` elements if `items` is shorter than `n` (then
    /// the sample is a permutation of `items`). Makes exactly
    /// `k = min(n, items.len())` [`gen_range`](Self::gen_range) draws —
    /// `gen_range(i..items.len())` for `i` in `0..k` — and does O(k) work
    /// whatever the length of `items`: only the positions a draw displaced
    /// are stored, in an index vector when the sample is a sizeable share
    /// of `items` and in a hash map when it is not. Both store the same
    /// permutation, so which one ran is not observable.
    ///
    /// The stream differs from ≤ PR 23, which shuffled all of `items`
    /// (`items.len() - 1` draws) to keep `n`.
    pub fn sample_without_replacement<T: Clone>(&mut self, items: &[T], n: usize) -> Vec<T> {
        let len = items.len();
        let n = n.min(len);
        let mut out = Vec::with_capacity(n);
        if len <= DENSE_INDEX_MAX_RATIO * n {
            let mut idx: Vec<usize> = (0..len).collect();
            for i in 0..n {
                idx.swap(i, self.inner.gen_range(i..len));
                out.push(items[idx[i]].clone());
            }
        } else {
            // Position → the index now standing there; an absent position
            // still holds its own. Position `i` is never read again once
            // drawn for, so only `j` is written back.
            let mut moved = FxHashMap::with_capacity_and_hasher(n, Default::default());
            for i in 0..n {
                let j = self.inner.gen_range(i..len);
                let at_i = moved.get(&i).copied().unwrap_or(i);
                out.push(items[moved.insert(j, at_i).unwrap_or(j)].clone());
            }
        }
        out
    }
}

/// [`SimRng::sample_without_replacement`] fills an index vector over all
/// of `items` (a few bytes each, no hashing) while that is at most this
/// many entries per element kept, and hashes the displaced positions
/// beyond it; O(sample) work either way.
const DENSE_INDEX_MAX_RATIO: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.gen_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = SimRng::new(9);
        let mut f1 = root.fork(1);
        let mut f1_again = root.fork(1);
        let mut f2 = root.fork(2);
        let a: Vec<u64> = (0..8).map(|_| f1.gen_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| f1_again.gen_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| f2.gen_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn pick_empty_is_none() {
        let mut r = SimRng::new(5);
        let empty: [u8; 0] = [];
        assert_eq!(r.pick(&empty), None);
        assert_eq!(r.pick_index(0), None);
    }

    #[test]
    fn pick_singleton() {
        let mut r = SimRng::new(5);
        assert_eq!(r.pick(&[42]), Some(&42));
        assert_eq!(r.pick_index(1), Some(0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(77);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut r = SimRng::new(3);
        let items: Vec<u32> = (0..50).collect();
        let sample = r.sample_without_replacement(&items, 10);
        assert_eq!(sample.len(), 10);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10, "sample contained duplicates");
    }

    #[test]
    fn sample_without_replacement_short_input() {
        let mut r = SimRng::new(3);
        let sample = r.sample_without_replacement(&[1, 2, 3], 10);
        assert_eq!(sample.len(), 3);
    }

    #[test]
    fn sample_longer_than_input_is_a_permutation() {
        let mut r = SimRng::new(3);
        let items: Vec<u32> = (0..50).collect();
        let mut sample = r.sample_without_replacement(&items, 80);
        sample.sort_unstable();
        assert_eq!(sample, items);
    }

    /// The sampler's contract spelled out: a partial Fisher–Yates over a
    /// full index vector.
    fn reference_sample(r: &mut SimRng, len: usize, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..len).collect();
        for i in 0..n.min(len) {
            idx.swap(i, r.gen_range(i..len));
        }
        idx.truncate(n);
        idx
    }

    #[test]
    fn sample_matches_the_reference_and_makes_one_draw_per_element_kept() {
        // Both sides of DENSE_INDEX_MAX_RATIO, n = 0, n = len, n > len.
        for (len, n) in [(20, 5), (600, 15), (50, 50), (3, 10), (5_000, 8), (5_000, 1_000), (9, 0)]
        {
            let items: Vec<usize> = (0..len).collect();
            for seed in 0..50 {
                let mut r = SimRng::new(seed);
                let mut reference = r.clone();
                let sample = r.sample_without_replacement(&items, n);
                assert_eq!(sample, reference_sample(&mut reference, len, n), "({len}, {n})");
                assert_eq!(r.gen_u64(), reference.gen_u64(), "stream position after ({len}, {n})");
            }
        }
    }

    /// Pearson's χ² of `counts` against a flat expectation, asserted below
    /// the mean of its distribution plus four standard deviations.
    fn assert_flat(counts: &[u64], what: &str) {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let chi2: f64 = counts.iter().map(|c| (*c as f64 - expected).powi(2) / expected).sum();
        let df = (counts.len() - 1) as f64;
        assert!(chi2 <= df + 4.0 * (2.0 * df).sqrt(), "{what}: chi2 = {chi2:.1} at {df} df");
    }

    #[test]
    fn sample_is_uniform_in_inclusion_and_in_first_position() {
        for (len, n) in [(20usize, 5usize), (600, 15), (50, 50)] {
            let items: Vec<usize> = (0..len).collect();
            let mut included = vec![0u64; len];
            let mut first = vec![0u64; len];
            for seed in 0..6_000 {
                let sample = SimRng::new(seed).sample_without_replacement(&items, n);
                first[sample[0]] += 1;
                for i in sample {
                    included[i] += 1;
                }
            }
            // Inclusion counts of a fixed-size sample vary less than
            // independent cells would, so the bound is conservative.
            assert_flat(&included, &format!("inclusion ({len}, {n})"));
            assert_flat(&first, &format!("first position ({len}, {n})"));
        }
    }

    proptest! {
        /// gen_range stays in range.
        #[test]
        fn prop_gen_range_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
            let mut r = SimRng::new(seed);
            let v = r.gen_range(lo..lo + span);
            prop_assert!(v >= lo && v < lo + span);
        }

        /// Shuffle is a permutation: same multiset before and after.
        #[test]
        fn prop_shuffle_permutation(seed in any::<u64>(), mut items in proptest::collection::vec(0u32..100, 0..64)) {
            let mut sorted_before = items.clone();
            sorted_before.sort_unstable();
            let mut r = SimRng::new(seed);
            r.shuffle(&mut items);
            items.sort_unstable();
            prop_assert_eq!(items, sorted_before);
        }

        /// Forked streams with distinct labels are distinct (no trivial
        /// collisions for small labels).
        #[test]
        fn prop_fork_labels_distinct(seed in any::<u64>(), a in 0u64..512, b in 0u64..512) {
            prop_assume!(a != b);
            let root = SimRng::new(seed);
            let va = root.fork(a).gen_u64();
            let vb = root.fork(b).gen_u64();
            prop_assert_ne!(va, vb);
        }
    }
}
