//! The hot-path histogram.
//!
//! A fixed inline bucket array: nothing here ever allocates, so
//! `tests/alloc_gate.rs` reads the same counts with stats on or off.
//! Plain counts and high-water marks need no type of their own; the
//! layers keep them in `u64` fields (see [`crate::counters!`]).

use crate::report::HistSnapshot;

/// Log-bucketed `u64` histogram with exact deterministic merge.
///
/// Fixed inline bucket array (see [`crate::buckets`] for the layout): no
/// allocation on record or merge, ≤ 25 % quantization error on quantile
/// reads, and `merge` is element-wise addition — commutative, associative,
/// and equal to having recorded the concatenated stream.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; crate::buckets::COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; crate::buckets::COUNT] }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[crate::buckets::index(v)] += 1;
    }

    /// Folds `other` in; afterwards `self` equals a histogram that
    /// recorded both input streams (in any order).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Immutable snapshot (sparse buckets) for reporting.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u16, c))
            .collect();
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets,
        }
    }
}
