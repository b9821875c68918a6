//! The hot-path primitives: counters, gauges, histograms.
//!
//! Two compilations of the same API. With the `enabled` feature the types
//! hold real state (`Cell<u64>` for counters and gauges, a fixed inline
//! bucket array for histograms — nothing here ever allocates, so
//! `tests/alloc_gate.rs` reads the same counts with stats on). Without the
//! feature every type is a zero-sized struct (asserted at compile time
//! below) and every method an empty `#[inline]` stub, so instrumented call
//! sites compile to nothing.

#[cfg(feature = "enabled")]
use std::cell::Cell;

use crate::report::HistSnapshot;

// ---------------------------------------------------------------------------
// enabled: real state
// ---------------------------------------------------------------------------

/// Monotonic event counter (single-threaded; interior-mutable so `&self`
/// accessors can tick it).
#[cfg(feature = "enabled")]
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

#[cfg(feature = "enabled")]
impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(Cell::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Last-value / high-water gauge (single-threaded).
#[cfg(feature = "enabled")]
#[derive(Debug, Default)]
pub struct Gauge(Cell<u64>);

#[cfg(feature = "enabled")]
impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(Cell::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.set(v);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if v > self.0.get() {
            self.0.set(v);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Log-bucketed `u64` histogram with exact deterministic merge.
///
/// Fixed inline bucket array (see [`crate::buckets`] for the layout): no
/// allocation on record or merge, ≤ 25 % quantization error on quantile
/// reads, and `merge` is element-wise addition — commutative, associative,
/// and equal to having recorded the concatenated stream.
#[cfg(feature = "enabled")]
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; crate::buckets::COUNT],
}

#[cfg(feature = "enabled")]
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(feature = "enabled")]
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

// ---------------------------------------------------------------------------
// disabled: zero-sized stubs
// ---------------------------------------------------------------------------

/// Monotonic event counter (no-op stub: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter;

#[cfg(not(feature = "enabled"))]
impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter
    }

    /// Adds one (no-op).
    #[inline(always)]
    pub fn inc(&self) {}

    /// Adds `n` (no-op).
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// Current count (always 0).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Last-value / high-water gauge (no-op stub: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauge;

#[cfg(not(feature = "enabled"))]
impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge
    }

    /// Overwrites the value (no-op).
    #[inline(always)]
    pub fn set(&self, _v: u64) {}

    /// Raises the value (no-op).
    #[inline(always)]
    pub fn set_max(&self, _v: u64) {}

    /// Current value (always 0).
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Log-bucketed histogram (no-op stub: `enabled` feature off).
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Default, Clone, Copy)]
pub struct Histogram;

#[cfg(not(feature = "enabled"))]
impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram
    }

    /// Records one value (no-op).
    #[inline(always)]
    pub fn record(&mut self, _v: u64) {}

    /// Folds `other` in (no-op).
    #[inline(always)]
    pub fn merge(&mut self, _other: &Histogram) {}

    /// Number of recorded values (always 0).
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// Immutable snapshot (always empty).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot::default()
    }
}

/// The zero-overhead claim as a compile-time fact: a struct that embeds
/// any number of these grows by nothing when the feature is off.
#[cfg(not(feature = "enabled"))]
const _: () = {
    assert!(std::mem::size_of::<Counter>() == 0);
    assert!(std::mem::size_of::<Gauge>() == 0);
    assert!(std::mem::size_of::<Histogram>() == 0);
};
