//! Cold-path aggregation: a [`Report`] maps `(layer, metric)` to a value
//! and merges commutatively, so per-cell / per-worker reports combine into
//! the same totals no matter the completion order (`--jobs` and the worker
//! count never change stats semantics).
//!
//! Reports are only built at cell boundaries and snapshot time, never on
//! a hot path, and only when the sink [`is_active`](crate::is_active) or
//! a caller asks for one.

use std::collections::BTreeMap;

use crate::buckets;

/// Immutable histogram state: exact count/sum/min/max plus the sparse
/// non-empty buckets, `(index, count)` sorted by index.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistSnapshot {
    /// A snapshot holding exactly one recorded value.
    pub fn single(v: u64) -> Self {
        HistSnapshot {
            count: 1,
            sum: v,
            min: v,
            max: v,
            buckets: vec![(buckets::index(v) as u16, 1)],
        }
    }

    /// Folds `other` in: element-wise bucket addition, exact and
    /// order-independent (mirrors [`crate::Histogram::merge`]).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca + cb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q * count)`-th recorded value, clamped to the
    /// exact observed `min`/`max`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return buckets::upper_bound(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic count; merges by addition.
    Counter(u64),
    /// Level or high-water value; merges by maximum — or by sum when
    /// reported through [`Report::gauge_sum`] and folded in as another
    /// part of the same run ([`Report::absorb_part`]).
    Gauge(u64),
    /// Distribution; merges by exact bucket addition.
    Histogram(HistSnapshot),
}

impl MetricValue {
    /// Folds `other` into `self` under each kind's merge rule, gauges by
    /// sum when `sum` says so. A kind mismatch (same metric name reported
    /// as different kinds — a caller bug) resolves by keeping `other`.
    fn absorb(&mut self, other: &MetricValue, sum: bool) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) if sum => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (slot, other) => *slot = other.clone(),
        }
    }
}

/// A value plus its merge rule.
#[derive(Debug, Clone)]
struct Entry {
    value: MetricValue,
    /// A gauge of additive state: parts of one run merge by sum.
    sum: bool,
}

/// A set of metrics keyed by `(layer, metric)`, e.g.
/// `("kernel", "events_processed")`. `BTreeMap`-backed, so iteration —
/// and therefore serialized snapshot output — is deterministically
/// ordered.
#[derive(Debug, Default, Clone)]
pub struct Report {
    entries: BTreeMap<(String, String), Entry>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds `v` to the counter `layer/metric` (creating it at 0).
    pub fn counter(&mut self, layer: &str, metric: &str, v: u64) {
        self.put(layer, metric, MetricValue::Counter(v), false, false);
    }

    /// Raises the gauge `layer/metric` to `v` if larger: for facts every
    /// worker replicates (alive peers, lanes) and high-water marks.
    pub fn gauge(&mut self, layer: &str, metric: &str, v: u64) {
        self.put(layer, metric, MetricValue::Gauge(v), false, false);
    }

    /// Adds `v` to the gauge `layer/metric`: for levels of additive state
    /// (sessions held, routes, pending exchanges), which a run split over
    /// workers holds in parts. It reads as a [`MetricValue::Gauge`]; the
    /// parts of one run add up under [`absorb_part`](Self::absorb_part),
    /// and whole runs merge by maximum like any gauge.
    pub fn gauge_sum(&mut self, layer: &str, metric: &str, v: u64) {
        self.put(layer, metric, MetricValue::Gauge(v), true, true);
    }

    /// Merges a histogram snapshot into `layer/metric`.
    pub fn histogram(&mut self, layer: &str, metric: &str, snap: HistSnapshot) {
        self.put(layer, metric, MetricValue::Histogram(snap), false, false);
    }

    /// Records a single observation into the histogram `layer/metric`.
    pub fn observe(&mut self, layer: &str, metric: &str, v: u64) {
        self.histogram(layer, metric, HistSnapshot::single(v));
    }

    /// Merges one value under its kind's rule; a gauge of additive state
    /// (`sum`) adds when the value is another `part` of the same run.
    fn put(&mut self, layer: &str, metric: &str, value: MetricValue, sum: bool, part: bool) {
        match self.entries.get_mut(&(layer.to_string(), metric.to_string())) {
            Some(slot) => {
                slot.sum |= sum;
                slot.value.absorb(&value, part && slot.sum);
            }
            None => {
                self.entries.insert((layer.to_string(), metric.to_string()), Entry { value, sum });
            }
        }
    }

    /// Folds every entry of `other` into `self`, gauges by maximum: the
    /// merge of whole runs (cells, jobs). Commutative up to the
    /// kind-specific merge rules, so absorb order never changes totals.
    pub fn absorb(&mut self, other: &Report) {
        for ((layer, metric), e) in &other.entries {
            self.put(layer, metric, e.value.clone(), e.sum, false);
        }
    }

    /// Folds in `other` as another part of the same run (one worker's
    /// share of an engine): as [`absorb`](Self::absorb), except that
    /// gauges of additive state ([`gauge_sum`](Self::gauge_sum)) add.
    pub fn absorb_part(&mut self, other: &Report) {
        for ((layer, metric), e) in &other.entries {
            self.put(layer, metric, e.value.clone(), e.sum, true);
        }
    }

    /// `true` when no metric has been reported.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one metric.
    pub fn get(&self, layer: &str, metric: &str) -> Option<&MetricValue> {
        self.entries.get(&(layer.to_string(), metric.to_string())).map(|e| &e.value)
    }

    /// Iterates `(layer, metric, value)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.entries.iter().map(|((l, m), e)| (l.as_str(), m.as_str(), &e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_gauge_maxes() {
        let mut r = Report::new();
        r.counter("a", "c", 2);
        r.counter("a", "c", 3);
        r.gauge("a", "g", 7);
        r.gauge("a", "g", 4);
        assert_eq!(r.get("a", "c"), Some(&MetricValue::Counter(5)));
        assert_eq!(r.get("a", "g"), Some(&MetricValue::Gauge(7)));
    }

    #[test]
    fn summed_gauges_add_across_parts_and_max_across_runs() {
        let part = |sessions, alive| {
            let mut r = Report::new();
            r.gauge_sum("net", "nat_sessions", sessions);
            r.gauge("net", "alive_peers", alive);
            r
        };
        // One run on two workers: its sessions add up, replicated facts
        // do not.
        let mut run = Report::new();
        for r in [part(30, 100), part(12, 100)] {
            run.absorb_part(&r);
        }
        assert_eq!(run.get("net", "nat_sessions"), Some(&MetricValue::Gauge(42)));
        assert_eq!(run.get("net", "alive_peers"), Some(&MetricValue::Gauge(100)));
        // Two one-worker cells into one sink: the largest, as any gauge,
        // whichever order they land in.
        let (a, b) = (part(30, 100), part(12, 80));
        for (first, second) in [(&a, &b), (&b, &a)] {
            let mut sink = Report::new();
            sink.absorb(first);
            sink.absorb(second);
            assert_eq!(sink.get("net", "nat_sessions"), Some(&MetricValue::Gauge(30)));
            assert_eq!(sink.get("net", "alive_peers"), Some(&MetricValue::Gauge(100)));
        }
        // A whole run's total enters a sink as an ordinary gauge.
        let mut sink = Report::new();
        sink.absorb(&run);
        sink.absorb(&a);
        assert_eq!(sink.get("net", "nat_sessions"), Some(&MetricValue::Gauge(42)));
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut a = Report::new();
        a.counter("l", "n", 10);
        a.observe("l", "h", 100);
        let mut b = Report::new();
        b.counter("l", "n", 5);
        b.observe("l", "h", 7);

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.get("l", "n"), ba.get("l", "n"));
        assert_eq!(ab.get("l", "h"), ba.get("l", "h"));
    }

    #[test]
    fn snapshot_merge_equals_concatenated_stream() {
        let (xs, ys) = ([3u64, 9, 9, 1024], [0u64, 9, 77]);
        let mut a = HistSnapshot::default();
        for v in xs {
            a.merge(&HistSnapshot::single(v));
        }
        let mut b = HistSnapshot::default();
        for v in ys {
            b.merge(&HistSnapshot::single(v));
        }
        let mut both = HistSnapshot::default();
        for v in xs.into_iter().chain(ys) {
            both.merge(&HistSnapshot::single(v));
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count, 7);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 1024);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = HistSnapshot::default();
        for v in 1..=1000u64 {
            h.merge(&HistSnapshot::single(v));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((500..=625).contains(&p50), "p50 {p50} outside bucket tolerance");
        assert!((990..=1000).contains(&p99), "p99 {p99} outside bucket tolerance");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }
}
