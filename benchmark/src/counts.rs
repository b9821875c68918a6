//! The program's own counters, as the ledger reads them: a flattened
//! [`nylon_obs::Report`] keyed `layer/metric`.
//!
//! Everything here comes through `PeerSampler::obs_report` (or the live
//! path's equivalents) — the benchmark adds no counter to the program.

use std::collections::BTreeMap;

use nylon_obs::{MetricValue, Report};

use crate::json::Value;

/// Counters whose value is wall-clock time spent waiting, not work done:
/// the one family that differs between two runs of one seed. Left out of
/// fingerprints and exact comparisons, kept for the stall metrics.
pub fn is_wall_clock(key: &str) -> bool {
    key.ends_with("stall_ns")
}

/// A flattened report. Counters are monotonic (a window is a difference
/// of two snapshots); gauges and histogram digests are levels read at
/// snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Levels / high-water marks; histograms contribute `…/count`,
    /// `…/sum`, `…/p50`, `…/p90` and `…/p99`.
    pub gauges: BTreeMap<String, u64>,
}

impl Counts {
    /// Flattens a report.
    pub fn of(report: &Report) -> Counts {
        let mut out = Counts::default();
        for (layer, metric, value) in report.iter() {
            let key = format!("{layer}/{metric}");
            match value {
                MetricValue::Counter(v) => {
                    out.counters.insert(key, *v);
                }
                MetricValue::Gauge(v) => {
                    out.gauges.insert(key, *v);
                }
                MetricValue::Histogram(h) => {
                    out.gauges.insert(format!("{key}/count"), h.count);
                    out.gauges.insert(format!("{key}/sum"), h.sum);
                    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                        out.gauges.insert(format!("{key}/{name}"), h.quantile(q));
                    }
                }
            }
        }
        out
    }

    /// Reads an engine's telemetry.
    pub fn snapshot<S: nylon_gossip::PeerSampler>(eng: &S) -> Counts {
        let mut report = Report::new();
        eng.obs_report(&mut report);
        Counts::of(&report)
    }

    /// What happened between `before` and `self`: counters subtract,
    /// levels are taken from `self`.
    pub fn since(&self, before: &Counts) -> Counts {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (k.clone(), v.saturating_sub(before.counters.get(k).copied().unwrap_or(0)))
            })
            .collect();
        Counts { counters, gauges: self.gauges.clone() }
    }

    /// A counter (0 when the layer never reported it).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A level (0 when the layer never reported it).
    pub fn gauge(&self, key: &str) -> u64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// The replayable part: everything except wall-clock stall counters.
    /// Two runs of one seed must agree on this exactly.
    pub fn exact(&self) -> Counts {
        let keep = |m: &BTreeMap<String, u64>| {
            m.iter().filter(|(k, _)| !is_wall_clock(k)).map(|(k, v)| (k.clone(), *v)).collect()
        };
        Counts { counters: keep(&self.counters), gauges: keep(&self.gauges) }
    }

    /// One JSON object, counters first.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        for (k, n) in self.counters.iter().chain(&self.gauges) {
            v.set(k, *n);
        }
        v
    }
}

/// FNV-1a, the fingerprint hash: tiny, dependency-free, and stable across
/// platforms and toolchains (unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds every replayable count, names included.
    pub fn counts(&mut self, counts: &Counts) {
        let exact = counts.exact();
        for (k, v) in exact.counters.iter().chain(&exact.gauges) {
            self.bytes(k.as_bytes());
            self.u64(*v);
        }
    }

    /// The digest as 16 hex digits (a string: JSON numbers stop being
    /// exact at 2^53).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
