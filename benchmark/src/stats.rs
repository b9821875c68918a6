//! Order statistics for a handful of noisy samples.

use crate::json::Value;

/// Median, quartiles, extremes and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// The `p`-quantile by the rule Python's `statistics.quantiles` uses
/// (method `exclusive`): position `p·(n+1)` in the sorted samples,
/// linearly interpolated and clamped to the extremes. The contract this
/// benchmark is accepted under computes spreads that way, so the ledger
/// reports the same numbers.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p * (sorted.len() + 1) as f64;
    let lo = (pos.floor() as usize).clamp(1, sorted.len());
    let hi = (lo + 1).min(sorted.len());
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median (0 for a single
    /// sample or a zero median).
    pub fn spread(&self) -> f64 {
        if self.n < 2 || self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("median", self.median)
            .set("min", self.min)
            .set("q1", self.q1)
            .set("q3", self.q3)
            .set("max", self.max)
            .set("n", self.n);
        v
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Summary> {
        Some(Summary {
            n: v.get("n")?.num()? as usize,
            min: v.get("min")?.num()?,
            q1: v.get("q1")?.num()?,
            median: v.get("median")?.num()?,
            q3: v.get("q3")?.num()?,
            max: v.get("max")?.num()?,
        })
    }
}

/// A timing distribution reported the way the metrics guide asks: the
/// median plus the highest percentile that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median.
    pub median: f64,
    /// Which percentile `tail` is (e.g. 0.95); 0.5 when there are fewer
    /// than twenty samples and no tail can be stated.
    pub tail_p: f64,
    /// The tail percentile's value.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

impl Timing {
    /// Summarizes timing samples.
    pub fn of(samples: &[f64]) -> Timing {
        let s = sorted(samples);
        let n = s.len();
        let tail_p = [0.999, 0.99, 0.95, 0.9, 0.75]
            .into_iter()
            .find(|p| (1.0 - p) * n as f64 >= 10.0)
            .unwrap_or(0.5);
        Timing { median: quantile(&s, 0.5), tail_p, tail: quantile(&s, tail_p), n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(Timing::of(&v).tail_p, 0.95);
        assert_eq!(Timing::of(&v[..15]).tail_p, 0.5);
        assert_eq!(Timing::of(&vec![1.0; 20_000]).tail_p, 0.999);
    }
}
