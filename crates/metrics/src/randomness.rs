//! Statistical randomness tests on peer-sampling output.
//!
//! Section 5 of the paper: "we assessed randomness using the diehard test
//! suite for random number generators". diehard consumes raw bitstreams;
//! the property actually asserted is that *samples are uniformly random
//! peers*. This module tests exactly that property on the stream of
//! gossip-selected peer ids:
//!
//! * [`chi_square_uniform`] — are all peers selected equally often?
//! * [`dispersion_index`] — how far are the selection counts spread?
//! * [`serial_correlation`] — are consecutive selections independent?

/// Result of a chi-square goodness-of-fit test against uniformity.
#[derive(Debug, Clone, Copy)]
pub struct ChiSquare {
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom (`categories - 1`).
    pub df: usize,
    /// Approximate p-value (Wilson–Hilferty normal approximation).
    pub p_value: f64,
}

/// Chi-square test that `counts` are uniform draws over their categories.
///
/// Returns `None` if fewer than two categories or all counts are zero.
///
/// ```
/// use nylon_metrics::randomness::chi_square_uniform;
///
/// let balanced = chi_square_uniform(&[100, 101, 99, 100]).unwrap();
/// assert!(balanced.p_value > 0.9);
/// let skewed = chi_square_uniform(&[400, 0, 0, 0]).unwrap();
/// assert!(skewed.p_value < 1e-6);
/// ```
pub fn chi_square_uniform(counts: &[u64]) -> Option<ChiSquare> {
    if counts.len() < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let expected = total as f64 / counts.len() as f64;
    let statistic: f64 = counts.iter().map(|c| (*c as f64 - expected).powi(2) / expected).sum();
    let df = counts.len() - 1;
    Some(ChiSquare { statistic, df, p_value: chi_square_sf(statistic, df) })
}

/// Survival function of the chi-square distribution via the
/// Wilson–Hilferty cube-root normal approximation (accurate to a few
/// percent for df ≥ 3, adequate for pass/fail batteries).
fn chi_square_sf(x: f64, df: usize) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    let k = df as f64;
    let t = (x / k).powf(1.0 / 3.0);
    let mu = 1.0 - 2.0 / (9.0 * k);
    let sigma = (2.0 / (9.0 * k)).sqrt();
    normal_sf((t - mu) / sigma)
}

/// Standard normal survival function via the Abramowitz–Stegun erfc
/// approximation (max error ~1.5e-7).
fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Index of dispersion (variance-to-mean ratio) of category counts.
///
/// For an iid uniform sampler the counts are multinomial and the index is
/// ≈ 1. Gossip peer sampling is *temporally correlated* (an entry sitting
/// in many views is selected repeatedly before it ages out), so a healthy
/// protocol shows a stable index well above 1 — what matters is that the
/// index does not grow when NATs are added, and that no class of peers is
/// under-sampled. Returns `None` for fewer than two categories or all-zero
/// counts.
///
/// ```
/// use nylon_metrics::randomness::dispersion_index;
/// assert!(dispersion_index(&[100, 100, 100]).unwrap() < 0.01);
/// assert!(dispersion_index(&[300, 0, 0]).unwrap() > 100.0);
/// ```
pub fn dispersion_index(counts: &[u64]) -> Option<f64> {
    if counts.len() < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / counts.len() as f64;
    let var =
        counts.iter().map(|c| (*c as f64 - mean).powi(2)).sum::<f64>() / (counts.len() - 1) as f64;
    Some(var / mean)
}

/// Lag-1 serial correlation coefficient of a sequence.
///
/// Near 0 for independent draws; returns `None` for sequences shorter than
/// 3 or with zero variance.
pub fn serial_correlation(xs: &[f64]) -> Option<f64> {
    if xs.len() < 3 {
        return None;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
    if var == 0.0 {
        return None;
    }
    let cov: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
    Some(cov / var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chi_square_accepts_uniform() {
        let counts = vec![500u64; 20];
        let r = chi_square_uniform(&counts).unwrap();
        assert!(r.statistic < 1e-9);
        assert!(r.p_value > 0.99);
        assert_eq!(r.df, 19);
    }

    #[test]
    fn chi_square_rejects_skew() {
        let mut counts = vec![100u64; 20];
        counts[0] = 2000;
        let r = chi_square_uniform(&counts).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn chi_square_degenerate_inputs() {
        assert!(chi_square_uniform(&[]).is_none());
        assert!(chi_square_uniform(&[5]).is_none());
        assert!(chi_square_uniform(&[0, 0]).is_none());
    }

    #[test]
    fn serial_correlation_detects_trend() {
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let r = serial_correlation(&ramp).unwrap();
        assert!(r > 0.9, "ramp should correlate, got {r}");
    }

    #[test]
    fn serial_correlation_near_zero_for_rng() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>()).collect();
        let r = serial_correlation(&xs).unwrap();
        assert!(r.abs() < 0.05, "independent draws correlated: {r}");
    }

    #[test]
    fn serial_correlation_degenerate() {
        assert!(serial_correlation(&[1.0, 2.0]).is_none());
        assert!(serial_correlation(&[3.0; 10]).is_none());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// Balanced counts sit near zero dispersion; concentrating the
            /// same mass on one category blows the index up — the ordering
            /// the randomness head-to-head relies on.
            #[test]
            fn prop_dispersion_orders_balanced_below_concentrated(
                per_cat in 10u64..500,
                cats in 3usize..50,
            ) {
                let balanced = vec![per_cat; cats];
                let mut concentrated = vec![0u64; cats];
                concentrated[0] = per_cat * cats as u64;
                let lo = dispersion_index(&balanced).unwrap();
                let hi = dispersion_index(&concentrated).unwrap();
                prop_assert!(lo < 0.01, "balanced counts dispersed: {lo}");
                prop_assert!(hi > lo + 1.0, "concentration not flagged: {hi} vs {lo}");
            }
        }
    }
}
