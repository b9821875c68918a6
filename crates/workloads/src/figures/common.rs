//! Shared per-seed cell computations and aggregation helpers for the
//! figure plans.
//!
//! A steady-state cell is one engine built for a scenario, run, and read
//! by a [`Metric`] — a pure function of `(scale, parameters, seed)`
//! returning a small metric vector, which the figure plans register as
//! sweep points with the executor. The aggregation helpers reduce the
//! per-seed rows the executor hands back to the render step.

use nylon::{NylonConfig, NylonEngine};
use nylon_gossip::{PeerSampler, SamplerConfig};
use nylon_metrics::{BandwidthReport, Summary};
use nylon_net::TrafficStats;
use nylon_obs::Counters;

use crate::output::fmt_f;
use crate::runner::{biggest_cluster_pct, build, seeds, staleness};
use crate::scenario::{NatMix, Scenario};

use super::{EngineKind, FigureScale};

/// Calls `$cell`, a closure literal over an engine config, with the
/// default config of the engine `$kind` selects. The literal is pasted
/// into every arm, so it instantiates once per engine type (a closure
/// value would pin one): `|cfg| build(&scn, cfg)` for an honest run, one
/// recruiting a [`nylon_adversary::Attack`] over the built engine for an
/// attacked one, one calling [`crate::runner::build_with_faults`] for the
/// `resilience` sweeps.
macro_rules! dispatch_engine {
    ($kind:expr, $cell:expr) => {
        match $kind {
            $crate::figures::EngineKind::Baseline => ($cell)(nylon_gossip::GossipConfig::default()),
            $crate::figures::EngineKind::Nylon => ($cell)(nylon::NylonConfig::default()),
            $crate::figures::EngineKind::StaticRvp => ($cell)(nylon::StaticRvpConfig::default()),
            $crate::figures::EngineKind::PeerSwap => {
                ($cell)(nylon_gossip::PeerSwapConfig::default())
            }
        }
    };
}
pub(crate) use dispatch_engine;

/// Derives the seed list for a data point, mixing figure-specific salt so
/// different figures do not share seeds.
pub fn point_seeds(scale: &FigureScale, salt: u64) -> Vec<u64> {
    seeds(scale.seeds, scale.base_seed ^ salt)
}

/// The scenario of a steady-state cell at one NAT percentage, under the
/// [`FigureScale::faults`] override.
pub fn steady_scenario(scale: &FigureScale, nat_pct: f64, seed: u64) -> Scenario {
    Scenario {
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    }
}

/// [`steady_scenario`] with PRC NATs only and views of `view_size`.
pub fn prc_scenario(scale: &FigureScale, view_size: usize, nat_pct: f64, seed: u64) -> Scenario {
    Scenario { mix: NatMix::prc_only(), view_size, ..steady_scenario(scale, nat_pct, seed) }
}

/// What a steady-state cell reads off its engine.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// `[cluster %]` at the end of the run (a Figure 2 cell).
    Cluster,
    /// `[stale %, natted non-stale %]`, each averaged over three
    /// end-of-run snapshots (a Figures 3/4 cell).
    Staleness,
    /// `[overall, public, natted]` B/s per peer over the run's last two
    /// thirds, NaN for empty classes (a Figures 7/8 cell).
    Bandwidth,
}

impl Metric {
    /// Runs `eng` for `rounds` and reads the metric.
    fn measure<S: PeerSampler>(self, mut eng: S, rounds: u64) -> Vec<f64> {
        match self {
            Metric::Cluster => {
                eng.run_rounds(rounds);
                vec![biggest_cluster_pct(&eng)]
            }
            Metric::Staleness => {
                eng.run_rounds(rounds.saturating_sub(10));
                let (mut stale, mut natted) = (0.0, 0.0);
                for _ in 0..3 {
                    eng.run_rounds(5);
                    let rep = staleness(&eng);
                    stale += rep.stale_pct / 3.0;
                    natted += rep.natted_nonstale_pct / 3.0;
                }
                vec![stale, natted]
            }
            Metric::Bandwidth => {
                let (overall, public, natted) = bandwidth_by_class(&mut eng, rounds);
                vec![overall, public, natted]
            }
        }
    }
}

/// One steady-state cell: `cfg`'s engine built for `scn`, run for
/// `rounds` and read by `metric`.
pub fn sample<C: SamplerConfig>(scn: &Scenario, cfg: C, rounds: u64, metric: Metric) -> Vec<f64> {
    metric.measure(build(scn, cfg), rounds)
}

/// [`sample`] on the default configuration of the engine `kind` selects.
pub fn engine_sample(kind: EngineKind, scn: &Scenario, rounds: u64, metric: Metric) -> Vec<f64> {
    dispatch_engine!(kind, |cfg| sample(scn, cfg, rounds, metric))
}

/// Runs an engine through a warmup third of `rounds` and measures per-class
/// bandwidth over the remaining window: `(overall, public, natted)` B/s per
/// peer, NaN for empty classes. Works for any [`PeerSampler`].
pub fn bandwidth_by_class<S: PeerSampler>(eng: &mut S, rounds: u64) -> (f64, f64, f64) {
    let warmup = rounds / 3;
    eng.run_rounds(warmup);
    let peers = eng.alive_peers();
    let before: Vec<TrafficStats> = peers.iter().map(|p| eng.traffic_of(*p)).collect();
    let window_rounds = rounds - warmup;
    eng.run_rounds(window_rounds);
    let window = eng.shuffle_period() * window_rounds;
    let report = BandwidthReport::compute(
        peers
            .iter()
            .enumerate()
            .map(|(i, p)| (eng.class_of(*p).is_public(), eng.traffic_of(*p).since(&before[i]))),
        window,
    );
    (report.overall.mean(), report.public.mean(), report.natted.mean())
}

/// Mean RVP chain length for Nylon at one NAT percentage over the
/// measurement window (a Figure 9 cell): `[chain_len]`, NaN when no chain
/// was observed.
pub fn nylon_chain_sample(
    scale: &FigureScale,
    view_size: usize,
    nat_pct: f64,
    seed: u64,
) -> Vec<f64> {
    let scn = Scenario { view_size, ..steady_scenario(scale, nat_pct, seed) };
    let mut eng: NylonEngine = build(&scn, NylonConfig::default());
    let warmup = scale.rounds / 3;
    eng.run_rounds(warmup);
    let before = eng.stats();
    eng.run_rounds(scale.rounds - warmup);
    let after = eng.stats();
    let hops = after.chain_hops_sum - before.chain_hops_sum;
    let samples = after.chain_samples - before.chain_samples;
    vec![if samples == 0 { f64::NAN } else { hops as f64 / samples as f64 }]
}

/// One metric column of the per-seed rows, as a [`Summary`] (keeps every
/// value, including NaN — use for columns that cannot produce NaN).
pub fn summary_col(rows: &[Vec<f64>], idx: usize) -> Summary {
    rows.iter().map(|row| row[idx]).collect()
}

/// [`mean_finite`] of each metric column in turn, column `i` printed with
/// `decimals[i]` decimals.
pub fn finite_means(rows: &[Vec<f64>], decimals: &[usize]) -> Vec<String> {
    decimals.iter().enumerate().map(|(col, &d)| fmt_f(mean_finite(rows, col), d)).collect()
}

/// [`mean_finite`] of one metric column with one decimal, followed by
/// `±sd` of the same finite values when more than one seed produced one
/// and they spread by more than a point. The paper: "any non negligible
/// observed variance is indicated in the graphs"; a cell of a few noisy
/// samples (churn, a handful of eclipse victims) needs it most.
pub fn mean_sd_finite(rows: &[Vec<f64>], idx: usize) -> String {
    let finite: Summary = rows.iter().map(|row| row[idx]).filter(|v| !v.is_nan()).collect();
    let mean = fmt_f(mean_finite(rows, idx), 1);
    if finite.count() > 1 && finite.std_dev() > 1.0 {
        format!("{mean} ±{}", fmt_f(finite.std_dev(), 1))
    } else {
        mean
    }
}

/// NaN-filtered mean of one metric column; NaN when no seed produced a
/// finite value (rendered as "-").
pub fn mean_finite(rows: &[Vec<f64>], idx: usize) -> f64 {
    let vals: Vec<f64> = rows.iter().map(|row| row[idx]).filter(|v| !v.is_nan()).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sd_finite_skips_nan_and_shows_only_a_real_spread() {
        let rows = |vals: &[f64]| vals.iter().map(|v| vec![*v]).collect::<Vec<_>>();
        assert_eq!(mean_sd_finite(&rows(&[f64::NAN, 10.0, 14.0]), 0), "12.0 ±2.8");
        assert_eq!(mean_sd_finite(&rows(&[10.0, 10.4]), 0), "10.2");
        assert_eq!(mean_sd_finite(&rows(&[7.0, f64::NAN]), 0), "7.0");
        assert_eq!(mean_sd_finite(&rows(&[f64::NAN, f64::NAN]), 0), "-");
    }
}
