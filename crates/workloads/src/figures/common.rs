//! Shared per-seed cell computations and aggregation helpers for the
//! figure plans.
//!
//! Each `*_sample` function computes one experiment cell — a pure function
//! of `(scale, parameters, seed)` returning a small metric vector — which
//! the figure plans register as sweep points with the executor. The
//! aggregation helpers reduce the per-seed rows the executor hands back to
//! the render step.

use nylon::{NylonConfig, NylonEngine, NylonStats};
use nylon_gossip::{GossipConfig, PeerSampler, Sharded};
use nylon_metrics::{BandwidthReport, Summary};
use nylon_net::TrafficStats;

use crate::runner::{biggest_cluster_pct, build, obs_flush, seeds, staleness};
use crate::scenario::{NatMix, Scenario};

use super::{EngineKind, FigureScale};

/// The one place a cell picks its workers: builds `$cfg`'s engine — sized
/// by itself when `$shards` is 0, under [`nylon_gossip::Sharded`] with
/// `$shards` lockstep workers otherwise — and passes it to the generic
/// function `$measure` along with any trailing arguments. Both forms
/// render the same bytes; the choice only moves wall clock.
///
/// `$build` turns the (possibly sharded) engine config into the built
/// engine. It is pasted syntactically into both arms, so a closure literal
/// instantiates independently per engine type: `|cfg| build(&scn, cfg)`
/// for an honest run, one wrapping the config in
/// [`nylon_adversary::MaliciousConfig`] for an attacked one, one calling
/// [`crate::runner::build_with_faults`] for the `resilience` sweeps, which
/// vary fault intensity per point (cells honoring the `--faults` spec
/// override use the scenario's own [`crate::scenario::Scenario::faults`]
/// field instead). `$measure` must be the path of a function generic over
/// [`PeerSampler`] (a closure would pin one concrete engine type).
macro_rules! on_shards {
    ($shards:expr, $cfg:expr, $build:expr, $measure:path $(, $extra:expr)* $(,)?) => {
        match $shards {
            0 => $measure(($build)($cfg) $(, $extra)*),
            s => $measure(($build)(nylon_gossip::ShardedConfig::new($cfg, s)) $(, $extra)*),
        }
    };
}
pub(crate) use on_shards;

/// [`on_shards`] over the default config of the engine selected by `$kind`.
macro_rules! dispatch_engine {
    ($kind:expr, $shards:expr, $build:expr, $measure:path $(, $extra:expr)* $(,)?) => {{
        use $crate::figures::EngineKind as __Kind;
        match $kind {
            __Kind::Baseline => $crate::figures::common::on_shards!(
                $shards, nylon_gossip::GossipConfig::default(), $build, $measure $(, $extra)*
            ),
            __Kind::Nylon => $crate::figures::common::on_shards!(
                $shards, nylon::NylonConfig::default(), $build, $measure $(, $extra)*
            ),
            __Kind::StaticRvp => $crate::figures::common::on_shards!(
                $shards, nylon::StaticRvpConfig::default(), $build, $measure $(, $extra)*
            ),
            __Kind::PeerSwap => $crate::figures::common::on_shards!(
                $shards, nylon_gossip::PeerSwapConfig::default(), $build, $measure $(, $extra)*
            ),
        }
    }};
}
pub(crate) use dispatch_engine;

/// Nylon's protocol counters off either form of the engine (`stats` is an
/// inherent method of the engine `Sharded` derefs to), for the Nylon-only
/// cells.
pub(crate) trait NylonCounters: PeerSampler {
    fn nylon_stats(&self) -> NylonStats;
}

impl NylonCounters for NylonEngine {
    fn nylon_stats(&self) -> NylonStats {
        self.stats()
    }
}

impl NylonCounters for Sharded<NylonEngine> {
    fn nylon_stats(&self) -> NylonStats {
        self.stats()
    }
}

/// Derives the seed list for a data point, mixing figure-specific salt so
/// different figures do not share seeds.
pub fn point_seeds(scale: &FigureScale, salt: u64) -> Vec<u64> {
    seeds(scale.seeds, scale.base_seed ^ salt)
}

/// Biggest-cluster percentage for a baseline configuration at one NAT
/// percentage (a Figure 2 cell): `[cluster_pct]`.
pub fn baseline_cluster_sample(
    scale: &FigureScale,
    cfg: &GossipConfig,
    nat_pct: f64,
    seed: u64,
) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        eng.run_rounds(rounds);
        let pct = biggest_cluster_pct(&eng);
        obs_flush(&eng);
        vec![pct]
    }
    let scn = Scenario {
        mix: NatMix::prc_only(),
        view_size: cfg.view_size,
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    };
    on_shards!(scale.shards, cfg.clone(), |cfg| build(&scn, cfg), measure, scale.rounds)
}

/// Biggest-cluster percentage for an [`EngineKind`]-selected engine (its
/// default configuration at the scenario's view size) at one NAT
/// percentage: `[cluster_pct]`. The `--engine` twin of
/// [`baseline_cluster_sample`], over the same PRC-only population.
pub fn engine_cluster_sample(
    scale: &FigureScale,
    kind: EngineKind,
    view_size: usize,
    nat_pct: f64,
    seed: u64,
) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        eng.run_rounds(rounds);
        let pct = biggest_cluster_pct(&eng);
        obs_flush(&eng);
        vec![pct]
    }
    let scn = Scenario {
        mix: NatMix::prc_only(),
        view_size,
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    };
    dispatch_engine!(kind, scale.shards, |cfg| build(&scn, cfg), measure, scale.rounds)
}

/// Staleness metrics at one NAT percentage (a Figures 3/4 cell):
/// `[stale %, natted non-stale %]`, each averaged over three end-of-run
/// snapshots. Measures the (push/pull, rand, healer) baseline unless
/// [`FigureScale::engine`] reroutes the cell to another engine.
pub fn baseline_staleness_sample(
    scale: &FigureScale,
    view_size: usize,
    nat_pct: f64,
    seed: u64,
) -> Vec<f64> {
    let scn = Scenario {
        mix: NatMix::prc_only(),
        view_size,
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    };
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        eng.run_rounds(rounds.saturating_sub(10));
        let mut stale = 0.0;
        let mut natted = 0.0;
        for _ in 0..3 {
            eng.run_rounds(5);
            let rep = staleness(&eng);
            stale += rep.stale_pct / 3.0;
            natted += rep.natted_nonstale_pct / 3.0;
        }
        obs_flush(&eng);
        vec![stale, natted]
    }
    let kind = scale.engine.unwrap_or(EngineKind::Baseline);
    dispatch_engine!(kind, scale.shards, |cfg| build(&scn, cfg), measure, scale.rounds)
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

/// Per-class bandwidth at one NAT percentage (a Figures 7/8 cell):
/// `[overall, public, natted]` B/s per peer, NaN for empty classes.
/// Measures Nylon unless [`FigureScale::engine`] reroutes the cell.
pub fn nylon_bandwidth_sample(scale: &FigureScale, nat_pct: f64, seed: u64) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        let (overall, public, natted) = bandwidth_by_class(&mut eng, rounds);
        obs_flush(&eng);
        vec![overall, public, natted]
    }
    let scn = Scenario {
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    };
    let kind = scale.engine.unwrap_or(EngineKind::Nylon);
    dispatch_engine!(kind, scale.shards, |cfg| build(&scn, cfg), measure, scale.rounds)
}

/// Bandwidth of the NAT-oblivious reference, (push/pull, rand, healer), in
/// a NAT-free population (Figure 7's flat "Reference" line): `[overall]`.
pub fn reference_bandwidth_sample(scale: &FigureScale, seed: u64) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        let (overall, _, _) = bandwidth_by_class(&mut eng, rounds);
        obs_flush(&eng);
        vec![overall]
    }
    let scn = Scenario::new(scale.peers, 0.0, seed);
    on_shards!(scale.shards, GossipConfig::default(), |cfg| build(&scn, cfg), measure, scale.rounds)
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
    fn measure<S: NylonCounters>(mut eng: S, rounds: u64) -> Vec<f64> {
        let warmup = rounds / 3;
        eng.run_rounds(warmup);
        let before = eng.nylon_stats();
        eng.run_rounds(rounds - warmup);
        let after = eng.nylon_stats();
        let hops = after.chain_hops_sum - before.chain_hops_sum;
        let samples = after.chain_samples - before.chain_samples;
        obs_flush(&eng);
        vec![if samples == 0 { f64::NAN } else { hops as f64 / samples as f64 }]
    }
    let scn = Scenario {
        view_size,
        faults: scale.faults.filter(|s| !s.is_none()),
        ..Scenario::new(scale.peers, nat_pct, seed)
    };
    let cfg = NylonConfig { view_size, ..NylonConfig::default() };
    on_shards!(scale.shards, cfg, |cfg| build(&scn, cfg), measure, scale.rounds)
}

/// One metric column of the per-seed rows, as a [`Summary`] (keeps every
/// value, including NaN — use for columns that cannot produce NaN).
pub fn summary_col(rows: &[Vec<f64>], idx: usize) -> Summary {
    rows.iter().map(|row| row[idx]).collect()
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
