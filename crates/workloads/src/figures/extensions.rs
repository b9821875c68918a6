//! Extension experiments beyond the paper's figures.
//!
//! The paper motivates, but does not plot, several sensitivities; these
//! sweeps fill them in:
//!
//! * `ext-loss` — message loss. Footnote 3 argues the TTL mechanism
//!   tolerates late/lost messages ("the protocol resists the simultaneous
//!   departure of 50 % of the nodes", so it "would resist half of the
//!   message exchanges exceeding the upper bound"). We inject real loss.
//! * `ext-timeout` — NAT hole lifetime. 90 s is "a typical vendor value";
//!   stingier vendors exist.
//! * `ext-view` — view size. Figures 2/3/9 show three effects of view
//!   size; this sweeps Nylon across it.
//! * `ext-fc` — full-cone NATs "behave similarly to public peers as long
//!   as they frequently send or receive messages" (Section 5's reason for
//!   not reporting FC experiments). Verified here.
//! * `ext-indegree` — Jelasity-style randomness evidence: the in-degree
//!   distribution of the Nylon overlay vs the baseline's, with and
//!   without NATs.
//! * `ext-churn` — continuous churn (a fraction of peers replaced every
//!   round) rather than one massive departure.
//! * `ext-upnp` — UPnP/NAT-PMP port forwarding, the related-work
//!   alternative the paper rejects for partial device support and
//!   security concerns: how much adoption would the *baseline* need to
//!   survive NATs without any traversal protocol?

use nylon::NylonConfig;
use nylon_gossip::{GossipConfig, PeerSampler};
use nylon_metrics::{Summary, UndirectedCsr};
use nylon_net::{NatClass, NatType, NetConfig, PeerId};
use nylon_sim::{SimDuration, SimRng};

use crate::output::{fmt_f, Table};
use crate::runner::{
    biggest_cluster_pct, build, build_with_net, staleness, usable_edges, usable_in_degrees,
};
use crate::scenario::{NatMix, Scenario};

use super::common::{dispatch_engine, finite_means, point_seeds, summary_col};
use super::{EngineKind, FigureScale, Grid, Plan};

const LOSSES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];
const TIMEOUTS: [u64; 4] = [30, 60, 90, 180];
const VIEWS: [usize; 4] = [8, 15, 27, 40];
const FC_CASES: [(&str, NatMix, f64); 3] = [
    ("all public (0% NAT)", NatMix::prc_only(), 0.0),
    ("70% FC NATs", NatMix { fc: 1.0, rc: 0.0, prc: 0.0, sym: 0.0 }, 70.0),
    ("70% PRC NATs", NatMix::prc_only(), 70.0),
];
const INDEGREE_CASES: [(EngineKind, f64); 4] = [
    (EngineKind::Baseline, 0.0),
    (EngineKind::Baseline, 60.0),
    (EngineKind::Nylon, 60.0),
    (EngineKind::Nylon, 90.0),
];
const CHURNS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 5.0];
const ADOPTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The extensions plan: seven sweeps, seven tables.
pub fn plan(scale: &FigureScale) -> Plan {
    let grids = vec![
        loss_grid(scale),
        timeout_grid(scale),
        view_grid(scale),
        fc_grid(scale),
        indegree_grid(scale),
        churn_grid(scale),
        upnp_grid(scale),
    ];
    Plan::new(grids, |results, rows| {
        let loss = Table::new(
            "Extension (ext-loss) — Nylon at 70% NAT under message loss",
            [
                "loss %",
                "biggest cluster %",
                "stale refs %",
                "punch success %",
                "shuffle completion %",
            ],
        );
        let timeout = Table::new(
            "Extension (ext-timeout) — Nylon at 70% NAT vs NAT rule lifetime (paper default: 90 s)",
            ["hole timeout s", "stale refs %", "rounds lost to missing routes %", "mean chain len"],
        );
        let view = Table::new(
            "Extension (ext-view) — Nylon at 80% NAT vs view size",
            ["view size", "biggest cluster %", "mean chain len", "B/s per peer"],
        );
        let fc = Table::new(
            "Extension (ext-fc) — full-cone NATs behave like public peers (baseline protocol, 70% natted)",
            ["population", "biggest cluster %", "stale refs %"],
        );
        let indegree = Table::new(
            "Extension (ext-indegree) — health of the usable overlay graph (randomness evidence)",
            [
                "overlay",
                "NAT %",
                "mean in-degree",
                "std dev",
                "max",
                "clustering coeff",
                "mean path len",
            ],
        );
        let churn = Table::new(
            "Extension (ext-churn) — Nylon at 70% NAT under continuous churn (replacement per round)",
            ["churn %/round", "biggest cluster %", "stale refs %", "shuffle completion %"],
        );
        let upnp = Table::new(
            "Extension (ext-upnp) — baseline protocol at 70% PRC NAT vs UPnP port-forwarding adoption",
            ["UPnP adoption %", "biggest cluster %", "stale refs %", "natted share of usable refs %"],
        );
        vec![
            rows[0].render(results, loss, |p| finite_means(p[0], &[1, 2, 1, 1])),
            rows[1].render(results, timeout, |p| finite_means(p[0], &[2, 2, 2])),
            rows[2].render(results, view, |p| finite_means(p[0], &[1, 2, 0])),
            rows[3].render(results, fc, |p| {
                vec![fmt_f(summary_col(p[0], 0).mean(), 1), fmt_f(summary_col(p[0], 1).mean(), 2)]
            }),
            rows[4].render(results, indegree, |p| finite_means(p[0], &[1, 1, 0, 4, 2])),
            rows[5].render(results, churn, |p| finite_means(p[0], &[1, 2, 1])),
            rows[6].render(results, upnp, |p| finite_means(p[0], &[1, 2, 1])),
        ]
    })
}

/// Cells: `[cluster %, stale %, punch success %, shuffle completion %]`.
fn loss_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-loss");
    for (i, loss) in LOSSES.into_iter().enumerate() {
        let scale = scale.clone();
        let key = format!("{:.0}", loss * 100.0);
        let seeds = point_seeds(&scale, 0x00E0_0000 ^ (i as u64));
        grid.row([key.clone()]).point(key, seeds, move |seed| {
            let scn = Scenario::new(scale.peers, 70.0, seed);
            let net = NetConfig { loss_probability: loss, ..NetConfig::default() };
            let mut eng = build_with_net(&scn, NylonConfig::default(), net);
            eng.run_rounds(scale.rounds);
            let s = eng.stats();
            let punch = 100.0 * s.punch_successes as f64 / s.hole_punches.max(1) as f64;
            let completion =
                100.0 * s.responses_completed as f64 / s.shuffles_initiated.max(1) as f64;
            vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct, punch, completion]
        });
    }
    grid
}

/// Cells: `[stale %, rounds lost %, chain len]`.
fn timeout_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-timeout");
    for (i, secs) in TIMEOUTS.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00E1_0000 ^ (i as u64));
        grid.row([secs.to_string()]).point(secs.to_string(), seeds, move |seed| {
            let scn = Scenario::new(scale.peers, 70.0, seed);
            let net =
                NetConfig { hole_timeout: SimDuration::from_secs(secs), ..NetConfig::default() };
            let mut eng = build_with_net(&scn, NylonConfig::default(), net);
            eng.run_rounds(scale.rounds);
            let s = eng.stats();
            let missing = 100.0 * s.routes_missing as f64
                / (s.shuffles_initiated + s.routes_missing).max(1) as f64;
            vec![staleness(&eng).stale_pct, missing, s.mean_chain_len().unwrap_or(f64::NAN)]
        });
    }
    grid
}

/// Cells: `[cluster %, chain len, B/s per peer]`.
fn view_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-view");
    for (i, view) in VIEWS.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00E2_0000 ^ (i as u64));
        grid.row([view.to_string()]).point(view.to_string(), seeds, move |seed| {
            let scn = Scenario { view_size: view, ..Scenario::new(scale.peers, 80.0, seed) };
            let mut eng = build(&scn, NylonConfig::default());
            eng.run_rounds(scale.rounds);
            let bytes: u64 = eng
                .alive_peers()
                .collect::<Vec<_>>()
                .iter()
                .map(|p| eng.traffic_of(*p).bytes_total())
                .sum();
            let bps = bytes as f64 / eng.alive_peers().count() as f64 / eng.now().as_secs_f64();
            vec![biggest_cluster_pct(&eng), eng.stats().mean_chain_len().unwrap_or(f64::NAN), bps]
        });
    }
    grid
}

/// Cells: `[cluster %, stale %]`.
fn fc_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-fc");
    for (i, (label, mix, pct)) in FC_CASES.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00E3_0000 ^ (i as u64));
        grid.row([label.to_string()]).point(label.to_string(), seeds, move |seed| {
            let scn = Scenario { mix, ..Scenario::new(scale.peers, pct, seed) };
            let mut eng = build(&scn, GossipConfig::default());
            eng.run_rounds(scale.rounds);
            vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct]
        });
    }
    grid
}

/// Cells: `[mean in-degree, std dev, max, clustering coeff, mean path len]`
/// of the usable overlay.
fn indegree_grid(scale: &FigureScale) -> Grid {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        eng.run_rounds(rounds);
        let s: Summary = usable_in_degrees(&eng).iter().map(|d| *d as f64).collect();
        let graph = UndirectedCsr::from_edges(eng.peer_count(), usable_edges(&eng));
        vec![
            s.mean(),
            s.std_dev(),
            s.max().unwrap_or(0.0),
            graph.clustering_coefficient(),
            graph.mean_path_length(16).unwrap_or(f64::NAN),
        ]
    }
    let mut grid = Grid::new("ext-indegree");
    for (i, (kind, pct)) in INDEGREE_CASES.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00E4_0000 ^ (i as u64));
        grid.row([kind.label().to_string(), format!("{pct:.0}")]);
        grid.point(format!("{}/{pct:.0}", kind.label()), seeds, move |seed| {
            let scn = Scenario::new(scale.peers, pct, seed);
            dispatch_engine!(kind, |cfg| measure(build(&scn, cfg), scale.rounds))
        });
    }
    grid
}

/// Cells: `[cluster %, stale %, shuffle completion %]`.
fn churn_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-churn");
    for (i, churn) in CHURNS.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00E5_0000 ^ (i as u64));
        grid.row([format!("{churn}")]).point(format!("{churn}"), seeds, move |seed| {
            let scn = Scenario::new(scale.peers, 70.0, seed);
            let mut eng = build(&scn, NylonConfig::default());
            let mut rng = SimRng::new(seed).fork(0x6363_6875_726E);
            eng.run_rounds(scale.rounds / 3);
            let churn_rounds = scale.rounds - scale.rounds / 3;
            let per_round = ((churn / 100.0) * scale.peers as f64).round() as usize;
            for _ in 0..churn_rounds {
                // Replace peers: kill `per_round`, admit `per_round` new
                // ones via a surviving contact (70% of newcomers natted).
                let alive: Vec<PeerId> = eng.alive_peers().collect();
                if alive.len() > per_round + 2 {
                    let victims = rng.sample_without_replacement(&alive, per_round);
                    eng.kill_peers(&victims);
                }
                let contact = eng.alive_peers().next();
                if let Some(contact) = contact {
                    for _ in 0..per_round {
                        let class = if rng.chance(0.7) {
                            match rng.gen_range(0..10u32) {
                                0 => NatClass::Natted(NatType::Symmetric),
                                1..=4 => NatClass::Natted(NatType::PortRestrictedCone),
                                _ => NatClass::Natted(NatType::RestrictedCone),
                            }
                        } else {
                            NatClass::Public
                        };
                        eng.add_peer_with_bootstrap(class, &[contact]);
                    }
                }
                eng.run_rounds(1);
            }
            let s = eng.stats();
            let completion =
                100.0 * s.responses_completed as f64 / s.shuffles_initiated.max(1) as f64;
            vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct, completion]
        });
    }
    grid
}

/// Cells: `[cluster %, stale %, natted share of usable refs %]`.
fn upnp_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("ext-upnp");
    for (i, adoption) in ADOPTIONS.into_iter().enumerate() {
        let scale = scale.clone();
        let key = format!("{:.0}", adoption * 100.0);
        let seeds = point_seeds(&scale, 0x00E6_0000 ^ (i as u64));
        grid.row([key.clone()]).point(key, seeds, move |seed| {
            let scn = Scenario {
                mix: NatMix::prc_only(),
                upnp_adoption: adoption,
                ..Scenario::new(scale.peers, 70.0, seed)
            };
            let mut eng = build(&scn, GossipConfig::default());
            eng.run_rounds(scale.rounds);
            let stale = staleness(&eng);
            vec![biggest_cluster_pct(&eng), stale.stale_pct, stale.natted_nonstale_pct]
        });
    }
    grid
}
