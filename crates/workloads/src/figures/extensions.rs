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
use nylon_gossip::GossipConfig;
use nylon_metrics::Summary;
use nylon_net::{NatClass, NatType, NetConfig, PeerId};
use nylon_sim::{SimDuration, SimRng};

use crate::experiment::{Results, Sweep};
use crate::output::{fmt_f, Table};
use crate::runner::{biggest_cluster_pct, build, build_with_net, overlay_graph, staleness};
use crate::scenario::{NatMix, Scenario};

use super::common::{mean_finite, point_seeds};
use super::{FigureScale, Plan};

const LOSSES: [f64; 5] = [0.0, 0.01, 0.05, 0.10, 0.20];
const TIMEOUTS: [u64; 4] = [30, 60, 90, 180];
const VIEWS: [usize; 4] = [8, 15, 27, 40];
const FC_CASES: [(&str, NatMix, f64); 3] = [
    ("all public (0% NAT)", NatMix::prc_only(), 0.0),
    ("70% FC NATs", NatMix { fc: 1.0, rc: 0.0, prc: 0.0, sym: 0.0 }, 70.0),
    ("70% PRC NATs", NatMix::prc_only(), 70.0),
];
const INDEGREE_CASES: [(&str, f64, bool); 4] = [
    ("baseline", 0.0, false),
    ("baseline", 60.0, false),
    ("nylon", 60.0, true),
    ("nylon", 90.0, true),
];
const CHURNS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 5.0];
const ADOPTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The extensions plan: seven sweeps, seven tables.
pub fn plan(scale: &FigureScale) -> Plan {
    let sweeps = vec![
        loss_sweep(scale),
        timeout_sweep(scale),
        view_sweep(scale),
        fc_sweep(scale),
        indegree_sweep(scale),
        churn_sweep(scale),
        upnp_sweep(scale),
    ];
    Plan::new("extensions", sweeps, |results| {
        vec![
            render_loss(results),
            render_timeout(results),
            render_view(results),
            render_fc(results),
            render_indegree(results),
            render_churn(results),
            render_upnp(results),
        ]
    })
}

/// Cells: `[cluster %, stale %, punch success %, shuffle completion %]`.
fn loss_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-loss");
    for (i, loss) in LOSSES.iter().enumerate() {
        let scale = scale.clone();
        let loss = *loss;
        sweep.point(
            format!("{:.0}", loss * 100.0),
            point_seeds(&scale, 0x00E0_0000 ^ (i as u64)),
            move |seed| {
                let scn = Scenario::new(scale.peers, 70.0, seed);
                let net = NetConfig { loss_probability: loss, ..NetConfig::default() };
                let mut eng = build_with_net(&scn, NylonConfig::default(), net);
                eng.run_rounds(scale.rounds);
                let s = eng.stats();
                let punch = 100.0 * s.punch_successes as f64 / s.hole_punches.max(1) as f64;
                let completion =
                    100.0 * s.responses_completed as f64 / s.shuffles_initiated.max(1) as f64;
                vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct, punch, completion]
            },
        );
    }
    sweep
}

fn render_loss(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-loss) — Nylon at 70% NAT under message loss",
        ["loss %", "biggest cluster %", "stale refs %", "punch success %", "shuffle completion %"],
    );
    for loss in LOSSES {
        let rows = results.point("ext-loss", &format!("{:.0}", loss * 100.0));
        table.push_row([
            format!("{:.0}", loss * 100.0),
            fmt_f(mean_finite(rows, 0), 1),
            fmt_f(mean_finite(rows, 1), 2),
            fmt_f(mean_finite(rows, 2), 1),
            fmt_f(mean_finite(rows, 3), 1),
        ]);
    }
    table
}

/// Cells: `[stale %, rounds lost %, chain len]`.
fn timeout_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-timeout");
    for (i, secs) in TIMEOUTS.iter().enumerate() {
        let scale = scale.clone();
        let secs = *secs;
        sweep.point(secs.to_string(), point_seeds(&scale, 0x00E1_0000 ^ (i as u64)), move |seed| {
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
    sweep
}

fn render_timeout(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-timeout) — Nylon at 70% NAT vs NAT rule lifetime (paper default: 90 s)",
        ["hole timeout s", "stale refs %", "rounds lost to missing routes %", "mean chain len"],
    );
    for secs in TIMEOUTS {
        let rows = results.point("ext-timeout", &secs.to_string());
        table.push_row([
            secs.to_string(),
            fmt_f(mean_finite(rows, 0), 2),
            fmt_f(mean_finite(rows, 1), 2),
            fmt_f(mean_finite(rows, 2), 2),
        ]);
    }
    table
}

/// Cells: `[cluster %, chain len, B/s per peer]`.
fn view_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-view");
    for (i, view) in VIEWS.iter().enumerate() {
        let scale = scale.clone();
        let view = *view;
        sweep.point(view.to_string(), point_seeds(&scale, 0x00E2_0000 ^ (i as u64)), move |seed| {
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
    sweep
}

fn render_view(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-view) — Nylon at 80% NAT vs view size",
        ["view size", "biggest cluster %", "mean chain len", "B/s per peer"],
    );
    for view in VIEWS {
        let rows = results.point("ext-view", &view.to_string());
        table.push_row([
            view.to_string(),
            fmt_f(mean_finite(rows, 0), 1),
            fmt_f(mean_finite(rows, 1), 2),
            fmt_f(mean_finite(rows, 2), 0),
        ]);
    }
    table
}

/// Cells: `[cluster %, stale %]`.
fn fc_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-fc");
    for (i, (label, mix, pct)) in FC_CASES.iter().enumerate() {
        let scale = scale.clone();
        let (mix, pct) = (*mix, *pct);
        sweep.point(*label, point_seeds(&scale, 0x00E3_0000 ^ (i as u64)), move |seed| {
            let scn = Scenario { mix, ..Scenario::new(scale.peers, pct, seed) };
            let mut eng = build(&scn, GossipConfig::default());
            eng.run_rounds(scale.rounds);
            vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct]
        });
    }
    sweep
}

fn render_fc(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-fc) — full-cone NATs behave like public peers (baseline protocol, 70% natted)",
        ["population", "biggest cluster %", "stale refs %"],
    );
    for (label, _, _) in FC_CASES {
        let rows = results.point("ext-fc", label);
        let cluster: Summary = rows.iter().map(|r| r[0]).collect();
        let stale: Summary = rows.iter().map(|r| r[1]).collect();
        table.push_row([label.to_string(), fmt_f(cluster.mean(), 1), fmt_f(stale.mean(), 2)]);
    }
    table
}

/// Cells: `[mean in-degree, std dev, max, clustering coeff, mean path len]`.
fn indegree_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-indegree");
    for (i, (label, pct, is_nylon)) in INDEGREE_CASES.iter().enumerate() {
        let scale = scale.clone();
        let (pct, is_nylon) = (*pct, *is_nylon);
        sweep.point(
            indegree_key(label, pct),
            point_seeds(&scale, 0x00E4_0000 ^ (i as u64)),
            move |seed| {
                let scn = Scenario::new(scale.peers, pct, seed);
                let graph = if is_nylon {
                    let mut eng = build(&scn, NylonConfig::default());
                    eng.run_rounds(scale.rounds);
                    overlay_graph(&eng).0
                } else {
                    let mut eng = build(&scn, GossipConfig::default());
                    eng.run_rounds(scale.rounds);
                    overlay_graph(&eng).0
                };
                let s: Summary = graph.in_degrees().iter().map(|d| *d as f64).collect();
                vec![
                    s.mean(),
                    s.std_dev(),
                    s.max().unwrap_or(0.0),
                    graph.clustering_coefficient(),
                    graph.mean_path_length(16).unwrap_or(f64::NAN),
                ]
            },
        );
    }
    sweep
}

fn indegree_key(label: &str, pct: f64) -> String {
    format!("{label}/{pct:.0}")
}

fn render_indegree(results: &Results) -> Table {
    let mut table = Table::new(
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
    for (label, pct, _) in INDEGREE_CASES {
        let rows = results.point("ext-indegree", &indegree_key(label, pct));
        table.push_row([
            label.to_string(),
            format!("{pct:.0}"),
            fmt_f(mean_finite(rows, 0), 1),
            fmt_f(mean_finite(rows, 1), 1),
            fmt_f(mean_finite(rows, 2), 0),
            fmt_f(mean_finite(rows, 3), 4),
            fmt_f(mean_finite(rows, 4), 2),
        ]);
    }
    table
}

/// Cells: `[cluster %, stale %, shuffle completion %]`.
fn churn_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-churn");
    for (i, churn) in CHURNS.iter().enumerate() {
        let scale = scale.clone();
        let churn = *churn;
        sweep.point(
            format!("{churn}"),
            point_seeds(&scale, 0x00E5_0000 ^ (i as u64)),
            move |seed| {
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
            },
        );
    }
    sweep
}

fn render_churn(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-churn) — Nylon at 70% NAT under continuous churn (replacement per round)",
        ["churn %/round", "biggest cluster %", "stale refs %", "shuffle completion %"],
    );
    for churn in CHURNS {
        let rows = results.point("ext-churn", &format!("{churn}"));
        table.push_row([
            format!("{churn}"),
            fmt_f(mean_finite(rows, 0), 1),
            fmt_f(mean_finite(rows, 1), 2),
            fmt_f(mean_finite(rows, 2), 1),
        ]);
    }
    table
}

/// Cells: `[cluster %, stale %, natted share of usable refs %]`.
fn upnp_sweep(scale: &FigureScale) -> Sweep {
    let mut sweep = Sweep::new("ext-upnp");
    for (i, adoption) in ADOPTIONS.iter().enumerate() {
        let scale = scale.clone();
        let adoption = *adoption;
        sweep.point(
            format!("{:.0}", adoption * 100.0),
            point_seeds(&scale, 0x00E6_0000 ^ (i as u64)),
            move |seed| {
                let scn = Scenario {
                    mix: NatMix::prc_only(),
                    upnp_adoption: adoption,
                    ..Scenario::new(scale.peers, 70.0, seed)
                };
                let mut eng = build(&scn, GossipConfig::default());
                eng.run_rounds(scale.rounds);
                let stale = staleness(&eng);
                vec![biggest_cluster_pct(&eng), stale.stale_pct, stale.natted_nonstale_pct]
            },
        );
    }
    sweep
}

fn render_upnp(results: &Results) -> Table {
    let mut table = Table::new(
        "Extension (ext-upnp) — baseline protocol at 70% PRC NAT vs UPnP port-forwarding adoption",
        ["UPnP adoption %", "biggest cluster %", "stale refs %", "natted share of usable refs %"],
    );
    for adoption in ADOPTIONS {
        let rows = results.point("ext-upnp", &format!("{:.0}", adoption * 100.0));
        table.push_row([
            format!("{:.0}", adoption * 100.0),
            fmt_f(mean_finite(rows, 0), 1),
            fmt_f(mean_finite(rows, 1), 2),
            fmt_f(mean_finite(rows, 2), 1),
        ]);
    }
    table
}
