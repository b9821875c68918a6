//! The ablations (README "Reproducing the paper"):
//!
//! * `abl-dist` — Section 5's "we evaluated other distributions and got
//!   comparable results": Nylon under alternative NAT-type mixes.
//! * `abl-rvp` — Section 4's strawman: static public RVPs concentrate the
//!   load on public peers, Nylon spreads it.
//! * `abl-push` — Section 3's remark that push propagation "consistently
//!   exhibits significantly worse performances" than push/pull.

use crate::output::{fmt_f, Table};
use crate::runner::{biggest_cluster_pct, build, staleness};
use crate::scenario::{NatMix, Scenario};
use nylon::NylonConfig;
use nylon_gossip::{GossipConfig, PropagationPolicy};

use super::common::{bandwidth_by_class, dispatch_engine, finite_means, point_seeds, summary_col};
use super::{EngineKind, FigureScale, Grid, Plan};

const MIXES: [(&str, NatMix); 4] = [
    ("paper 50/40/10 RC/PRC/SYM", NatMix::paper_default()),
    ("cone-heavy 80/10/10", NatMix { fc: 0.0, rc: 0.8, prc: 0.1, sym: 0.1 }),
    ("sym-heavy 30/30/40", NatMix { fc: 0.0, rc: 0.3, prc: 0.3, sym: 0.4 }),
    ("PRC only", NatMix::prc_only()),
];

/// The ablation plan: three sweeps, three tables.
pub fn plan(scale: &FigureScale) -> Plan {
    let grids = vec![mix_grid(scale), rvp_grid(scale), push_grid(scale)];
    Plan::new(grids, |results, rows| {
        let mix = Table::new(
            "Ablation (abl-dist) — Nylon at 70% NAT under alternative NAT mixes",
            ["mix", "biggest cluster %", "stale refs %", "mean chain len", "punch success %"],
        );
        let rvp = Table::new(
            "Ablation (abl-rvp) — load distribution at 70% NAT: Nylon vs static public RVPs",
            ["scheme", "public B/s", "natted B/s", "public/natted ratio"],
        );
        let push = Table::new(
            "Ablation (abl-push) — push vs push/pull baseline, PRC NATs",
            ["propagation", "NAT %", "biggest cluster %", "stale refs %"],
        );
        vec![
            rows[0].render(results, mix, |p| finite_means(p[0], &[1, 2, 2, 1])),
            rows[1].render(results, rvp, |p| {
                let (public, natted) = (summary_col(p[0], 0), summary_col(p[0], 1));
                let ratio = public.mean() / natted.mean();
                vec![fmt_f(public.mean(), 0), fmt_f(natted.mean(), 0), fmt_f(ratio, 2)]
            }),
            rows[2].render(results, push, |p| {
                vec![fmt_f(summary_col(p[0], 0).mean(), 1), fmt_f(summary_col(p[0], 1).mean(), 2)]
            }),
        ]
    })
}

/// Nylon at 70 % NAT under different NAT-type mixes. Cells are
/// `[cluster %, stale %, chain len, punch success %]`.
fn mix_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("abl-dist");
    for (mi, (label, mix)) in MIXES.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00AB_0000 ^ (mi as u64));
        grid.row([label.to_string()]).point(label.to_string(), seeds, move |seed| {
            let scn = Scenario { mix, ..Scenario::new(scale.peers, 70.0, seed) };
            let mut eng = build(&scn, NylonConfig::default());
            eng.run_rounds(scale.rounds);
            let stats = eng.stats();
            let punch_pct = if stats.hole_punches == 0 {
                f64::NAN
            } else {
                100.0 * stats.punch_successes as f64 / stats.hole_punches as f64
            };
            vec![
                biggest_cluster_pct(&eng),
                staleness(&eng).stale_pct,
                stats.mean_chain_len().unwrap_or(f64::NAN),
                punch_pct,
            ]
        });
    }
    grid
}

/// Nylon vs the static-public-RVP strawman at 70 % NAT: load split by
/// class. Cells are `[public B/s, natted B/s]` — the same generic
/// bandwidth path over [`crate::runner::build`], with only the config
/// (and therefore the engine) differing per point.
fn rvp_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("abl-rvp");
    let seed_list = point_seeds(scale, 0x00AB_1000);
    for (kind, label, key) in [
        (EngineKind::Nylon, "Nylon", "nylon"),
        (EngineKind::StaticRvp, "static public RVPs", "static"),
    ] {
        let scale = scale.clone();
        grid.row([label.to_string()]).point(key.to_string(), seed_list.clone(), move |seed| {
            let scn = Scenario::new(scale.peers, 70.0, seed);
            let (_, public, natted) = dispatch_engine!(kind, |cfg| {
                bandwidth_by_class(&mut build(&scn, cfg), scale.rounds)
            });
            vec![public, natted]
        });
    }
    grid
}

/// Push vs push/pull propagation for the baseline under moderate NATs.
/// Cells are `[cluster %, stale %]`.
fn push_grid(scale: &FigureScale) -> Grid {
    let mut grid = Grid::new("abl-push");
    for (pi, propagation) in
        [PropagationPolicy::PushPull, PropagationPolicy::Push].into_iter().enumerate()
    {
        for (ni, pct) in [30.0f64, 50.0].into_iter().enumerate() {
            let salt = 0x00AB_2000 ^ ((pi as u64) << 8) ^ (ni as u64);
            let scale = scale.clone();
            let label = propagation.label();
            grid.row([label.to_string(), format!("{pct:.0}")]);
            grid.point(format!("{label}/{pct:.0}"), point_seeds(&scale, salt), move |seed| {
                let scn =
                    Scenario { mix: NatMix::prc_only(), ..Scenario::new(scale.peers, pct, seed) };
                let cfg = GossipConfig { propagation, ..GossipConfig::default() };
                let mut eng = build(&scn, cfg);
                eng.run_rounds(scale.rounds);
                vec![biggest_cluster_pct(&eng), staleness(&eng).stale_pct]
            });
        }
    }
    grid
}
