//! Convergence over time: how fast each protocol reaches (or loses) its
//! steady state after the bootstrap.
//!
//! Not a figure in the paper — its plots are steady-state — but the
//! natural first question about any gossip protocol, and the view that
//! shows *when* the baseline's degradation sets in: staleness accumulates
//! over the first ~hole-timeout of simulated time (18 rounds at the
//! default 90 s / 5 s), after which the usable overlay has shed its
//! doomed links.

use nylon::NylonConfig;
use nylon_gossip::GossipConfig;

use crate::output::{fmt_f, Table};
use crate::runner::{biggest_cluster_pct_with, build, staleness, SnapshotScratch};
use crate::scenario::{NatMix, Scenario};

use super::common::point_seeds;
use super::{FigureScale, Grid, Plan};

const POINT: &str = "70";

const NAT_PCT: f64 = 70.0;

/// Round checkpoints at which the overlays are measured.
const CHECKPOINTS: [u64; 8] = [0, 2, 5, 10, 18, 30, 60, 120];

/// Metrics recorded per checkpoint, in cell-vector order.
const METRICS: usize = 4;

/// The timeline plan: each cell walks both engines through the round
/// checkpoints and returns the four metrics per checkpoint, flattened
/// checkpoint-major; the table has one row per checkpoint, each reading
/// the one point.
pub fn plan(scale: &FigureScale) -> Plan {
    let mut grid = Grid::new("timeline");
    let scale_c = scale.clone();
    grid.sweep.point(POINT, point_seeds(scale, 0x0011_0000), move |seed| {
        let scn =
            Scenario { mix: NatMix::prc_only(), ..Scenario::new(scale_c.peers, NAT_PCT, seed) };
        let mut base = build(&scn, GossipConfig::default());
        let mut nyl = build(&scn, NylonConfig::default());
        let mut out = Vec::with_capacity(CHECKPOINTS.len() * METRICS);
        let mut done = 0u64;
        // One snapshot per checkpoint: reuse the overlay scratch across
        // all of them instead of rebuilding the graph buffers each time.
        let mut scratch = SnapshotScratch::new();
        for cp in CHECKPOINTS {
            let advance = cp - done;
            base.run_rounds(advance);
            nyl.run_rounds(advance);
            done = cp;
            out.extend([
                biggest_cluster_pct_with(&base, &mut scratch),
                staleness(&base).stale_pct,
                biggest_cluster_pct_with(&nyl, &mut scratch),
                staleness(&nyl).stale_pct,
            ]);
        }
        out
    });
    for cp in CHECKPOINTS {
        grid.row([cp.to_string()]).reads(POINT);
    }
    Plan::new(vec![grid], |results, rows| {
        let table = Table::new(
            "Timeline — convergence at 70% PRC NAT: usable cluster and staleness per round",
            ["round", "baseline cluster %", "baseline stale %", "nylon cluster %", "nylon stale %"],
        );
        // Row `i` reads checkpoint `i`'s slice of the cell vector.
        let mut next = 0;
        vec![rows[0].render(results, table, |p| {
            let (first, seeds) = (next * METRICS, p[0].len() as f64);
            next += 1;
            (first..first + METRICS)
                .map(|c| fmt_f(p[0].iter().map(|r| r[c]).sum::<f64>() / seeds, 1))
                .collect()
        })]
    })
}
