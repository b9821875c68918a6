//! Figures 7 and 8: bandwidth consumption of Nylon.
//!
//! Paper shapes: Figure 7 — Nylon stays below a few hundred B/s per peer,
//! grows *sub-linearly* with the NAT percentage (chains do not grow
//! linearly), and sits above the NAT-oblivious reference; Figure 8 — the
//! load is nearly even, with public peers 10–20 % *below* natted peers
//! (they receive no OPEN_HOLE for themselves and send no PONGs).
//!
//! Both figures read different columns of the same Nylon bandwidth
//! simulations, so they register one shared sweep (the reference baseline
//! cell is only rendered by Figure 7).

use nylon_gossip::GossipConfig;

use crate::output::{fmt_f, Table};
use crate::scenario::Scenario;

use super::common::{engine_sample, point_seeds, sample, steady_scenario, summary_col, Metric};
use super::{EngineKind, FigureScale, Grid, Plan};

const NAT_PCTS: [f64; 11] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// The sweep both figures share, one row per NAT percentage: cells are
/// `[overall, public, natted]` B/s per peer (NaN for empty classes), of
/// Nylon unless [`FigureScale::engine`] reroutes them. The reference
/// point — the (push/pull, rand, healer) baseline in a NAT-free, fault-free
/// population, read by every row after its own point — is registered only
/// when requested: Figure 8 never renders it, so a `fig8`-only run must not
/// pay for it (the Experiment merge dedups the shared points when both
/// figures run).
fn grid(scale: &FigureScale, with_reference: bool) -> Grid {
    let mut grid = Grid::new("fig78");
    if with_reference {
        let scale = scale.clone();
        grid.sweep.point("reference", point_seeds(&scale, 0x0007_0F00), move |seed| {
            let scn = Scenario::new(scale.peers, 0.0, seed);
            sample(&scn, GossipConfig::default(), scale.rounds, Metric::Bandwidth)
        });
    }
    let kind = scale.engine.unwrap_or(EngineKind::Nylon);
    for (i, pct) in NAT_PCTS.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x0007_0000 ^ (i as u64));
        grid.row([format!("{pct:.0}")]).point(format!("nylon/{pct:.0}"), seeds, move |seed| {
            engine_sample(
                kind,
                &steady_scenario(&scale, pct, seed),
                scale.rounds,
                Metric::Bandwidth,
            )
        });
        if with_reference {
            grid.reads("reference");
        }
    }
    grid
}

/// Mean over seeds of one class column, excluding runs where the class was
/// empty (NaN or zero bandwidth); NaN when every run lacked the class.
fn class_mean(rows: &[Vec<f64>], col: usize) -> f64 {
    let vals: Vec<f64> =
        rows.iter().map(|row| row[col]).filter(|v| !v.is_nan() && *v > 0.0).collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// The Figure 7 plan: total B/s per peer, Nylon vs reference.
pub fn plan_fig7(scale: &FigureScale) -> Plan {
    Plan::new(vec![grid(scale, true)], |results, rows| {
        let table = Table::new(
            "Figure 7 — bytes/s sent+received per peer, Nylon vs NAT-oblivious reference (RC/PRC/SYM mix 50/40/10)",
            ["NAT %", "Nylon B/s", "Reference B/s"],
        );
        vec![rows[0].render(results, table, |points| {
            points.iter().map(|p| fmt_f(summary_col(p, 0).mean(), 0)).collect()
        })]
    })
}

/// The Figure 8 plan: B/s per peer for public vs natted peers under Nylon.
pub fn plan_fig8(scale: &FigureScale) -> Plan {
    Plan::new(vec![grid(scale, false)], |results, rows| {
        let table = Table::new(
            "Figure 8 — bytes/s sent+received per peer by class, Nylon (RC/PRC/SYM mix 50/40/10)",
            ["NAT %", "public peers B/s", "natted peers B/s"],
        );
        vec![rows[0].render(results, table, |p| {
            vec![fmt_f(class_mean(p[0], 1), 0), fmt_f(class_mean(p[0], 2), 0)]
        })]
    })
}
