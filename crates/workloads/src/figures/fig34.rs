//! Figures 3 and 4: stale references and the natted-reference ratio for
//! the (push/pull, rand, healer) baseline.
//!
//! Paper shapes: Figure 3 — the stale percentage grows roughly linearly
//! with the NAT percentage and is *higher* for the larger view; Figure 4 —
//! natted peers are grossly under-represented among usable references
//! (e.g. 40 % natted peers hold only ~10 % of non-stale references at view
//! 15).
//!
//! Both figures read different columns of the *same* simulations, so they
//! register one shared sweep: requesting both (as `repro all` does)
//! executes every cell once.

use super::common::{engine_sample, mean_finite, point_seeds, prc_scenario, Metric};
use super::{EngineKind, FigureScale, Plan};
use crate::experiment::{Results, Sweep};
use crate::output::{fmt_f, Table};

const SWEEP: &str = "fig34";

const NAT_PCTS: [f64; 11] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// The sweep both figures share: cells are `[stale %, natted non-stale %]`
/// per (view, NAT %, seed), PRC NATs only. Measures the (push/pull, rand,
/// healer) baseline unless [`FigureScale::engine`] reroutes the cells.
fn sweep(scale: &FigureScale) -> Sweep {
    let kind = scale.engine.unwrap_or(EngineKind::Baseline);
    let mut sweep = Sweep::new(SWEEP);
    for view_size in [15usize, 27] {
        for (i, pct) in NAT_PCTS.iter().enumerate() {
            let salt = 0x0003_0000 ^ ((view_size as u64) << 20) ^ (i as u64);
            let scale = scale.clone();
            let pct = *pct;
            sweep.point(point_key(view_size, pct), point_seeds(&scale, salt), move |seed| {
                let scn = prc_scenario(&scale, view_size, pct, seed);
                engine_sample(kind, &scn, scale.rounds, Metric::Staleness)
            });
        }
    }
    sweep
}

fn point_key(view_size: usize, pct: f64) -> String {
    format!("v{view_size}/{pct:.0}")
}

fn render(results: &Results, col: usize, title: &str) -> Table {
    let mut columns = vec!["NAT %".to_string()];
    for view in [15usize, 27] {
        columns.push(format!("view {view}"));
    }
    let mut table = Table::new(title, columns);
    for pct in NAT_PCTS {
        let mut row = vec![format!("{pct:.0}")];
        for view_size in [15usize, 27] {
            let rows = results.point(SWEEP, &point_key(view_size, pct));
            row.push(fmt_f(mean_finite(rows, col), 1));
        }
        table.push_row(row);
    }
    table
}

/// The Figure 3 plan: average % of stale references per view.
pub fn plan_fig3(scale: &FigureScale) -> Plan {
    Plan::new("fig3", vec![sweep(scale)], |results| {
        vec![render(
            results,
            0,
            "Figure 3 — stale references (% of view), (push/pull, rand, healer), PRC NATs",
        )]
    })
}

/// The Figure 4 plan: average % of non-stale references that point at
/// natted peers.
pub fn plan_fig4(scale: &FigureScale) -> Plan {
    Plan::new("fig4", vec![sweep(scale)], |results| {
        vec![render(
            results,
            1,
            "Figure 4 — non-stale references towards natted peers (%), (push/pull, rand, healer), PRC NATs",
        )]
    })
}
