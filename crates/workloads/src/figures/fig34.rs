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
use super::{EngineKind, FigureScale, Grid, Plan};
use crate::output::{fmt_f, Table};

const NAT_PCTS: [f64; 11] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// The plan both figures share: cells are `[stale %, natted non-stale %]`
/// per (view, NAT %, seed), PRC NATs only, one row per NAT % with a column
/// per view. Measures the (push/pull, rand, healer) baseline unless
/// [`FigureScale::engine`] reroutes the cells; the render prints metric
/// column `col` under `title`.
fn plan(scale: &FigureScale, col: usize, title: &'static str) -> Plan {
    let kind = scale.engine.unwrap_or(EngineKind::Baseline);
    let mut grid = Grid::new("fig34");
    for (i, pct) in NAT_PCTS.into_iter().enumerate() {
        grid.row([format!("{pct:.0}")]);
        for view_size in [15usize, 27] {
            let salt = 0x0003_0000 ^ ((view_size as u64) << 20) ^ (i as u64);
            let scale = scale.clone();
            let key = format!("v{view_size}/{pct:.0}");
            grid.point(key, point_seeds(&scale, salt), move |seed| {
                let scn = prc_scenario(&scale, view_size, pct, seed);
                engine_sample(kind, &scn, scale.rounds, Metric::Staleness)
            });
        }
    }
    Plan::new(vec![grid], move |results, rows| {
        let table = Table::new(title, ["NAT %", "view 15", "view 27"]);
        vec![rows[0].render(results, table, |points| {
            points.iter().map(|p| fmt_f(mean_finite(p, col), 1)).collect()
        })]
    })
}

/// The Figure 3 plan: average % of stale references per view.
pub fn plan_fig3(scale: &FigureScale) -> Plan {
    plan(scale, 0, "Figure 3 — stale references (% of view), (push/pull, rand, healer), PRC NATs")
}

/// The Figure 4 plan: average % of non-stale references that point at
/// natted peers.
pub fn plan_fig4(scale: &FigureScale) -> Plan {
    plan(
        scale,
        1,
        "Figure 4 — non-stale references towards natted peers (%), (push/pull, rand, healer), PRC NATs",
    )
}
