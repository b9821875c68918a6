//! Figure 9: average RVP chain length towards natted destinations.
//!
//! Paper shape: chains are short (average below 4 everywhere), grow
//! sub-linearly with the NAT percentage, and are *shorter* for the larger
//! view size (consistent with random-graph distance results).

use crate::output::{fmt_f, Table};

use super::common::{mean_finite, nylon_chain_sample, point_seeds};
use super::{FigureScale, Grid, Plan};

const NAT_PCTS: [f64; 10] = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// The Figure 9 plan: one row per NAT %, a column per view size.
pub fn plan(scale: &FigureScale) -> Plan {
    let mut grid = Grid::new("fig9");
    for (i, pct) in NAT_PCTS.into_iter().enumerate() {
        grid.row([format!("{pct:.0}")]);
        for view_size in [15usize, 27] {
            let salt = 0x0009_0000 ^ ((view_size as u64) << 20) ^ (i as u64);
            let scale = scale.clone();
            let key = format!("v{view_size}/{pct:.0}");
            grid.point(key, point_seeds(&scale, salt), move |seed| {
                nylon_chain_sample(&scale, view_size, pct, seed)
            });
        }
    }
    Plan::new(vec![grid], |results, rows| {
        let table = Table::new(
            "Figure 9 — average number of RVPs towards a natted destination (RC/PRC/SYM mix 50/40/10)",
            ["NAT %", "view 15", "view 27"],
        );
        vec![rows[0].render(results, table, |points| {
            points.iter().map(|p| fmt_f(mean_finite(p, 0), 2)).collect()
        })]
    })
}
