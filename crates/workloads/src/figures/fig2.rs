//! Figure 2: biggest cluster vs NAT percentage for the six baseline
//! configurations, view sizes 15 and 27.
//!
//! Paper shape: the overlay partitions once the NAT percentage crosses a
//! threshold (~50 % for view 15, ~70 % for view 27); larger views postpone
//! the collapse.

use nylon_gossip::GossipConfig;

use super::common::{engine_sample, point_seeds, prc_scenario, sample, summary_col, Metric};
use super::{FigureScale, Grid, Plan};
use crate::output::{fmt_f, Table};

/// NAT percentages on the x-axis, as in the paper.
const NAT_PCTS: [f64; 7] = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// The Figure 2 plan: one sweep cell per (view, configuration, NAT %,
/// seed); the render collects both panels (view 15 and 27) into one table.
///
/// Under a [`FigureScale::engine`] override the six baseline policy
/// configurations are meaningless (the policy knobs are baseline-only),
/// so the plan collapses to one engine-labeled configuration per view
/// size, measuring the selected engine's default configuration instead.
pub fn plan(scale: &FigureScale) -> Plan {
    let mut grid = Grid::new("fig2");
    for view_size in [15usize, 27] {
        let configs: Vec<(String, Option<GossipConfig>)> = match scale.engine {
            None => GossipConfig::paper_configurations(view_size)
                .into_iter()
                .map(|cfg| (cfg.label(), Some(cfg)))
                .collect(),
            Some(kind) => vec![(kind.label().to_string(), None)],
        };
        for (label, cfg) in configs {
            grid.row([view_size.to_string(), label.clone()]);
            for (i, pct) in NAT_PCTS.into_iter().enumerate() {
                let salt = 0x0002_0000
                    ^ ((view_size as u64) << 20)
                    ^ ((i as u64) << 8)
                    ^ label_salt(&label);
                let (scale, cfg) = (scale.clone(), cfg.clone());
                let key = format!("v{view_size}/{label}/{pct:.0}");
                grid.point(key, point_seeds(&scale, salt), move |seed| {
                    let scn = prc_scenario(&scale, view_size, pct, seed);
                    match (&cfg, scale.engine) {
                        (Some(cfg), _) => sample(&scn, cfg.clone(), scale.rounds, Metric::Cluster),
                        (None, Some(kind)) => {
                            engine_sample(kind, &scn, scale.rounds, Metric::Cluster)
                        }
                        (None, None) => unreachable!("a config-less row is an engine override"),
                    }
                });
            }
        }
    }
    Plan::new(vec![grid], |results, rows| {
        let mut columns = vec!["view".to_string(), "configuration".to_string()];
        columns.extend(NAT_PCTS.iter().map(|p| format!("{p:.0}% NAT")));
        let table =
            Table::new("Figure 2 — biggest cluster (% of peers), PRC NATs, no churn", columns);
        vec![rows[0].render(results, table, |points| {
            points.iter().map(|p| fmt_f(summary_col(p, 0).mean(), 1)).collect()
        })]
    })
}

fn label_salt(label: &str) -> u64 {
    let mut salt = 0u64;
    for b in label.bytes() {
        salt = salt.wrapping_mul(31).wrapping_add(b as u64);
    }
    salt
}
