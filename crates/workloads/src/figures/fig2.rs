//! Figure 2: biggest cluster vs NAT percentage for the six baseline
//! configurations, view sizes 15 and 27.
//!
//! Paper shape: the overlay partitions once the NAT percentage crosses a
//! threshold (~50 % for view 15, ~70 % for view 27); larger views postpone
//! the collapse.

use nylon_gossip::GossipConfig;

use super::common::{engine_sample, point_seeds, prc_scenario, sample, summary_col, Metric};
use super::{FigureScale, Plan};
use crate::experiment::{Results, Sweep};
use crate::output::{fmt_f, Table};

const SWEEP: &str = "fig2";

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
    let mut sweep = Sweep::new(SWEEP);
    for view_size in [15usize, 27] {
        match scale.engine {
            None => {
                for cfg in GossipConfig::paper_configurations(view_size) {
                    for (i, pct) in NAT_PCTS.iter().enumerate() {
                        let salt = 0x0002_0000
                            ^ ((view_size as u64) << 20)
                            ^ ((i as u64) << 8)
                            ^ label_salt(&cfg.label());
                        let scale = scale.clone();
                        let cfg = cfg.clone();
                        let pct = *pct;
                        sweep.point(
                            point_key(view_size, &cfg.label(), pct),
                            point_seeds(&scale, salt),
                            move |seed| {
                                let scn = prc_scenario(&scale, view_size, pct, seed);
                                sample(&scn, cfg.clone(), scale.rounds, Metric::Cluster)
                            },
                        );
                    }
                }
            }
            Some(kind) => {
                for (i, pct) in NAT_PCTS.iter().enumerate() {
                    let salt = 0x0002_0000
                        ^ ((view_size as u64) << 20)
                        ^ ((i as u64) << 8)
                        ^ label_salt(kind.label());
                    let scale = scale.clone();
                    let pct = *pct;
                    sweep.point(
                        point_key(view_size, kind.label(), pct),
                        point_seeds(&scale, salt),
                        move |seed| {
                            let scn = prc_scenario(&scale, view_size, pct, seed);
                            engine_sample(kind, &scn, scale.rounds, Metric::Cluster)
                        },
                    );
                }
            }
        }
    }
    let labels = config_labels(scale);
    Plan::new("fig2", vec![sweep], move |results| vec![render(results, &labels)])
}

/// The configuration column labels, in row order (the engine label alone
/// under an engine override).
fn config_labels(scale: &FigureScale) -> Vec<String> {
    match scale.engine {
        None => GossipConfig::paper_configurations(15).iter().map(|c| c.label()).collect(),
        Some(kind) => vec![kind.label().to_string()],
    }
}

fn render(results: &Results, labels: &[String]) -> Table {
    let mut columns = vec!["view".to_string(), "configuration".to_string()];
    columns.extend(NAT_PCTS.iter().map(|p| format!("{p:.0}% NAT")));
    let mut table =
        Table::new("Figure 2 — biggest cluster (% of peers), PRC NATs, no churn", columns);
    for view_size in [15usize, 27] {
        for label in labels {
            let mut row = vec![view_size.to_string(), label.clone()];
            for pct in NAT_PCTS {
                let rows = results.point(SWEEP, &point_key(view_size, label, pct));
                row.push(fmt_f(summary_col(rows, 0).mean(), 1));
            }
            table.push_row(row);
        }
    }
    table
}

fn point_key(view_size: usize, label: &str, pct: f64) -> String {
    format!("v{view_size}/{label}/{pct:.0}")
}

fn label_salt(label: &str) -> u64 {
    let mut salt = 0u64;
    for b in label.bytes() {
        salt = salt.wrapping_mul(31).wrapping_add(b as u64);
    }
    salt
}
