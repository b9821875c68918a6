//! Section 5 "Correctness": no partitions, no stale references, random
//! samples.
//!
//! The paper reports (without graphs) that Nylon produced no partitions,
//! no stale references, and passed the diehard randomness suite. This
//! generator reproduces the checks, replacing diehard with statistics on
//! the stream of gossip-selected peers (see
//! [`nylon_metrics::randomness`]):
//!
//! * **natted share ratio** — fraction of selections that hit natted peers
//!   divided by the natted fraction of the population. 1.00 means natted
//!   peers are sampled exactly at their share (the property Figure 4 shows
//!   the baseline losing). The single most important number here.
//! * **dispersion index** — variance-to-mean of per-peer selection counts.
//!   Gossip sampling is temporally correlated, so the index sits well
//!   above the iid value of 1 *even without NATs*; what must hold is that
//!   adding NATs does not inflate it (compare each row against the 0 %
//!   row).
//! * **serial correlation** — lag-1 correlation of consecutive selections,
//!   expected ≈ 0.
//!
//! Sampling is recorded after a warm-up third of the horizon so the
//! public-only bootstrap views do not bias the stream.

use nylon::NylonConfig;
use nylon_metrics::randomness::{dispersion_index, serial_correlation};

use crate::output::Table;
use crate::runner::{biggest_cluster_pct, build, staleness};
use crate::scenario::Scenario;

use super::common::{finite_means, point_seeds};
use super::{FigureScale, Grid, Plan};

const NAT_PCTS: [f64; 4] = [0.0, 30.0, 60.0, 90.0];

/// The correctness plan: one row per NAT %. Cells are
/// `[cluster %, stale %, share ratio, dispersion, serial corr]`.
pub fn plan(scale: &FigureScale) -> Plan {
    let mut grid = Grid::new("correctness");
    for (i, pct) in NAT_PCTS.into_iter().enumerate() {
        let scale = scale.clone();
        let seeds = point_seeds(&scale, 0x00C0_0000 ^ (i as u64));
        grid.row([format!("{pct:.0}")])
            .point(format!("{pct:.0}"), seeds, move |seed| sample(&scale, pct, seed));
    }
    Plan::new(vec![grid], |results, rows| {
        let table = Table::new(
            "Section 5 'Correctness' — Nylon: partitions, staleness, sampling randomness",
            [
                "NAT %",
                "biggest cluster %",
                "stale refs %",
                "natted share ratio",
                "dispersion index",
                "serial corr",
            ],
        );
        vec![rows[0].render(results, table, |p| finite_means(p[0], &[1, 2, 3, 1, 4]))]
    })
}

fn sample(scale: &FigureScale, pct: f64, seed: u64) -> Vec<f64> {
    let scn = Scenario::new(scale.peers, pct, seed);
    let natted_frac = scn.natted_count() as f64 / scn.peers as f64;
    let mut eng = build(&scn, NylonConfig::default());
    let warmup = scale.rounds / 3;
    eng.run_rounds(warmup);
    eng.enable_sample_log();
    eng.run_rounds(scale.rounds - warmup);
    let cluster = biggest_cluster_pct(&eng);
    let stale = staleness(&eng).stale_pct;
    let n = eng.peer_count();
    let log = eng.sample_log().expect("logging enabled above");
    let mut counts = vec![0u64; n];
    let mut natted_hits = 0u64;
    for s in &log {
        counts[*s as usize] += 1;
        if eng.class_of(nylon_net::PeerId(*s)).is_natted() {
            natted_hits += 1;
        }
    }
    let share_ratio = if natted_frac == 0.0 || log.is_empty() {
        f64::NAN
    } else {
        (natted_hits as f64 / log.len() as f64) / natted_frac
    };
    let dispersion = dispersion_index(&counts).unwrap_or(f64::NAN);
    let normalized: Vec<f64> = log.iter().map(|s| *s as f64 / n as f64).collect();
    let corr = serial_correlation(&normalized).unwrap_or(f64::NAN);
    vec![cluster, stale, share_ratio, dispersion, corr]
}
