//! Figure 10: biggest cluster after massive simultaneous departures.
//!
//! Paper shape: Nylon tolerates 50 % simultaneous departures with no
//! partition at all and stays above ~80 % of survivors in one cluster even
//! at 80 % departures, across NAT percentages.

use nylon::{NylonConfig, NylonEngine};
use nylon_net::PeerId;
use nylon_sim::SimRng;

use crate::output::Table;
use crate::runner::{biggest_cluster_pct, build};
use crate::scenario::Scenario;

use super::common::{mean_sd_finite, point_seeds};
use super::{FigureScale, Grid, Plan};

/// Percentages of peers leaving simultaneously (the paper's x-axis).
const DEPARTURES: [f64; 5] = [50.0, 60.0, 70.0, 75.0, 80.0];
/// NAT percentages (the paper's bar series).
const NAT_PCTS: [f64; 5] = [40.0, 50.0, 60.0, 70.0, 80.0];

/// Paper horizons: churn after 500 shuffles, measure 1500 later.
fn horizons(scale: &FigureScale) -> (u64, u64) {
    if scale.full_churn_horizons {
        (500, 1500)
    } else {
        (120, 240)
    }
}

/// The Figure 10 plan: one row per departure %, a column per NAT %.
/// Cells are the biggest cluster among survivors, measured `post`
/// shuffles after a mass departure at `warmup` shuffles.
pub fn plan(scale: &FigureScale) -> Plan {
    let (warmup, post) = horizons(scale);
    let mut grid = Grid::new("fig10");
    for (di, dep) in DEPARTURES.into_iter().enumerate() {
        grid.row([format!("{dep:.0}")]);
        for (ni, pct) in NAT_PCTS.into_iter().enumerate() {
            let salt = 0x0010_0000 ^ ((di as u64) << 8) ^ (ni as u64);
            let scale = scale.clone();
            grid.point(format!("d{dep:.0}/n{pct:.0}"), point_seeds(&scale, salt), move |seed| {
                let scn = Scenario::new(scale.peers, pct, seed);
                let mut eng = build(&scn, NylonConfig::default());
                eng.run_rounds(warmup);
                let victims = pick_victims(&eng, dep, seed);
                eng.kill_peers(&victims);
                eng.run_rounds(post);
                vec![biggest_cluster_pct(&eng)]
            });
        }
    }
    Plan::new(vec![grid], move |results, rows| {
        let mut columns = vec!["departures %".to_string()];
        columns.extend(NAT_PCTS.iter().map(|p| format!("{p:.0}% NAT")));
        let table = Table::new(
            &format!(
                "Figure 10 — biggest cluster (% of survivors) {post} shuffles after mass departure (churn at {warmup} shuffles)"
            ),
            columns,
        );
        vec![rows[0]
            .render(results, table, |points| points.iter().map(|p| mean_sd_finite(p, 0)).collect())]
    })
}

/// Picks `pct`% of the alive peers, public and natted proportionally to
/// their numbers (the paper: "public and natted peers were removed
/// proportionally to their number in the system").
fn pick_victims(eng: &NylonEngine, pct: f64, seed: u64) -> Vec<PeerId> {
    let mut rng = SimRng::new(seed).fork(0x6368_7572_6E00); // "churn"
    let mut publics: Vec<PeerId> = Vec::new();
    let mut natted: Vec<PeerId> = Vec::new();
    for p in eng.alive_peers() {
        if eng.class_of(p).is_public() {
            publics.push(p);
        } else {
            natted.push(p);
        }
    }
    let mut victims = Vec::new();
    for pool in [&mut publics, &mut natted] {
        let kill = ((pct / 100.0) * pool.len() as f64).round() as usize;
        rng.shuffle(pool);
        victims.extend(pool.iter().take(kill).copied());
    }
    victims
}
