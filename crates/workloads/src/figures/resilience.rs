//! The `resilience` artifact: recovery time under deterministic
//! NAT/RVP fault injection, per engine, with and without hardening.
//!
//! No figure of the paper measures this — the paper's churn experiment
//! (Figure 10) covers fail-stop departures only. This artifact stresses
//! the failure modes Section 4 worries about (rendez-vous death, mapping
//! loss) as *scheduled* fault plans from `nylon-faults` and reports how
//! each engine degrades and recovers:
//!
//! * **Recovery table** — for each engine × fault profile (mobile-style
//!   mapping rebinds, a correlated 50 % RVP crash wave, kill/revive
//!   flapping, a half/half partition window where peers stay alive but
//!   unreachable), the biggest-cluster level right before fault onset, the
//!   deepest dip after it, rounds until the cluster is back at the
//!   pre-fault level, and the end-of-run level — hardened vs unhardened.
//! * **Punch-retry table** — Nylon-only intensity sweep over the rebind
//!   period: bounded-backoff retry volume, retry success rate, and
//!   stale-mapping re-punches, hardened vs unhardened.
//!
//! Every cell is fault-deterministic: the same plan replays identically
//! at any `--shards` count and across checkpoint/resume.

use nylon::{NylonConfig, NylonEngine};
use nylon_faults::FaultConfig;
use nylon_gossip::PeerSampler;
use nylon_sim::{SimDuration, SimTime};

use crate::output::Table;
use crate::runner::{
    biggest_cluster_pct, biggest_cluster_pct_with, build_with_faults, SnapshotScratch,
};
use crate::scenario::Scenario;

use super::common::{dispatch_engine, finite_means, point_seeds};
use super::{EngineKind, FigureScale, Grid, Plan};

/// Shuffle period shared by every engine's default configuration; fault
/// onsets are expressed in rounds of it.
const PERIOD: SimDuration = SimDuration::from_secs(5);

/// NAT share of the resilience population (paper mix).
const NAT_PCT: f64 = 60.0;

/// The fault profiles of the recovery table, in presentation order.
const PROFILES: [&str; 4] = ["rebind", "rvp-crash", "flap", "partition"];

/// Rebind periods (in rounds) of the punch-retry intensity sweep.
const REBIND_ROUNDS: [u64; 3] = [4, 8, 16];

/// Round of fault onset: a third of the horizon is warmup.
fn fault_round(rounds: u64) -> u64 {
    (rounds / 3).max(1)
}

/// The fault plan of one profile, scaled to the run horizon.
fn profile_cfg(profile: &str, rounds: u64, harden: bool) -> FaultConfig {
    let mut cfg = FaultConfig { horizon: PERIOD * rounds, harden, ..FaultConfig::default() };
    match profile {
        "rebind" => {
            cfg.rebind_period = PERIOD * fault_round(rounds);
            cfg.rebind_fraction = 0.25;
        }
        "rvp-crash" => {
            cfg.rvp_crash_at = SimTime::ZERO + PERIOD * fault_round(rounds);
        }
        "flap" => {
            cfg.flap_period = PERIOD * fault_round(rounds);
        }
        "partition" => {
            // A half/half split: peers stay alive but the other half of
            // the id space is unreachable. This is the one profile where
            // "recover" is expected to stay empty for the pure-gossip
            // engines — once the window outlasts view turnover the
            // cross-half descriptors are evicted and the two islands can
            // never re-merge without an external bootstrap, while
            // static-rvp's static relay bindings survive the window
            // untouched and re-knit the instant it lifts.
            cfg.partition_at = SimTime::ZERO + PERIOD * fault_round(rounds);
            cfg.partition_len = PERIOD * (fault_round(rounds) / 4).max(1);
        }
        other => unreachable!("unknown resilience profile {other}"),
    }
    cfg
}

/// One recovery cell: `[pre %, dip %, rounds-to-reconverge, final %]`.
/// `pre` snapshots the biggest cluster right before fault onset (events
/// sit 13 ms past the round boundary); the post-onset rounds are sampled
/// one by one for the dip and the first return to the pre-fault level.
fn recovery_sample(
    scale: &FigureScale,
    kind: EngineKind,
    profile: &str,
    harden: bool,
    seed: u64,
) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64, onset: u64) -> Vec<f64> {
        // One snapshot per post-onset round: reuse the overlay scratch
        // across all of them instead of rebuilding the graph buffers each
        // time.
        let mut scratch = SnapshotScratch::new();
        eng.run_rounds(onset);
        let pre = biggest_cluster_pct_with(&eng, &mut scratch);
        let mut pcts = Vec::with_capacity((rounds - onset) as usize);
        for _ in onset..rounds {
            eng.run_rounds(1);
            pcts.push(biggest_cluster_pct_with(&eng, &mut scratch));
        }
        let dip = pcts.iter().copied().fold(pre, f64::min);
        let dip_at = pcts.iter().position(|p| *p <= dip).unwrap_or(0);
        let reconverge = pcts
            .iter()
            .enumerate()
            .skip(dip_at)
            .find(|(_, p)| **p >= pre)
            .map(|(i, _)| (i + 1) as f64)
            .unwrap_or(f64::NAN);
        let last = pcts.last().copied().unwrap_or(pre);
        vec![pre, dip, reconverge, last]
    }
    let cfg = profile_cfg(profile, scale.rounds, harden);
    let scn = Scenario::new(scale.peers, NAT_PCT, seed);
    let onset = fault_round(scale.rounds);
    dispatch_engine!(kind, |engine_cfg| {
        measure(build_with_faults(&scn, engine_cfg, &cfg), scale.rounds, onset)
    })
}

/// One punch-retry cell (Nylon under the rebind profile):
/// `[retries, retry wins, win rate %, stale re-punches, final %]`.
fn retry_sample(scale: &FigureScale, rebind_rounds: u64, harden: bool, seed: u64) -> Vec<f64> {
    let cfg = FaultConfig {
        horizon: PERIOD * scale.rounds,
        rebind_period: PERIOD * rebind_rounds,
        rebind_fraction: 0.25,
        harden,
        ..FaultConfig::default()
    };
    let scn = Scenario::new(scale.peers, NAT_PCT, seed);
    let mut eng: NylonEngine = build_with_faults(&scn, NylonConfig::default(), &cfg);
    eng.run_rounds(scale.rounds);
    let s = eng.stats();
    let rate = if s.punch_retries == 0 {
        f64::NAN
    } else {
        100.0 * s.punch_retry_wins as f64 / s.punch_retries as f64
    };
    let last = biggest_cluster_pct(&eng);
    vec![s.punch_retries as f64, s.punch_retry_wins as f64, rate, s.stale_repunches as f64, last]
}

/// The `on`/`off` label and key part of a hardening setting.
fn on_off(harden: bool) -> &'static str {
    if harden {
        "on"
    } else {
        "off"
    }
}

/// The resilience plan: the recovery table (one row per engine × profile
/// × hardening) and the punch-retry table (one row per rebind period ×
/// hardening), one point behind each row.
pub fn plan(scale: &FigureScale) -> Plan {
    let mut recovery = Grid::new("resilience");
    for (e, kind) in EngineKind::ALL.into_iter().enumerate() {
        for (p, profile) in PROFILES.into_iter().enumerate() {
            for harden in [false, true] {
                let salt = 0x0FA0_0000 ^ ((e as u64) << 16) ^ ((p as u64) << 8) ^ u64::from(harden);
                let scale = scale.clone();
                let labels = [kind.label(), profile, on_off(harden)].map(str::to_string);
                let key = labels.join("/");
                recovery.row(labels).point(key, point_seeds(&scale, salt), move |seed| {
                    recovery_sample(&scale, kind, profile, harden, seed)
                });
            }
        }
    }
    let mut retry = Grid::new("resilience-retry");
    for (i, rebind_rounds) in REBIND_ROUNDS.into_iter().enumerate() {
        for harden in [false, true] {
            // Not 0x0FA1_0000: the recovery salts take 0x0FA0–0x0FA3.
            let salt = 0x0FB0_0000 ^ ((i as u64) << 8) ^ u64::from(harden);
            let scale = scale.clone();
            let key = format!("rebind-every-{rebind_rounds}/{}", on_off(harden));
            retry.row([format!("{rebind_rounds} rounds"), on_off(harden).to_string()]);
            retry.point(key, point_seeds(&scale, salt), move |seed| {
                retry_sample(&scale, rebind_rounds, harden, seed)
            });
        }
    }
    Plan::new(vec![recovery, retry], |results, rows| {
        let recovery = Table::new(
            "Resilience — biggest-cluster dip and recovery under fault injection \
             (60% NAT, fault onset at 1/3 horizon; hardened = graceful-degradation on)",
            ["engine", "fault", "hardened", "pre %", "dip %", "recover (rounds)", "final %"],
        );
        let retry = Table::new(
            "Resilience — Nylon punch-retry economics under mapping rebinds \
             (rebind wave hits 25% of natted peers every N rounds)",
            [
                "rebind period",
                "hardened",
                "retries",
                "retry wins",
                "win %",
                "stale re-punches",
                "final %",
            ],
        );
        vec![
            rows[0].render(results, recovery, |p| finite_means(p[0], &[1, 1, 1, 1])),
            rows[1].render(results, retry, |p| finite_means(p[0], &[0, 0, 1, 0, 1])),
        ]
    })
}
