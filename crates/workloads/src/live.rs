//! The `live` demo: N in-process Nylon nodes over real loopback UDP
//! behind emulated NATs, compared against the simulated twin.
//!
//! Both runs build the *same engine from the same scenario through the
//! same [`crate::runner::build_with_net`] path*; the only difference is
//! who carries the datagrams — the discrete-event fabric, or
//! [`nylon_transport::UdpTransport`] through the user-space
//! [`nylon_transport::NatEmulator`]. The paper's timing constants are
//! scaled down (ratios preserved: hole timeout = 18 shuffle periods, as
//! 90 s / 5 s) so a demo converges in seconds of wall time.

use std::time::Duration;

use nylon::{NylonEngine, NylonMsg};
use nylon_faults::{FaultConfig, FaultKind, FaultPlan, FaultSpec};
use nylon_metrics::Summary;
use nylon_net::NatClass;
use nylon_obs::Counters;
use nylon_sim::SimDuration;
use nylon_transport::{scaled_configs, udp_over_emulated_nat, LiveClock, LiveRunner};

use crate::runner::{biggest_cluster_pct, build_with_plan, staleness, usable_in_degrees};
use crate::scenario::Scenario;

/// Scale knobs of a live run.
#[derive(Debug, Clone)]
pub struct LiveScale {
    /// Number of in-process nodes (each with its own UDP socket).
    pub peers: usize,
    /// Percentage of peers behind NATs (paper mix: RC/PRC/SYM).
    pub nat_pct: f64,
    /// Shuffle rounds to run (wall time ≈ `rounds × period_ms`).
    pub rounds: u64,
    /// Shuffle period in milliseconds (paper: 5000; scaled default 150).
    pub period_ms: u64,
    /// Fault plan for the on-wire run: `rebind` replays a mapping-rebind
    /// wave through the NAT emulator at mid-run (real packets towards the
    /// old mappings blackhole), `cgn` stacks carrier-grade boxes on the
    /// wire before traffic flows, and `harden` arms the engine's
    /// graceful-degradation logic. Other fault categories are
    /// simulation-only and rejected by [`LiveScale::validate`].
    pub faults: Option<FaultSpec>,
    /// Seed for the scenario and every engine choice.
    pub seed: u64,
}

impl Default for LiveScale {
    fn default() -> Self {
        LiveScale {
            peers: 32,
            nat_pct: 60.0,
            rounds: 30,
            period_ms: 150,
            faults: None,
            seed: 0xA11CE,
        }
    }
}

impl LiveScale {
    /// Sanity-checks the knobs, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers < 2 {
            return Err("peers must be at least 2".to_string());
        }
        if self.period_ms < 20 {
            return Err("period-ms below 20 leaves no room for scheduling jitter".to_string());
        }
        if self.rounds == 0 {
            return Err("rounds must be nonzero".to_string());
        }
        if !self.nat_pct.is_finite() || !(0.0..=100.0).contains(&self.nat_pct) {
            return Err(format!("nat-pct must be within [0, 100], got {}", self.nat_pct));
        }
        if let Some(s) = self.faults {
            if s.rvp_crash || s.flap || s.hairpin || s.loss_burst || s.partition {
                return Err(
                    "live runs replay only rebind, cgn and harden faults on the wire".to_string()
                );
            }
        }
        Ok(())
    }

    fn scenario(&self) -> Scenario {
        Scenario::new(self.peers, self.nat_pct, self.seed)
    }
}

/// Compiles the live fault plan — shared by the on-wire run and the sim
/// twin, so both replay the identical wave. Rebinds land as one wave
/// right past the mid-run round boundary; CGN boxes stack up front.
fn live_fault_plan(scale: &LiveScale, classes: &[NatClass]) -> Option<FaultPlan> {
    let spec = scale.faults.filter(|s| !s.is_none())?;
    let period = SimDuration::from_millis(scale.period_ms);
    let mut cfg = FaultConfig { harden: spec.harden, ..FaultConfig::default() };
    if spec.rebind {
        // One wave: k=1 lands just past mid-run, k=2 falls past the horizon.
        cfg.rebind_period = period * (scale.rounds / 2).max(1);
        cfg.horizon = cfg.rebind_period + period;
        cfg.rebind_fraction = 0.25;
    }
    if spec.cgn {
        cfg.cgn_fraction = 0.3;
    }
    let plan = FaultPlan::compile(&cfg, scale.seed, classes);
    (!plan.is_noop()).then_some(plan)
}

/// Overlay health extracted from a finished engine — the same numbers for
/// the live and the simulated run, from the same metric code.
#[derive(Debug, Clone, Copy)]
pub struct OverlaySnapshot {
    /// Biggest weakly-connected cluster, % of alive peers.
    pub cluster_pct: f64,
    /// Stale view references, %.
    pub stale_pct: f64,
    /// Mean usable in-degree over alive peers.
    pub indegree_mean: f64,
    /// In-degree standard deviation (the "spread").
    pub indegree_std: f64,
    /// Shuffles answered end-to-end.
    pub requests_completed: u64,
    /// Hole punches that completed.
    pub punch_successes: u64,
    /// Shuffles relayed end-to-end (symmetric combinations).
    pub relayed_requests: u64,
}

/// Extracts the overlay snapshot from a finished Nylon engine.
pub fn snapshot(eng: &NylonEngine) -> OverlaySnapshot {
    let counts = usable_in_degrees(eng);
    let indegrees: Summary = eng.alive_peers().map(|p| f64::from(counts[p.index()])).collect();
    let stats = eng.stats();
    OverlaySnapshot {
        cluster_pct: biggest_cluster_pct(eng),
        stale_pct: staleness(eng).stale_pct,
        indegree_mean: indegrees.mean(),
        indegree_std: indegrees.std_dev(),
        requests_completed: stats.requests_completed,
        punch_successes: stats.punch_successes,
        relayed_requests: stats.relayed_requests,
    }
}

/// Outcome of a live run, with the on-wire bookkeeping no simulation has.
#[derive(Debug, Clone, Copy)]
pub struct LiveOutcome {
    /// Overlay health at the end of the run.
    pub overlay: OverlaySnapshot,
    /// Frames the NAT emulator forwarded end-to-end.
    pub emulator_forwarded: u64,
    /// Datagrams the emulator's NAT machinery dropped (filtering, expired
    /// mappings, unroutable endpoints).
    pub emulator_dropped: u64,
    /// Datagrams discarded because their frame failed to decode.
    pub decode_errors: u64,
    /// Mapping rebinds replayed on the wire (mid-run fault wave).
    pub wire_rebinds: u64,
    /// Carrier-grade NAT boxes stacked on the wire before traffic.
    pub wire_cgn: u64,
    /// Wall time the run took.
    pub wall: Duration,
}

/// Runs the live demo: builds the engine through [`build_with_plan`],
/// binds one loopback socket per node, spawns the NAT emulator, and
/// drives the unmodified engine over real UDP.
///
/// # Panics
///
/// Panics if the scale fails [`LiveScale::validate`].
pub fn run_live(scale: &LiveScale) -> std::io::Result<LiveOutcome> {
    if let Err(e) = scale.validate() {
        panic!("invalid live scale: {e}");
    }
    let scn = scale.scenario();
    let (cfg, net_cfg) = scaled_configs(scale.period_ms);
    let classes = scn.classes();
    let plan = live_fault_plan(scale, &classes);
    // The wire replays rebind/CGN faults itself; the engine only gets the
    // hardening switch, so its internal fabric stays fault-free.
    let harden_only = plan
        .as_ref()
        .filter(|p| p.harden)
        .map(|_| FaultPlan { harden: true, ..FaultPlan::default() });
    let engine: NylonEngine = build_with_plan(&scn, cfg, net_cfg.clone(), harden_only);

    let started = std::time::Instant::now();
    let clock = LiveClock::start_now();
    let (transport, emulator) = udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock)?;
    let mut wire_cgn = 0u64;
    if let Some(p) = &plan {
        for (peer, ty) in &p.cgn {
            if emulator.stack_cgn(*peer, *ty) {
                wire_cgn += 1;
            }
        }
    }
    let rebinds: Vec<_> = plan
        .iter()
        .flat_map(|p| p.events.iter())
        .filter_map(|e| match e.kind {
            FaultKind::Rebind(p) => Some(p),
            _ => None,
        })
        .collect();
    let tick = SimDuration::from_millis((scale.period_ms / 10).max(5));
    let mut runner = LiveRunner::new(engine, transport, tick);
    let mut wire_rebinds = 0u64;
    if rebinds.is_empty() {
        runner.run_rounds(scale.rounds);
    } else {
        let half = (scale.rounds / 2).max(1);
        runner.run_rounds(half);
        for p in &rebinds {
            if emulator.rebind_nat(*p) {
                wire_rebinds += 1;
            }
        }
        runner.run_rounds(scale.rounds - half);
    }
    let decode_errors = runner.transport().decode_errors();
    if nylon_obs::is_active() {
        let mut r = nylon_obs::Report::new();
        runner.transport().obs_report(&mut r);
        emulator.obs_report(&mut r);
        nylon_obs::merge_report(&r);
    }
    let engine = runner.into_engine();
    Ok(LiveOutcome {
        overlay: snapshot(&engine),
        emulator_forwarded: emulator.forwarded(),
        emulator_dropped: emulator.drop_counters().total(),
        decode_errors,
        wire_rebinds,
        wire_cgn,
        wall: started.elapsed(),
    })
}

/// Runs the simulated twin — same scenario, same scaled configuration,
/// same build path, same metrics — on the discrete-event fabric.
///
/// # Panics
///
/// Panics if the scale fails [`LiveScale::validate`].
pub fn run_sim_twin(scale: &LiveScale) -> OverlaySnapshot {
    if let Err(e) = scale.validate() {
        panic!("invalid live scale: {e}");
    }
    let scn = scale.scenario();
    let (cfg, net_cfg) = scaled_configs(scale.period_ms);
    let classes = scn.classes();
    let mut engine: NylonEngine =
        build_with_plan(&scn, cfg, net_cfg, live_fault_plan(scale, &classes));
    engine.run_rounds(scale.rounds);
    snapshot(&engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_sim::SimTime;

    #[test]
    fn scaled_configs_preserve_paper_ratios() {
        let (cfg, net) = scaled_configs(150);
        assert_eq!(cfg.shuffle_period, SimDuration::from_millis(150));
        assert_eq!(net.hole_timeout, SimDuration::from_millis(150 * 18));
        assert!(cfg.punch_timeout < cfg.shuffle_period);
    }

    #[test]
    fn sim_twin_converges_at_demo_scale() {
        let snap = run_sim_twin(&LiveScale { rounds: 25, ..LiveScale::default() });
        assert!(snap.cluster_pct > 90.0, "sim twin must converge, got {}", snap.cluster_pct);
        assert!(snap.punch_successes > 0);
    }

    #[test]
    #[should_panic(expected = "invalid live scale")]
    fn invalid_scale_is_rejected() {
        let _ = run_sim_twin(&LiveScale { peers: 1, ..LiveScale::default() });
    }

    #[test]
    fn live_fault_plan_is_one_midrun_rebind_wave() {
        let scale = LiveScale {
            faults: Some(FaultSpec {
                rebind: true,
                cgn: true,
                harden: true,
                ..FaultSpec::default()
            }),
            ..LiveScale::default()
        };
        scale.validate().expect("rebind+cgn+harden is live-replayable");
        let classes = scale.scenario().classes();
        let plan = live_fault_plan(&scale, &classes).expect("nonzero plan");
        assert!(plan.harden);
        assert!(!plan.cgn.is_empty(), "cgn boxes must stack on the wire");
        let rebinds = plan.events.iter().filter(|e| matches!(e.kind, FaultKind::Rebind(_))).count();
        assert!(rebinds > 0, "the wave must rebind someone");
        // Exactly one wave: nothing but rebinds, all past mid-run.
        assert_eq!(rebinds, plan.events.len());
        let mid = SimTime::ZERO + SimDuration::from_millis(scale.period_ms) * (scale.rounds / 2);
        assert!(plan.events.iter().all(|e| e.at >= mid));
    }

    #[test]
    fn sim_only_faults_are_rejected_on_the_live_path() {
        let scale = LiveScale {
            faults: Some(FaultSpec { partition: true, ..FaultSpec::default() }),
            ..LiveScale::default()
        };
        let err = scale.validate().unwrap_err();
        assert!(err.contains("rebind"), "error should name the supported faults: {err}");
    }

    #[test]
    fn sim_twin_survives_a_hardened_rebind_wave() {
        let snap = run_sim_twin(&LiveScale {
            rounds: 25,
            faults: Some(FaultSpec { rebind: true, harden: true, ..FaultSpec::default() }),
            ..LiveScale::default()
        });
        assert!(snap.cluster_pct > 80.0, "hardened twin must recover, got {}", snap.cluster_pct);
    }
}
