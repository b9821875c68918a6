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
use nylon_faults::{FaultConfig, FaultPlan, FaultSpec};
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
    /// Fault tokens, at their standard intensities in shuffle periods of
    /// `period_ms` ([`FaultConfig::at_period`]). The one compiled plan is
    /// installed in the engine and in the NAT emulator, so every token acts
    /// on the wire and on the engine as it does in the simulated twin:
    /// rebinds renumber live NAT boxes, kill waves stop live peers,
    /// partitions and loss bursts drop real frames, `cgn` and `hairpin`
    /// reshape the emulated boxes before traffic flows, and `harden` arms
    /// the engine's graceful-degradation logic.
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
        Ok(())
    }

    fn scenario(&self) -> Scenario {
        Scenario::new(self.peers, self.nat_pct, self.seed)
    }
}

/// Compiles the live fault plan — the standard rows at the live shuffle
/// period, installed in the engine and the NAT emulator of the on-wire run
/// and in the sim twin, so all three replay the identical plan.
fn live_fault_plan(scale: &LiveScale, classes: &[NatClass]) -> Option<FaultPlan> {
    let spec = scale.faults.filter(|s| !s.is_none())?;
    let cfg = FaultConfig::at_period(&spec, SimDuration::from_millis(scale.period_ms));
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
    /// Frames the nodes sent to the emulator (`live/packets_sent`).
    pub packets_sent: u64,
    /// Datagrams the emulator discarded because their frame header did
    /// not parse.
    pub emulator_malformed: u64,
    /// Frames sent that ended in no counted place — read, overflowed,
    /// failed to write or read, NAT-dropped or malformed: zero unless the
    /// transport lost track of one ([`UdpTransport::unaccounted`]).
    ///
    /// [`UdpTransport::unaccounted`]: nylon_transport::UdpTransport::unaccounted
    pub unaccounted: u64,
    /// Mapping rebinds the NAT emulator's fault runtime applied.
    pub wire_rebinds: u64,
    /// Carrier-grade NAT boxes the plan stacked on the wire before traffic.
    pub wire_cgn: u64,
    /// Wall time the run took.
    pub wall: Duration,
}

/// Runs the live demo: builds the engine through [`build_with_plan`],
/// binds one loopback socket per node behind the NAT emulator, and
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
    let engine: NylonEngine = build_with_plan(&scn, cfg, net_cfg.clone(), plan.clone());

    let started = std::time::Instant::now();
    let clock = LiveClock::start_now();
    let (transport, emulator) = udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock)?;
    if let Some(plan) = plan {
        emulator.install_fault_plan(plan);
    }
    let tick = SimDuration::from_millis((scale.period_ms / 10).max(5));
    let mut runner = LiveRunner::new(engine, transport, tick);
    runner.run_rounds(scale.rounds);
    let wall = started.elapsed();
    let decode_errors = runner.transport().decode_errors();
    let packets_sent = runner.transport().packets_sent();
    let unaccounted = runner.transport().unaccounted();
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
        packets_sent,
        emulator_malformed: emulator.malformed(),
        unaccounted,
        wire_rebinds: emulator.fault_stats().rebinds,
        wire_cgn: emulator.cgn_stacked(),
        wall,
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

    /// No token is accepted live but inert: at 100 ms periods over 14
    /// rounds, each one's plan switches the engine's hardening on, reshapes
    /// boxes before traffic, or has an event inside the run.
    #[test]
    fn every_token_acts_inside_a_short_live_run() {
        for name in nylon_faults::FAULT_NAMES.iter().filter(|n| **n != "none") {
            let scale = LiveScale {
                rounds: 14,
                period_ms: 100,
                faults: FaultSpec::parse(name).ok(),
                ..LiveScale::default()
            };
            scale.validate().expect("every token runs live");
            let plan = live_fault_plan(&scale, &scale.scenario().classes()).expect(name);
            let end = SimTime::ZERO + SimDuration::from_millis(scale.period_ms) * scale.rounds;
            let acts = plan.harden
                || !plan.cgn.is_empty()
                || !plan.hairpin.is_empty()
                || plan.events.iter().any(|e| e.at < end);
            assert!(acts, "{name} does nothing in a {}-round live run", scale.rounds);
        }
    }

    #[test]
    fn sim_twin_survives_a_hardened_rebind_wave() {
        let snap = run_sim_twin(&LiveScale {
            rounds: 25,
            faults: FaultSpec::parse("rebind,harden").ok(),
            ..LiveScale::default()
        });
        assert!(snap.cluster_pct > 80.0, "hardened twin must recover, got {}", snap.cluster_pct);
    }
}
