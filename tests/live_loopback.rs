//! End-to-end acceptance test of the on-wire backend: 32 in-process Nylon
//! nodes over **real loopback UDP sockets** behind emulated FC/RC/PRC/SYM
//! NATs must converge to an overlay within tolerance of the simulated run
//! at the same scale.
//!
//! Both runs build the identical engine from the identical scenario
//! through `nylon_workloads::runner::build_with_net`; only the carriage
//! substrate differs. Tolerances are deliberately generous — the live run
//! is subject to real scheduling jitter — but tight enough that a broken
//! codec, a mis-rewritten source endpoint or a dead NAT emulator fails
//! loudly (those failure modes cost tens of cluster points, not five).

use nylon_workloads::live::{run_live, run_sim_twin, LiveScale};

#[test]
fn live_overlay_matches_simulated_baseline_within_tolerance() {
    let scale = LiveScale {
        peers: 32,
        nat_pct: 60.0,
        rounds: 25,
        period_ms: 120,
        faults: None,
        seed: 0xA11CE,
    };
    let live = run_live(&scale).expect("loopback sockets must bind");
    let sim = run_sim_twin(&scale);

    // The wire must have actually been exercised.
    assert_eq!(live.decode_errors, 0, "every on-wire frame must decode");
    assert!(live.emulator_forwarded > 0, "traffic must flow through the NAT emulator");
    assert!(live.overlay.requests_completed > 0, "shuffles must complete over real UDP");
    assert!(live.overlay.punch_successes > 0, "hole punching must work over real UDP");

    // Biggest-cluster % within tolerance of the simulated baseline.
    assert!(
        sim.cluster_pct > 90.0,
        "simulated baseline failed to converge ({:.1}%), scale too small",
        sim.cluster_pct
    );
    let delta = (live.overlay.cluster_pct - sim.cluster_pct).abs();
    assert!(
        delta <= 10.0,
        "live cluster {:.1}% vs simulated {:.1}%: delta {delta:.1} pts exceeds tolerance",
        live.overlay.cluster_pct,
        sim.cluster_pct
    );

    // In-degree spread: the live overlay must look like a peer-sampling
    // overlay (mean near the view size), not a star or a chain.
    let mean_delta = (live.overlay.indegree_mean - sim.indegree_mean).abs();
    assert!(
        mean_delta <= 4.0,
        "live mean in-degree {:.1} vs simulated {:.1}",
        live.overlay.indegree_mean,
        sim.indegree_mean
    );
    assert!(
        live.overlay.indegree_std <= sim.indegree_std + 5.0,
        "live in-degree spread {:.1} far above simulated {:.1}",
        live.overlay.indegree_std,
        sim.indegree_std
    );
}

#[test]
fn live_overlay_survives_a_wire_rebind_wave() {
    // The same `rebind` fault the simulator schedules, applied to real
    // packets: every 6 rounds the NAT emulator renumbers a fifth of the
    // natted boxes (hardening on), so live traffic towards the old
    // observed endpoints blackholes until the engines re-punch. The
    // overlay must take the hits and still converge.
    let scale = LiveScale {
        peers: 32,
        nat_pct: 60.0,
        rounds: 30,
        period_ms: 120,
        faults: Some(nylon_faults::FaultSpec::parse("rebind,harden").expect("valid live spec")),
        seed: 0xA11CE,
    };
    let live = run_live(&scale).expect("loopback sockets must bind");

    assert!(live.wire_rebinds > 0, "the plan must rebind at least one live NAT box");
    assert_eq!(live.decode_errors, 0, "every on-wire frame must decode");
    assert!(live.overlay.punch_successes > 0, "hole punching must work over real UDP");
    assert!(
        live.overlay.cluster_pct > 75.0,
        "live overlay failed to recover from the rebind wave: {:.1}%",
        live.overlay.cluster_pct
    );

    // The deterministic twin replays the identical plan on the simulated
    // fabric — same wave, same virtual times — and must recover too.
    let sim = run_sim_twin(&scale);
    assert!(
        sim.cluster_pct > 75.0,
        "simulated twin failed to recover from the same plan: {:.1}%",
        sim.cluster_pct
    );
}
