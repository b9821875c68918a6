//! Run the Nylon engine on real loopback UDP sockets behind emulated NATs
//! — the minimal version of `repro live`.
//!
//! ```text
//! cargo run --release --example live_loopback
//! ```
//!
//! 32 in-process nodes (each with its own `UdpSocket`, all driven by one
//! loop on the main thread, which also runs every frame through the
//! user-space NAT emulator) gossip for ~3 seconds of wall time, then the
//! overlay is measured with the same metrics the simulated figures use.

use nylon_workloads::live::{run_live, run_sim_twin, LiveScale};

fn main() {
    let scale =
        LiveScale { peers: 32, nat_pct: 60.0, rounds: 25, period_ms: 120, seed: 7, faults: None };
    println!(
        "driving {} nodes over loopback UDP ({}% NAT) for {} rounds...",
        scale.peers, scale.nat_pct, scale.rounds
    );
    let live = run_live(&scale).expect("loopback sockets must bind");
    println!(
        "live:      cluster {:.1}%, stale {:.1}%, in-degree {:.1} ± {:.1}",
        live.overlay.cluster_pct,
        live.overlay.stale_pct,
        live.overlay.indegree_mean,
        live.overlay.indegree_std
    );
    println!(
        "wire:      {} frames sent, {} forwarded, {} NAT-dropped, {} unaccounted, \
         {} decode errors, {:.1?} wall",
        live.packets_sent,
        live.emulator_forwarded,
        live.emulator_dropped,
        live.unaccounted,
        live.decode_errors,
        live.wall
    );
    let sim = run_sim_twin(&scale);
    println!(
        "simulated: cluster {:.1}%, stale {:.1}%, in-degree {:.1} ± {:.1}",
        sim.cluster_pct, sim.stale_pct, sim.indegree_mean, sim.indegree_std
    );
}
