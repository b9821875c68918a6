//! Quickstart: build a NATted population, run Nylon, inspect the samples.
//!
//! Run with: `cargo run --release --example quickstart`

use nylon::{NylonConfig, NylonEngine};
use nylon_net::{NatClass, NatType, NetConfig};

fn main() {
    // A 60-peer network, 70 % behind NATs — a fair ratio for today's
    // Internet, per the paper.
    let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), 42);
    for i in 0..60u32 {
        let class = match i % 10 {
            0..=2 => NatClass::Public,
            3..=5 => NatClass::Natted(NatType::RestrictedCone),
            6..=8 => NatClass::Natted(NatType::PortRestrictedCone),
            _ => NatClass::Natted(NatType::Symmetric),
        };
        eng.add_peer(class);
    }

    // The paper's bootstrap: views seeded with random public peers.
    eng.bootstrap_random_public(8);
    eng.start();

    // Watch one peer's sample evolve.
    let observer = eng.alive_peers().next().expect("peers were added");
    println!("observing {observer} ({})\n", eng.class_of(observer));
    for checkpoint in [1u64, 5, 20, 60] {
        let rounds_elapsed = eng.now().as_millis() / 5_000;
        eng.run_rounds(checkpoint - rounds_elapsed);
        let view = eng.view_of(observer);
        let natted = view.iter().filter(|d| d.class.is_natted()).count();
        println!(
            "after {checkpoint:>3} rounds: view holds {} peers ({} natted): {:?}",
            view.len(),
            natted,
            view.ids().iter().map(|p| p.0).collect::<Vec<_>>(),
        );
    }

    // Aggregate protocol health.
    let s = eng.stats();
    println!("\nprotocol counters after {} of virtual time:", eng.now());
    println!("  shuffles initiated      {}", s.shuffles_initiated);
    println!("  completed request/resp  {}/{}", s.requests_completed, s.responses_completed);
    println!(
        "  direct / punched / relayed  {}/{}/{}",
        s.direct_requests, s.hole_punches, s.relayed_requests
    );
    println!(
        "  hole punch success      {:.1}%",
        100.0 * s.punch_successes as f64 / s.hole_punches.max(1) as f64
    );
    if let Some(chain) = s.mean_chain_len() {
        println!("  mean RVP chain length   {chain:.2}");
    }
    let bytes: u64 = eng
        .alive_peers()
        .collect::<Vec<_>>()
        .iter()
        .map(|p| eng.traffic_of(*p).bytes_total())
        .sum();
    let bps = bytes as f64 / eng.alive_peers().count() as f64 / eng.now().as_secs_f64();
    println!("  mean bandwidth          {bps:.0} B/s per peer");
}
