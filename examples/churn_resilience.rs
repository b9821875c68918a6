//! Figure 10 in miniature: Nylon under massive simultaneous departures,
//! plus recovery through joins.
//!
//! Run with: `cargo run --release --example churn_resilience`

use nylon::{NylonConfig, NylonEngine};
use nylon_net::{NatClass, NatType, PeerId};
use nylon_workloads::runner::{biggest_cluster_pct, build};
use nylon_workloads::Scenario;

fn main() {
    let scn = Scenario::new(400, 70.0, 11);
    let mut eng = build(&scn, NylonConfig::default());

    println!("400 peers, 70% NATs (50/40/10 RC/PRC/SYM), shuffle every 5s\n");
    eng.run_rounds(100);
    report(&eng, "steady state after 100 rounds");

    // Kill 60 % of the network at once, public and natted proportionally.
    let mut publics: Vec<PeerId> = Vec::new();
    let mut natted: Vec<PeerId> = Vec::new();
    for p in eng.alive_peers() {
        if eng.class_of(p).is_public() {
            publics.push(p);
        } else {
            natted.push(p);
        }
    }
    let mut victims: Vec<PeerId> = Vec::new();
    victims.extend(publics.iter().take(publics.len() * 6 / 10));
    victims.extend(natted.iter().take(natted.len() * 6 / 10));
    eng.kill_peers(&victims);
    println!("\n>>> {} peers leave simultaneously <<<\n", victims.len());

    for rounds in [5u64, 20, 100] {
        eng.run_rounds(rounds);
        report(&eng, &format!("{rounds} more rounds after the churn"));
    }

    // Newcomers join through any alive contact.
    let contact = eng.alive_peers().next().expect("survivors exist");
    for i in 0..30 {
        let class = if i % 3 == 0 {
            NatClass::Public
        } else {
            NatClass::Natted(NatType::PortRestrictedCone)
        };
        eng.add_peer_with_bootstrap(class, &[contact]);
    }
    println!("\n>>> 30 fresh peers join via one bootstrap contact <<<\n");
    eng.run_rounds(60);
    report(&eng, "60 rounds after the joins");
}

fn report(eng: &NylonEngine, label: &str) {
    let cluster = biggest_cluster_pct(eng);
    let alive = eng.alive_peers().count();
    let full_views = eng.alive_peers().filter(|p| !eng.view_of(*p).is_empty()).count();
    println!(
        "{label:<42} alive {alive:>4}   biggest cluster {cluster:>6.1}%   populated views {full_views}/{alive}"
    );
}
