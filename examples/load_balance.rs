//! Section 4's argument, measured: static public rendez-vous peers
//! concentrate the NAT-traversal load on public peers; Nylon spreads it
//! across everyone (Figure 8 plus the `abl-rvp` ablation).
//!
//! Run with: `cargo run --release --example load_balance`

use nylon::{NylonConfig, StaticRvpConfig};
use nylon_net::TrafficStats;
use nylon_sim::SimDuration;
use nylon_workloads::runner::build;
use nylon_workloads::Scenario;

const ROUNDS: u64 = 120;

fn main() {
    let scn = Scenario::new(300, 70.0, 3);
    println!("300 peers, 70% NATs, measuring B/s per peer over {ROUNDS} rounds\n");

    // Nylon: every peer is an RVP.
    let mut nylon = build(&scn, NylonConfig::default());
    nylon.run_rounds(ROUNDS);
    let window = SimDuration::from_secs(5) * ROUNDS;
    let nylon_stats: Vec<(bool, TrafficStats, u32)> = nylon
        .alive_peers()
        .map(|p| (nylon.class_of(p).is_public(), nylon.traffic_of(p), p.0))
        .collect();
    summarize("Nylon (reactive RVP chains)", &nylon_stats, window);

    // The strawman: natted peers bound to static public RVPs. The same
    // generic builder, a different config type.
    let mut strawman = build(&scn, StaticRvpConfig::default());
    strawman.run_rounds(ROUNDS);
    let straw_stats: Vec<(bool, TrafficStats, u32)> = strawman
        .alive_peers()
        .map(|p| (strawman.class_of(p).is_public(), strawman.traffic_of(p), p.0))
        .collect();
    summarize("Static public RVPs (strawman)", &straw_stats, window);

    println!(
        "Reading: with static RVPs the public peers carry several times the\n\
         traffic of natted peers — the unfairness Nylon is designed to remove."
    );
}

fn summarize(label: &str, stats: &[(bool, TrafficStats, u32)], window: SimDuration) {
    let secs = window.as_secs_f64();
    let bps = |t: &TrafficStats| (t.bytes_sent + t.bytes_received) as f64 / secs;
    let avg = |public: bool| {
        let v: Vec<f64> =
            stats.iter().filter(|(p, _, _)| *p == public).map(|(_, t, _)| bps(t)).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let mut heaviest: Vec<(f64, u32, bool)> =
        stats.iter().map(|(p, t, id)| (bps(t), *id, *p)).collect();
    heaviest.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("rates are finite"));

    println!("=== {label} ===");
    println!("  public peers  {:>6.0} B/s", avg(true));
    println!("  natted peers  {:>6.0} B/s", avg(false));
    println!("  imbalance     {:>6.2}x", avg(true) / avg(false));
    print!("  heaviest 5 peers: ");
    for (rate, id, public) in heaviest.iter().take(5) {
        print!("p{id}({}, {rate:.0}B/s) ", if *public { "pub" } else { "nat" });
    }
    println!("\n");
}
