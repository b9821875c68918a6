//! Cross-crate end-to-end tests: the paper's claims at small scale.

use nylon::NylonConfig;
use nylon_gossip::GossipConfig;
use nylon_net::PeerId;
use nylon_workloads::runner::{biggest_cluster_pct, build, staleness};
use nylon_workloads::{NatMix, Scenario};

fn prc_scenario(peers: usize, nat_pct: f64, seed: u64) -> Scenario {
    Scenario { mix: NatMix::prc_only(), ..Scenario::new(peers, nat_pct, seed) }
}

/// Section 3: the baseline accumulates stale references under NATs; Nylon
/// (Section 5) keeps views essentially stale-free.
#[test]
fn staleness_baseline_vs_nylon() {
    let scn = prc_scenario(150, 70.0, 42);
    let mut base = build(&scn, GossipConfig::default());
    base.run_rounds(60);
    let b = staleness(&base);
    assert!(b.stale_pct > 20.0, "baseline staleness too low: {}", b.stale_pct);

    let mut nyl = build(&scn, NylonConfig::default());
    nyl.run_rounds(60);
    let n = staleness(&nyl);
    assert!(n.stale_pct < 2.0, "nylon staleness too high: {}", n.stale_pct);
}

/// Figure 4 vs Section 5: natted peers are starved of representation by
/// the baseline but sampled fairly by Nylon.
#[test]
fn natted_representation() {
    let scn = prc_scenario(150, 60.0, 7);
    let mut base = build(&scn, GossipConfig::default());
    base.run_rounds(60);
    let b = staleness(&base);
    // 60% of peers are natted; usable baseline references to them are far
    // below that share.
    assert!(
        b.natted_nonstale_pct < 30.0,
        "baseline natted share unexpectedly fair: {}",
        b.natted_nonstale_pct
    );
    let mut nyl = build(&scn, NylonConfig::default());
    nyl.run_rounds(60);
    let n = staleness(&nyl);
    assert!(n.natted_nonstale_pct > 45.0, "nylon natted share too low: {}", n.natted_nonstale_pct);
}

/// Figure 2 vs Section 5: at extreme NAT ratios the baseline's usable
/// overlay shatters; Nylon stays whole.
#[test]
fn connectivity_under_extreme_nats() {
    let scn = prc_scenario(150, 95.0, 3);
    let mut base = build(&scn, GossipConfig::default());
    base.run_rounds(80);
    let b = biggest_cluster_pct(&base);

    let mut nyl = build(&scn, NylonConfig::default());
    nyl.run_rounds(80);
    let n = biggest_cluster_pct(&nyl);

    assert!(n > 97.0, "nylon partitioned: {n}");
    assert!(n > b, "nylon ({n}) must beat the baseline ({b})");
}

/// Figure 10: Nylon tolerates 50 % simultaneous departures.
#[test]
fn nylon_survives_mass_departure() {
    let scn = Scenario::new(160, 70.0, 11);
    let mut eng = build(&scn, NylonConfig::default());
    eng.run_rounds(50);
    // Remove half of the peers, public and natted proportionally (here:
    // every second peer, which preserves the class ratio in expectation).
    let victims: Vec<PeerId> =
        eng.alive_peers().enumerate().filter(|(i, _)| i % 2 == 0).map(|(_, p)| p).collect();
    eng.kill_peers(&victims);
    eng.run_rounds(60);
    let cluster = biggest_cluster_pct(&eng);
    assert!(cluster > 90.0, "survivors partitioned: {cluster}");
    // And gossip keeps making progress.
    let before = eng.stats().requests_completed;
    eng.run_rounds(10);
    assert!(eng.stats().requests_completed > before);
}

/// Whole-stack determinism: same seed, same everything.
#[test]
fn whole_stack_determinism() {
    let run = |seed: u64| {
        let scn = Scenario::new(120, 70.0, seed);
        let mut eng = build(&scn, NylonConfig::default());
        eng.run_rounds(40);
        let views: Vec<Vec<u32>> = eng
            .alive_peers()
            .map(|p| {
                let mut ids: Vec<u32> = eng.view_of(p).ids().iter().map(|q| q.0).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        (eng.stats(), views)
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).1, run(6).1);
}

/// Bandwidth stays within the order of magnitude the paper reports
/// (< 350 B/s per peer with the default parameters).
#[test]
fn bandwidth_is_modest() {
    let scn = Scenario::new(150, 70.0, 13);
    let mut eng = build(&scn, NylonConfig::default());
    eng.run_rounds(60);
    let total: u64 = eng
        .alive_peers()
        .collect::<Vec<_>>()
        .iter()
        .map(|p| eng.traffic_of(*p).bytes_total())
        .sum();
    let per_peer_bps = total as f64 / eng.alive_peers().count() as f64 / eng.now().as_secs_f64();
    assert!(
        per_peer_bps < 500.0,
        "per-peer bandwidth out of the paper's ballpark: {per_peer_bps:.0} B/s"
    );
    assert!(per_peer_bps > 50.0, "suspiciously idle: {per_peer_bps:.0} B/s");
}

/// Nylon's RVP chains stay short (Figure 9: average below 4).
#[test]
fn chains_stay_short() {
    let scn = Scenario::new(150, 80.0, 17);
    let mut eng = build(&scn, NylonConfig::default());
    eng.run_rounds(60);
    let mean = eng.stats().mean_chain_len().expect("punches happened");
    assert!(mean < 4.0, "mean chain length {mean} exceeds the paper's ballpark");
}

/// Load stays near-even between public and natted peers under Nylon
/// (Figure 8: within tens of percent, not multiples).
#[test]
fn load_is_balanced() {
    let scn = Scenario::new(150, 70.0, 19);
    let mut eng = build(&scn, NylonConfig::default());
    eng.run_rounds(80);
    let (mut pub_sum, mut pub_n, mut nat_sum, mut nat_n) = (0u64, 0u64, 0u64, 0u64);
    for p in eng.alive_peers().collect::<Vec<_>>() {
        let b = eng.traffic_of(p).bytes_total();
        if eng.class_of(p).is_public() {
            pub_sum += b;
            pub_n += 1;
        } else {
            nat_sum += b;
            nat_n += 1;
        }
    }
    let ratio = (pub_sum as f64 / pub_n as f64) / (nat_sum as f64 / nat_n as f64);
    assert!(
        (0.6..=1.6).contains(&ratio),
        "public/natted load ratio {ratio:.2} is not 'almost equal'"
    );
}

/// UPnP port forwarding rescues the baseline: with universal adoption it
/// behaves like a NAT-free network (the related-work alternative the
/// paper rejects for coverage/security reasons, quantified).
#[test]
fn upnp_heals_the_baseline() {
    let without = {
        let scn = prc_scenario(120, 70.0, 23);
        let mut eng = build(&scn, GossipConfig::default());
        eng.run_rounds(50);
        staleness(&eng).stale_pct
    };
    let with = {
        let scn = Scenario { upnp_adoption: 1.0, ..prc_scenario(120, 70.0, 23) };
        let mut eng = build(&scn, GossipConfig::default());
        eng.run_rounds(50);
        staleness(&eng).stale_pct
    };
    assert!(without > 20.0, "un-forwarded baseline must degrade: {without}");
    assert!(with < 1.0, "universal UPnP must eliminate staleness: {with}");
}
