//! Property-based end-to-end invariants over random scenarios.

use proptest::prelude::*;

use nylon::NylonConfig;
use nylon_gossip::GossipConfig;
use nylon_workloads::runner::{biggest_cluster_pct, build, staleness};
use nylon_workloads::Scenario;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// After any run, every Nylon view respects its invariants: bounded
    /// size, no self-reference, no duplicates, only known peers.
    #[test]
    fn nylon_view_invariants(
        peers in 30usize..90,
        nat_pct in 0.0f64..100.0,
        seed in any::<u64>(),
        rounds in 5u64..40,
    ) {
        let scn = Scenario::new(peers, nat_pct, seed);
        let mut eng = build(&scn, NylonConfig::default());
        eng.run_rounds(rounds);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let view = eng.view_of(p);
            prop_assert!(view.len() <= 15);
            prop_assert!(!view.contains(p), "self reference at {p}");
            let mut ids: Vec<u32> = view.ids().iter().map(|q| q.0).collect();
            prop_assert!(ids.iter().all(|i| (*i as usize) < peers), "unknown peer id");
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), before, "duplicate view entry");
        }
        // Metrics stay within their domains.
        let cluster = biggest_cluster_pct(&eng);
        prop_assert!((0.0..=100.0).contains(&cluster));
        let stale = staleness(&eng);
        prop_assert!((0.0..=100.0).contains(&stale.stale_pct));
        prop_assert!((0.0..=100.0).contains(&stale.natted_nonstale_pct));
    }

    /// The baseline engine maintains the same view invariants.
    #[test]
    fn baseline_view_invariants(
        peers in 30usize..90,
        nat_pct in 0.0f64..100.0,
        seed in any::<u64>(),
        rounds in 5u64..40,
    ) {
        let scn = Scenario::new(peers, nat_pct, seed);
        let mut eng = build(&scn, GossipConfig::default());
        eng.run_rounds(rounds);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let view = eng.view_of(p);
            prop_assert!(view.len() <= 15);
            prop_assert!(!view.contains(p));
            let mut ids: Vec<u32> = view.ids().iter().map(|q| q.0).collect();
            let before = ids.len();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), before);
        }
    }

    /// Routing tables never hold self-routes or expired entries, and every
    /// resolvable chain ends at a direct hop.
    #[test]
    fn nylon_routing_invariants(
        peers in 30usize..80,
        nat_pct in 20.0f64..100.0,
        seed in any::<u64>(),
    ) {
        let scn = Scenario::new(peers, nat_pct, seed);
        let mut eng = build(&scn, NylonConfig::default());
        eng.run_rounds(25);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let rt = eng.protocol().routing_of(p);
            for (dest, entry) in rt.iter() {
                prop_assert!(dest != p, "route to self at {p}");
                prop_assert!(!entry.ttl.is_zero(), "expired entry not purged");
                prop_assert!(entry.hops >= 1);
            }
            for (dest, _) in rt.iter() {
                if let Some(hop) = rt.resolve_first_hop(dest, 32) {
                    prop_assert!(rt.is_direct(hop), "resolved hop not direct");
                }
            }
        }
    }

    /// Simulations are replayable: two runs with the same seed agree on
    /// protocol counters.
    #[test]
    fn replay_determinism(peers in 30usize..70, nat_pct in 0.0f64..100.0, seed in any::<u64>()) {
        let run = || {
            let scn = Scenario::new(peers, nat_pct, seed);
            let mut eng = build(&scn, NylonConfig::default());
            eng.run_rounds(15);
            eng.stats()
        };
        prop_assert_eq!(run(), run());
    }
}
