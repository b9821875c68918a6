//! How [`NylonConfig`] builds its engine, plus the `PeerSampler`-level
//! tests of the two engines in this crate.
//!
//! [`NylonEngine`] and the `StaticRvpEngine` strawman plug into the same
//! generic experiment harness as the baseline through the one
//! `PeerSampler` impl of `nylon_gossip::Engine`; see
//! [`nylon_gossip::sampler`] for the trait contract.

use nylon_gossip::SamplerConfig;

use crate::config::NylonConfig;
use crate::engine::NylonEngine;

impl SamplerConfig for NylonConfig {
    type Sampler = NylonEngine;

    fn set_view_size(&mut self, view_size: usize) {
        self.view_size = view_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Nylon;
    use crate::static_rvp::{StaticRvp, StaticRvpConfig};
    use nylon_gossip::{with_workers, Engine, PeerSampler, Protocol, Workers};
    use nylon_net::{NatClass, NatType, NetConfig, PeerId};
    use nylon_sim::ShardPlan;

    fn drive<C: SamplerConfig>(cfg: C, seed: u64) -> C::Sampler {
        let mut eng = C::Sampler::with_seed(cfg, NetConfig::default(), seed);
        for _ in 0..15 {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..25 {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(25);
        eng
    }

    #[test]
    fn nylon_implements_the_lifecycle() {
        let eng = drive(NylonConfig::default(), 5);
        assert_eq!(PeerSampler::peer_count(&eng), 40);
        assert!(eng.stats().punch_successes > 0, "holes must get punched");
        let p = PeerSampler::alive_peers(&eng)[0];
        assert!(!PeerSampler::view_of(&eng, p).is_empty());
    }

    #[test]
    fn nylon_natted_edges_need_routes() {
        let eng = drive(NylonConfig::default(), 9);
        // Every usable natted edge must have a resolvable RVP.
        for p in PeerSampler::alive_peers(&eng) {
            for d in eng.view_of(p).iter() {
                if d.class.is_natted() && PeerSampler::edge_usable(&eng, p, d) {
                    assert!(eng.protocol().routing_of(p).next_rvp(d.id).is_some());
                }
            }
        }
    }

    #[test]
    fn static_rvp_implements_the_lifecycle() {
        let eng = drive(StaticRvpConfig::default(), 13);
        assert_eq!(PeerSampler::peer_count(&eng), 40);
        assert!(eng.stats().relays > 0, "natted shuffles must be relayed");
        // Natted entries with a known, alive RVP binding are usable.
        let usable: usize = PeerSampler::alive_peers(&eng)
            .iter()
            .map(|p| {
                eng.view_of(*p).iter().filter(|d| PeerSampler::edge_usable(&eng, *p, d)).count()
            })
            .sum();
        assert!(usable > 0, "static-RVP overlay has no usable edges");
    }

    /// (merged-counter debug string, per-node sorted view ids) — a full
    /// fingerprint of the observable protocol state.
    fn shard_fingerprint<P: Protocol>(eng: &Engine<P>) -> (String, Vec<Vec<u32>>) {
        let views = (0..eng.peer_count() as u32)
            .map(|i| {
                let mut ids: Vec<u32> = eng.view_of(PeerId(i)).iter().map(|d| d.id.0).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        (format!("{:?}", eng.stats()), views)
    }

    fn run_sharded<P: Protocol>(
        cfg: P::Config,
        shards: usize,
        publics: u32,
        natted: u32,
        seed: u64,
    ) -> Engine<P> {
        let plan = Workers::Plan(ShardPlan::round_robin(shards));
        let mut eng = with_workers(plan, || Engine::<P>::new(cfg, NetConfig::default(), seed));
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..natted {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(12);
        eng
    }

    #[test]
    fn sharded_nylon_is_shard_count_independent() {
        let fp = |shards| {
            let eng = run_sharded::<Nylon>(NylonConfig::default(), shards, 15, 25, 21);
            assert!(eng.stats().punch_successes > 0, "holes must get punched");
            shard_fingerprint(&eng)
        };
        let reference = fp(1);
        assert_eq!(fp(2), reference, "Nylon diverged at 2 shards");
        assert_eq!(fp(4), reference, "Nylon diverged at 4 shards");
    }

    #[test]
    fn sharded_nylon_fallback_bootstrap_is_shard_count_independent() {
        // 100 % NAT population: bootstrap pre-opens holes, which mutate
        // both endpoints' boxes — a join run on the two workers in turn.
        let fp = |shards| {
            let eng = run_sharded::<Nylon>(NylonConfig::default(), shards, 0, 30, 33);
            assert!(eng.stats().shuffles_initiated > 0);
            shard_fingerprint(&eng)
        };
        let reference = fp(1);
        assert_eq!(fp(3), reference, "fallback bootstrap diverged at 3 shards");
    }

    #[test]
    fn sharded_static_rvp_is_shard_count_independent() {
        let fp = |shards| {
            let eng = run_sharded::<StaticRvp>(StaticRvpConfig::default(), shards, 10, 30, 5);
            assert!(eng.stats().relays > 0, "natted shuffles must be relayed");
            shard_fingerprint(&eng)
        };
        let reference = fp(1);
        assert_eq!(fp(2), reference, "static-RVP diverged at 2 shards");
        assert_eq!(fp(4), reference, "static-RVP diverged at 4 shards");
    }
}
