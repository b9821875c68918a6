//! The idle-fabric contract, measured: a shard worker holds every peer of
//! the run, but a peer it does not own must cost it no heap block — not
//! in the fabric (peer slot, NAT box, traffic counters) and not in the
//! protocol's node. Adding 10 000 such peers may therefore allocate only
//! when one of the handful of population-wide vectors doubles.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counting, CountingAlloc};
use nylon::{NylonConfig, StaticRvpConfig};
use nylon_gossip::{Engine, GossipConfig, PeerSwapConfig, Protocol};
use nylon_net::{NatClass, NatType, NetConfig};
use nylon_sim::{ShardAssign, ShardPlan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PEERS: u32 = 10_000;

/// Allocations made by adding [`PEERS`] peers — public, every cone type
/// and symmetric, in turn — to worker 1 of a plan that puts every node on
/// worker 0.
fn allocations_while_populating<P: Protocol>(cfg: P::Config) -> u64 {
    let mut eng: Engine<P> = Engine::new(cfg, NetConfig::default(), 5);
    eng.set_shard(ShardPlan::new(2, ShardAssign::AllOnOne), 1);
    let classes = [
        NatClass::Public,
        NatClass::Natted(NatType::FullCone),
        NatClass::Natted(NatType::RestrictedCone),
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    ];
    let ((), allocations, _) = counting(|| {
        for i in 0..PEERS {
            eng.add_peer(classes[i as usize % classes.len()]);
        }
    });
    allocations
}

/// One test, so nothing else in this binary allocates while it counts.
#[test]
fn non_owned_peers_allocate_only_vector_growth() {
    // Six vectors grow with the population (peer slots, boxes, box
    // owners, traffic counters, protocol nodes, and slack for one more);
    // each doubles at most log2(PEERS) + 1 times.
    let budget = 6 * (u64::from(PEERS.ilog2()) + 1);
    let runs = [
        (
            "baseline",
            allocations_while_populating::<nylon_gossip::Baseline>(GossipConfig::default()),
        ),
        (
            "peerswap",
            allocations_while_populating::<nylon_gossip::PeerSwap>(PeerSwapConfig::default()),
        ),
        ("nylon", allocations_while_populating::<nylon::Nylon>(NylonConfig::default())),
        (
            "static-rvp",
            allocations_while_populating::<nylon::StaticRvp>(StaticRvpConfig::default()),
        ),
    ];
    for (protocol, allocations) in runs {
        assert!(
            allocations <= budget,
            "{protocol}: {allocations} allocations for {PEERS} non-owned peers (budget {budget})"
        );
    }
}
