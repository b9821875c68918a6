//! The idle-fabric contract, measured: every worker of a run holds the
//! address plan of the whole population, but a peer it does not own must
//! cost it no heap block beyond that plan — no NAT box, no identity, no
//! traffic counters (and no protocol node: the host adds one only for an
//! owned peer). Adding 10 000 such peers may therefore allocate only when
//! one of the two population-wide vectors doubles.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{counting, CountingAlloc};
use nylon_net::{NatClass, NatType, NetConfig, Network};
use nylon_sim::{ShardAssign, ShardPlan, Share};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PEERS: u32 = 10_000;

/// One test, so nothing else in this binary allocates while it counts.
#[test]
fn non_owned_peers_allocate_only_vector_growth() {
    // Worker 1 of a plan that puts every peer on worker 0 owns none.
    let share = Share::new(ShardPlan::new(2, ShardAssign::AllOnOne), 1);
    let mut net: Network<()> = Network::for_worker(NetConfig::default(), 5, share);
    let classes = [
        NatClass::Public,
        NatClass::Natted(NatType::FullCone),
        NatClass::Natted(NatType::RestrictedCone),
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    ];
    let ((), allocations, _) = counting(|| {
        for i in 0..PEERS {
            net.add_peer(classes[i as usize % classes.len()]);
        }
    });
    // Peer slots and box slots; each doubles at most log2(PEERS) + 1 times.
    let budget = 2 * (u64::from(PEERS.ilog2()) + 1);
    assert!(
        allocations <= budget,
        "{allocations} allocations for {PEERS} non-owned peers (budget {budget})"
    );
    assert_eq!(net.peer_count(), PEERS as usize);
    assert!(net.nat_box_of(nylon_net::PeerId(1)).is_none(), "a non-owned peer has no box here");
}
