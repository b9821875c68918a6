//! Allocation counts of the hot paths, held to the numbers last recorded.
//!
//! Counts, unlike timings, are a function of the program alone: a fixed
//! workload allocates the same number of blocks on every run and every
//! host, so a ceiling on them cannot fail by noise. Each fixed workload
//! below replays identically and is held to its recorded count. The three
//! long-lived engines still grow maps now and then after warm-up, a
//! residue that moves with any change to a growth policy, so their mean
//! per round is held to 5/4 of the recorded one (a reintroduced
//! per-message allocation shows up as hundreds).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::hint::black_box;

use counting_alloc::{counting, CountingAlloc};
use nylon::routing::RoutingTable;
use nylon::{NylonConfig, StaticRvpConfig};
use nylon_gossip::{
    with_workers, GossipConfig, MergePolicy, MergeScratch, NodeDescriptor, PartialView,
    PeerSampler, PeerSwapConfig, SamplerConfig, Workers,
};
use nylon_net::natbox::NatBox;
use nylon_net::{Endpoint, Ip, NatClass, NatType, NetConfig, PeerId, Port};
use nylon_sim::{EventQueue, ShardPlan, SimDuration, SimRng, SimTime};
use nylon_workloads::runner::{biggest_cluster_pct_with, build, SnapshotScratch};
use nylon_workloads::scenario::Scenario;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one call of `iter`, after one uncounted call has
/// populated lazy state.
fn allocations_of(mut iter: impl FnMut() -> u64) -> u64 {
    black_box(iter());
    counting(|| black_box(iter())).1
}

/// Schedules 10 000 events across 100 s of virtual time, then drains them.
fn fill_and_drain(q: &mut EventQueue<u64>) -> u64 {
    for i in 0..10_000u64 {
        q.schedule(SimTime::from_millis((i * 7919) % 100_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum = sum.wrapping_add(e);
    }
    sum
}

/// 10 000 periodic 5 s timers (the paper's shuffle period), each re-armed
/// as it fires, driven through 300 s of virtual time per call: more than
/// one turn of the wheel's 262 s level-2 ring, so every bucket has filled
/// from blocks a drained one handed back to the arena.
fn periodic_timers_10k() -> impl FnMut() -> u64 {
    let mut q = EventQueue::new();
    for i in 0..10_000u64 {
        q.schedule(SimTime::from_millis((i * 7919) % 5_000), i);
    }
    let mut until = SimTime::ZERO;
    move || {
        until += SimDuration::from_secs(300);
        let mut fired = 0;
        while let Some((at, i)) = q.pop_before(until) {
            q.schedule(at + SimDuration::from_secs(5), i);
            fired += 1;
        }
        fired
    }
}

fn natbox_outbound_inbound_1k() -> u64 {
    let private = Endpoint::new(Ip(Ip::PRIVATE_BASE + 1), Port(5000));
    let mut nat =
        NatBox::new(Ip(0x0100_0001), NatType::PortRestrictedCone, SimDuration::from_secs(90));
    for i in 0..1_000u32 {
        let remote = Endpoint::new(Ip(0x0200_0000 + i), Port(9000));
        let pub_ep = nat.on_outbound(SimTime::from_millis(i as u64), private, remote);
        let _ = black_box(nat.on_inbound(SimTime::from_millis(i as u64 + 1), pub_ep.port, remote));
    }
    nat.live_rule_count(SimTime::from_millis(1_500)) as u64
}

/// A long-lived full view refilled and healer-merged with a full
/// 16-entry payload, 100 times, in one long-lived workspace.
fn healer_merge_of_a_full_view() -> impl FnMut() -> u64 {
    let mk = |id: u32, age: u16| {
        let ep = Endpoint::new(Ip(0x0100_0000 + id), Port(9000));
        let mut d = NodeDescriptor::new(PeerId(id), ep, NatClass::Public);
        d.age = age;
        d
    };
    let mut rng = SimRng::new(3);
    let base: Vec<NodeDescriptor> = (1..16).map(|i| mk(i, i as u16)).collect();
    let received: Vec<NodeDescriptor> = (20..36).map(|i| mk(i, (i % 7) as u16)).collect();
    let sent: Vec<PeerId> = base.iter().map(|d| d.id).collect();
    let mut v = PartialView::new(PeerId(0), 15);
    let mut scratch = MergeScratch::default();
    move || {
        for _ in 0..100 {
            v.retain(|_| false);
            for d in &base {
                v.insert(*d);
            }
            v.merge_and_truncate_with(
                &received,
                &sent,
                MergePolicy::Healer,
                &mut rng,
                &mut scratch,
            );
        }
        v.len() as u64
    }
}

/// A table holding `size` chain routes behind one direct partner; every
/// `short_lived_every`-th route lapses after 20 s, the rest after 3 000 s.
fn populated_table(size: u32, short_lived_every: u32) -> RoutingTable {
    let mut rt = RoutingTable::new(PeerId(0));
    rt.update_direct(PeerId(1), SimDuration::from_secs(3600));
    rt.install_from_shuffle(
        PeerId(1),
        (2..2 + size).map(|i| {
            let ttl = if i % short_lived_every == 0 { 20 } else { 3000 };
            (PeerId(i), SimDuration::from_secs(ttl), 1u8)
        }),
    );
    rt
}

fn routing_install_and_resolve_256() -> u64 {
    let rt = populated_table(256, u32::MAX);
    (2..258u32).filter(|&i| rt.resolve_first_hop(PeerId(i), 32).is_some()).count() as u64
}

/// 100 shuffle-sized batches refreshed into a table of `size` routes,
/// rotating through the key space as real shuffles do.
fn install_batches_of_16(size: u32) -> impl FnMut() -> u64 {
    let mut rt = populated_table(size, u32::MAX);
    let mut start = 0u32;
    move || {
        for _ in 0..100 {
            start = (start + 17) % size;
            rt.install_from_shuffle(
                PeerId(1),
                (start..start + 16)
                    .map(|i| (PeerId(2 + i % size), SimDuration::from_secs(3000), 1u8)),
            );
        }
        rt.len() as u64
    }
}

fn entry_of_hit_and_miss_1k() -> impl FnMut() -> u64 {
    let rt = populated_table(1024, u32::MAX);
    move || {
        let hits = (0..512u32).filter(|&i| rt.entry_of(PeerId(2 + i * 2)).is_some()).count();
        let misses = (0..512u32).filter(|&i| rt.entry_of(PeerId(1_000_000 + i)).is_none()).count();
        (hits + misses) as u64
    }
}

fn sweep_1k_half_expired() -> impl FnMut() -> u64 {
    let template = populated_table(1024, 2);
    move || {
        let mut rt = template.clone();
        rt.decrease_ttls(SimDuration::from_secs(90)) + rt.len() as u64
    }
}

/// Mean allocations per round of a 200-peer, 70 %-NAT overlay over 100
/// rounds, after 30 rounds of warm-up, on an engine built in `workers`.
fn allocations_per_round<C: SamplerConfig>(cfg: C, workers: Workers) -> f64 {
    let mut eng = with_workers(workers, || build(&Scenario::new(200, 70.0, 5), cfg));
    eng.run_rounds(30);
    let ((), allocations, _) = counting(|| {
        for _ in 0..100 {
            eng.run_rounds(1);
        }
    });
    allocations as f64 / 100.0
}

/// Bytes the bootstrap of a 2 000-peer, 70 %-NAT population allocates,
/// per peer.
fn bootstrap_bytes_per_peer<C: SamplerConfig>(cfg: C) -> u64 {
    let scn = Scenario::new(2_000, 70.0, 5);
    let mut eng = C::Sampler::with_seed(cfg, NetConfig::default(), scn.seed);
    for class in scn.classes() {
        eng.add_peer(class);
    }
    // A query settles the engine on one worker, so the bootstrap runs at
    // once instead of being recorded for `start`.
    black_box(eng.traffic_of(PeerId(0)));
    counting(|| eng.bootstrap_random_public(15)).2 / scn.peers as u64
}

/// Bytes a whole set-up — population, bootstrap, start — allocates per
/// peer of a 10 000-peer, 70 %-NAT population on `workers` workers.
fn setup_bytes_per_peer<C: SamplerConfig>(cfg: C, workers: usize) -> u64 {
    let scn = Scenario::new(10_000, 70.0, 5);
    let plan = Workers::Plan(ShardPlan::round_robin(workers));
    let (eng, _, bytes) = counting(|| with_workers(plan, || build(&scn, cfg)));
    drop(eng);
    bytes / scn.peers as u64
}

/// A cluster snapshot of a 10 000-peer, 70 %-NAT baseline overlay after 5
/// rounds: `(blocks on a warm scratch, bytes per peer on a fresh one)`.
fn snapshot_allocations() -> (u64, u64) {
    let scn = Scenario::new(10_000, 70.0, 5);
    let mut eng = build(&scn, GossipConfig::default());
    eng.run_rounds(5);
    let fresh = counting(|| black_box(biggest_cluster_pct_with(&eng, &mut SnapshotScratch::new())));
    let mut scratch = SnapshotScratch::new();
    let warm = allocations_of(|| biggest_cluster_pct_with(&eng, &mut scratch).to_bits());
    (warm, fresh.2 / scn.peers as u64)
}

/// One test, run case by case, so nothing else in this binary allocates
/// while a case counts.
#[test]
fn hot_paths_allocate_no_more_than_recorded() {
    let mut queue = EventQueue::with_capacity(10_000);
    let fixed: [(&str, u64, u64); 11] = [
        ("event queue, steady state at 10k pending", 0, {
            allocations_of(|| {
                queue.clear();
                fill_and_drain(&mut queue)
            })
        }),
        // The arena's time, event and link buffers, one reservation each
        // (a `Vec` per bucket cost 306).
        ("event queue, cold build to 10k pending", 3, {
            allocations_of(|| fill_and_drain(&mut EventQueue::with_capacity(10_000)))
        }),
        (
            "event queue, 300 s of 10 000 self-rescheduling 5 s timers",
            0,
            allocations_of(periodic_timers_10k()),
        ),
        // One slot array per growth: 21 fitted steps from 0 to 1 000
        // sessions (two lanes each at 9 power-of-two steps cost 18).
        ("NAT box, 1k outbound + inbound", 21, allocations_of(natbox_outbound_inbound_1k)),
        ("healer merge of a full 16-view x100", 0, allocations_of(healer_merge_of_a_full_view())),
        ("routing: install 256 + resolve", 2, allocations_of(routing_install_and_resolve_256)),
        ("routing: batches of 16 into 64 routes", 0, allocations_of(install_batches_of_16(64))),
        ("routing: batches of 16 into 1k routes", 0, allocations_of(install_batches_of_16(1024))),
        ("routing: batches of 16 into 16k routes", 0, allocations_of(install_batches_of_16(16384))),
        ("routing: entry_of hit + miss at 1k", 0, allocations_of(entry_of_hit_and_miss_1k())),
        ("routing: sweep of 1k, half expired", 1, allocations_of(sweep_1k_half_expired())),
    ];
    for (case, recorded, measured) in fixed {
        println!("{case}: {measured} allocations (recorded {recorded})");
        assert!(measured <= recorded, "{case}: {measured} allocations, recorded {recorded}");
    }

    // A snapshot streams the usable edges into union-find: the alive mask
    // and two `u32` arrays (9 bytes a peer), nothing per edge.
    let (warm, fresh) = snapshot_allocations();
    println!("cluster snapshot: {warm} allocations warm (recorded 0), {fresh} bytes per peer fresh (limit 12)");
    assert_eq!(warm, 0, "cluster snapshot on a warm scratch: {warm} allocations");
    assert!(fresh <= 12, "cluster snapshot on a fresh scratch: {fresh} bytes per peer, limit 12");

    let nylon = NylonConfig::default;
    // Set-up scales with the view, not the pool: a peer's 15 contacts cost
    // its view, one sample and the positions 15 draws displaced — not a
    // copy and an index vector of the 600-peer pool (13 KB per peer up to
    // PR 23, and growing with the population).
    let bootstraps: [(&str, u64); 4] = [
        ("baseline bootstrap", bootstrap_bytes_per_peer(GossipConfig::default())),
        ("peerswap bootstrap", bootstrap_bytes_per_peer(PeerSwapConfig::default())),
        ("static-RVP bootstrap", bootstrap_bytes_per_peer(StaticRvpConfig::default())),
        ("nylon bootstrap", bootstrap_bytes_per_peer(nylon())),
    ];
    for (case, measured) in bootstraps {
        println!("{case}: {measured} bytes per peer (limit 2048)");
        assert!(measured <= 2048, "{case}: {measured} bytes per peer, limit 2048");
    }

    // A worker stores only the peers it owns plus the address plan of the
    // rest (≈ 12 B a peer), so splitting a population over two workers
    // adds next to nothing to what setting it up allocates.
    let setups: [(&str, u64, u64); 4] = [
        (
            "baseline",
            setup_bytes_per_peer(GossipConfig::default(), 1),
            setup_bytes_per_peer(GossipConfig::default(), 2),
        ),
        (
            "peerswap",
            setup_bytes_per_peer(PeerSwapConfig::default(), 1),
            setup_bytes_per_peer(PeerSwapConfig::default(), 2),
        ),
        (
            "static-RVP",
            setup_bytes_per_peer(StaticRvpConfig::default(), 1),
            setup_bytes_per_peer(StaticRvpConfig::default(), 2),
        ),
        ("nylon", setup_bytes_per_peer(nylon(), 1), setup_bytes_per_peer(nylon(), 2)),
    ];
    for (case, one, two) in setups {
        println!("{case} set-up: {one} bytes per peer on one worker, {two} on two");
        assert!(
            two * 100 <= one * 115,
            "{case} set-up: {two} bytes per peer on two workers, {one} on one (limit 1.15x)"
        );
    }

    // A self-sized engine and one pinned to a one-worker plan run the same
    // tick loop (`nylon_sim::run_lone`) over the same staging vector, which
    // is lent to `absorb` and handed back: pinning must add no allocation.
    let (auto, pinned) = (Workers::OneOf(1), Workers::Plan(ShardPlan::round_robin(1)));
    // Most of the residue is NAT session maps refitted after a purge and
    // regrown before the next one.
    let engines: [(&str, f64, f64); 3] = [
        ("nylon round", 11.3, allocations_per_round(nylon(), auto)),
        ("peerswap round", 6.2, allocations_per_round(PeerSwapConfig::default(), auto)),
        ("nylon round, pinned S=1", 11.3, allocations_per_round(nylon(), pinned)),
    ];
    assert_eq!(engines[0].2, engines[2].2, "pinned S=1 allocates differently from self-sized");
    for (case, recorded, measured) in engines {
        println!("{case}: {measured:.1} allocations per round (recorded {recorded})");
        assert!(
            measured <= 1.25 * recorded,
            "{case}: {measured:.1} allocations per round, recorded {recorded} (limit 5/4)"
        );
    }
}
