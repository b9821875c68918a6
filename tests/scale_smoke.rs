//! Scale smoke: the sim kernel at six-digit peer counts.
//!
//! PR 4 gated a 10k-node population into `cargo test -q`; the PR-5
//! compaction work (slab-indexed events so the wheel moves 4-byte
//! handles, the sort-free healer merge, an O(view) bootstrap)
//! promotes it to 100 000 nodes for 20 rounds — two million shuffle
//! initiations. Large enough that an accidental O(n) walk per event, a
//! per-merge allocation or an O(n²) bootstrap shows up as a timeout;
//! bounded (20 rounds, one engine) so it stays a CI-friendly smoke test
//! rather than a benchmark.

use nylon::routing::RoutingTable;
use nylon::{NylonConfig, StaticRvpConfig};
use nylon_gossip::{
    with_workers, BaselineEngine, GossipConfig, MergePolicy, NodeDescriptor, PeerSampler,
    PeerSwapConfig, SamplerConfig, Workers,
};
use nylon_net::{NatClass, NatType, NetConfig};
use nylon_obs::MetricValue;
use nylon_sim::ShardPlan;
use nylon_workloads::runner::build;
use nylon_workloads::scenario::{NatMix, Scenario};

#[test]
fn hundred_thousand_nodes_twenty_rounds() {
    let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 0xC0FFEE);
    for i in 0..100_000u32 {
        // 30% public, 70% cone-natted: natted peers keep the NAT boxes and
        // their hole bookkeeping in the hot path.
        let class = if i % 10 < 3 {
            NatClass::Public
        } else {
            NatClass::Natted(NatType::PortRestrictedCone)
        };
        eng.add_peer(class);
    }
    eng.bootstrap_random_public(8);
    eng.start();
    eng.run_rounds(20);

    let s = eng.stats();
    // 100k peers * 20 rounds: effectively every round initiates.
    assert!(s.initiated > 1_900_000, "too few shuffles at scale: {}", s.initiated);
    assert!(s.responses_received > 0, "push/pull must complete at scale");
    // Views converge to full size for (at least) the vast majority of
    // peers within 20 rounds of 16-entry exchanges.
    let full = eng
        .alive_peers()
        .collect::<Vec<_>>()
        .iter()
        .filter(|p| eng.view_of(**p).len() == eng.config().view_size)
        .count();
    assert!(full > 85_000, "only {full} views filled at scale");
}

/// Nylon's per-node routing footprint, gated on exact counts (so it
/// cannot flake on a noisy host): 5 000 peers at 70 % NAT — the ledger's
/// `nylon-steady-20k` population in miniature — past the first full 90 s
/// expiry cadence. Capacity must be fitted to the *live* routes: at most
/// 5/3 16-byte slots per live entry, and no more than 5.5 KiB of slots
/// per node. Robin Hood maps at 7/8 load read 1.547 slots and 4 886 B
/// here; linear probing at 3/4 read 1.806 and 5 707 B, power-of-two
/// capacity 2.33 slots and, at 24 bytes each, 10.9 KB.
#[test]
fn nylon_routing_footprint_tracks_live_routes() {
    const PEERS: u64 = 5_000;
    let mut eng = build(&Scenario::new(PEERS as usize, 70.0, 5), NylonConfig::default());
    eng.run_rounds(40);
    let mut report = nylon_obs::Report::new();
    PeerSampler::obs_report(&eng, &mut report);
    let gauge = |metric: &str| match report.get("routing", metric) {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("routing/{metric} is not a gauge: {other:?}"),
    };
    let (entries, slots) = (gauge("entries"), gauge("slots"));
    assert!(entries > 100 * PEERS, "tables never filled: {entries} live routes");
    assert!(3 * slots <= 5 * entries, "{slots} slots for {entries} live routes");
    assert_eq!(gauge("slot_bytes"), slots * RoutingTable::SLOT_BYTES as u64);
    let per_node = gauge("slot_bytes") / PEERS;
    assert!(2 * per_node <= 11 * 1024, "{per_node} B of routing slots per node");
    // The cost side, as exact counts: growth is geometric, so every
    // rebuild since the tables were empty walked a bounded multiple of the
    // slots that now stand, and sweeps come a few rounds apart.
    let count = |name| metric(&eng, "routing", name);
    let (rebuilds, walked) = (count("rebuilds"), count("rebuild_slots"));
    assert!(rebuilds >= PEERS && walked <= 12 * slots, "{rebuilds} rebuilds walked {walked} slots");
    let (sweeps, swept) = (count("sweeps"), count("sweep_slots"));
    assert!((PEERS..=40 * PEERS / 3).contains(&sweeps), "{sweeps} sweeps in 40 rounds");
    assert!(swept >= sweeps, "{sweeps} sweeps walked {swept} slots");
}

/// A view's buffer is its capacity, under every protocol: at the routing
/// test's population, after 40 rounds of merges, the views hold exactly
/// `view_size` descriptor slots per peer (a merge that selected inside
/// the view's own buffer would leave 60 slots for a 15-entry view).
#[test]
fn view_buffers_hold_exactly_their_capacity() {
    fn slot_bytes<C: SamplerConfig>(scn: &Scenario, cfg: C) -> u64 {
        let mut eng = build(scn, cfg);
        eng.run_rounds(40);
        metric(&eng, "view", "slot_bytes")
    }
    let scn = Scenario::new(5_000, 70.0, 5);
    let full = (scn.peers * scn.view_size * size_of::<NodeDescriptor>()) as u64;
    for (protocol, bytes) in [
        ("baseline", slot_bytes(&scn, GossipConfig::default())),
        ("nylon", slot_bytes(&scn, NylonConfig::default())),
        ("static-RVP", slot_bytes(&scn, StaticRvpConfig::default())),
        ("peerswap", slot_bytes(&scn, PeerSwapConfig::default())),
    ] {
        assert_eq!(bytes, full, "{protocol}: {bytes} B of view slots, capacity is {full} B");
    }
}

/// The event queue's storage follows its pending events, under every
/// protocol: after 60 rounds (300 s, more than one turn of the wheel's
/// 262 s level-2 ring) at the view test's population, the wheel's block
/// arena holds at most 2 × its high-water depth in entries (1.24–1.29 ×
/// measured: 406 blocks of 16 slots for a depth of 5 134–5 319, that is
/// the blocks in use, a part-filled one per busy bucket, and the arena's
/// last growth step, which alone may reach 1.5 ×). A wheel whose every
/// slot kept the buffer of the busiest bucket it had held reads 97–105 ×
/// here: each re-armed round timer lands 5 s ahead, so 82 % of the
/// population passes through every 4.096 s level-2 bucket. One worker,
/// so one wheel holds every peer's events: a self-sized engine of this
/// size would start two.
#[test]
fn wheel_buffers_follow_pending_events() {
    /// A wheel entry: the 8-byte firing time and the 8-byte event (a peer
    /// id or a slab handle behind an enum tag).
    const ENTRY_BYTES: u64 = 16;
    fn wheel<C: SamplerConfig>(scn: &Scenario, cfg: C) -> (u64, u64) {
        let one = Workers::Plan(ShardPlan::round_robin(1));
        let mut eng = with_workers(one, || build(scn, cfg));
        eng.run_rounds(60);
        (metric(&eng, "kernel", "wheel_slot_bytes"), metric(&eng, "kernel", "queue_depth_hwm"))
    }
    let scn = Scenario::new(5_000, 70.0, 5);
    for (protocol, (bytes, hwm)) in [
        ("baseline", wheel(&scn, GossipConfig::default())),
        ("nylon", wheel(&scn, NylonConfig::default())),
        ("static-RVP", wheel(&scn, StaticRvpConfig::default())),
        ("peerswap", wheel(&scn, PeerSwapConfig::default())),
    ] {
        assert!(hwm >= scn.peers as u64, "{protocol}: queue depth peaked at {hwm}");
        assert!(
            bytes <= 2 * hwm * ENTRY_BYTES,
            "{protocol}: {bytes} B of wheel buffers for a depth of {hwm} events"
        );
    }
}

/// NAT-session maps are sized to the sessions they hold: the baseline at
/// the view test's population, after 40 rounds (200 s, so sessions have
/// cycled through the 90 s hole timeout and the purge twice), holds at
/// most 1.8 map slots per session, the symmetric mappings' forward index
/// included. Robin Hood maps that the purge refits read 1.70 here; maps
/// that only grew read 2.07 without that index, maps that doubled to
/// powers of two 3.17.
#[test]
fn nat_session_slots_track_sessions() {
    let mut eng = build(&Scenario::new(5_000, 70.0, 5), GossipConfig::default());
    eng.run_rounds(40);
    let (sessions, slots) =
        (metric(&eng, "net", "nat_sessions"), metric(&eng, "net", "nat_session_slots"));
    assert!(sessions > 5 * 3_500, "{sessions} sessions in 3 500 NAT boxes");
    assert!(5 * slots <= 9 * sessions, "{slots} NAT-session slots for {sessions} sessions");
}

/// One counter or gauge of `eng`'s telemetry.
fn metric<S: PeerSampler>(eng: &S, layer: &str, name: &str) -> u64 {
    let mut report = nylon_obs::Report::new();
    eng.obs_report(&mut report);
    match report.get(layer, name) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
        other => panic!("{layer}/{name} is not a count: {other:?}"),
    }
}

/// Exchange state must track *live* exchanges, not history: buffers
/// outstanding and exchanges pending (for a [`Pending::DecayingSlot`],
/// the buffers beyond the exchanges pending) are the same at round 200
/// as at round 40, up to what is in flight at the instant of the snapshot (a
/// tenth of the population is generous: a round trip is 100 ms of a 5 s
/// period). Runs on two workers. A buffer acquired on one worker may be
/// released on another, so buffers are counted run-wide (counters merge
/// by sum), and so are exchanges pending (a sum-merged gauge).
fn assert_exchange_state_is_bounded<C: SamplerConfig>(
    scn: &Scenario,
    cfg: C,
    layer: &str,
    kept: Pending,
) {
    // (pooled buffers handed out and not yet returned, exchanges the
    // protocol says it still waits on)
    let state = |eng: &C::Sampler| {
        let buffers =
            metric(eng, "kernel", "pool_acquired") - metric(eng, "kernel", "pool_released");
        let pending = match kept {
            Pending::Nothing => 0,
            _ => metric(eng, layer, "pending_exchanges"),
        };
        (buffers, pending)
    };
    let slack = scn.peers as u64 / 10;
    let mut eng = with_workers(Workers::Plan(ShardPlan::round_robin(2)), || build(scn, cfg));
    eng.run_rounds(40);
    let (buffers40, pending40) = state(&eng);
    eng.run_rounds(160);
    let (buffers, pending): (u64, u64) = state(&eng);
    let at = format!("{layer} at {} % NAT", scn.nat_pct);
    if matches!(kept, Pending::DecayingSlot) {
        // The slot bounds the exchanges pending; the buffers beyond them
        // are messages in flight and stay level.
        let (beyond40, beyond) =
            (buffers40.saturating_sub(pending40), buffers.saturating_sub(pending));
        assert!(beyond <= beyond40 + slack, "{at}: {beyond40} -> {beyond} buffers in flight");
    } else {
        assert!(buffers <= buffers40 + slack, "{at}: {buffers40} -> {buffers} buffers outstanding");
        assert!(pending <= pending40 + slack, "{at}: {pending40} -> {pending} exchanges pending");
    }
    assert!(buffers <= pending + slack, "{at}: {buffers} buffers for {pending} exchanges");
    if matches!(kept, Pending::OneSlot | Pending::DecayingSlot) {
        assert!(pending <= scn.peers as u64, "{at}: {pending} exchanges pending");
    }
}

/// The exchange state a protocol keeps, reported as `pending_exchanges`.
#[derive(Clone, Copy)]
enum Pending {
    /// None (static RVP, and the baseline under healer or blind): every
    /// outstanding buffer is a message in flight.
    Nothing,
    /// At most one exchange per peer (PeerSwap's slot).
    OneSlot,
    /// One slot per peer, filled by a share of unanswered exchanges that
    /// keeps rising: the baseline under swapper, whose views decay under
    /// NATs (1 056 -> 1 353 of 2 000 peers waiting at 70 % NAT between
    /// rounds 40 and 200, 1 416 -> 1 840 at 95 %). The slot is the bound,
    /// and only the buffers beyond the exchanges pending are held level.
    DecayingSlot,
    /// Any number per peer (Nylon's punches waiting for their PONG).
    Many,
}

/// The leak gate: the paper's mix at 70 % NAT, where 46 % of the
/// baseline's requests are never answered, and a population whose natted
/// peers are all symmetric, where nearly none are.
#[test]
fn exchange_state_tracks_live_exchanges() {
    let mixed = Scenario::new(2_000, 70.0, 5);
    let symmetric = Scenario {
        mix: NatMix { fc: 0.0, rc: 0.0, prc: 0.0, sym: 1.0 },
        ..Scenario::new(2_000, 95.0, 5)
    };
    for scn in [&mixed, &symmetric] {
        let baseline = GossipConfig::default();
        assert_exchange_state_is_bounded(scn, baseline, "engine.baseline", Pending::Nothing);
        let swapper = GossipConfig { merge: MergePolicy::Swapper, ..GossipConfig::default() };
        assert_exchange_state_is_bounded(scn, swapper, "engine.baseline", Pending::DecayingSlot);
        let rvp = StaticRvpConfig::default();
        assert_exchange_state_is_bounded(scn, rvp, "engine.static_rvp", Pending::Nothing);
        let peerswap = PeerSwapConfig::default();
        assert_exchange_state_is_bounded(scn, peerswap, "engine.peerswap", Pending::OneSlot);
        assert_exchange_state_is_bounded(
            scn,
            NylonConfig::default(),
            "engine.nylon",
            Pending::Many,
        );
    }
}

/// The same gate at the routing-footprint test's population.
#[test]
fn exchange_state_is_bounded_at_five_thousand_peers() {
    let scn = Scenario::new(5_000, 70.0, 5);
    assert_exchange_state_is_bounded(
        &scn,
        GossipConfig::default(),
        "engine.baseline",
        Pending::Nothing,
    );
    assert_exchange_state_is_bounded(&scn, NylonConfig::default(), "engine.nylon", Pending::Many);
}

/// Nylon in the shape of the ledger's `scale-baseline-200k-s2`: 200 000
/// peers at 70 % NAT on two shards for ten rounds, held to the baseline
/// smoke's liveness floors. Out of reach while the bootstrap shuffled the
/// whole public pool for every peer (10¹⁰ swaps here); release-only:
///
/// ```text
/// cargo test --release --test scale_smoke nylon_two_hundred -- --ignored --nocapture
/// ```
#[test]
#[ignore = "release-only heavy run"]
fn nylon_two_hundred_thousand_sharded() {
    const PEERS: usize = 200_000;
    const ROUNDS: u64 = 10;

    let built = std::time::Instant::now();
    let scn = Scenario::new(PEERS, 70.0, 5);
    let two = Workers::Plan(ShardPlan::round_robin(2));
    let mut eng = with_workers(two, || build(&scn, NylonConfig::default()));
    println!("[200k] populated {PEERS} Nylon peers on 2 shards in {:.2?}", built.elapsed());
    let run = std::time::Instant::now();
    eng.run_rounds(ROUNDS);
    let stats = eng.stats();
    println!(
        "[200k] {ROUNDS} rounds in {:.1?}: {} events, {} shuffles initiated, {} completed",
        run.elapsed(),
        eng.events_processed(),
        stats.shuffles_initiated,
        stats.requests_completed
    );
    if let Some(bytes) = nylon_obs::process::peak_rss_bytes() {
        println!("[200k] peak RSS {:.2} GiB", bytes as f64 / (1u64 << 30) as f64);
    }

    let floor = PEERS as u64 * ROUNDS * 95 / 100;
    assert!(stats.shuffles_initiated > floor, "too few shuffles: {}", stats.shuffles_initiated);
    assert!(stats.requests_completed > 0, "no shuffle completed at scale");
    let full = eng.alive_peers().filter(|p| eng.view_of(*p).len() == scn.view_size).count();
    assert!(full > PEERS * 85 / 100, "only {full} views filled at scale");
}

/// The PR-6 headline run: one million nodes for ten rounds on the
/// four-shard driver. Ten million shuffle initiations — far too heavy for
/// the tier-1 wall (hence `#[ignore]`), run in release via
/// `scripts/million_node_smoke.sh`, which also reports the throughput and
/// peak-RSS figures this test prints. With `NYLON_STATS=path` set (the
/// script sets it) the run additionally routes kernel/shard/engine
/// counters and the peak-RSS gauge into the nylon-obs JSONL sink for
/// `repro stats-report`.
#[test]
#[ignore = "release-only heavy run: scripts/million_node_smoke.sh"]
fn million_nodes_ten_rounds_sharded() {
    sharded_baseline_smoke("1M", 1_000_000, 10);
}

/// The ten-million-node stretch: the same population ten times over, for
/// three rounds on four shards. One million peers peak at 0.70 GiB over
/// three rounds, so expect ≈ 7 GiB; release-only:
///
/// ```text
/// cargo test --release --test scale_smoke ten_million -- --ignored --nocapture
/// ```
#[test]
#[ignore = "release-only heavy run, ~7 GiB"]
fn ten_million_nodes_three_rounds_sharded() {
    sharded_baseline_smoke("10M", 10_000_000, 3);
}

/// Builds `peers` baseline nodes (30 % public, 70 % port-restricted cone)
/// on four shards, runs `rounds` rounds, prints set-up time, throughput and
/// peak RSS under `label`, and asserts that effectively every peer
/// initiated every round.
fn sharded_baseline_smoke(label: &str, peers: u32, rounds: u64) {
    const SHARDS: usize = 4;

    if let Ok(path) = std::env::var("NYLON_STATS") {
        if let Err(e) = nylon_obs::install(std::path::Path::new(&path)) {
            println!("[{label}] stats sink disabled: {e}");
        }
    }

    let built = std::time::Instant::now();
    let mut eng = with_workers(Workers::Plan(ShardPlan::round_robin(SHARDS)), || {
        BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 0xC0FFEE)
    });
    for i in 0..peers {
        let class = if i % 10 < 3 {
            NatClass::Public
        } else {
            NatClass::Natted(NatType::PortRestrictedCone)
        };
        eng.add_peer(class);
    }
    eng.bootstrap_random_public(8);
    eng.start();
    println!("[{label}] populated {peers} peers across {SHARDS} shards in {:.1?}", built.elapsed());

    let run = std::time::Instant::now();
    eng.run_rounds(rounds);
    let wall = run.elapsed();

    let stats = eng.stats();
    let events = eng.events_processed();
    let rate = events as f64 / wall.as_secs_f64();
    println!(
        "[{label}] {rounds} rounds in {wall:.1?}: {events} events ({rate:.0} events/s), \
         {} shuffles initiated",
        stats.initiated
    );
    match nylon_obs::process::peak_rss_bytes() {
        Some(bytes) => {
            println!("[{label}] peak RSS {:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
        }
        None => println!("[{label}] peak RSS unavailable (no /proc/self/status)"),
    }
    // Dropping the engine merges its telemetry into the sink, if any.
    drop(eng);
    nylon_obs::final_snapshot();

    let floor = u64::from(peers) * rounds * 95 / 100;
    assert!(stats.initiated > floor, "too few shuffles at scale: {}", stats.initiated);
    assert!(stats.responses_received > 0, "push/pull must complete at scale");
}
