//! Scale smoke: the sim kernel at six-digit peer counts.
//!
//! PR 4 gated a 10k-node population into `cargo test -q`; the PR-5
//! compaction work (slab-indexed events so the wheel moves 4-byte
//! handles, the sort-free healer merge, sparse bootstrap sampling)
//! promotes it to 100 000 nodes for 20 rounds — two million shuffle
//! initiations. Large enough that an accidental O(n) walk per event, a
//! per-merge allocation or an O(n²) bootstrap shows up as a timeout;
//! bounded (20 rounds, one engine) so it stays a CI-friendly smoke test
//! rather than a benchmark.

use nylon::routing::RoutingTable;
use nylon::NylonConfig;
use nylon_gossip::{BaselineEngine, GossipConfig, PeerSampler, Sharded, ShardedConfig};
use nylon_net::{NatClass, NatType, NetConfig};
use nylon_obs::MetricValue;
use nylon_workloads::runner::build;
use nylon_workloads::scenario::Scenario;

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
    // The exhaustive bootstrap is O(n²) — the sparse variant draws the
    // same uniform public contacts in O(per_view) per peer.
    eng.bootstrap_random_public_sparse(8);
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
/// expiry cadence. Capacity must track the *live* routes: at most three
/// packed slots per live entry, and no more than 13 KiB of slots per node.
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
    assert!(slots <= 3 * entries, "{slots} slots for {entries} live routes");
    assert_eq!(gauge("slot_bytes"), slots * RoutingTable::SLOT_BYTES as u64);
    let per_node = gauge("slot_bytes") / PEERS;
    assert!(per_node <= 13 * 1024, "{per_node} B of routing slots per node");
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
    const PEERS: u32 = 1_000_000;
    const ROUNDS: u64 = 10;
    const SHARDS: usize = 4;

    if let Ok(path) = std::env::var("NYLON_STATS") {
        if let Err(e) = nylon_obs::install(std::path::Path::new(&path)) {
            println!("[1M] stats sink disabled: {e}");
        }
    }

    let built = std::time::Instant::now();
    let mut eng = Sharded::<BaselineEngine>::with_seed(
        ShardedConfig::new(GossipConfig::default(), SHARDS),
        NetConfig::default(),
        0xC0FFEE,
    );
    for i in 0..PEERS {
        let class = if i % 10 < 3 {
            NatClass::Public
        } else {
            NatClass::Natted(NatType::PortRestrictedCone)
        };
        eng.add_peer(class);
    }
    eng.bootstrap_random_public_sparse(8);
    eng.start();
    println!("[1M] populated {PEERS} peers across {SHARDS} shards in {:.1?}", built.elapsed());

    let run = std::time::Instant::now();
    eng.run_rounds(ROUNDS);
    let wall = run.elapsed();

    let stats = eng.stats();
    let events = eng.events_processed();
    let rate = events as f64 / wall.as_secs_f64();
    println!(
        "[1M] {ROUNDS} rounds in {wall:.1?}: {events} events ({rate:.0} events/s), \
         {} shuffles initiated",
        stats.initiated
    );
    match nylon_obs::process::peak_rss_bytes() {
        Some(bytes) => println!("[1M] peak RSS {:.2} GiB", bytes as f64 / (1u64 << 30) as f64),
        None => println!("[1M] peak RSS unavailable (no /proc/self/status)"),
    }
    if nylon_obs::is_active() {
        let mut r = nylon_obs::Report::new();
        eng.obs_report(&mut r);
        nylon_obs::merge_report(&r);
        nylon_obs::final_snapshot();
    }

    // 1M peers x 10 rounds: effectively every round initiates.
    assert!(stats.initiated > 9_500_000, "too few shuffles at scale: {}", stats.initiated);
    assert!(stats.responses_received > 0, "push/pull must complete at scale");
}
