//! One kernel, per protocol, below the figure layer: an `Engine<P>` on any
//! number of lockstep workers, under any node→worker map, must end in the
//! same state as on one — protocol counters, every view, every peer's
//! traffic and the fault counters — whether the run is one
//! `run_rounds(k)` or `k × run_rounds(1)`, and whether the engine sized
//! itself or was built under a fixed plan ([`Workers::Plan`]).

use nylon::{NylonConfig, StaticRvpConfig};
use nylon_faults::{FaultSpec, FaultStats};
use nylon_gossip::{
    auto_workers, with_workers, Engine, GossipConfig, NodeDescriptor, PeerSampler, PeerSwapConfig,
    Protocol, SamplerConfig, Workers,
};
use nylon_net::{NetConfig, PeerId, TrafficStats};
use nylon_obs::{MetricValue, Report};
use nylon_sim::{ShardAssign, ShardPlan, SimDuration};
use nylon_workloads::runner::{build, build_with_net};
use nylon_workloads::scenario::Scenario;

const PEERS: usize = 200;

/// `f` with its engines on `shards` workers under `assign`.
fn on<R>(shards: usize, assign: ShardAssign, f: impl FnOnce() -> R) -> R {
    with_workers(Workers::Plan(ShardPlan::new(shards, assign)), f)
}

/// Everything the contract compares, peers in id order.
#[derive(Debug, PartialEq)]
struct Outcome {
    counters: String,
    views: Vec<Vec<NodeDescriptor>>,
    traffic: Vec<TrafficStats>,
    faults: FaultStats,
}

/// One scenario of the contract: `peers` at 70 % NAT (paper mix) over
/// `net`, optionally under a fault plan and a 30 % kill wave.
struct Case {
    peers: usize,
    net: NetConfig,
    faults: Option<&'static str>,
    rounds: u64,
    kill_at: Option<u64>,
}

fn run<C, P>(case: &Case, cfg: C, stepwise: bool) -> Outcome
where
    C: SamplerConfig<Sampler = Engine<P>>,
    P: Protocol,
{
    let peers = case.peers;
    let scn = Scenario {
        faults: case.faults.map(|s| FaultSpec::parse(s).expect("valid fault spec")),
        ..Scenario::new(peers, 70.0, 5)
    };
    let mut eng = build_with_net(&scn, cfg, case.net.clone());
    let drive = |eng: &mut Engine<P>, k: u64| {
        if stepwise {
            (0..k).for_each(|_| eng.run_rounds(1));
        } else {
            eng.run_rounds(k);
        }
    };
    let first = case.kill_at.unwrap_or(case.rounds);
    drive(&mut eng, first);
    if case.kill_at.is_some() {
        let victims: Vec<PeerId> = (0..peers as u32).filter(|i| i % 10 < 3).map(PeerId).collect();
        eng.kill_peers(&victims);
        drive(&mut eng, case.rounds - first);
    }
    let peers = || (0..peers as u32).map(PeerId);
    Outcome {
        counters: format!("{:?}", eng.stats()),
        views: peers().map(|p| eng.view_of(p).iter().copied().collect()).collect(),
        traffic: peers().map(|p| eng.traffic_of(p)).collect(),
        faults: eng.fault_stats(),
    }
}

/// Holds `cfg`'s engine to the contract over the three scenarios.
/// `tiny_cfg` is the same protocol at a 200 ms period, for the network
/// whose lockstep tick is 1 ms.
fn engine_alone_equals_every_sharding<C, P>(cfg: C, tiny_cfg: C)
where
    C: SamplerConfig<Sampler = Engine<P>>,
    P: Protocol,
{
    let paper = NetConfig::default;
    let cases = [
        (
            "steady",
            Case { peers: PEERS, net: paper(), faults: None, rounds: 30, kill_at: None },
            &cfg,
        ),
        (
            "faults + kill wave",
            Case {
                peers: PEERS,
                net: paper(),
                faults: Some("rebind,flap,loss-burst,harden,cgn"),
                rounds: 30,
                kill_at: Some(15),
            },
            &cfg,
        ),
        (
            // 2 ms ± 1 ms: thousands of 1 ms ticks, every flight landing a
            // tick or two after its send, the jittered per-peer RNG live.
            "tiny tick",
            Case {
                peers: PEERS,
                net: NetConfig {
                    latency: SimDuration::from_millis(2),
                    latency_jitter: SimDuration::from_millis(1),
                    ..paper()
                },
                faults: None,
                rounds: 25,
                kill_at: None,
            },
            &tiny_cfg,
        ),
    ];
    for (name, case, cfg) in &cases {
        let alone = run(case, (*cfg).clone(), false);
        assert!(alone.traffic.iter().any(|t| t.bytes_sent > 0), "{name}: nothing was sent");
        assert_eq!(run(case, (*cfg).clone(), true), alone, "{name}: alone, round by round");
        let layouts = [
            (1, ShardAssign::RoundRobin),
            (3, ShardAssign::RoundRobin),
            (3, ShardAssign::AllOnOne),
            (3, ShardAssign::Random(9)),
        ];
        for (shards, assign) in layouts {
            for stepwise in [false, true] {
                assert_eq!(
                    on(shards, assign, || run(case, (*cfg).clone(), stepwise)),
                    alone,
                    "{name}: S = {shards} {assign:?}, stepwise {stepwise}"
                );
            }
        }
    }
}

/// Every view after bootstrap and `rounds` rounds, as ids in view order.
fn views_after<C: SamplerConfig>(cfg: C, nat_pct: f64, rounds: u64) -> Vec<Vec<PeerId>> {
    let mut eng = build(&Scenario::new(PEERS, nat_pct, 5), cfg);
    eng.run_rounds(rounds);
    (0..PEERS as u32).map(|p| eng.view_of(PeerId(p)).ids()).collect()
}

/// A peer's bootstrap contacts come from its own stream, whichever worker
/// owns it — also in Nylon's all-natted fallback, where each join opens
/// NAT holes on the joiner's worker and the contact's in turn (the rounds
/// after it run through those holes).
#[test]
fn bootstrap_contacts_are_the_same_at_shards_1_2_4() {
    fn check<C: SamplerConfig>(cfg: C, nat_pct: f64, rounds: u64) {
        let alone = views_after(cfg.clone(), nat_pct, rounds);
        assert!(alone.iter().all(|v| !v.is_empty()), "a view was left empty");
        for shards in [1, 2, 4] {
            let sharded =
                on(shards, ShardAssign::RoundRobin, || views_after(cfg.clone(), nat_pct, rounds));
            assert_eq!(sharded, alone, "S = {shards}, {nat_pct} % NAT, {rounds} rounds");
        }
    }
    check(GossipConfig::default(), 70.0, 0);
    check(PeerSwapConfig::default(), 70.0, 0);
    check(StaticRvpConfig::default(), 70.0, 0);
    check(NylonConfig::default(), 70.0, 0);
    check(NylonConfig::default(), 100.0, 0);
    check(NylonConfig::default(), 100.0, 5);
}

/// At 10 000 peers an engine sizes itself to two workers on a two-core
/// host: for every protocol, in a clean run and under faults plus a kill
/// wave, that build ends three rounds in the state a one-worker build
/// does.
#[test]
fn auto_sized_build_is_the_one_worker_run_at_ten_thousand_peers() {
    fn check<C, P>(cfg: C)
    where
        C: SamplerConfig<Sampler = Engine<P>>,
        P: Protocol,
    {
        let cases = [
            Case {
                peers: 10_000,
                net: NetConfig::default(),
                faults: None,
                rounds: 3,
                kill_at: None,
            },
            Case {
                peers: 10_000,
                net: NetConfig::default(),
                faults: Some("rebind,flap,loss-burst,harden,cgn"),
                rounds: 3,
                kill_at: Some(2),
            },
        ];
        for case in &cases {
            let auto = run(case, cfg.clone(), false);
            let one = on(1, ShardAssign::RoundRobin, || run(case, cfg.clone(), false));
            assert_eq!(auto, one, "{:?}", case.faults);
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let eng = build(&Scenario::new(10_000, 70.0, 5), cfg);
        assert_eq!(eng.worker_count(), auto_workers(10_000, cores, 1));
    }
    check(GossipConfig::default());
    check(PeerSwapConfig::default());
    check(StaticRvpConfig::default());
    check(NylonConfig::default());
}

const TINY_PERIOD: SimDuration = SimDuration::from_millis(200);

#[test]
fn baseline_alone_is_the_one_shard_case() {
    let tiny = GossipConfig { shuffle_period: TINY_PERIOD, ..GossipConfig::default() };
    engine_alone_equals_every_sharding(GossipConfig::default(), tiny);
}

#[test]
fn nylon_alone_is_the_one_shard_case() {
    let tiny = NylonConfig {
        shuffle_period: TINY_PERIOD,
        punch_timeout: SimDuration::from_millis(80),
        ..NylonConfig::default()
    };
    engine_alone_equals_every_sharding(NylonConfig::default(), tiny);
}

#[test]
fn static_rvp_alone_is_the_one_shard_case() {
    let tiny = StaticRvpConfig { shuffle_period: TINY_PERIOD, ..StaticRvpConfig::default() };
    engine_alone_equals_every_sharding(StaticRvpConfig::default(), tiny);
}

#[test]
fn peerswap_alone_is_the_one_shard_case() {
    let tiny = PeerSwapConfig { shuffle_period: TINY_PERIOD, ..PeerSwapConfig::default() };
    engine_alone_equals_every_sharding(PeerSwapConfig::default(), tiny);
}

/// Every name a counter set reports, pinned per layer: the stats ledger
/// and `repro stats-report` look counters up by name, so a renamed field
/// would read as 0 there instead of failing to build.
#[test]
fn counter_sets_report_their_pinned_names() {
    fn counters<C: SamplerConfig>(cfg: C) -> Report {
        let scn = Scenario {
            faults: Some(FaultSpec::parse("rebind,flap,loss-burst,harden,cgn").expect("valid")),
            ..Scenario::new(60, 70.0, 5)
        };
        let mut eng = build(&scn, cfg);
        eng.run_rounds(5);
        let mut out = Report::new();
        eng.obs_report(&mut out);
        out
    }
    /// The counter names under `layer` that start with `prefix`, sorted.
    fn names(out: &Report, layer: &str, prefix: &str) -> Vec<String> {
        out.iter()
            .filter(|(l, m, v)| {
                *l == layer && m.starts_with(prefix) && matches!(v, MetricValue::Counter(_))
            })
            .map(|(_, m, _)| m.to_string())
            .collect()
    }
    fn sorted(list: &[&str]) -> Vec<String> {
        let mut v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        v.sort();
        v
    }
    let engines = [
        (
            "engine.baseline",
            counters(GossipConfig::default()),
            &["shuffles_initiated", "empty_view_rounds", "requests_received", "responses_received"]
                [..],
        ),
        (
            "engine.peerswap",
            counters(PeerSwapConfig::default()),
            &[
                "swaps_initiated",
                "empty_view_rounds",
                "requests_received",
                "responses_received",
                "swaps_unanswered",
            ],
        ),
        (
            "engine.nylon",
            counters(NylonConfig::default()),
            &[
                "shuffles_initiated",
                "empty_view_rounds",
                "direct_requests",
                "relayed_requests",
                "hole_punches",
                "punch_successes",
                "punch_timeouts",
                "routes_missing",
                "rvp_forwards",
                "rvp_forward_failures",
                "requests_completed",
                "responses_completed",
                "pongs_sent",
                "chain_hops_sum",
                "chain_samples",
                "routes_installed",
                "route_ttl_expiries",
                "punch_retries",
                "punch_retry_wins",
                "stale_repunches",
            ],
        ),
        (
            "engine.static_rvp",
            counters(StaticRvpConfig::default()),
            &[
                "shuffles_initiated",
                "empty_view_rounds",
                "rvp_relays",
                "rvp_relay_failures",
                "pings_sent",
                "requests_completed",
                "responses_completed",
                "rebinds",
                "rvp_failovers",
            ],
        ),
    ];
    let shared: [(&str, &str, &[&str]); 5] = [
        (
            "faults",
            "",
            &[
                "rebinds",
                "crashes",
                "revives",
                "loss_bursts",
                "partitions",
                "planned_events",
                "cgn_stacked",
                "hairpin_enabled",
            ],
        ),
        ("kernel", "pool_", &["pool_acquired", "pool_recycled", "pool_released"]),
        ("net", "bytes_", &["bytes_sent", "bytes_received"]),
        ("net", "datagrams_", &["datagrams_sent", "datagrams_received"]),
        (
            "net",
            "drop",
            &[
                "drop_loss",
                "drop_no_route",
                "drop_target_dead",
                "drop_source_dead",
                "drop_no_mapping",
                "drop_filtered",
                "drop_hairpin_blocked",
                "drop_fault_loss",
                "drop_partitioned",
                "drops_total",
            ],
        ),
    ];
    for (engine, out, own) in &engines {
        assert_eq!(names(out, engine, ""), sorted(own), "{engine}");
        for (layer, prefix, expected) in &shared {
            assert_eq!(names(out, layer, prefix), sorted(expected), "{engine}: {layer}/{prefix}*");
        }
    }
}
