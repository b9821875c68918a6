//! Memory probe: prints the process' resident set (`VmRSS`) and its peak
//! so far (`VmHWM`) after every lifecycle stage of one population —
//! construct, `add_peer`, bootstrap, start, every 12th of 144 rounds, and
//! the cluster + staleness snapshot — beside the owners the engine's
//! telemetry names: the bytes of the event queue's block arena
//! (`kernel/wheel_slot_bytes`) beside the events queued in its wheel (Σ
//! `kernel/wheel_l*_events`, in thousands, so bytes per queued event
//! read off), of view slots (`view/slot_bytes`) and of
//! routing slots (`routing/slot_bytes`, Nylon only), and the NAT-session
//! map slots beside the sessions they hold (`net/nat_session_slots` and
//! `net/nat_sessions`, in thousands, so slots per session read off), and
//! every byte of the NAT boxes themselves (`net/nat_box_bytes`: inline,
//! session maps and the rarer tables).
//! `VmHWM` shows what `VmRSS` cannot: a transient that rose and was freed
//! between two stages (a stage whose `VmHWM` rises above the previous
//! stage's peaked inside it). The stage tables in README "Per-node
//! footprint" come from it:
//!
//! ```text
//! cargo run --release --example footprint -- baseline 200000 2
//! ```
//!
//! `<protocol>` is `baseline | nylon | static-rvp | peerswap`; `<workers>`
//! 0 lets the engine size itself, N builds it on N workers —
//! the same simulation either way, a different footprint. The engine
//! records its set-up until `start`, so the population is built — on
//! every worker at once, each holding the peers it owns plus a ≈ 12-byte
//! address-plan entry for each of the others — in the start stage; the
//! owner columns read `-` until then. The population is the ledger's
//! (70 % NAT, seed 5).

use nylon::{NylonConfig, StaticRvpConfig};
use nylon_gossip::{
    with_workers, GossipConfig, PeerSampler, PeerSwapConfig, SamplerConfig, Workers,
};
use nylon_net::NetConfig;
use nylon_obs::{MetricValue, Report};
use nylon_sim::ShardPlan;
use nylon_workloads::{runner, Scenario};

/// Prints `VmRSS`, `VmHWM` and the owner gauges. `eng` is `None` while the
/// engine only records its set-up: querying it would build it early.
fn stage<S: PeerSampler>(name: &str, eng: Option<&S>) {
    let mib = |bytes: u64| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));
    let rss = nylon_obs::process::rss_bytes().map_or("?".to_string(), mib);
    let hwm = nylon_obs::process::peak_rss_bytes().map_or("?".to_string(), mib);
    let mut report = Report::new();
    if let Some(eng) = eng {
        eng.obs_report(&mut report);
    }
    let gauge = |layer: &str, metric: &str| match report.get(layer, metric) {
        Some(MetricValue::Gauge(v)) => Some(*v),
        _ => None,
    };
    let dash = || "-".to_string();
    let wheel = gauge("kernel", "wheel_slot_bytes").map_or_else(dash, mib);
    let thousands = |n: u64| format!("{:.0}", n as f64 / 1e3);
    let levels: Option<Vec<u64>> =
        (0..4).map(|l| gauge("kernel", &format!("wheel_l{l}_events"))).collect();
    let queued = levels.map(|n| n.iter().sum()).map_or_else(dash, thousands);
    let view = gauge("view", "slot_bytes").map_or_else(dash, mib);
    let routing = gauge("routing", "slot_bytes").map_or_else(dash, mib);
    let nat = gauge("net", "nat_session_slots").map_or_else(dash, thousands);
    let sessions = gauge("net", "nat_sessions").map_or_else(dash, thousands);
    let boxes = gauge("net", "nat_box_bytes").map_or_else(dash, mib);
    println!(
        "{name:<14} {rss:>9} {hwm:>9} {wheel:>9} {queued:>9} {view:>9} {routing:>9} {nat:>9} \
         {sessions:>9} {boxes:>9}"
    );
}

fn probe<C: SamplerConfig>(cfg: C, peers: usize) {
    let scn = Scenario::new(peers, 70.0, 5);
    let mut eng = C::Sampler::with_seed(cfg, NetConfig::default(), scn.seed);
    let unbuilt: Option<&C::Sampler> = None;
    let columns = [
        "stage",
        "VmRSS",
        "VmHWM",
        "wheel",
        "queued",
        "view",
        "routing",
        "NAT",
        "sessions",
        "NAT boxes",
    ];
    let units = ["", "MiB", "MiB", "MiB", "k", "MiB", "MiB", "k slots", "k", "MiB"];
    for [a, b, c, d, e, f, g, h, i, j] in [columns, units] {
        println!("{a:<14} {b:>9} {c:>9} {d:>9} {e:>9} {f:>9} {g:>9} {h:>9} {i:>9} {j:>9}");
    }
    stage("construct", unbuilt);
    for class in scn.classes() {
        eng.add_peer(class);
    }
    stage("add_peer", unbuilt);
    eng.bootstrap_random_public(scn.bootstrap_contacts);
    stage("bootstrap", unbuilt);
    eng.start();
    stage("start", Some(&eng));
    for round in (12..=144).step_by(12) {
        eng.run_rounds(12);
        stage(&format!("round {round}"), Some(&eng));
    }
    let (cluster, stale) = (runner::biggest_cluster_pct(&eng), runner::staleness(&eng).stale_pct);
    stage("snapshot", Some(&eng));
    println!("biggest cluster {cluster:.2} %, stale references {stale:.2} %");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed: Option<(&String, (usize, usize))> = match args.as_slice() {
        [proto, peers, workers] => peers.parse().ok().zip(workers.parse().ok()).map(|n| (proto, n)),
        _ => None,
    };
    let Some((proto, (peers, workers))) = parsed else {
        eprintln!("usage: footprint <baseline|nylon|static-rvp|peerswap> <peers> <workers>");
        std::process::exit(1);
    };
    let scope = match workers {
        0 => Workers::OneOf(1),
        n => Workers::Plan(ShardPlan::round_robin(n)),
    };
    with_workers(scope, || match proto.as_str() {
        "baseline" => probe(GossipConfig::default(), peers),
        "nylon" => probe(NylonConfig::default(), peers),
        "static-rvp" => probe(StaticRvpConfig::default(), peers),
        "peerswap" => probe(PeerSwapConfig::default(), peers),
        other => panic!("unknown protocol {other}"),
    });
}
