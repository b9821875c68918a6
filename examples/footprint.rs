//! Memory probe: prints the process' resident set (`VmRSS`, MiB) after
//! every lifecycle stage of one population — construct, `add_peer`,
//! bootstrap, start, every 12th of 144 rounds, and the cluster + staleness
//! snapshot. The stage tables in README "Per-node footprint" come from it:
//!
//! ```text
//! cargo run --release --example footprint -- baseline 200000 2
//! ```
//!
//! `<protocol>` is `baseline | nylon | static-rvp | peerswap`; `<shards>`
//! 0 is the bare engine, N a `Sharded` run of N workers — the same
//! simulation either way, a different footprint. The population is the
//! ledger's (70 % NAT, seed 5).

use nylon::{NylonConfig, StaticRvpConfig};
use nylon_gossip::{GossipConfig, PeerSampler, PeerSwapConfig, SamplerConfig, ShardedConfig};
use nylon_net::NetConfig;
use nylon_workloads::{runner, Scenario};

fn stage(name: &str) {
    let rss = nylon_obs::process::rss_bytes().map_or(f64::NAN, |b| b as f64);
    println!("{name:<14} {:>9.1} MiB", rss / (1024.0 * 1024.0));
}

fn probe<C: SamplerConfig>(cfg: C, peers: usize) {
    let scn = Scenario::new(peers, 70.0, 5);
    let mut eng = C::Sampler::with_seed(cfg, NetConfig::default(), scn.seed);
    stage("construct");
    for class in scn.classes() {
        eng.add_peer(class);
    }
    stage("add_peer");
    eng.bootstrap_random_public(scn.bootstrap_contacts);
    stage("bootstrap");
    eng.start();
    stage("start");
    for round in (12..=144).step_by(12) {
        eng.run_rounds(12);
        stage(&format!("round {round}"));
    }
    let (cluster, stale) = (runner::biggest_cluster_pct(&eng), runner::staleness(&eng).stale_pct);
    stage("snapshot");
    println!("biggest cluster {cluster:.2} %, stale references {stale:.2} %");
}

/// One protocol as a bare engine (`shards` 0) or under `Sharded`.
macro_rules! on_shards {
    ($cfg:expr, $peers:expr, $shards:expr) => {
        match $shards {
            0 => probe($cfg, $peers),
            s => probe(ShardedConfig::new($cfg, s), $peers),
        }
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed: Option<(&String, (usize, usize))> = match args.as_slice() {
        [proto, peers, shards] => peers.parse().ok().zip(shards.parse().ok()).map(|n| (proto, n)),
        _ => None,
    };
    let Some((proto, (peers, shards))) = parsed else {
        eprintln!("usage: footprint <baseline|nylon|static-rvp|peerswap> <peers> <shards>");
        std::process::exit(1);
    };
    match proto.as_str() {
        "baseline" => on_shards!(GossipConfig::default(), peers, shards),
        "nylon" => on_shards!(NylonConfig::default(), peers, shards),
        "static-rvp" => on_shards!(StaticRvpConfig::default(), peers, shards),
        "peerswap" => on_shards!(PeerSwapConfig::default(), peers, shards),
        other => panic!("unknown protocol {other}"),
    }
}
