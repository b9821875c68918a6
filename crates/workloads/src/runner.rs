//! Engine construction, snapshot extraction and multi-seed fan-out —
//! one generic code path over [`PeerSampler`] for every engine.
//!
//! `build(&scenario, GossipConfig::default())` yields a baseline engine,
//! `build(&scenario, NylonConfig::default())` a Nylon one, and any future
//! sampler joins the whole pipeline by implementing the trait. The
//! overlay/staleness metrics ask the engine's
//! [`edge_usable`](PeerSampler::edge_usable) oracle, which is where the
//! baseline-vs-Nylon reachability difference lives.

use nylon_faults::{FaultConfig, FaultPlan};
use nylon_gossip::{PeerSampler, SamplerConfig};
use nylon_metrics::graph::WccScratch;
use nylon_metrics::staleness::StalenessReport;
use nylon_net::{NetConfig, PeerId};
use nylon_sim::SimRng;

use crate::scenario::Scenario;

/// Natted peers granted UPnP forwarding under the scenario's adoption
/// fraction: a deterministic subset drawn from the scenario seed.
fn upnp_peers(scn: &Scenario) -> Vec<bool> {
    let mut rng = SimRng::new(scn.seed).fork(0x7570_6E70); // "upnp"
    scn.classes().iter().map(|c| c.is_natted() && rng.chance(scn.upnp_adoption)).collect()
}

/// Builds, bootstraps and starts an engine for a scenario over the default
/// network fabric. The engine type follows from the config:
/// [`nylon_gossip::GossipConfig`] builds the baseline,
/// [`nylon::NylonConfig`] builds Nylon, [`nylon::StaticRvpConfig`] the
/// static-RVP strawman.
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`].
pub fn build<C: SamplerConfig>(scn: &Scenario, cfg: C) -> C::Sampler {
    build_with_net(scn, cfg, NetConfig::default())
}

/// [`build`] over a custom network fabric (loss injection, alternative NAT
/// rule lifetimes).
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`].
pub fn build_with_net<C: SamplerConfig>(scn: &Scenario, cfg: C, net_cfg: NetConfig) -> C::Sampler {
    build_with_plan(scn, cfg, net_cfg, compiled_plan(scn))
}

/// The fault plan a scenario's [`Scenario::faults`] spec compiles to, if
/// any. `None` (or an effect-free spec) yields `None`, so fault-free
/// builds take the exact pre-fault-plane code path.
fn compiled_plan(scn: &Scenario) -> Option<FaultPlan> {
    let spec = scn.faults?;
    if spec.is_none() {
        return None;
    }
    let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), scn.seed, &scn.classes());
    (!plan.is_noop()).then_some(plan)
}

/// [`build`] with a fault plan compiled from an explicit [`FaultConfig`]
/// (custom intensities — rebind rate, crash fraction, flap period), over
/// the default network fabric. The `resilience` artifact's sweeps go
/// through here.
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`].
pub fn build_with_faults<C: SamplerConfig>(
    scn: &Scenario,
    cfg: C,
    fault_cfg: &FaultConfig,
) -> C::Sampler {
    let plan = FaultPlan::compile(fault_cfg, scn.seed, &scn.classes());
    build_with_plan(scn, cfg, NetConfig::default(), (!plan.is_noop()).then_some(plan))
}

/// [`build_with_net`] with an explicit, already-compiled fault plan
/// (`None` for a clean run). The plan installs after the population and
/// any UPnP grants exist — its topology faults (stacked CGN, hairpin)
/// must rewrite final NAT stacks — and before bootstrap, so descriptors
/// advertise post-CGN identities.
///
/// # Panics
///
/// Panics if the scenario fails [`Scenario::validate`].
pub fn build_with_plan<C: SamplerConfig>(
    scn: &Scenario,
    mut cfg: C,
    net_cfg: NetConfig,
    plan: Option<FaultPlan>,
) -> C::Sampler {
    if let Err(e) = scn.validate() {
        panic!("invalid scenario: {e}");
    }
    cfg.set_view_size(scn.view_size);
    let mut eng = C::Sampler::with_seed(cfg, net_cfg, scn.seed);
    for class in scn.classes() {
        eng.add_peer(class);
    }
    if scn.upnp_adoption > 0.0 {
        for (i, enabled) in upnp_peers(scn).iter().enumerate() {
            if *enabled {
                eng.enable_port_forwarding(PeerId(i as u32));
            }
        }
    }
    if let Some(plan) = plan {
        eng.install_fault_plan(plan);
    }
    eng.bootstrap_random_public(scn.bootstrap_contacts);
    eng.start();
    eng
}

/// The *usable* edges of an engine's overlay: one `(holder, target)` pair
/// per view entry of an alive holder over which it could communicate right
/// now, per the engine's [`edge_usable`](PeerSampler::edge_usable) oracle.
///
/// Stale entries are excluded: a reference the holder cannot use does not
/// keep the overlay connected. This matches the paper's reading of
/// "network partitions" — its Section 3 explains the surviving clusters as
/// groups of peers that keep their mutual NAT holes alive by shuffling
/// with each other within the filter-rule lifetime.
///
/// The cluster snapshot, the in-degree counts and the adjacency metrics
/// (`ext-indegree`'s [`nylon_metrics::UndirectedCsr`]) read the views
/// through this one loop, generic over the engine so the oracle is a
/// static call per edge.
pub fn usable_edges<S: PeerSampler>(eng: &S) -> impl Iterator<Item = (u32, u32)> + '_ {
    (0..eng.peer_count() as u32).map(PeerId).filter(|&p| eng.is_alive(p)).flat_map(move |p| {
        eng.view_of(p).iter().filter(move |d| eng.edge_usable(p, d)).map(move |d| (p.0, d.id.0))
    })
}

/// Usable in-degree of every peer (alive or dead): how many usable view
/// entries of alive holders point at it.
pub fn usable_in_degrees<S: PeerSampler>(eng: &S) -> Vec<u32> {
    let mut counts = vec![0u32; eng.peer_count()];
    for (_, target) in usable_edges(eng) {
        counts[target as usize] += 1;
    }
    counts
}

/// Reusable buffers for per-round cluster snapshots: the alive mask and
/// the union-find arrays, 9 bytes a peer and nothing per edge, survive
/// between snapshots, so a measurement loop (one snapshot per round
/// checkpoint in the experiment executor) allocates nothing.
#[derive(Debug, Default)]
pub struct SnapshotScratch {
    /// The alive mask of the latest snapshot.
    pub alive: Vec<bool>,
    /// Union-find scratch the usable edges stream into.
    pub wcc: WccScratch,
}

impl SnapshotScratch {
    /// Empty scratch; buffers grow to the working size on first use.
    pub fn new() -> Self {
        SnapshotScratch::default()
    }
}

/// Biggest weakly-connected cluster as a percentage of alive peers
/// (Figure 2 / Figure 10 y-axis).
pub fn biggest_cluster_pct<S: PeerSampler>(eng: &S) -> f64 {
    biggest_cluster_pct_with(eng, &mut SnapshotScratch::new())
}

/// [`biggest_cluster_pct`] over caller-provided scratch — the per-round
/// snapshot path of the experiment executor and the ledger (`benchmark/`).
/// The usable edges stream from the views into union-find; no graph is
/// built.
pub fn biggest_cluster_pct_with<S: PeerSampler>(eng: &S, scratch: &mut SnapshotScratch) -> f64 {
    scratch.alive.clear();
    scratch.alive.extend((0..eng.peer_count()).map(|i| eng.is_alive(PeerId(i as u32))));
    let alive_count = scratch.alive.iter().filter(|a| **a).count();
    if alive_count == 0 {
        return 0.0;
    }
    let biggest = scratch.wcc.biggest_component(&scratch.alive, usable_edges(eng));
    100.0 * (biggest as f64 / alive_count as f64)
}

/// Staleness report for an engine, using its
/// [`edge_usable`](PeerSampler::edge_usable) oracle: for the baseline that
/// is the network's packet-level reachability, for Nylon the routing table
/// (a natted reference is usable when a live route towards it exists —
/// reachability through relays is the protocol's whole point).
pub fn staleness<S: PeerSampler>(eng: &S) -> StalenessReport {
    let peers = eng.alive_peers();
    StalenessReport::compute(peers.iter().map(|p| (*p, eng.view_of(*p).as_slice())), |holder, d| {
        eng.edge_usable(holder, d)
    })
}

/// Derives `count` seeds from a base seed.
pub fn seeds(count: u64, base: u64) -> Vec<u64> {
    (0..count)
        .map(|i| base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i * 1_000_003 + 1))
        .collect()
}

/// Renders a panic payload (as caught by `catch_unwind` / `join`) for
/// error messages.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon::{NylonConfig, NylonEngine, StaticRvpConfig};
    use nylon_gossip::{BaselineEngine, GossipConfig, PeerSwapConfig};

    fn scn(peers: usize, nat_pct: f64, seed: u64) -> Scenario {
        Scenario::new(peers, nat_pct, seed)
    }

    #[test]
    fn baseline_cluster_healthy_without_nats() {
        let mut eng: BaselineEngine = build(&scn(80, 0.0, 1), GossipConfig::default());
        eng.run_rounds(30);
        let pct = biggest_cluster_pct(&eng);
        assert!(pct > 99.0, "all-public overlay must stay connected, got {pct}");
        let stale = staleness(&eng);
        assert!(stale.stale_pct < 1.0, "no NATs, no staleness, got {}", stale.stale_pct);
    }

    #[test]
    fn baseline_degrades_with_nats() {
        let mut eng: BaselineEngine = build(&scn(80, 80.0, 1), GossipConfig::default());
        eng.run_rounds(60);
        let stale = staleness(&eng);
        assert!(
            stale.stale_pct > 10.0,
            "80% PRC NATs must produce stale references, got {}",
            stale.stale_pct
        );
    }

    #[test]
    fn nylon_stays_clean_with_nats() {
        let mut eng: NylonEngine = build(&scn(80, 80.0, 1), NylonConfig::default());
        eng.run_rounds(60);
        let pct = biggest_cluster_pct(&eng);
        assert!(pct > 95.0, "Nylon must stay connected under NATs, got {pct}");
        let stale = staleness(&eng);
        assert!(stale.stale_pct < 5.0, "Nylon views must stay fresh, got {}", stale.stale_pct);
    }

    /// Biggest cluster of the usable overlay by breadth-first search over
    /// an adjacency list of the alive peers: the oracle the streamed
    /// union-find snapshot is held to.
    fn bfs_biggest_cluster<S: PeerSampler>(eng: &S) -> usize {
        let n = eng.peer_count();
        let alive = |p: u32| eng.is_alive(PeerId(p));
        let mut adj = vec![Vec::new(); n];
        for (a, b) in usable_edges(eng).filter(|&(a, b)| alive(a) && alive(b)) {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        let mut seen = vec![false; n];
        let mut biggest = 0;
        for src in (0..n as u32).filter(|&p| alive(p)) {
            if std::mem::replace(&mut seen[src as usize], true) {
                continue;
            }
            let (mut queue, mut size) = (vec![src], 0);
            while let Some(u) = queue.pop() {
                size += 1;
                for &v in &adj[u as usize] {
                    if !std::mem::replace(&mut seen[v as usize], true) {
                        queue.push(v);
                    }
                }
            }
            biggest = biggest.max(size);
        }
        biggest
    }

    /// The streamed snapshot through a reused scratch equals a fresh one
    /// and a BFS over the usable overlay, before and after a kill wave;
    /// the in-degrees count every usable edge and none at a dead peer.
    fn snapshot_paths_agree<C: SamplerConfig>(cfg: C) {
        let mut eng = build(&scn(60, 70.0, 3), cfg);
        let mut scratch = SnapshotScratch::new();
        for step in 0..6 {
            if step == 3 {
                let wave: Vec<PeerId> = (0..60).step_by(3).map(PeerId).collect();
                eng.kill_peers(&wave);
            }
            eng.run_rounds(4);
            let fresh = biggest_cluster_pct(&eng);
            let reused = biggest_cluster_pct_with(&eng, &mut scratch);
            assert_eq!(fresh, reused, "scratch path diverged from the fresh path");
            let alive = eng.alive_peers().len();
            assert_eq!(reused, 100.0 * (bfs_biggest_cluster(&eng) as f64 / alive as f64));
            assert_eq!(scratch.alive.iter().filter(|a| **a).count(), alive);
            assert_eq!(alive, if step < 3 { 60 } else { 40 });
            let degrees = usable_in_degrees(&eng);
            assert_eq!(degrees.iter().sum::<u32>() as usize, usable_edges(&eng).count());
            assert!((0..60).step_by(3).all(|p| step < 3 || degrees[p] == 0));
        }
    }

    #[test]
    fn scratch_snapshot_matches_fresh_snapshot() {
        snapshot_paths_agree(GossipConfig::default());
        snapshot_paths_agree(NylonConfig::default());
        snapshot_paths_agree(StaticRvpConfig::default());
        snapshot_paths_agree(PeerSwapConfig::default());
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn build_rejects_invalid_scenarios() {
        let bad = Scenario { view_size: 0, ..scn(40, 50.0, 1) };
        let _: BaselineEngine = build(&bad, GossipConfig::default());
    }

    #[test]
    fn seeds_are_distinct() {
        let s = seeds(10, 42);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
        assert_eq!(seeds(10, 42), s, "seed derivation must be deterministic");
    }
}
