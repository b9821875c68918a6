//! The engine-agnostic peer-sampling interface.
//!
//! Every sampling engine in this workspace — the NAT-oblivious
//! [`BaselineEngine`](crate::BaselineEngine), Nylon itself, and the
//! static-RVP strawman — exposes the same lifecycle: construct from a
//! config and a seed, add the population, bootstrap, start, run, observe
//! views. [`PeerSampler`] captures that lifecycle so the experiment
//! harness can build, drive and measure any engine through one generic
//! code path, and so third protocol variants (e.g. PeerSwap-style samplers)
//! plug into the whole figure pipeline by implementing one trait.
//!
//! The one genuinely protocol-specific question a metric must ask is
//! *"could the holder of this view entry use it right now?"* — the
//! baseline answers with raw NAT reachability, Nylon with its routing
//! table (traversal through relays is its whole point). That difference is
//! the [`PeerSampler::edge_usable`] hook; everything else (overlay graphs,
//! cluster sizes, staleness reports, bandwidth accounting) is generic.

use nylon_net::{NatClass, NetConfig, PeerId, TrafficStats};
use nylon_sim::{SimDuration, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::engine::BaselineEngine;
use crate::policy::GossipConfig;
use crate::view::PartialView;

/// A protocol configuration that knows which sampling engine it builds.
///
/// The associated [`Sampler`](Self::Sampler) type is what lets the
/// experiment harness infer the engine from the config it is handed:
/// `build(&scenario, GossipConfig::default())` yields a
/// [`BaselineEngine`], `build(&scenario, NylonConfig::default())` a
/// `NylonEngine`.
pub trait SamplerConfig: Clone + Send + Sync + 'static {
    /// The engine this configuration builds.
    type Sampler: PeerSampler<Config = Self>;

    /// Overrides the partial-view capacity (every engine has one).
    fn set_view_size(&mut self, view_size: usize);

    /// Does nothing, and no config overrides it: every engine reads what
    /// it needs from the fabric's config when it is built. Kept for
    /// callers outside this workspace.
    #[doc(hidden)]
    fn align_to_net(&mut self, _net_cfg: &NetConfig) {}
}

/// A gossip-based peer-sampling engine over the simulated NAT-aware fabric.
///
/// The methods mirror [`Engine`](crate::Engine)'s inherent API one-to-one,
/// and its impl — the only engine-side one — is a pure forwarder. Generic
/// drivers (the experiment harness, metrics extraction) program against
/// this trait; code that needs a protocol-specific surface (Nylon's
/// routing tables, the baseline's shuffle counters) keeps using the
/// concrete type.
pub trait PeerSampler: Sized {
    /// The configuration that builds this engine.
    type Config: SamplerConfig<Sampler = Self>;

    /// Creates an engine; `seed` drives every random choice in the run.
    fn with_seed(cfg: Self::Config, net_cfg: NetConfig, seed: u64) -> Self;

    /// Adds a peer of the given NAT class and returns its id.
    fn add_peer(&mut self, class: NatClass) -> PeerId;

    /// Enables permanent UPnP/NAT-PMP port forwarding for a natted peer
    /// (no-op for public peers). Call before bootstrapping.
    fn enable_port_forwarding(&mut self, peer: PeerId);

    /// Installs a compiled fault plan: applies its topology faults (CGN
    /// stacking, hairpin enabling) immediately and schedules its timed
    /// events. Call after the population is added and before
    /// [`bootstrap_random_public`](Self::bootstrap_random_public), so
    /// bootstrap descriptors advertise post-CGN identities. Default:
    /// engines without fault support ignore the plan.
    fn install_fault_plan(&mut self, _plan: nylon_faults::FaultPlan) {}

    /// Counters of faults applied so far (each counted by one worker, so
    /// the sum over workers is the one-worker total).
    /// Default: no faults ever.
    fn fault_stats(&self) -> nylon_faults::FaultStats {
        nylon_faults::FaultStats::default()
    }

    /// Fills every view with up to `per_view` uniformly chosen public
    /// peers (the paper's bootstrap).
    fn bootstrap_random_public(&mut self, per_view: usize);

    /// [`bootstrap_random_public`](Self::bootstrap_random_public) under the
    /// name `benchmark/` still calls on the baseline: the O(`per_view`)
    /// bootstrap is the only one since PR 24.
    #[doc(hidden)]
    fn bootstrap_random_public_sparse(&mut self, per_view: usize) {
        self.bootstrap_random_public(per_view);
    }

    /// Schedules the first shuffle of every peer.
    fn start(&mut self);

    /// Runs the simulation for `dur` of virtual time.
    fn run_for(&mut self, dur: SimDuration);

    /// Runs for `n` shuffle periods.
    fn run_rounds(&mut self, n: u64);

    /// Kills a set of peers simultaneously (fail-stop churn).
    fn kill_peers(&mut self, peers: &[PeerId]);

    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// Interval between two shuffles initiated by one peer.
    fn shuffle_period(&self) -> SimDuration;

    /// Total number of peers ever added (alive or dead).
    fn peer_count(&self) -> usize;

    /// Whether a peer is alive.
    fn is_alive(&self, peer: PeerId) -> bool;

    /// A peer's NAT class.
    fn class_of(&self, peer: PeerId) -> NatClass;

    /// A peer's cumulative traffic counters.
    fn traffic_of(&self, peer: PeerId) -> TrafficStats;

    /// The alive peers, in id order.
    fn alive_peers(&self) -> Vec<PeerId>;

    /// The view of a peer (dead peers keep their last view).
    fn view_of(&self, peer: PeerId) -> &PartialView;

    /// Whether `holder` could communicate over this view entry *right
    /// now*: the target is alive and the protocol has a way to reach it.
    ///
    /// This is the baseline-vs-Nylon difference in one hook. The baseline
    /// addresses entries directly, so usability is raw packet-level NAT
    /// reachability; Nylon asks its routing table, because reaching natted
    /// peers through RVP chains is the protocol's point. Stale entries are
    /// excluded from overlay metrics via this oracle: a reference the
    /// holder cannot use does not keep the overlay connected (the paper's
    /// Section 3 reading of "network partitions").
    fn edge_usable(&self, holder: PeerId, descriptor: &NodeDescriptor) -> bool;

    /// Reports the engine's runtime telemetry (kernel, net, and
    /// engine-layer counters) into `out`. Called at cell boundaries by the
    /// experiment harness when `--stats` is active; never on a hot path.
    ///
    /// Implementations must only *read* state — reporting may not draw
    /// randomness or schedule events, so a run with stats on replays
    /// byte-identically. Default: nothing to report.
    fn obs_report(&self, _out: &mut nylon_obs::Report) {}
}

impl SamplerConfig for GossipConfig {
    type Sampler = BaselineEngine;

    fn set_view_size(&mut self, view_size: usize) {
        self.view_size = view_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::NatType;

    /// Drives an engine through its whole lifecycle using only the trait.
    fn drive<C: SamplerConfig>(cfg: C, seed: u64) -> C::Sampler {
        let mut eng = C::Sampler::with_seed(cfg, NetConfig::default(), seed);
        for _ in 0..20 {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..20 {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(20);
        eng
    }

    #[test]
    fn baseline_implements_the_lifecycle() {
        let mut cfg = GossipConfig::default();
        cfg.set_view_size(10);
        let eng = drive(cfg, 7);
        assert_eq!(PeerSampler::peer_count(&eng), 40);
        let alive = PeerSampler::alive_peers(&eng);
        assert_eq!(alive.len(), 40);
        for p in &alive {
            assert!(PeerSampler::is_alive(&eng, *p));
            assert!(PeerSampler::view_of(&eng, *p).len() <= 10);
        }
        assert_eq!(PeerSampler::shuffle_period(&eng), SimDuration::from_secs(5));
    }

    #[test]
    fn edge_usable_rejects_dead_targets() {
        let mut eng = drive(GossipConfig::default(), 11);
        let p = PeerSampler::alive_peers(&eng)[0];
        let view: Vec<NodeDescriptor> = eng.view_of(p).iter().copied().collect();
        let usable_before = view.iter().filter(|d| PeerSampler::edge_usable(&eng, p, d)).count();
        assert!(usable_before > 0, "a warmed-up all-reachable view must have usable edges");
        let victims: Vec<PeerId> = view.iter().map(|d| d.id).collect();
        PeerSampler::kill_peers(&mut eng, &victims);
        for d in &view {
            assert!(!PeerSampler::edge_usable(&eng, p, d), "dead target {} stayed usable", d.id);
        }
    }

    #[test]
    fn trait_and_inherent_agree() {
        let eng = drive(GossipConfig::default(), 3);
        let via_trait = PeerSampler::alive_peers(&eng);
        let via_inherent: Vec<PeerId> = eng.alive_peers().collect();
        assert_eq!(via_trait, via_inherent);
        assert_eq!(PeerSampler::now(&eng), eng.now());
    }
}
