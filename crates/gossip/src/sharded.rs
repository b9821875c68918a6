//! A forwarding shim over the [`Workers`] scope, kept for the performance
//! ledger's workloads, which name these types.
//!
//! [`ShardedConfig`] builds the same [`Engine`] under
//! [`with_workers`]`(Workers::Plan(..), ..)` and wraps it in
//! [`Sharded<E>`], which derefs to it. Everything else builds the engine
//! directly inside the scope.

use std::ops::{Deref, DerefMut};

use nylon_faults::{FaultPlan, FaultStats};
use nylon_net::{NatClass, NetConfig, PeerId, TrafficStats};
use nylon_sim::{ShardAssign, ShardPlan, SimDuration, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::host::Protocol;
use crate::lockstep::{with_workers, Workers};
use crate::sampler::{PeerSampler, SamplerConfig};
use crate::view::PartialView;
use crate::Engine;

/// Configuration for a run on a fixed worker plan: the engine's config
/// plus the plan.
#[derive(Debug, Clone)]
pub struct ShardedConfig<C> {
    /// The wrapped engine configuration.
    pub inner: C,
    /// Number of workers (must be at least 1).
    pub shards: usize,
    /// Node→worker assignment rule.
    pub assign: ShardAssign,
}

impl<C> ShardedConfig<C> {
    /// A round-robin plan over `shards` workers.
    pub fn new(inner: C, shards: usize) -> Self {
        ShardedConfig { inner, shards, assign: ShardAssign::RoundRobin }
    }
}

impl<C: SamplerConfig> SamplerConfig for ShardedConfig<C>
where
    Sharded<C::Sampler>: PeerSampler<Config = Self>,
{
    type Sampler = Sharded<C::Sampler>;

    fn set_view_size(&mut self, view_size: usize) {
        self.inner.set_view_size(view_size);
    }
}

/// An [`Engine`] built on a [`ShardedConfig`]'s plan; it derefs to the
/// engine.
#[derive(Debug)]
pub struct Sharded<E>(E);

impl<E> Deref for Sharded<E> {
    type Target = E;

    fn deref(&self) -> &E {
        &self.0
    }
}

impl<E> DerefMut for Sharded<E> {
    fn deref_mut(&mut self) -> &mut E {
        &mut self.0
    }
}

impl<P: Protocol> PeerSampler for Sharded<Engine<P>> {
    type Config = ShardedConfig<P::Config>;

    fn with_seed(cfg: Self::Config, net_cfg: NetConfig, seed: u64) -> Self {
        let plan = Workers::Plan(ShardPlan::new(cfg.shards, cfg.assign));
        Sharded(with_workers(plan, || Engine::new(cfg.inner, net_cfg, seed)))
    }

    fn add_peer(&mut self, class: NatClass) -> PeerId {
        self.0.add_peer(class)
    }

    fn enable_port_forwarding(&mut self, peer: PeerId) {
        self.0.enable_port_forwarding(peer);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.0.install_fault_plan(plan);
    }

    fn fault_stats(&self) -> FaultStats {
        self.0.fault_stats()
    }

    fn bootstrap_random_public(&mut self, per_view: usize) {
        self.0.bootstrap_random_public(per_view);
    }

    fn start(&mut self) {
        self.0.start();
    }

    fn run_for(&mut self, dur: SimDuration) {
        self.0.run_for(dur);
    }

    fn run_rounds(&mut self, n: u64) {
        self.0.run_rounds(n);
    }

    fn kill_peers(&mut self, peers: &[PeerId]) {
        self.0.kill_peers(peers);
    }

    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn shuffle_period(&self) -> SimDuration {
        PeerSampler::shuffle_period(&self.0)
    }

    fn peer_count(&self) -> usize {
        self.0.peer_count()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        self.0.is_alive(peer)
    }

    fn class_of(&self, peer: PeerId) -> NatClass {
        self.0.class_of(peer)
    }

    fn traffic_of(&self, peer: PeerId) -> TrafficStats {
        self.0.traffic_of(peer)
    }

    fn alive_peers(&self) -> Vec<PeerId> {
        self.0.alive_peers().collect()
    }

    fn view_of(&self, peer: PeerId) -> &PartialView {
        self.0.view_of(peer)
    }

    fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        self.0.edge_usable(holder, d)
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.0.obs_report(out);
    }
}
