//! Multi-core sharded peer sampling: S engine instances in lockstep.
//!
//! [`Sharded<E>`] runs one full engine per shard under a
//! [`ShardedSim`] lockstep driver. Each worker engine holds the complete
//! population fabric (the address plan and liveness are cheap, pure
//! functions of the add order) but materializes protocol state — views,
//! timers, NAT sessions, RNG draws — only for the nodes its shard owns;
//! every datagram crosses a tick barrier and is merged in canonical order
//! (see [`crate::host::sort_tick_batch`]). Because each node draws from
//! its own forked RNG stream and the merge key is a pure function of the
//! logical message stream, the observable output of a sharded run is
//! byte-identical for *every* shard count and node→shard map.
//!
//! `Sharded<E>` implements [`PeerSampler`] itself, so the experiment
//! harness and metric extractors drive it exactly like a single engine:
//! `build(&scenario, ShardedConfig::new(cfg, 4))` is the sharded sibling
//! of `build(&scenario, cfg)` — and renders the same bytes, because an
//! engine driven on its own *is* the S = 1 case: it advances through
//! [`nylon_sim::run_lone`], the loop this driver runs for one worker.

use nylon_net::{NatClass, NetConfig, PeerId, TrafficStats};
use nylon_sim::{ShardAssign, ShardPlan, ShardWorker, ShardedSim, SimDuration, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::sampler::{PeerSampler, SamplerConfig};
use crate::view::PartialView;

/// An engine that can act as one worker of a sharded run.
///
/// Implementors are complete [`PeerSampler`] engines plus the worker
/// hooks: joining a plan and — when entry usability spans two shards' NAT
/// state — a cross-shard variant of `edge_usable`.
pub trait ShardSampler: PeerSampler + ShardWorker {
    /// Turns a fresh engine into worker `idx` of `plan`. Must be called
    /// before any peer is added.
    fn set_shard(&mut self, plan: ShardPlan, idx: usize);

    /// [`PeerSampler::edge_usable`] evaluated against the shards owning
    /// each side's authoritative NAT state. The default delegates to the
    /// holder's shard, which is correct for engines whose usability oracle
    /// only reads holder-local protocol state plus globally replicated
    /// facts (liveness, classes).
    fn edge_usable_sharded(
        holder_shard: &Self,
        _target_shard: &Self,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        holder_shard.edge_usable(holder, d)
    }
}

/// The lockstep tick: the minimum latency any datagram can experience
/// under `cfg`, which is the conservative lookahead — a message sent
/// inside a tick always arrives after the tick's barrier.
///
/// # Panics
///
/// Panics on a zero-minimum-latency config (the lookahead argument needs
/// every send to take at least one virtual millisecond). Every engine
/// advances in these ticks, so [`crate::Engine::new`] is where such a
/// config is turned away.
pub fn lockstep_tick(cfg: &NetConfig) -> SimDuration {
    let base = cfg.latency.as_millis();
    let jitter = cfg.latency_jitter.as_millis();
    // Mirrors Network::send: jitter-free sends take exactly `base`;
    // jittered ones are clamped below at 1 ms.
    let min = if jitter == 0 { base } else { base.saturating_sub(jitter).max(1) };
    assert!(min >= 1, "sharded runs need a minimum network latency of at least 1 ms");
    SimDuration::from_millis(min)
}

/// Configuration for a sharded run: the inner engine's config plus the
/// shard plan. Building with this config yields [`Sharded<E>`] from the
/// same generic `build` path that yields `E` for the inner config.
#[derive(Debug, Clone)]
pub struct ShardedConfig<C> {
    /// The wrapped engine configuration.
    pub inner: C,
    /// Number of worker shards (must be at least 1).
    pub shards: usize,
    /// Node→shard assignment rule.
    pub assign: ShardAssign,
}

impl<C> ShardedConfig<C> {
    /// A round-robin sharded config over `shards` workers.
    pub fn new(inner: C, shards: usize) -> Self {
        ShardedConfig { inner, shards, assign: ShardAssign::RoundRobin }
    }
}

impl<C: SamplerConfig> SamplerConfig for ShardedConfig<C>
where
    C::Sampler: ShardSampler,
{
    type Sampler = Sharded<C::Sampler>;

    fn set_view_size(&mut self, view_size: usize) {
        self.inner.set_view_size(view_size);
    }

    fn align_to_net(&mut self, net_cfg: &NetConfig) {
        self.inner.align_to_net(net_cfg);
    }
}

/// S shard-worker engines advanced in lockstep ticks; see the module docs.
#[derive(Debug)]
pub struct Sharded<E: ShardSampler> {
    sim: ShardedSim<E>,
    plan: ShardPlan,
}

impl<E: ShardSampler> Sharded<E> {
    /// The per-shard worker engines, in shard order.
    pub fn shards(&self) -> &[E] {
        self.sim.workers()
    }

    /// The worker engine owning `peer`'s protocol state.
    pub fn shard_of(&self, peer: PeerId) -> &E {
        &self.sim.workers()[self.plan.shard_of(peer.0)]
    }

    /// Applies `f` to every worker engine (population setup and other
    /// between-run mutations that must reach all replicas of the fabric).
    pub fn for_each_shard(&mut self, mut f: impl FnMut(&mut E)) {
        for w in self.sim.workers_mut() {
            f(w);
        }
    }
}

impl<E: ShardSampler> PeerSampler for Sharded<E> {
    type Config = ShardedConfig<E::Config>;

    fn with_seed(cfg: Self::Config, net_cfg: NetConfig, seed: u64) -> Self {
        let plan = ShardPlan::new(cfg.shards, cfg.assign);
        let tick = lockstep_tick(&net_cfg);
        let workers: Vec<E> = (0..plan.shards())
            .map(|idx| {
                // Every worker gets the same seed: per-node streams are
                // pure in (seed, node id), so replicas agree by
                // construction, and each node's stream is only ever
                // *advanced* on its owner shard.
                let mut e = E::with_seed(cfg.inner.clone(), net_cfg.clone(), seed);
                e.set_shard(plan, idx);
                e
            })
            .collect();
        Sharded { sim: ShardedSim::new(workers, tick), plan }
    }

    fn add_peer(&mut self, class: NatClass) -> PeerId {
        let mut id = None;
        self.for_each_shard(|e| {
            let got = e.add_peer(class);
            assert!(id.is_none_or(|prev| prev == got), "shards disagree on peer ids");
            id = Some(got);
        });
        id.expect("at least one shard")
    }

    fn enable_port_forwarding(&mut self, peer: PeerId) {
        self.for_each_shard(|e| e.enable_port_forwarding(peer));
    }

    fn install_fault_plan(&mut self, plan: nylon_faults::FaultPlan) {
        // Every worker replica gets the identical plan and applies every
        // event to its own network replica; the runtime's ownership-based
        // stat counting keeps absorbed totals equal to single-engine runs.
        self.for_each_shard(|e| e.install_fault_plan(plan.clone()));
    }

    fn fault_stats(&self) -> nylon_faults::FaultStats {
        let mut total = nylon_faults::FaultStats::default();
        for w in self.sim.workers() {
            total.merge(&w.fault_stats());
        }
        total
    }

    fn bootstrap_random_public(&mut self, per_view: usize) {
        self.for_each_shard(|e| e.bootstrap_random_public(per_view));
    }

    fn start(&mut self) {
        self.for_each_shard(|e| e.start());
    }

    fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.sim.now() + dur;
        self.sim.run_until(deadline);
    }

    fn run_rounds(&mut self, n: u64) {
        self.run_for(self.shuffle_period() * n);
    }

    fn kill_peers(&mut self, peers: &[PeerId]) {
        self.for_each_shard(|e| e.kill_peers(peers));
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn shuffle_period(&self) -> SimDuration {
        self.sim.workers()[0].shuffle_period()
    }

    fn peer_count(&self) -> usize {
        self.sim.workers()[0].peer_count()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        self.sim.workers()[0].is_alive(peer)
    }

    fn class_of(&self, peer: PeerId) -> NatClass {
        self.sim.workers()[0].class_of(peer)
    }

    fn traffic_of(&self, peer: PeerId) -> TrafficStats {
        // Traffic is accounted where the sending/receiving node lives.
        self.shard_of(peer).traffic_of(peer)
    }

    fn alive_peers(&self) -> Vec<PeerId> {
        self.sim.workers()[0].alive_peers()
    }

    fn view_of(&self, peer: PeerId) -> &PartialView {
        self.shard_of(peer).view_of(peer)
    }

    fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView {
        // Only the owner shard materializes (and reads) this node's view,
        // so rewriting the authoritative copy is a complete rewrite.
        let idx = self.plan.shard_of(peer.0);
        self.sim.workers_mut()[idx].view_of_mut(peer)
    }

    fn descriptor_of(&self, peer: PeerId) -> NodeDescriptor {
        // The address plan is replicated on every shard; ask the owner for
        // symmetry with view access.
        self.shard_of(peer).descriptor_of(peer)
    }

    fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        if d.id.index() >= self.peer_count() {
            return false;
        }
        E::edge_usable_sharded(self.shard_of(holder), self.shard_of(d.id), holder, d)
    }

    /// Merges every worker's report (counters sum, gauges max, histograms
    /// merge exactly — all commutative, so the result is independent of
    /// shard count and iteration order), plus the driver's exchange/stall
    /// telemetry and a per-lane event breakdown for imbalance analysis.
    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.sim.obs_report(out);
        for (i, worker) in self.shards().iter().enumerate() {
            let mut lane = nylon_obs::Report::new();
            worker.obs_report(&mut lane);
            if let Some(nylon_obs::MetricValue::Counter(events)) =
                lane.get("kernel", "events_processed")
            {
                out.counter("shard", &format!("lane{i}_events"), *events);
            }
            out.absorb(&lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BaselineEngine;
    use crate::policy::GossipConfig;
    use nylon_net::NatType;

    fn population(eng: &mut impl PeerSampler, n: u32) {
        for i in 0..n {
            let class = if i % 10 < 3 {
                NatClass::Public
            } else {
                NatClass::Natted(NatType::PortRestrictedCone)
            };
            eng.add_peer(class);
        }
    }

    fn fingerprint(eng: &Sharded<BaselineEngine>) -> (crate::engine::ShuffleStats, Vec<Vec<u32>>) {
        let views = (0..eng.peer_count() as u32)
            .map(|i| {
                let mut ids: Vec<u32> = eng.view_of(PeerId(i)).iter().map(|d| d.id.0).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        (eng.stats(), views)
    }

    fn run_sharded(shards: usize, assign: ShardAssign, seed: u64) -> Sharded<BaselineEngine> {
        let cfg = ShardedConfig { inner: GossipConfig::default(), shards, assign };
        let mut eng = Sharded::<BaselineEngine>::with_seed(cfg, NetConfig::default(), seed);
        population(&mut eng, 60);
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(8);
        eng
    }

    #[test]
    fn shard_count_and_map_do_not_change_the_run() {
        let reference = fingerprint(&run_sharded(1, ShardAssign::RoundRobin, 7));
        assert!(reference.0.initiated > 300, "run too small to be meaningful");
        for shards in [2usize, 4] {
            for assign in [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(3)] {
                let got = fingerprint(&run_sharded(shards, assign, 7));
                assert_eq!(
                    got, reference,
                    "sharded run diverged at shards={shards} assign={assign:?}"
                );
            }
        }
    }

    #[test]
    fn tiny_tick_barrier_stress_pins_the_merge_order() {
        // 1 ms lockstep ticks (latency 2 ms ± 1 ms jitter) against a
        // 200 ms shuffle period: thousands of barrier crossings, every
        // flight arriving within a tick or two of its send — the densest
        // cross-shard interleaving the driver can see, with the jittered
        // per-peer RNG path active. Every adversarial shard map must
        // still reproduce the S=1 run exactly, pinning the canonical
        // (arrival, sender) merge order.
        let net = NetConfig {
            latency: SimDuration::from_millis(2),
            latency_jitter: SimDuration::from_millis(1),
            ..NetConfig::default()
        };
        let cfg = GossipConfig {
            shuffle_period: SimDuration::from_millis(200),
            ..GossipConfig::default()
        };
        let run = |shards, assign| {
            let mut eng = Sharded::<BaselineEngine>::with_seed(
                ShardedConfig { inner: cfg.clone(), shards, assign },
                net.clone(),
                17,
            );
            population(&mut eng, 40);
            eng.bootstrap_random_public(8);
            eng.start();
            eng.run_rounds(25);
            fingerprint(&eng)
        };
        let reference = run(1, ShardAssign::RoundRobin);
        assert!(reference.0.initiated > 700, "stress run too small to be meaningful");
        for assign in [ShardAssign::AllOnOne, ShardAssign::RoundRobin, ShardAssign::Random(9)] {
            assert_eq!(run(5, assign), reference, "tiny-tick run diverged under {assign:?}");
        }
    }

    #[test]
    fn seed_reaches_a_sharded_run() {
        let a = fingerprint(&run_sharded(2, ShardAssign::RoundRobin, 1));
        let b = fingerprint(&run_sharded(2, ShardAssign::RoundRobin, 2));
        assert_ne!(a, b, "different seeds produced identical sharded runs");
    }

    #[test]
    fn kills_and_usability_oracle_work_sharded() {
        let mut eng = run_sharded(3, ShardAssign::RoundRobin, 11);
        let victims: Vec<PeerId> = (0..10).map(PeerId).collect();
        eng.kill_peers(&victims);
        assert_eq!(eng.alive_peers().len(), 50);
        eng.run_rounds(2);
        // Edges toward dead peers are unusable regardless of which shards
        // the endpoints live on.
        for holder in eng.alive_peers() {
            for d in eng.view_of(holder).iter() {
                if victims.contains(&d.id) {
                    assert!(!eng.edge_usable(holder, d), "dead target reported usable");
                }
            }
        }
        // And the composed cross-shard oracle agrees with a single-shard
        // run of the same scenario for every (holder, entry) pair.
        let mut single = run_sharded(1, ShardAssign::RoundRobin, 11);
        single.kill_peers(&victims);
        single.run_rounds(2);
        for holder in single.alive_peers() {
            let usable: Vec<bool> =
                single.view_of(holder).iter().map(|d| single.edge_usable(holder, d)).collect();
            let usable_sharded: Vec<bool> =
                eng.view_of(holder).iter().map(|d| eng.edge_usable(holder, d)).collect();
            assert_eq!(usable, usable_sharded, "oracle diverged for holder {holder:?}");
        }
    }
}
