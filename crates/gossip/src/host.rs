//! The engine host: one event loop, four protocols.
//!
//! The paper specifies a gossip peer sampler as two handlers — the
//! periodic *active thread* and the on-receive *passive thread* (Figure 1
//! for the baseline, Figure 6 for Nylon). A [`Protocol`] is exactly that
//! pair plus its per-node state; [`Engine<P>`] is everything else, written
//! once: the event kernel and simulated fabric, the flight slab, shard
//! staging, the fault runtime, the wire tap, the sample log, the purge
//! timer and the run loop, plus the [`PeerSampler`], [`ShardSampler`] and
//! [`ShardWorker`] impls every engine shares. The four engines of this
//! workspace are type aliases: `Engine<Baseline>`, `Engine<PeerSwap>`,
//! `Engine<Nylon>`, `Engine<StaticRvp>`.
//!
//! Generics are monomorphised — no `dyn`, no boxed handler on the event
//! path — so each alias compiles to the loop its hand-written predecessor
//! had.

use std::fmt;

use nylon_faults::{FaultPlan, FaultRuntime, FaultStats};
use nylon_net::{
    Delivery, Endpoint, InFlight, NatClass, NetConfig, Network, Outbound, PeerId, Slab, SlabKey,
    TrafficStats,
};
use nylon_sim::{run_lone, ShardPlan, ShardWorker, Sim, SimDuration, SimRng, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::sampler::{PeerSampler, SamplerConfig};
use crate::sharded::{lockstep_tick, ShardSampler, Sharded};
use crate::view::PartialView;

/// Protocol counters that sum across shards: every protocol event is
/// counted on exactly one shard (the one owning the acting node), so
/// merging the per-shard counters reproduces the one-shard totals.
pub trait ProtocolStats: Copy + Default + fmt::Debug {
    /// Adds another counter set into this one.
    fn merge(&mut self, other: &Self);
}

/// A gossip peer-sampling protocol: per-node state plus the two handlers
/// of the paper's pseudocode, hosted by [`Engine`].
///
/// The implementing type holds all protocol state — configuration,
/// counters, buffer pools, and one node struct per peer, indexed by
/// [`PeerId`] — and reaches the outside world only through the
/// [`Host`] it is handed.
///
/// # Call order
///
/// 1. [`new`](Self::new), then [`add_node`](Self::add_node) once per peer
///    in id order — on *every* shard, but state is only driven on the
///    owner, so a node holds no heap until a handler first acts for it:
///    `add_node` allocates nothing (views, maps and tables size themselves
///    on first insert), which is what keeps S replicas of a population
///    cheap.
/// 2. Optionally [`on_fault_plan`](Self::on_fault_plan), then
///    [`bootstrap`](Self::bootstrap).
/// 3. [`on_start`](Self::on_start) with the owned alive peers, after which
///    the host draws each one's first-round phase from
///    [`rng_of`](Self::rng_of). A peer joining a started engine repeats
///    steps 1 and 3 for itself, with [`join_contact`](Self::join_contact)
///    per bootstrap contact in between.
/// 4. Per period and alive owned peer, [`on_round`](Self::on_round); per
///    delivered datagram, [`on_msg`](Self::on_msg); per dropped one,
///    [`recycle`](Self::recycle).
///
/// # Randomness and scheduling
///
/// A handler acting for peer `p` may draw from `p`'s own stream only
/// (streams are pure in `(seed, id)`, which is what makes a run replay at
/// any shard count), and only [`bootstrap`](Self::bootstrap),
/// [`join_contact`](Self::join_contact), [`on_start`](Self::on_start),
/// [`on_round`](Self::on_round) and [`on_msg`](Self::on_msg) may draw at
/// all. No handler schedules events: sending through
/// [`Host::send_msg`] is the one way to cause a future event, and the host
/// re-arms the round timer itself after `on_round` returns.
/// [`edge_usable`](Self::edge_usable), [`obs_report`](Self::obs_report)
/// and [`payload_bytes`](Self::payload_bytes) are read-only oracles.
pub trait Protocol: fmt::Debug + Send + Sized + 'static {
    /// The configuration that builds this protocol's engine.
    type Config: SamplerConfig<Sampler = Engine<Self>>;
    /// The wire message.
    type Msg: fmt::Debug + Send + 'static;
    /// Aggregate protocol counters.
    type Stats: ProtocolStats;

    /// Fork label of the per-node RNG streams (or-ed with the peer id).
    const NODE_RNG_LABEL: u64;
    /// Salt xor-ed into the run seed to seed the fabric's own stream.
    const NET_SEED_SALT: u64;

    /// Creates the protocol state for an empty population; panics on a
    /// configuration the protocol cannot run under.
    fn new(cfg: Self::Config, net_cfg: &NetConfig) -> Self;

    /// The configuration this protocol was built with.
    fn config(&self) -> &Self::Config;

    /// Interval between two rounds initiated by one peer.
    fn shuffle_period(&self) -> SimDuration;

    /// Protocol counters so far.
    fn stats(&self) -> Self::Stats;

    /// Appends the state of peer `id`, which draws from `rng` from now on.
    fn add_node(&mut self, id: PeerId, rng: SimRng);

    /// The view of a peer.
    fn view_of(&self, peer: PeerId) -> &PartialView;

    /// Mutable view access (the adversary seam).
    fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView;

    /// A peer's RNG stream.
    fn rng_of(&mut self, peer: PeerId) -> &mut SimRng;

    /// The active thread: one gossip round of alive peer `p`.
    fn on_round(&mut self, host: &mut Host<Self::Msg>, p: PeerId);

    /// The passive thread: `msg` reached `to`, observed as coming from
    /// `from_ep` (post-NAT).
    fn on_msg(&mut self, host: &mut Host<Self::Msg>, to: PeerId, from_ep: Endpoint, msg: Self::Msg);

    /// Modeled payload size of a message on the wire.
    fn payload_bytes(&self, msg: &Self::Msg) -> u32;

    /// Takes back the buffers of a message that will never be handled.
    fn recycle(&mut self, msg: Self::Msg);

    /// `p` learns of `contact` out of band (bootstrap, join handshake).
    fn join_contact(&mut self, host: &mut Host<Self::Msg>, p: PeerId, contact: PeerId) {
        self.view_of_mut(p).insert(host.descriptor_of(contact));
    }

    /// The paper's bootstrap: fills every owned view with up to `per_view`
    /// distinct peers drawn by [`BootstrapPool::contacts`] — public ones,
    /// uniformly, never the peer itself. An override must keep that
    /// helper's contract: O(`per_view`) work per peer, each peer's contacts
    /// drawn from its own stream only (a non-owned peer's, where global
    /// state needs them, from [`Host::node_rng`]).
    fn bootstrap(&mut self, host: &mut Host<Self::Msg>, per_view: usize) {
        let pool = host.bootstrap_pool();
        bootstrap_views(self, host, &pool, per_view);
    }

    /// Whether `holder` could communicate over view entry `d` right now
    /// (see [`PeerSampler::edge_usable`]).
    fn edge_usable(&self, host: &Host<Self::Msg>, holder: PeerId, d: &NodeDescriptor) -> bool;

    /// [`edge_usable`](Self::edge_usable) in a sharded run, against the
    /// hosts owning each side's authoritative NAT state. The default asks
    /// the holder's shard, which is exact for oracles that read only
    /// holder-local protocol state plus replicated facts (liveness,
    /// classes).
    fn edge_usable_sharded(
        &self,
        holder_host: &Host<Self::Msg>,
        _target_host: &Host<Self::Msg>,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        self.edge_usable(holder_host, holder, d)
    }

    /// Reports protocol-layer telemetry (counters, pools) into `out`,
    /// including the gauge `engine.<protocol>/pending_exchanges`: the
    /// exchanges nodes still wait on, which must track live state rather
    /// than history. Gauges merge by maximum, so under `--shards N` it
    /// reads as the fullest shard's count.
    fn obs_report(&self, out: &mut nylon_obs::Report);

    /// `peers` (owned, alive) are about to get their first round timer.
    fn on_start(&mut self, _host: &Host<Self::Msg>, _peers: &[PeerId]) {}

    /// `peer` was killed for good (no fault plan can revive it).
    fn on_kill(&mut self, _peer: PeerId) {}

    /// The round timer of `peer` fired while it is down under a fault plan
    /// that may revive it. Nothing is sent or drawn for a dead peer, but
    /// state that ages by rounds must keep ageing here, or it reads on
    /// revival as fresh as it was at the crash.
    fn on_idle_round(&mut self, _peer: PeerId) {}

    /// A fault plan is being installed.
    fn on_fault_plan(&mut self, _plan: &FaultPlan) {}
}

/// The peers a bootstrap draws contacts from: the alive public peers, or
/// every alive peer when there is no public one.
#[derive(Debug)]
pub struct BootstrapPool {
    /// In id order.
    peers: Vec<PeerId>,
    /// Whether there was no public peer, so the pool is everyone.
    pub fallback: bool,
}

impl BootstrapPool {
    /// Up to `per_view` distinct contacts for `p`, uniform over the
    /// `per_view`-subsets of the pool minus `p` itself (all of it when it
    /// is shorter), in O(`per_view`) and `min(per_view, pool − p)` draws
    /// from `rng` — `p`'s own stream, so the result is the same on
    /// whichever shard asks.
    pub fn contacts(&self, p: PeerId, rng: &mut SimRng, per_view: usize) -> Vec<PeerId> {
        // Excluding `p` without copying the pool: draw from all but the
        // last peer, and let the last one stand in where `p` came up.
        let in_pool = self.peers.binary_search(&p).is_ok();
        let rest = &self.peers[..self.peers.len() - usize::from(in_pool)];
        let mut chosen = rng.sample_without_replacement(rest, per_view);
        if let Some(q) = chosen.iter_mut().find(|q| **q == p) {
            *q = *self.peers.last().expect("p is in the pool");
        }
        chosen
    }
}

/// The default [`Protocol::bootstrap`]: every owned alive peer learns its
/// [`BootstrapPool::contacts`] via [`Protocol::join_contact`]. Non-owned
/// peers are skipped entirely — their owner shard draws the same contacts
/// from the same stream.
pub fn bootstrap_views<P: Protocol>(
    proto: &mut P,
    host: &mut Host<P::Msg>,
    pool: &BootstrapPool,
    per_view: usize,
) {
    let all: Vec<PeerId> = host.net.alive_peers().collect();
    for p in all {
        if !host.owns(p) {
            continue;
        }
        for q in pool.contacts(p, proto.rng_of(p), per_view) {
            proto.join_contact(host, p, q);
        }
    }
}

/// Raw packet-level reachability, the usability oracle of protocols that
/// address view entries directly (baseline, PeerSwap).
pub fn directly_reachable<M>(host: &Host<M>, holder: PeerId, d: &NodeDescriptor) -> bool {
    d.id.index() < host.net.peer_count()
        && host.net.is_alive(d.id)
        && host.net.reachable(host.now(), holder, d.id, d.addr)
}

/// [`directly_reachable`] across shards: reachability spans both ends'
/// NAT state, so egress translation is previewed on the holder's shard
/// and ingress filtering tested on the target's — each against the
/// authoritative copy.
pub fn directly_reachable_sharded<M>(
    holder_host: &Host<M>,
    target_host: &Host<M>,
    holder: PeerId,
    d: &NodeDescriptor,
) -> bool {
    let net = &holder_host.net;
    if d.id.index() >= net.peer_count() || !net.is_alive(d.id) {
        return false;
    }
    let now = holder_host.now();
    match net.egress_src_preview(now, holder, d.addr) {
        None => false,
        Some(src_ep) => target_host.net.ingress_would_admit(now, d.id, d.addr, src_ep),
    }
}

/// Engine events.
///
/// `Deliver` carries only a slab handle: the actual [`InFlight`] datagram
/// (~100 B of endpoints, accounting and payload) parks in the host's
/// flight slab while the event moves through the timer wheel, so every
/// push/pop/cascade copies one machine word instead of a cache line.
#[derive(Debug)]
enum Ev {
    /// A peer's round timer fired.
    Shuffle(PeerId),
    /// A datagram arrives; the handle resolves in the flight slab.
    Deliver(SlabKey),
    /// Periodic NAT state garbage collection.
    Purge,
    /// The next fault-plan event is due (see [`nylon_faults`]).
    Fault,
}

// The whole point of the slab indirection: wheeled events stay slim.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32, "Ev must stay slim for the timer wheel");

/// Interval between NAT garbage-collection sweeps.
const PURGE_EVERY: SimDuration = SimDuration::from_secs(60);

/// An engine's place in a run: every engine is one worker of a shard
/// plan, a fresh one the only worker of a one-shard plan.
///
/// The engine always holds the *full* population (the address plan,
/// liveness, and per-node RNG labels are pure functions of the add order,
/// so replicating them costs no determinism), but only materializes
/// protocol state — view contents, timers, NAT sessions — for the nodes
/// the plan assigns to `idx`; the others stay heap-free (see
/// [`Protocol`]'s call order). Every datagram, including ones between two
/// co-located nodes, is staged into `staged[dst_shard]` instead of being
/// scheduled directly, so delivery order is fixed by the canonical merge
/// in `absorb`, never by which nodes happen to share a shard.
#[derive(Debug)]
struct ShardCtx<M> {
    /// The node→shard assignment shared by all workers of the run.
    plan: ShardPlan,
    /// This worker's shard index.
    idx: usize,
    /// Outgoing flights staged per destination shard: the worker's
    /// [`ShardWorker::outbox`], emptied by its driver at every tick
    /// boundary.
    staged: Vec<Vec<InFlight<M>>>,
}

impl<M> ShardCtx<M> {
    /// A context for shard `idx` of `plan`, with empty staging buffers.
    fn new(plan: ShardPlan, idx: usize) -> Self {
        assert!(idx < plan.shards(), "shard index out of range");
        ShardCtx { plan, idx, staged: (0..plan.shards()).map(|_| Vec::new()).collect() }
    }

    /// Whether this shard owns `peer`.
    fn owns(&self, peer: PeerId) -> bool {
        self.plan.shard_of(peer.0) == self.idx
    }

    /// Stages a flight for the shard owning its addressee, or for this
    /// shard when the destination is unroutable (the local `deliver` then
    /// counts the drop — on a fixed shard, so counters stay deterministic).
    fn stage(&mut self, net: &Network<M>, flight: InFlight<M>) {
        let dst = match net.addressee_of(flight.dst_ep) {
            Some(q) => self.plan.shard_of(q.0),
            None => self.idx,
        };
        self.staged[dst].push(flight);
    }
}

/// Sorts a merged tick batch into the canonical delivery order: arrival
/// instant, then sending node (per-sender order is positional — a sender's
/// flights arrive already in its send order, and a stable sort keeps them
/// there). The key is a pure function of the logical message stream, which
/// is what makes output independent of the shard count.
pub fn sort_tick_batch<M>(batch: &mut [InFlight<M>]) {
    batch.sort_by_key(|f| (f.arrive_at, f.sender.0));
}

/// What a [`Protocol`] handler may touch besides its own state: the
/// fabric (directly), and the kernel, carriage substrate and sample log
/// (through methods only).
#[derive(Debug)]
pub struct Host<M> {
    /// The simulated NAT-aware fabric. Handlers read liveness, classes and
    /// the address plan here; sending goes through [`Host::send_msg`].
    pub net: Network<M>,
    sim: Sim<Ev>,
    /// In-flight datagrams, parked here while their 4-byte handle travels
    /// through the timer wheel (see [`Ev`]); slots recycle, so the slab's
    /// footprint is the high-water mark of concurrent flights.
    flights: Slab<InFlight<M>>,
    /// Which worker of which plan this engine is, and its staged sends.
    shard: ShardCtx<M>,
    /// The lockstep tick: the fabric's minimum latency (see
    /// [`lockstep_tick`]).
    tick: SimDuration,
    /// `Some` in wire-tap mode: datagrams queue here for an external
    /// transport instead of entering the fabric.
    wire_tap: Option<Vec<Outbound<M>>>,
    sample_log: Option<Vec<u32>>,
    /// `Some` when a fault plan is installed.
    faults: Option<FaultRuntime>,
    started: bool,
}

impl<M> Host<M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Whether this engine materializes protocol state for `peer` — always
    /// true for the lone worker of a one-shard run.
    pub fn owns(&self, peer: PeerId) -> bool {
        self.shard.owns(peer)
    }

    /// A peer's fresh (age-0) self-descriptor.
    pub fn descriptor_of(&self, peer: PeerId) -> NodeDescriptor {
        NodeDescriptor::new(peer, self.net.identity_endpoint(peer), self.net.class_of(peer))
    }

    /// The alive public peers, in id order.
    pub fn alive_publics(&self) -> Vec<PeerId> {
        self.net.alive_peers().filter(|p| self.net.class_of(*p).is_public()).collect()
    }

    /// The bootstrap contact pool as of now.
    pub fn bootstrap_pool(&self) -> BootstrapPool {
        let publics = self.alive_publics();
        let fallback = publics.is_empty();
        let peers = if fallback { self.net.alive_peers().collect() } else { publics };
        BootstrapPool { peers, fallback }
    }

    /// A fresh copy of peer `id`'s RNG stream at its origin: the stream
    /// [`Protocol::add_node`] receives, and what a shard replays a
    /// non-owned node's pre-start draws from.
    pub fn node_rng<P: Protocol<Msg = M>>(&mut self, id: PeerId) -> SimRng {
        self.sim.rng().fork(P::NODE_RNG_LABEL | id.0 as u64)
    }

    /// Records a gossip-target selection when the sample log is on.
    pub fn log_sample(&mut self, target: PeerId) {
        if let Some(log) = &mut self.sample_log {
            log.push(target.0);
        }
    }

    /// Sends `msg` from `from` to `to_ep`: through the fabric normally
    /// (staged until the tick boundary), or onto the wire-tap queue when
    /// an external transport carries the datagrams.
    pub fn send_msg<P: Protocol<Msg = M>>(
        &mut self,
        proto: &P,
        from: PeerId,
        to_ep: Endpoint,
        msg: M,
    ) {
        let bytes = proto.payload_bytes(&msg);
        if let Some(tap) = &mut self.wire_tap {
            tap.push(Outbound { from, dst: to_ep, payload_bytes: bytes, payload: msg });
            self.net.note_sent(from, bytes);
            return;
        }
        let now = self.sim.now();
        if let Some(flight) = self.net.send(now, from, to_ep, msg, bytes) {
            self.shard.stage(&self.net, flight);
        }
    }

    fn schedule_delivery(&mut self, flight: InFlight<M>) {
        let at = flight.arrive_at;
        self.sim.schedule_at(at, Ev::Deliver(self.flights.insert(flight)));
    }
}

/// A peer-sampling engine: [`Protocol`] `P` on the shared host.
///
/// Usage: construct, [`add_peer`](Self::add_peer) the population,
/// [`bootstrap_random_public`](Self::bootstrap_random_public),
/// [`start`](Self::start), then [`run_rounds`](Self::run_rounds) /
/// [`run_for`](Self::run_for). See the crate-level example.
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    pub(crate) proto: P,
    pub(crate) host: Host<P::Msg>,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine with the given protocol and fabric configuration;
    /// `seed` drives every random choice in the run.
    ///
    /// The engine is the only worker of a one-shard run until
    /// [`set_shard`](Self::set_shard) says otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `P` rejects the configuration (see [`Protocol::new`]) or
    /// the fabric has no lookahead (see [`lockstep_tick`]).
    pub fn new(cfg: P::Config, net_cfg: NetConfig, seed: u64) -> Self {
        let proto = P::new(cfg, &net_cfg);
        let host = Host {
            tick: lockstep_tick(&net_cfg),
            net: Network::new(net_cfg, seed ^ P::NET_SEED_SALT),
            sim: Sim::new(seed),
            flights: Slab::new(),
            shard: ShardCtx::new(ShardPlan::round_robin(1), 0),
            wire_tap: None,
            sample_log: None,
            faults: None,
            started: false,
        };
        Engine { proto, host }
    }

    /// The protocol state, for protocol-specific accessors (e.g. Nylon's
    /// `routing_of`).
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Installs a compiled fault plan: applies its topology faults now and
    /// schedules its timed events. Call after the population is added and
    /// before bootstrap, so descriptors advertise post-CGN identities.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already started or a plan is installed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let host = &mut self.host;
        assert!(!host.started, "install the fault plan before start()");
        assert!(host.faults.is_none(), "fault plan already installed");
        plan.apply_topology(&mut host.net);
        self.proto.on_fault_plan(&plan);
        let rt = FaultRuntime::new(plan, host.shard.idx == 0);
        if let Some(at) = rt.next_at() {
            host.sim.schedule_at(at, Ev::Fault);
        }
        host.faults = Some(rt);
    }

    /// Counters of faults applied so far (ownership-filtered; see
    /// [`FaultStats`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.host.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Turns this engine into worker `idx` of `plan` (see
    /// [`crate::sharded`]). Must be called on a fresh engine, before any
    /// peer is added: the shard plan gates which nodes get timers and
    /// protocol state from the very first add.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already been populated or started, or if
    /// `idx` is not a shard of `plan`.
    pub fn set_shard(&mut self, plan: ShardPlan, idx: usize) {
        let host = &mut self.host;
        assert!(!host.started && host.net.peer_count() == 0, "set_shard requires a fresh engine");
        host.shard = ShardCtx::new(plan, idx);
    }

    /// Total events processed by the local event loop.
    pub fn events_processed(&self) -> u64 {
        self.host.sim.events_processed()
    }

    /// Switches the engine to wire-tap mode: datagrams are no longer routed
    /// through the simulated fabric but collected for an external transport
    /// (see [`take_outbound`](Self::take_outbound)), and inbound datagrams
    /// enter via [`deliver_wire`](Self::deliver_wire). Protocol behaviour
    /// is untouched — only the carriage substrate changes.
    ///
    /// Note: in this mode the fabric's NAT state sees no traffic, so an
    /// `edge_usable` oracle built on packet-level reachability reflects
    /// the wire's NAT emulation, not the internal one.
    pub fn enable_wire_tap(&mut self) {
        self.host.wire_tap = Some(Vec::new());
    }

    /// Drains the datagrams queued since the last call (wire-tap mode).
    pub fn take_outbound(&mut self) -> Vec<Outbound<P::Msg>> {
        self.host.wire_tap.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Injects a datagram received from an external transport, addressed to
    /// `to` and observed as coming from `from_ep` (post-NAT). The protocol
    /// handling is identical to a simulated delivery.
    pub fn deliver_wire(&mut self, to: PeerId, from_ep: Endpoint, msg: P::Msg) {
        if !self.host.net.is_alive(to) {
            return;
        }
        self.host.net.note_received(to, self.proto.payload_bytes(&msg));
        self.proto.on_msg(&mut self.host, to, from_ep, msg);
    }

    /// Starts recording every gossip-target selection (peer ids, in
    /// selection order) for randomness analysis. Call before running.
    pub fn enable_sample_log(&mut self) {
        self.host.sample_log = Some(Vec::new());
    }

    /// The recorded target selections, if logging was enabled.
    pub fn sample_log(&self) -> Option<&[u32]> {
        self.host.sample_log.as_deref()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &P::Config {
        self.proto.config()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.host.now()
    }

    /// The underlying network (for oracles and traffic stats).
    pub fn net(&self) -> &Network<P::Msg> {
        &self.host.net
    }

    /// Protocol counters.
    pub fn stats(&self) -> P::Stats {
        self.proto.stats()
    }

    /// Reports kernel, net, and engine-layer telemetry into `out`.
    /// Read-only: see [`PeerSampler::obs_report`]'s contract.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.host.sim.obs_report(out);
        self.host.net.obs_report(out);
        self.proto.obs_report(out);
        if let Some(f) = &self.host.faults {
            f.obs_report(out);
        }
    }

    /// Adds a peer of the given NAT class and returns its id.
    ///
    /// If the engine is already running, the peer starts its rounds one
    /// random phase into the next period (a joining node).
    pub fn add_peer(&mut self, class: NatClass) -> PeerId {
        let id = self.host.net.add_peer(class);
        let rng = self.host.node_rng::<P>(id);
        self.proto.add_node(id, rng);
        if self.host.started && self.host.owns(id) {
            self.arm(&[id]);
        }
        id
    }

    /// Enables a permanent UPnP/NAT-PMP port forwarding for a natted peer
    /// (no-op for public peers). Call before bootstrapping so descriptors
    /// advertise the forwarded endpoint.
    pub fn enable_port_forwarding(&mut self, peer: PeerId) {
        let _ = self.host.net.enable_port_forwarding(peer);
    }

    /// Adds a peer that knows the alive ones among `contacts` (the join
    /// path: a new node is handed a few existing members).
    pub fn add_peer_with_bootstrap(&mut self, class: NatClass, contacts: &[PeerId]) -> PeerId {
        let id = self.add_peer(class);
        for c in contacts {
            if *c != id && self.host.net.is_alive(*c) {
                self.proto.join_contact(&mut self.host, id, *c);
            }
        }
        id
    }

    /// Fills every view with up to `per_view` uniformly chosen *public*
    /// peers (the paper's bootstrap: "all peers' views are filled with
    /// randomly chosen public peers", guaranteeing an initially connected
    /// graph). What happens without any public peer is the protocol's
    /// call; see [`Protocol::bootstrap`].
    pub fn bootstrap_random_public(&mut self, per_view: usize) {
        self.proto.bootstrap(&mut self.host, per_view);
    }

    /// Schedules the first round of every peer (random phase within one
    /// period) and the periodic NAT garbage collection.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.host.started, "engine already started");
        self.host.started = true;
        // Only owned nodes get timers; skipping the phase draw too is safe
        // because each node draws from its own stream.
        let host = &self.host;
        let peers: Vec<PeerId> = host.net.alive_peers().filter(|p| host.owns(*p)).collect();
        self.arm(&peers);
        self.host.sim.schedule_after(PURGE_EVERY, Ev::Purge);
    }

    /// Hands `peers` to [`Protocol::on_start`], then schedules each one's
    /// first round at a random phase of the period.
    fn arm(&mut self, peers: &[PeerId]) {
        self.proto.on_start(&self.host, peers);
        let period = self.proto.shuffle_period().as_millis();
        for p in peers {
            let phase = SimDuration::from_millis(self.proto.rng_of(*p).gen_range(0..period));
            self.host.sim.schedule_after(phase, Ev::Shuffle(*p));
        }
    }

    /// Runs the simulation for `dur` of virtual time, as the lone worker
    /// of its run: in lockstep ticks, every send staged until the tick
    /// boundary and merged there in canonical order — what
    /// [`Sharded`] does with S workers, so the output is the same bytes.
    ///
    /// # Panics
    ///
    /// Panics on a worker of a multi-shard plan; its driver advances it.
    pub fn run_for(&mut self, dur: SimDuration) {
        assert!(self.host.shard.plan.shards() == 1, "a shard worker is advanced by its driver");
        let from = self.host.now();
        // The wire tap takes every send before it is staged, so there is
        // nothing to merge: one tick spans the call.
        let tick = if self.host.wire_tap.is_some() { dur } else { self.host.tick };
        run_lone(self, from, from + dur, tick, |_| {});
    }

    fn run_until(&mut self, deadline: SimTime) {
        while let Some((_, ev)) = self.host.sim.step_before(deadline) {
            self.handle(ev);
        }
        self.host.sim.advance_to(deadline);
    }

    /// Runs for `n` shuffle periods.
    pub fn run_rounds(&mut self, n: u64) {
        self.run_for(self.proto.shuffle_period() * n);
    }

    /// Kills a set of peers simultaneously (fail-stop churn). Only a fault
    /// plan can revive a peer, so without one the protocol is told the
    /// death is final (see [`Protocol::on_kill`]).
    pub fn kill_peers(&mut self, peers: &[PeerId]) {
        for p in peers {
            self.host.net.kill_peer(*p);
            if self.host.faults.is_none() {
                self.proto.on_kill(*p);
            }
        }
    }

    /// The view of a peer (dead peers keep their last view).
    pub fn view_of(&self, peer: PeerId) -> &PartialView {
        self.proto.view_of(peer)
    }

    /// Mutable view access (the adversary seam; see
    /// [`PeerSampler::view_of_mut`]).
    pub fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView {
        self.proto.view_of_mut(peer)
    }

    /// A peer's fresh (age-0) self-descriptor, as it would advertise
    /// itself in a shuffle.
    pub fn descriptor_of(&self, peer: PeerId) -> NodeDescriptor {
        self.host.descriptor_of(peer)
    }

    /// Iterator over alive peers.
    pub fn alive_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.host.net.alive_peers()
    }

    /// Whether `holder` could communicate over this view entry right now
    /// (see [`PeerSampler::edge_usable`]).
    pub fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        self.proto.edge_usable(&self.host, holder, d)
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Shuffle(p) => self.on_timer(p),
            Ev::Deliver(key) => {
                let flight = self.host.flights.remove(key);
                self.on_deliver(flight);
            }
            Ev::Purge => {
                let now = self.host.now();
                self.host.net.purge_expired_nat_state(now);
                self.host.sim.schedule_after(PURGE_EVERY, Ev::Purge);
            }
            Ev::Fault => self.on_fault(),
        }
    }

    /// Runs an alive peer's round and re-arms its timer.
    ///
    /// Dead peers stop gossiping; their timer chain normally ends here.
    /// Under a fault plan the chain keeps ticking idle
    /// ([`Protocol::on_idle_round`]) so a later Revive fault resumes the
    /// peer at its original phase (no rescheduling, hence no cross-shard
    /// tie hazards).
    fn on_timer(&mut self, p: PeerId) {
        if self.host.net.is_alive(p) {
            self.proto.on_round(&mut self.host, p);
        } else if self.host.faults.is_none() {
            return;
        } else {
            self.proto.on_idle_round(p);
        }
        self.host.sim.schedule_after(self.proto.shuffle_period(), Ev::Shuffle(p));
    }

    /// Applies due fault-plan events and re-arms for the next instant.
    /// Revived peers need no timer surgery; see [`on_timer`](Self::on_timer).
    fn on_fault(&mut self) {
        let host = &mut self.host;
        let now = host.sim.now();
        let Some(rt) = host.faults.as_mut() else { return };
        let shard = &host.shard;
        rt.apply_due(now, &mut host.net, |p| shard.owns(p), &mut Vec::new());
        if let Some(at) = rt.next_at() {
            host.sim.schedule_at(at, Ev::Fault);
        }
    }

    fn on_deliver(&mut self, flight: InFlight<P::Msg>) {
        let now = self.host.now();
        match self.host.net.deliver(now, flight) {
            Delivery::ToPeer { to, from_ep, payload } => {
                self.proto.on_msg(&mut self.host, to, from_ep, payload)
            }
            // The drop is counted by the fabric; the payload buffer still
            // goes back to the pool.
            Delivery::Dropped { payload, .. } => self.proto.recycle(payload),
        }
    }
}

impl<P: Protocol> PeerSampler for Engine<P> {
    type Config = P::Config;

    fn with_seed(cfg: P::Config, net_cfg: NetConfig, seed: u64) -> Self {
        Engine::new(cfg, net_cfg, seed)
    }

    fn add_peer(&mut self, class: NatClass) -> PeerId {
        Engine::add_peer(self, class)
    }

    fn enable_port_forwarding(&mut self, peer: PeerId) {
        Engine::enable_port_forwarding(self, peer);
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        Engine::install_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> FaultStats {
        Engine::fault_stats(self)
    }

    fn bootstrap_random_public(&mut self, per_view: usize) {
        Engine::bootstrap_random_public(self, per_view);
    }

    fn start(&mut self) {
        Engine::start(self);
    }

    fn run_for(&mut self, dur: SimDuration) {
        Engine::run_for(self, dur);
    }

    fn run_rounds(&mut self, n: u64) {
        Engine::run_rounds(self, n);
    }

    fn kill_peers(&mut self, peers: &[PeerId]) {
        Engine::kill_peers(self, peers);
    }

    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn shuffle_period(&self) -> SimDuration {
        self.proto.shuffle_period()
    }

    fn peer_count(&self) -> usize {
        self.host.net.peer_count()
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        self.host.net.is_alive(peer)
    }

    fn class_of(&self, peer: PeerId) -> NatClass {
        self.host.net.class_of(peer)
    }

    fn traffic_of(&self, peer: PeerId) -> TrafficStats {
        self.host.net.stats_of(peer)
    }

    fn alive_peers(&self) -> Vec<PeerId> {
        self.host.net.alive_peers().collect()
    }

    fn view_of(&self, peer: PeerId) -> &PartialView {
        Engine::view_of(self, peer)
    }

    fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView {
        Engine::view_of_mut(self, peer)
    }

    fn descriptor_of(&self, peer: PeerId) -> NodeDescriptor {
        Engine::descriptor_of(self, peer)
    }

    fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        Engine::edge_usable(self, holder, d)
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        Engine::obs_report(self, out);
    }
}

impl<P: Protocol> ShardSampler for Engine<P> {
    fn set_shard(&mut self, plan: ShardPlan, idx: usize) {
        Engine::set_shard(self, plan, idx);
    }

    fn edge_usable_sharded(
        holder_shard: &Self,
        target_shard: &Self,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        holder_shard.proto.edge_usable_sharded(&holder_shard.host, &target_shard.host, holder, d)
    }
}

impl<P: Protocol> ShardWorker for Engine<P> {
    type Envelope = InFlight<P::Msg>;

    fn run_tick(&mut self, boundary: SimTime) {
        self.run_until(boundary);
    }

    fn outbox(&mut self) -> &mut [Vec<InFlight<P::Msg>>] {
        &mut self.host.shard.staged
    }

    fn absorb(&mut self, batch: &mut Vec<InFlight<P::Msg>>) {
        sort_tick_batch(batch);
        for f in batch.drain(..) {
            self.host.schedule_delivery(f);
        }
    }

    fn envelope_bytes(envelope: &InFlight<P::Msg>) -> u64 {
        envelope.wire_bytes as u64
    }
}

impl<P: Protocol> Sharded<Engine<P>> {
    /// Run-wide protocol counters: the per-shard counters merged.
    pub fn stats(&self) -> P::Stats {
        let mut total = P::Stats::default();
        for e in self.shards() {
            total.merge(&e.stats());
        }
        total
    }

    /// Total events processed across all shard event loops.
    pub fn events_processed(&self) -> u64 {
        self.shards().iter().map(|e| e.events_processed()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BaselineEngine, BaselineMsg};
    use crate::policy::GossipConfig;
    use nylon_net::NatType;

    fn engine_with(publics: usize, natted: usize, seed: u64) -> BaselineEngine {
        let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), seed);
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..natted {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng
    }

    /// Every peer's contacts over a few streams: `want(p)` of them, never
    /// `p`, never one twice.
    fn assert_contacts(eng: &BaselineEngine, per_view: usize, want: impl Fn(PeerId) -> usize) {
        let pool = eng.host.bootstrap_pool();
        for p in eng.alive_peers() {
            for seed in 0..20 {
                let mut c = pool.contacts(p, &mut SimRng::new(seed), per_view);
                assert_eq!(c.len(), want(p), "contacts of {p}");
                assert!(!c.contains(&p), "{p} drew itself");
                let publics = c.iter().filter(|q| eng.net().class_of(**q).is_public()).count();
                assert_eq!(publics, if pool.fallback { 0 } else { c.len() }, "contacts of {p}");
                c.sort_unstable();
                c.dedup();
                assert_eq!(c.len(), want(p), "{p} drew a contact twice");
            }
        }
    }

    #[test]
    fn bootstrap_contacts_are_distinct_publics_and_never_self() {
        assert_contacts(&engine_with(20, 40, 1), 8, |_| 8);
        // A short pool gives what it has: the other two publics to a
        // public peer, all three to a natted one.
        assert_contacts(&engine_with(3, 5, 1), 8, |p| if p.0 < 3 { 2 } else { 3 });
        assert_contacts(&engine_with(1, 2, 1), 8, |p| usize::from(p.0 != 0));
        // No public peer: everyone else.
        let all_natted = engine_with(0, 5, 1);
        assert!(all_natted.host.bootstrap_pool().fallback);
        assert_contacts(&all_natted, 3, |_| 3);
        assert_contacts(&all_natted, 8, |_| 4);
    }

    #[test]
    fn bootstrap_contacts_are_uniform_over_the_pool_minus_self() {
        // The pool's last peer stands in for `p`'s own slot: it must come
        // up as often as any other.
        let pool = engine_with(10, 5, 1).host.bootstrap_pool();
        for p in [PeerId(0), PeerId(3), PeerId(9), PeerId(12)] {
            let mut hits = [0u32; 10];
            for seed in 0..3_000 {
                for q in pool.contacts(p, &mut SimRng::new(seed), 3) {
                    hits[q.index()] += 1;
                }
            }
            let others = 10 - usize::from(p.0 < 10);
            let expected = 3_000.0 * 3.0 / others as f64;
            for (q, n) in hits.iter().enumerate().filter(|(q, _)| *q != p.index()) {
                let off = (f64::from(*n) - expected).abs() / expected;
                assert!(off < 0.12, "{p}: contact {q} drawn {n} times, expected {expected:.0}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "engine already started")]
    fn double_start_panics() {
        let mut eng = engine_with(5, 0, 1);
        eng.start();
        eng.start();
    }

    #[test]
    #[should_panic(expected = "minimum network latency of at least 1 ms")]
    fn zero_latency_fabric_is_rejected_at_construction() {
        let net = NetConfig { latency: SimDuration::ZERO, ..NetConfig::default() };
        let _ = BaselineEngine::new(GossipConfig::default(), net, 1);
    }

    #[test]
    fn flight_slab_recycles_slots() {
        // The slab must converge to the high-water mark of concurrent
        // in-flight datagrams: slots recycle, no monotonic growth.
        let mut eng = engine_with(30, 10, 33);
        eng.start();
        eng.run_rounds(20);
        let high = eng.host.flights.slot_count();
        assert!(high > 0, "warm-up must have scheduled deliveries");
        eng.run_rounds(1_000);
        assert!(
            eng.host.flights.slot_count() <= high * 2 + 8,
            "flight slab grew from {high} to {} slots over 1k rounds",
            eng.host.flights.slot_count()
        );
    }

    #[test]
    fn wire_tap_queues_datagrams_instead_of_flying_them() {
        let mut eng = engine_with(10, 0, 3);
        eng.enable_wire_tap();
        eng.start();
        eng.run_rounds(2);
        let out = eng.take_outbound();
        assert!(!out.is_empty(), "rounds must emit datagrams onto the tap");
        assert!(out.iter().all(|o| matches!(o.payload, BaselineMsg::Request { .. })));
        assert_eq!(eng.host.flights.slot_count(), 0, "tapped datagrams must not enter the fabric");
        assert!(eng.take_outbound().is_empty(), "the queue drains");
        // An injected request is handled like a simulated delivery: the
        // target answers onto the tap.
        let first = &out[0];
        let to = eng.net().addressee_of(first.dst).expect("public target");
        let from_ep = eng.net().identity_endpoint(first.from);
        eng.deliver_wire(to, from_ep, first.payload.clone());
        assert_eq!(eng.stats().requests_received, 1);
        assert!(matches!(eng.take_outbound()[..], [Outbound { from, .. }] if from == to));
    }
}
