//! The engine host: one event loop, four protocols.
//!
//! The paper specifies a gossip peer sampler as two handlers — the
//! periodic *active thread* and the on-receive *passive thread* (Figure 1
//! for the baseline, Figure 6 for Nylon). A [`Protocol`] is exactly that
//! pair plus its per-node state; everything else is written once, here
//! and in [`crate::lockstep`]: the event kernel and simulated fabric, the
//! flight slab, staging, the fault runtime, the wire tap, the sample log,
//! the purge timer and the run loop. The four engines of this workspace
//! are type aliases: `Engine<Baseline>`, `Engine<PeerSwap>`,
//! `Engine<Nylon>`, `Engine<StaticRvp>`.
//!
//! A [`Host`] is one *worker*'s share of a run: the fabric of the peers
//! its [`Share`] owns plus the address plan of all of them, its own event
//! loop, and an outbox per worker. The engine drives one or more workers
//! in lockstep; a protocol handler only ever acts for an owned peer.
//!
//! Generics are monomorphised — no `dyn`, no boxed handler on the event
//! path — so each alias compiles to the loop its hand-written predecessor
//! had.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use nylon_faults::{FaultPlan, FaultRuntime, FaultStats};
use nylon_net::{
    Delivery, Endpoint, InFlight, NatClass, NetConfig, Network, Outbound, PeerId, Slab, SlabKey,
};
use nylon_sim::{ShardWorker, Share, Sim, SimDuration, SimRng, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::sampler::SamplerConfig;
use crate::view::PartialView;
use crate::Engine;

/// A gossip peer-sampling protocol: per-node state plus the two handlers
/// of the paper's pseudocode, hosted by [`Engine`].
///
/// The implementing type holds all protocol state of one worker —
/// configuration, counters, buffer pools, and a [`NodeTable`] with one node
/// per owned peer — and reaches the outside world only through the
/// [`Host`] it is handed.
///
/// # Call order
///
/// 1. [`new`](Self::new), then [`add_node`](Self::add_node) once per
///    *owned* peer in id order.
/// 2. Optionally [`on_fault_plan`](Self::on_fault_plan), then one
///    [`join_contact`](Self::join_contact) per bootstrap contact.
/// 3. [`on_start`](Self::on_start) with the owned alive peers, after which
///    the host draws each one's first-round phase from
///    [`rng_of`](Self::rng_of). A peer joining a started engine repeats
///    steps 1 and 3 for itself, then joins its contacts.
/// 4. Per period and alive owned peer, [`on_round`](Self::on_round); per
///    delivered datagram, [`on_msg`](Self::on_msg); per dropped one,
///    [`recycle`](Self::recycle).
///
/// # Randomness and scheduling
///
/// A handler acting for peer `p` may draw from `p`'s own stream only
/// (streams are pure in `(seed, id)`, which is what makes a run replay at
/// any worker count), and only [`join_contact`](Self::join_contact),
/// [`on_start`](Self::on_start), [`on_round`](Self::on_round) and
/// [`on_msg`](Self::on_msg) may draw at all; the host draws bootstrap
/// contacts from the same stream. No handler schedules events: sending
/// through [`Host::send_msg`] is the one way to cause a future event, and
/// the host re-arms the round timer itself after `on_round` returns.
/// [`edge_usable`](Self::edge_usable), [`obs_report`](Self::obs_report)
/// and [`payload_bytes`](Self::payload_bytes) are read-only oracles.
pub trait Protocol: fmt::Debug + Send + Sized + 'static {
    /// The configuration that builds this protocol's engine.
    type Config: SamplerConfig<Sampler = Engine<Self>> + fmt::Debug;
    /// The wire message.
    type Msg: fmt::Debug + Send + 'static;
    /// Aggregate protocol counters, summed across workers.
    type Stats: nylon_obs::Counters;

    /// Fork label of the per-node RNG streams (or-ed with the peer id).
    const NODE_RNG_LABEL: u64;
    /// Salt xor-ed into the run seed to seed the fabric's own stream.
    const NET_SEED_SALT: u64;
    /// Whether a join pre-opens NAT holes between a peer and the contact
    /// it joins through (see [`Intro::hole`]).
    const JOIN_OPENS_HOLES: bool = false;
    /// Whether a population with no alive public peer can bootstrap: it
    /// then joins arbitrary peers instead.
    const BOOTSTRAPS_WITHOUT_PUBLICS: bool = true;

    /// Creates one worker's protocol state for an empty population, for
    /// the peers `share` owns; panics on a configuration the protocol
    /// cannot run under.
    fn new(cfg: Self::Config, net_cfg: &NetConfig, share: Share) -> Self;

    /// Interval between two rounds initiated by one peer.
    fn shuffle_period(&self) -> SimDuration;

    /// Protocol counters so far.
    fn stats(&self) -> Self::Stats;

    /// Appends the state of owned peer `id`, which draws from `rng` from
    /// now on.
    fn add_node(&mut self, id: PeerId, rng: SimRng);

    /// The view of an owned peer.
    fn view_of(&self, peer: PeerId) -> &PartialView;

    /// Mutable view access: joins insert through it, and
    /// [`Engine::view_of_mut`](crate::Engine::view_of_mut) hands it to the
    /// adversary's pass between rounds.
    fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView;

    /// An owned peer's RNG stream.
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

    /// `p` learns of a contact out of band — the bootstrap, or the join
    /// handshake of a peer added to a running overlay.
    fn join_contact(&mut self, _host: &mut Host<Self::Msg>, p: PeerId, contact: &Intro) {
        self.view_of_mut(p).insert(contact.descriptor);
    }

    /// The peer relaying for owned `peer`, for protocols that bind one; a
    /// contact hands it to peers joining through it ([`Intro::relay`]).
    fn relay_of(&self, _peer: PeerId) -> Option<PeerId> {
        None
    }

    /// Whether `holder` could communicate over view entry `d` right now
    /// (see [`crate::PeerSampler::edge_usable`]), asked of the holder's
    /// worker with the hosts owning each side's NAT state — the same host
    /// twice on one worker.
    fn edge_usable(
        &self,
        holder_host: &Host<Self::Msg>,
        target_host: &Host<Self::Msg>,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool;

    /// Reports protocol-layer telemetry (counters, pools) into `out`,
    /// including the gauge `engine.<protocol>/pending_exchanges`: the
    /// exchanges nodes still wait on, which must track live state rather
    /// than history. Levels of per-node state are sum-merged gauges
    /// ([`nylon_obs::Report::gauge_sum`]), so a multi-worker run reports
    /// its total.
    fn obs_report(&self, out: &mut nylon_obs::Report);

    /// `peers` (owned, alive) are about to get their first round timer.
    fn on_start(&mut self, _host: &Host<Self::Msg>, _peers: &[PeerId]) {}

    /// Owned `peer` was killed for good (no fault plan can revive it).
    fn on_kill(&mut self, _peer: PeerId) {}

    /// The round timer of owned `peer` fired while it is down under a
    /// fault plan that may revive it. Nothing is sent or drawn for a dead
    /// peer, but state that ages by rounds must keep ageing here, or it
    /// reads on revival as fresh as it was at the crash.
    fn on_idle_round(&mut self, _peer: PeerId) {}

    /// A fault plan is being installed.
    fn on_fault_plan(&mut self, _plan: &FaultPlan) {}
}

/// A protocol's per-node state on one worker: one `N` per owned peer, in
/// id order, addressed by [`PeerId`] through the worker's [`Share`].
#[derive(Debug)]
pub struct NodeTable<N> {
    share: Share,
    nodes: Vec<N>,
}

impl<N> NodeTable<N> {
    /// An empty table for the peers `share` owns.
    pub fn new(share: Share) -> Self {
        NodeTable { share, nodes: Vec::new() }
    }

    /// Appends the node of owned peer `id`, the next owned id.
    pub fn push(&mut self, id: PeerId, node: N) {
        let slot = self.share.admit(id.0);
        debug_assert_eq!(slot, Some(self.nodes.len()), "{id} is not the next owned peer");
        self.nodes.push(node);
    }

    /// The owned nodes, in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, N> {
        self.nodes.iter()
    }
}

impl<'a, N> IntoIterator for &'a NodeTable<N> {
    type Item = &'a N;
    type IntoIter = std::slice::Iter<'a, N>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.iter()
    }
}

impl<N> Index<PeerId> for NodeTable<N> {
    type Output = N;

    #[inline]
    fn index(&self, peer: PeerId) -> &N {
        &self.nodes[self.share.slot(peer.0)]
    }
}

impl<N> IndexMut<PeerId> for NodeTable<N> {
    #[inline]
    fn index_mut(&mut self, peer: PeerId) -> &mut N {
        &mut self.nodes[self.share.slot(peer.0)]
    }
}

/// What a contact hands a peer joining through it (see
/// [`Protocol::join_contact`]), gathered on the contact's worker.
#[derive(Debug, Clone, Copy)]
pub struct Intro {
    /// The contact's fresh self-descriptor.
    pub descriptor: NodeDescriptor,
    /// Where the joiner reaches the contact through a pre-opened NAT hole:
    /// set for a join handshake of a protocol that asks for one
    /// ([`Protocol::JOIN_OPENS_HOLES`]) — never for the paper's bootstrap
    /// off public peers.
    pub hole: Option<Endpoint>,
    /// The contact's relay ([`Protocol::relay_of`]); none before start.
    pub relay: Option<PeerId>,
}

/// The peers a bootstrap draws contacts from: the alive public peers, or
/// every alive peer when there is no public one.
#[derive(Debug)]
pub struct BootstrapPool {
    /// In id order.
    pub(crate) peers: Vec<PeerId>,
    /// Whether there was no public peer, so the pool is everyone.
    pub fallback: bool,
}

impl BootstrapPool {
    /// Up to `per_view` distinct contacts for `p`, uniform over the
    /// `per_view`-subsets of the pool minus `p` itself (all of it when it
    /// is shorter), in O(`per_view`) and `min(per_view, pool − p)` draws
    /// from `rng` — `p`'s own stream, so the result is the same on
    /// whichever worker asks.
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

/// Raw packet-level reachability, the usability oracle of protocols that
/// address view entries directly (baseline, PeerSwap):
/// [`Network::reachable`] with egress translation previewed on the
/// holder's host and ingress filtering tested on the target's.
pub fn directly_reachable<M>(
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

/// Sorts a merged tick batch into the canonical delivery order: arrival
/// instant, then sending node (per-sender order is positional — a sender's
/// flights arrive already in its send order, and a stable sort keeps them
/// there). The key is a pure function of the logical message stream, which
/// is what makes output independent of the worker count.
pub fn sort_tick_batch<M>(batch: &mut [InFlight<M>]) {
    batch.sort_by_key(|f| (f.arrive_at, f.sender.0));
}

/// One gossip-target selection of the sample log: when, who chose, whom.
pub(crate) type Sample = (SimTime, PeerId, PeerId);

/// What a [`Protocol`] handler may touch besides its own state: the
/// worker's fabric (directly), and the kernel, carriage substrate and
/// sample log (through methods only).
#[derive(Debug)]
pub struct Host<M> {
    /// The simulated NAT-aware fabric: NAT state and traffic of the peers
    /// this worker owns, plus every peer's liveness, class and address
    /// plan. Sending goes through [`Host::send_msg`].
    pub net: Network<M>,
    sim: Sim<Ev>,
    /// In-flight datagrams, parked here while their 4-byte handle travels
    /// through the timer wheel (see [`Ev`]); slots recycle, so the slab's
    /// footprint is the high-water mark of concurrent flights.
    flights: Slab<InFlight<M>>,
    /// Outgoing flights staged per destination worker — every datagram,
    /// including ones between two co-located peers, so delivery order is
    /// fixed by the canonical merge in `absorb`, never by which peers
    /// happen to share a worker. Emptied by the engine at every tick
    /// boundary.
    staged: Vec<Vec<InFlight<M>>>,
    /// `Some` in wire-tap mode: datagrams queue here for an external
    /// transport instead of entering the fabric.
    pub(crate) wire_tap: Option<Vec<Outbound<M>>>,
    pub(crate) sample_log: Option<Vec<Sample>>,
    /// `Some` when a fault plan is installed.
    faults: Option<FaultRuntime>,
    started: bool,
}

impl<M> Host<M> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Whether this worker owns `peer`: holds its protocol state and acts
    /// for it — always true for the lone worker of a one-worker run.
    pub fn owns(&self, peer: PeerId) -> bool {
        self.net.owns(peer)
    }

    /// A peer's fresh (age-0) self-descriptor: any public peer's, or an
    /// owned natted one's.
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

    /// Records `selector`'s choice of gossip target when the sample log is
    /// on.
    pub fn log_sample(&mut self, selector: PeerId, target: PeerId) {
        if let Some(log) = &mut self.sample_log {
            log.push((self.sim.now(), selector, target));
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
            // To the worker owning the addressee, or kept here when the
            // destination is unroutable: the local `deliver` then counts
            // the drop — on a fixed worker, so counters stay deterministic.
            let share = self.net.share();
            let dst = match self.net.addressee_of(flight.dst_ep) {
                Some(q) => share.owner_of(q.0),
                None => share.index(),
            };
            self.staged[dst].push(flight);
        }
    }

    fn schedule_delivery(&mut self, flight: InFlight<M>) {
        let at = flight.arrive_at;
        self.sim.schedule_at(at, Ev::Deliver(self.flights.insert(flight)));
    }

    /// A fresh copy of peer `id`'s RNG stream at its origin: the stream
    /// [`Protocol::add_node`] receives.
    fn node_rng<P: Protocol<Msg = M>>(&mut self, id: PeerId) -> SimRng {
        self.sim.rng().fork(P::NODE_RNG_LABEL | id.0 as u64)
    }
}

/// One worker of an engine: protocol `P` for the peers its share owns, on
/// its own host.
#[derive(Debug)]
pub(crate) struct Worker<P: Protocol> {
    pub(crate) proto: P,
    pub(crate) host: Host<P::Msg>,
}

impl<P: Protocol> Worker<P> {
    /// Worker `share` of a run; `seed` drives every random choice, and is
    /// the same on every worker — per-node streams are pure in `(seed,
    /// id)`, and only the owner ever advances one.
    pub(crate) fn new(cfg: P::Config, net_cfg: &NetConfig, seed: u64, share: Share) -> Self {
        let staged = (0..share.plan().shards()).map(|_| Vec::new()).collect();
        Worker {
            proto: P::new(cfg, net_cfg, share.clone()),
            host: Host {
                net: Network::for_worker(net_cfg.clone(), seed ^ P::NET_SEED_SALT, share),
                sim: Sim::new(seed),
                flights: Slab::new(),
                staged,
                wire_tap: None,
                sample_log: None,
                faults: None,
                started: false,
            },
        }
    }

    /// Adds a peer to the address plan — and, when owned, its protocol
    /// node, with its first round armed if the run has started.
    pub(crate) fn add_peer(&mut self, class: NatClass) -> PeerId {
        let id = self.host.net.add_peer(class);
        if self.host.owns(id) {
            let rng = self.host.node_rng::<P>(id);
            self.proto.add_node(id, rng);
            if self.host.started {
                self.arm(&[id]);
            }
        }
        id
    }

    /// Installs a compiled fault plan: applies its topology faults now and
    /// schedules its timed events.
    pub(crate) fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        let host = &mut self.host;
        assert!(!host.started, "install the fault plan before start()");
        assert!(host.faults.is_none(), "fault plan already installed");
        plan.apply_topology(&mut host.net);
        self.proto.on_fault_plan(&plan);
        let rt = FaultRuntime::new(plan, host.net.share().index() == 0);
        if let Some(at) = rt.next_at() {
            host.sim.schedule_at(at, Ev::Fault);
        }
        host.faults = Some(rt);
    }

    /// Counters of faults applied on this worker.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        self.host.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// The paper's bootstrap off public peers, for the owned ones: each
    /// learns up to `per_view` of them ([`BootstrapPool::contacts`]), whose
    /// descriptors every worker knows.
    pub(crate) fn bootstrap(&mut self, per_view: usize) {
        let pool = self.host.bootstrap_pool();
        assert!(!pool.fallback, "a bootstrap without public peers is a sequence of joins");
        let owned: Vec<PeerId> =
            self.host.net.alive_peers().filter(|p| self.host.owns(*p)).collect();
        for p in owned {
            for q in pool.contacts(p, self.proto.rng_of(p), per_view) {
                let contact =
                    Intro { descriptor: self.host.descriptor_of(q), hole: None, relay: None };
                self.proto.join_contact(&mut self.host, p, &contact);
            }
        }
    }

    /// Schedules the first round of every owned alive peer (random phase
    /// within one period) and the periodic NAT garbage collection.
    pub(crate) fn start(&mut self) {
        assert!(!self.host.started, "engine already started");
        self.host.started = true;
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

    /// Kills a set of peers simultaneously (fail-stop churn). Only a fault
    /// plan can revive a peer, so without one the owner's protocol is told
    /// the death is final (see [`Protocol::on_kill`]).
    pub(crate) fn kill_peers(&mut self, peers: &[PeerId]) {
        for p in peers {
            self.host.net.kill_peer(*p);
            if self.host.faults.is_none() && self.host.owns(*p) {
                self.proto.on_kill(*p);
            }
        }
    }

    /// Handles a datagram an external transport delivered to owned `to`.
    pub(crate) fn deliver_wire(&mut self, to: PeerId, from_ep: Endpoint, msg: P::Msg) {
        if !self.host.net.is_alive(to) {
            return;
        }
        self.host.net.note_received(to, self.proto.payload_bytes(&msg));
        self.proto.on_msg(&mut self.host, to, from_ep, msg);
    }

    /// Reports kernel, net, view, engine-layer and fault telemetry into
    /// `out`. The view gauges total the buffers of every owned peer's
    /// view, dead peers' included (they keep their last view).
    pub(crate) fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.host.sim.obs_report(out);
        self.host.net.obs_report(out);
        let slots: usize = (0..self.host.net.peer_count() as u32)
            .map(PeerId)
            .filter(|p| self.host.owns(*p))
            .map(|p| self.proto.view_of(p).slots())
            .sum();
        out.gauge_sum("view", "slots", slots as u64);
        out.gauge_sum("view", "slot_bytes", (slots * size_of::<NodeDescriptor>()) as u64);
        self.proto.obs_report(out);
        if let Some(f) = &self.host.faults {
            f.obs_report(out);
        }
    }

    /// Total events processed by this worker's event loop.
    pub(crate) fn events_processed(&self) -> u64 {
        self.host.sim.events_processed()
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
    /// peer at its original phase (no rescheduling, hence no cross-worker
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
        rt.apply_due(now, &mut host.net);
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

impl<P: Protocol> ShardWorker for Worker<P> {
    type Envelope = InFlight<P::Msg>;

    fn run_tick(&mut self, boundary: SimTime) {
        while let Some((_, ev)) = self.host.sim.step_before(boundary) {
            self.handle(ev);
        }
        self.host.sim.advance_to(boundary);
    }

    fn outbox(&mut self) -> &mut [Vec<InFlight<P::Msg>>] {
        &mut self.host.staged
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

#[cfg(test)]
mod tests {
    use crate::engine::{BaselineEngine, BaselineMsg};
    use crate::policy::GossipConfig;
    use nylon_net::{NatClass, NetConfig, Outbound};

    fn engine_with(publics: usize, seed: u64) -> BaselineEngine {
        let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), seed);
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        eng.bootstrap_random_public(8);
        eng
    }

    #[test]
    fn flight_slab_recycles_slots() {
        // The slab must converge to the high-water mark of concurrent
        // in-flight datagrams: slots recycle, no monotonic growth.
        let mut eng = engine_with(40, 33);
        eng.start();
        eng.run_rounds(20);
        let high = eng.only().host.flights.slot_count();
        assert!(high > 0, "warm-up must have scheduled deliveries");
        eng.run_rounds(1_000);
        let now = eng.only().host.flights.slot_count();
        assert!(now <= high * 2 + 8, "flight slab grew from {high} to {now} slots over 1k rounds");
    }

    #[test]
    fn wire_tap_queues_datagrams_instead_of_flying_them() {
        let mut eng = engine_with(10, 3);
        eng.enable_wire_tap();
        eng.start();
        eng.run_rounds(2);
        let out = eng.take_outbound();
        assert!(!out.is_empty(), "rounds must emit datagrams onto the tap");
        assert!(out.iter().all(|o| matches!(o.payload, BaselineMsg::Request { .. })));
        assert_eq!(
            eng.only().host.flights.slot_count(),
            0,
            "tapped datagrams must not enter the fabric"
        );
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
