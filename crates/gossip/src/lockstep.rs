//! The engine: a [`Protocol`] on one or more lockstep workers.
//!
//! [`Engine<P>`] runs every simulation. It records the set-up —
//! the population, port forwarding, the fault plan, the bootstrap — until
//! [`start`](Engine::start), when the population is complete and it knows
//! how many workers to use. That comes from the [`Workers`] scope the
//! engine was built in ([`with_workers`]): by default one worker per
//! 625 peers, at least one, at most the cores this thread may use
//! ([`auto_workers`]); under a fixed [`ShardPlan`], that plan. Each
//! worker then replays the record on its own thread, keeping state only
//! for the peers it owns plus the address plan of the rest; a join, which
//! needs the contact's worker and the joiner's in turn, is the one set-up
//! step replayed here in order.
//!
//! The workers advance in lockstep ticks of the fabric's minimum latency:
//! every send is staged until the tick boundary and merged there in
//! canonical order ([`crate::host::sort_tick_batch`]), so a run is
//! byte-identical at every worker count and node→worker map. One worker
//! is that loop run inline ([`nylon_sim::ShardedSim::run_until`]), without threads;
//! queries go to the worker owning the peer they ask about.
//!
//! A state query made before `start` settles a self-sizing engine on one
//! worker.

use std::cell::{Cell, OnceCell};
use std::sync::{Arc, OnceLock};

use nylon_faults::{FaultPlan, FaultStats};
use nylon_net::{Endpoint, NatClass, NetConfig, Network, Outbound, PeerId, TrafficStats};
use nylon_obs::Counters;
use nylon_sim::{ShardPlan, ShardedSim, Share, SimDuration, SimTime};

use crate::descriptor::NodeDescriptor;
use crate::host::{Intro, Protocol, Worker};
use crate::sampler::PeerSampler;
use crate::view::PartialView;

/// Peers per worker the automatic sizing aims at: two workers from 1 250
/// peers, where a steady baseline runs as fast on two as on one (ledger
/// sweep, README "worker rule"). Nylon, with more work per peer, gains
/// from two already at 500.
const PEERS_PER_WORKER: usize = 625;

/// The number of workers an engine of `peers` starts on: one per 625
/// peers, at least one, and at most its share of `cores` when it runs as
/// one of `jobs` concurrent jobs.
pub fn auto_workers(peers: usize, cores: usize, jobs: usize) -> usize {
    (peers / PEERS_PER_WORKER).clamp(1, (cores / jobs.max(1)).max(1))
}

/// Where the engines built on a thread take their workers from.
#[derive(Debug, Clone, Copy)]
pub enum Workers {
    /// Sized at start as one of this many concurrent jobs: at most
    /// ⌊cores / jobs⌋ workers (see [`auto_workers`]).
    OneOf(usize),
    /// This plan, whatever the population.
    Plan(ShardPlan),
}

thread_local! {
    static WORKERS: Cell<Workers> = const { Cell::new(Workers::OneOf(1)) };
}

/// Runs `f` with the engines built inside it taking their workers from
/// `workers`. The experiment executor runs each of its threads under
/// this; every choice renders the same bytes.
pub fn with_workers<R>(workers: Workers, f: impl FnOnce() -> R) -> R {
    let outer = WORKERS.replace(workers);
    let out = f();
    WORKERS.set(outer);
    out
}

/// The lockstep tick: the minimum latency any datagram can experience
/// under `cfg`, which is the conservative lookahead — a message sent
/// inside a tick always arrives after the tick's barrier.
///
/// # Panics
///
/// Panics on a zero-minimum-latency config (the lookahead argument needs
/// every send to take at least one virtual millisecond).
fn lockstep_tick(cfg: &NetConfig) -> SimDuration {
    let min = cfg.min_latency();
    assert!(!min.is_zero(), "sharded runs need a minimum network latency of at least 1 ms");
    min
}

/// The cores this process may use.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One set-up call, recorded until the workers are built.
#[derive(Debug)]
enum SetupOp {
    /// The peers up to this count exist (their classes are recorded).
    Peers(usize),
    Forward(PeerId),
    Faults(Arc<FaultPlan>),
    /// `fallback` when no alive peer was public: the bootstrap is then a
    /// sequence of joins, not a pass each worker makes alone.
    Bootstrap {
        per_view: usize,
        fallback: bool,
    },
    Kill(Vec<PeerId>),
    Join(PeerId, Vec<PeerId>),
    Start,
}

impl SetupOp {
    /// Whether applying the call needs two workers in turn.
    fn crosses_workers(&self) -> bool {
        matches!(self, SetupOp::Join(..) | SetupOp::Bootstrap { fallback: true, .. })
    }
}

/// The set-up recorded until the workers are built.
#[derive(Debug, Default)]
struct Setup {
    /// Every peer's class, in id order.
    classes: Vec<NatClass>,
    /// Every peer's liveness.
    alive: Vec<bool>,
    ops: Vec<SetupOp>,
    sample_log: bool,
    wire_tap: bool,
}

/// The workers of a built engine and their lockstep clock.
#[derive(Debug)]
struct Run<P: Protocol> {
    sim: ShardedSim<Worker<P>>,
    started: bool,
    wire_tap: bool,
}

impl<P: Protocol> Run<P> {
    fn workers(&self) -> &[Worker<P>] {
        self.sim.workers()
    }

    /// The worker owning `peer`.
    fn owner(&self, peer: PeerId) -> &Worker<P> {
        let ws = self.sim.workers();
        &ws[owner_index(ws, peer)]
    }

    fn owner_mut(&mut self, peer: PeerId) -> &mut Worker<P> {
        let ws = self.sim.workers_mut();
        let i = owner_index(ws, peer);
        &mut ws[i]
    }

    /// The address plan, which every worker holds.
    fn plan_net(&self) -> &Network<P::Msg> {
        &self.workers()[0].host.net
    }
}

fn owner_index<P: Protocol>(workers: &[Worker<P>], peer: PeerId) -> usize {
    workers[0].host.net.share().owner_of(peer.0)
}

/// Runs `f` on every worker, each on its own thread (inline for one).
fn each_worker<P: Protocol>(workers: &mut [Worker<P>], f: impl Fn(&mut Worker<P>) + Sync) {
    match workers {
        [] => {}
        [only] => f(only),
        [first, rest @ ..] => std::thread::scope(|s| {
            let f = &f;
            for w in rest {
                s.spawn(move || f(w));
            }
            f(first);
        }),
    }
}

/// Applies recorded set-up calls to the workers: runs of calls a worker
/// applies alone go to all of them at once, joins run here in turn.
fn apply<P: Protocol>(workers: &mut [Worker<P>], ops: &[SetupOp], classes: &[NatClass]) {
    for run in ops.split_inclusive(SetupOp::crosses_workers) {
        let (joins, alone) = match run.split_last() {
            Some((last, alone)) if last.crosses_workers() => (Some(last), alone),
            _ => (None, run),
        };
        if !alone.is_empty() {
            each_worker(workers, |w| alone.iter().for_each(|op| replay(w, op, classes)));
        }
        match joins {
            Some(SetupOp::Join(p, contacts)) => {
                for c in contacts {
                    if *c != *p && workers[0].host.net.is_alive(*c) {
                        join(workers, *p, *c);
                    }
                }
            }
            Some(SetupOp::Bootstrap { per_view, .. }) => {
                // No public peer: every alive peer joins up to `per_view`
                // others, drawn from its own stream, in id order.
                let pool = workers[0].host.bootstrap_pool();
                for &p in &pool.peers {
                    let owner = owner_index(workers, p);
                    for q in pool.contacts(p, workers[owner].proto.rng_of(p), *per_view) {
                        join(workers, p, q);
                    }
                }
            }
            _ => {}
        }
    }
}

/// One worker's part of a set-up call that needs no other worker.
fn replay<P: Protocol>(w: &mut Worker<P>, op: &SetupOp, classes: &[NatClass]) {
    match op {
        SetupOp::Peers(n) => {
            for class in &classes[w.host.net.peer_count()..*n] {
                w.add_peer(*class);
            }
        }
        SetupOp::Forward(p) => drop(w.host.net.enable_port_forwarding(*p)),
        SetupOp::Faults(plan) => w.install_fault_plan(Arc::clone(plan)),
        SetupOp::Bootstrap { per_view, .. } => w.bootstrap(*per_view),
        SetupOp::Kill(peers) => w.kill_peers(peers),
        SetupOp::Start => w.start(),
        SetupOp::Join(..) => unreachable!("joins cross workers"),
    }
}

/// Peer `p` joins through `contact`: what the contact hands over is
/// gathered on its worker — opening the NAT holes between the two when
/// the protocol asks, one worker after the other as a handshake would —
/// then handed to `p`'s.
///
/// The handshake models an out-of-band join (the paper bootstraps views
/// with *public* peers; this exists for the degenerate 100 %-NAT
/// population where no public peer is available). A public contact's hole
/// is its identity endpoint. Towards a natted contact, the contact opens a
/// session to `p`'s predicted source endpoint, then `p` one to the
/// contact's so replies pass its own filter. Pairs whose filtering is
/// port-exact on both sides (e.g. a symmetric joiner towards a
/// port-restricted contact) cannot be pre-opened this way and still need
/// relaying — exactly as in a real deployment.
fn join<P: Protocol>(workers: &mut [Worker<P>], p: PeerId, contact: PeerId) {
    let (wp, wc) = (owner_index(workers, p), owner_index(workers, contact));
    let descriptor = workers[wc].host.descriptor_of(contact);
    let relay = workers[wc].proto.relay_of(contact);
    let hole = P::JOIN_OPENS_HOLES.then(|| {
        if descriptor.class.is_public() {
            return descriptor.addr;
        }
        let now = workers[wp].host.now();
        let src = workers[wp].host.net.source_toward(now, p, descriptor.addr);
        let contact_ep = workers[wc].host.net.open_toward(now, contact, src);
        workers[wp].host.net.open_toward(now, p, contact_ep);
        contact_ep
    });
    let w = &mut workers[wp];
    w.proto.join_contact(&mut w.host, p, &Intro { descriptor, hole, relay });
}

/// Panics if `P` cannot bootstrap without public peers and must.
fn check_bootstrap<P: Protocol>(fallback: bool) {
    assert!(
        !fallback || P::BOOTSTRAPS_WITHOUT_PUBLICS,
        "{} requires at least one public peer to bootstrap",
        std::any::type_name::<P>()
    );
}

/// A peer-sampling engine: [`Protocol`] `P` on the shared host, driven on
/// as many workers as its population is worth.
///
/// Usage: construct, [`add_peer`](Self::add_peer) the population,
/// [`bootstrap_random_public`](Self::bootstrap_random_public),
/// [`start`](Self::start), then [`run_rounds`](Self::run_rounds) /
/// [`run_for`](Self::run_for). See the crate-level example.
#[derive(Debug)]
pub struct Engine<P: Protocol> {
    cfg: P::Config,
    net_cfg: NetConfig,
    seed: u64,
    period: SimDuration,
    /// The lockstep tick: the fabric's minimum latency.
    tick: SimDuration,
    /// The scope the engine was built in.
    workers: Workers,
    setup: Setup,
    run: OnceCell<Run<P>>,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine with the given protocol and fabric configuration;
    /// `seed` drives every random choice in the run. The engine builds its
    /// workers at [`start`](Self::start), as the [`Workers`] scope it is
    /// created in says.
    ///
    /// # Panics
    ///
    /// Panics if `P` rejects the configuration (see [`Protocol::new`]) or
    /// the fabric has a zero minimum latency, which leaves the lockstep
    /// ticks no lookahead.
    pub fn new(cfg: P::Config, net_cfg: NetConfig, seed: u64) -> Self {
        let tick = lockstep_tick(&net_cfg);
        // `Protocol::new` is where a protocol turns a configuration away.
        let period = P::new(cfg.clone(), &net_cfg, Share::whole()).shuffle_period();
        Engine {
            cfg,
            net_cfg,
            seed,
            period,
            tick,
            workers: WORKERS.get(),
            setup: Setup::default(),
            run: OnceCell::new(),
        }
    }

    /// The plan the workers are built on: the scope's fixed one, else
    /// [`auto_workers`] at start and one worker for a query before it.
    fn plan(&self, starting: bool) -> ShardPlan {
        match self.workers {
            Workers::Plan(plan) => plan,
            Workers::OneOf(jobs) if starting => {
                ShardPlan::round_robin(auto_workers(self.peer_count(), cores(), jobs))
            }
            Workers::OneOf(_) => ShardPlan::round_robin(1),
        }
    }

    /// Builds the workers of `plan` and replays the set-up on them.
    fn build(&self, plan: ShardPlan) -> Run<P> {
        let setup = &self.setup;
        let mut workers: Vec<Worker<P>> = (0..plan.shards())
            .map(|i| {
                let mut w =
                    Worker::new(self.cfg.clone(), &self.net_cfg, self.seed, Share::new(plan, i));
                w.host.wire_tap = setup.wire_tap.then(Vec::new);
                w.host.sample_log = setup.sample_log.then(Vec::new);
                w
            })
            .collect();
        apply(&mut workers, &setup.ops, &setup.classes);
        Run {
            sim: ShardedSim::new(workers),
            started: setup.ops.iter().any(|op| matches!(op, SetupOp::Start)),
            wire_tap: setup.wire_tap,
        }
    }

    /// The workers, settled on the fixed plan or one worker if the engine
    /// has not started.
    fn run(&self) -> &Run<P> {
        self.run.get_or_init(|| self.build(self.plan(false)))
    }

    fn run_mut(&mut self) -> &mut Run<P> {
        self.run();
        // Replayed: the record has served.
        self.setup = Setup::default();
        self.run.get_mut().expect("settled above")
    }

    /// Applies one set-up call: to the workers once built, else to the
    /// record.
    fn setup_op(&mut self, op: SetupOp) {
        match self.run.get_mut() {
            Some(run) => apply(run.sim.workers_mut(), &[op], &[]),
            None => self.setup.ops.push(op),
        }
    }

    /// The number of workers (1 until the engine is built).
    pub fn worker_count(&self) -> usize {
        self.run.get().map_or(1, |r| r.workers().len())
    }

    /// The protocol state of the engine's one worker, for
    /// protocol-specific accessors (e.g. Nylon's `routing_of`).
    ///
    /// An engine starts on several workers when [`auto_workers`] gives
    /// more than one for its population on the machine's cores; a caller
    /// that needs this then pins one worker by building the engine
    /// under [`with_workers`]`(Workers::Plan(ShardPlan::round_robin(1)), ..)`.
    /// Counters summed over the workers are [`stats`](Self::stats).
    ///
    /// # Panics
    ///
    /// Panics if the engine runs on more than one worker.
    pub fn protocol(&self) -> &P {
        &self.only().proto
    }

    /// The fabric of the engine's one worker (for oracles and traffic
    /// stats).
    ///
    /// As with [`protocol`](Self::protocol), a caller that needs this on
    /// an engine [`auto_workers`] would split pins one worker. At any
    /// worker count, [`traffic_of`](Self::traffic_of) answers `net().stats_of`, and
    /// [`class_of`](Self::class_of), [`is_alive`](Self::is_alive) and
    /// [`peer_count`](Self::peer_count) their namesakes.
    ///
    /// # Panics
    ///
    /// Panics if the engine runs on more than one worker.
    pub fn net(&self) -> &Network<P::Msg> {
        &self.only().host.net
    }

    pub(crate) fn only(&self) -> &Worker<P> {
        match self.run().workers() {
            [only] => only,
            ws => panic!("one worker's state asked of an engine on {} workers", ws.len()),
        }
    }

    /// Installs a compiled fault plan: applies its topology faults and
    /// schedules its timed events. Call after the population is added and
    /// before bootstrap, so descriptors advertise post-CGN identities.
    ///
    /// # Panics
    ///
    /// Panics if the engine has already started or a plan is installed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let installed = self.setup.ops.iter().any(|op| matches!(op, SetupOp::Faults(_)));
        assert!(!installed, "fault plan already installed");
        assert!(
            !self.run.get().is_some_and(|r| r.started),
            "install the fault plan before start()"
        );
        self.setup_op(SetupOp::Faults(Arc::new(plan)));
    }

    /// Counters of faults applied so far, summed over the workers.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for w in self.run().workers() {
            total.merge(&w.fault_stats());
        }
        total
    }

    /// Total events processed by the workers' event loops.
    pub fn events_processed(&self) -> u64 {
        self.run().workers().iter().map(Worker::events_processed).sum()
    }

    /// Switches the engine to wire-tap mode: datagrams are no longer routed
    /// through the simulated fabric but collected for an external transport
    /// (see [`take_outbound`](Self::take_outbound)), and inbound datagrams
    /// enter via [`deliver_wire`](Self::deliver_wire). Protocol behaviour
    /// is untouched — only the carriage substrate changes — and, with no
    /// datagram crossing between them, the workers advance independently.
    ///
    /// Note: in this mode the fabric's NAT state sees no traffic, so an
    /// `edge_usable` oracle built on packet-level reachability reflects
    /// the wire's NAT emulation, not the internal one.
    pub fn enable_wire_tap(&mut self) {
        match self.run.get_mut() {
            Some(run) => {
                run.wire_tap = true;
                for w in run.sim.workers_mut() {
                    w.host.wire_tap.get_or_insert_with(Vec::new);
                }
            }
            None => self.setup.wire_tap = true,
        }
    }

    /// Drains the datagrams queued since the last call (wire-tap mode), in
    /// sender order — per sender in send order — whatever the worker
    /// count.
    pub fn take_outbound(&mut self) -> Vec<Outbound<P::Msg>> {
        let Some(run) = self.run.get_mut() else { return Vec::new() };
        let mut out = Vec::new();
        for tap in run.sim.workers_mut().iter_mut().filter_map(|w| w.host.wire_tap.as_mut()) {
            out.append(tap);
        }
        out.sort_by_key(|o| o.from);
        out
    }

    /// Injects a datagram received from an external transport, addressed to
    /// `to` and observed as coming from `from_ep` (post-NAT). The protocol
    /// handling — on `to`'s worker — is identical to a simulated delivery.
    pub fn deliver_wire(&mut self, to: PeerId, from_ep: Endpoint, msg: P::Msg) {
        self.run_mut().owner_mut(to).deliver_wire(to, from_ep, msg);
    }

    /// Starts recording every gossip-target selection for randomness
    /// analysis. Call before running.
    pub fn enable_sample_log(&mut self) {
        match self.run.get_mut() {
            Some(run) => {
                for w in run.sim.workers_mut() {
                    w.host.sample_log.get_or_insert_with(Vec::new);
                }
            }
            None => self.setup.sample_log = true,
        }
    }

    /// The recorded target selections (peer ids), if logging was enabled:
    /// by instant, then by selecting peer — the same sequence at any worker
    /// count.
    pub fn sample_log(&self) -> Option<Vec<u32>> {
        let Some(run) = self.run.get() else { return self.setup.sample_log.then(Vec::new) };
        let mut merged = Vec::new();
        for w in run.workers() {
            merged.extend_from_slice(w.host.sample_log.as_deref()?);
        }
        merged.sort_by_key(|&(at, selector, _)| (at, selector));
        Some(merged.into_iter().map(|(_, _, target)| target.0).collect())
    }

    /// The protocol configuration.
    pub fn config(&self) -> &P::Config {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.run.get().map_or(SimTime::ZERO, |r| r.sim.now())
    }

    /// Protocol counters, summed over the workers.
    pub fn stats(&self) -> P::Stats {
        let mut total = P::Stats::default();
        for w in self.run().workers() {
            total.merge(&w.proto.stats());
        }
        total
    }

    /// Reports the lockstep loop's telemetry, then every worker's kernel,
    /// net, engine-layer and fault telemetry into `out`: counters sum,
    /// gauges of additive state sum over the workers, the rest max,
    /// histograms merge exactly — all commutative, so the result is
    /// independent of the worker count. In `out` every gauge is an
    /// ordinary one, so reports of several engines merge by maximum.
    /// Read-only: see [`PeerSampler::obs_report`]'s contract.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        let run = self.run();
        run.sim.obs_report(out);
        let mut parts = nylon_obs::Report::new();
        for (i, w) in run.workers().iter().enumerate() {
            let mut lane = nylon_obs::Report::new();
            w.obs_report(&mut lane);
            out.counter("shard", &format!("lane{i}_events"), w.events_processed());
            parts.absorb_part(&lane);
        }
        out.absorb(&parts);
    }

    /// Adds a peer of the given NAT class and returns its id.
    ///
    /// If the engine is already running, the peer starts its rounds one
    /// random phase into the next period (a joining node).
    pub fn add_peer(&mut self, class: NatClass) -> PeerId {
        if let Some(run) = self.run.get_mut() {
            let mut id = None;
            for w in run.sim.workers_mut() {
                let got = w.add_peer(class);
                assert!(id.is_none_or(|prev| prev == got), "workers disagree on peer ids");
                id = Some(got);
            }
            return id.expect("at least one worker");
        }
        let setup = &mut self.setup;
        setup.classes.push(class);
        setup.alive.push(true);
        let n = setup.classes.len();
        match setup.ops.last_mut() {
            Some(SetupOp::Peers(count)) => *count = n,
            _ => setup.ops.push(SetupOp::Peers(n)),
        }
        PeerId(n as u32 - 1)
    }

    /// Enables a permanent UPnP/NAT-PMP port forwarding for a natted peer
    /// (no-op for public peers). Call before bootstrapping so descriptors
    /// advertise the forwarded endpoint.
    pub fn enable_port_forwarding(&mut self, peer: PeerId) {
        self.setup_op(SetupOp::Forward(peer));
    }

    /// Adds a peer that knows the alive ones among `contacts` (the join
    /// path: a new node is handed a few existing members).
    pub fn add_peer_with_bootstrap(&mut self, class: NatClass, contacts: &[PeerId]) -> PeerId {
        let id = self.add_peer(class);
        self.setup_op(SetupOp::Join(id, contacts.to_vec()));
        id
    }

    /// Fills every view with up to `per_view` uniformly chosen *public*
    /// peers (the paper's bootstrap: "all peers' views are filled with
    /// randomly chosen public peers", guaranteeing an initially connected
    /// graph). Without any alive public peer, every peer instead joins up
    /// to `per_view` arbitrary ones ([`Protocol::join_contact`]).
    ///
    /// # Panics
    ///
    /// Panics without public peers if the protocol cannot do without
    /// ([`Protocol::BOOTSTRAPS_WITHOUT_PUBLICS`]).
    pub fn bootstrap_random_public(&mut self, per_view: usize) {
        let fallback = match self.run.get() {
            Some(run) => run.workers()[0].host.bootstrap_pool().fallback,
            None => !self.alive_peers().any(|p| self.class_of(p).is_public()),
        };
        check_bootstrap::<P>(fallback);
        self.setup_op(SetupOp::Bootstrap { per_view, fallback });
    }

    /// Schedules the first round of every peer (random phase within one
    /// period) and the periodic NAT garbage collection — on the workers
    /// of the [`Workers`] scope the engine was built in, built and set up
    /// in parallel, unless a query settled the engine earlier.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        if let Some(run) = self.run.get_mut() {
            assert!(!run.started, "engine already started");
            run.started = true;
            each_worker(run.sim.workers_mut(), Worker::start);
            return;
        }
        self.setup.ops.push(SetupOp::Start);
        let run = self.build(self.plan(true));
        let _ = self.run.set(run);
        self.setup = Setup::default();
    }

    /// Runs the simulation for `dur` of virtual time: in lockstep ticks,
    /// every send staged until the tick boundary and merged there in
    /// canonical order.
    pub fn run_for(&mut self, dur: SimDuration) {
        let lockstep = self.tick;
        let run = self.run_mut();
        // The wire tap takes every send before it is staged, so there is
        // nothing to merge: one tick spans the call.
        let tick = if run.wire_tap { dur } else { lockstep };
        let deadline = run.sim.now() + dur;
        run.sim.run_until(deadline, tick);
    }

    /// Runs for `n` shuffle periods.
    pub fn run_rounds(&mut self, n: u64) {
        self.run_for(self.period * n);
    }

    /// Kills a set of peers simultaneously (fail-stop churn). Only a fault
    /// plan can revive a peer, so without one the protocol is told the
    /// death is final (see [`Protocol::on_kill`]).
    pub fn kill_peers(&mut self, peers: &[PeerId]) {
        if self.run.get().is_none() {
            for p in peers {
                self.setup.alive[p.index()] = false;
            }
        }
        self.setup_op(SetupOp::Kill(peers.to_vec()));
    }

    /// Total number of peers ever added (alive or dead).
    pub fn peer_count(&self) -> usize {
        self.run.get().map_or(self.setup.classes.len(), |r| r.plan_net().peer_count())
    }

    /// Whether a peer is alive.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        match self.run.get() {
            Some(run) => run.plan_net().is_alive(peer),
            None => self.setup.alive[peer.index()],
        }
    }

    /// A peer's NAT class.
    pub fn class_of(&self, peer: PeerId) -> NatClass {
        match self.run.get() {
            Some(run) => run.plan_net().class_of(peer),
            None => self.setup.classes[peer.index()],
        }
    }

    /// Iterator over alive peers, in id order.
    pub fn alive_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.peer_count() as u32).map(PeerId).filter(|p| self.is_alive(*p))
    }

    /// A peer's cumulative traffic counters.
    pub fn traffic_of(&self, peer: PeerId) -> TrafficStats {
        self.run().owner(peer).host.net.stats_of(peer)
    }

    /// The view of a peer (dead peers keep their last view).
    pub fn view_of(&self, peer: PeerId) -> &PartialView {
        self.run().owner(peer).proto.view_of(peer)
    }

    /// Mutable access to a peer's view. Every protocol draws its shuffle
    /// payloads from the view, so rewriting a peer's view between rounds
    /// controls exactly what it advertises next: the adversary's pass
    /// (`nylon_adversary::Attack`) does that, and honest drivers never
    /// call this.
    pub fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView {
        self.run_mut().owner_mut(peer).proto.view_of_mut(peer)
    }

    /// A peer's fresh (age-0) self-descriptor, as it would advertise
    /// itself in a shuffle: asked of its own worker, the one that knows a
    /// natted peer's current endpoint.
    pub fn descriptor_of(&self, peer: PeerId) -> NodeDescriptor {
        self.run().owner(peer).host.descriptor_of(peer)
    }

    /// Whether `holder` could communicate over this view entry right now
    /// (see [`PeerSampler::edge_usable`]): asked of the holder's worker,
    /// with the target's for the NAT state on its side.
    pub fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        let run = self.run();
        if let [only] = run.workers() {
            return only.proto.edge_usable(&only.host, &only.host, holder, d);
        }
        if d.id.index() >= self.peer_count() {
            return false;
        }
        let h = run.owner(holder);
        h.proto.edge_usable(&h.host, &run.owner(d.id).host, holder, d)
    }
}

/// Merges the engine's telemetry ([`Engine::obs_report`]) into the stats
/// sink when one is installed, so every run's counters reach `--stats`
/// without its driver flushing them. An engine whose workers were never
/// built has nothing to report, and one dropped while its thread panics
/// reports nothing.
impl<P: Protocol> Drop for Engine<P> {
    fn drop(&mut self) {
        if !nylon_obs::is_active() || self.run.get().is_none() || std::thread::panicking() {
            return;
        }
        let mut report = nylon_obs::Report::new();
        self.obs_report(&mut report);
        nylon_obs::merge_report(&report);
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
        self.period
    }

    fn peer_count(&self) -> usize {
        Engine::peer_count(self)
    }

    fn is_alive(&self, peer: PeerId) -> bool {
        Engine::is_alive(self, peer)
    }

    fn class_of(&self, peer: PeerId) -> NatClass {
        Engine::class_of(self, peer)
    }

    fn traffic_of(&self, peer: PeerId) -> TrafficStats {
        Engine::traffic_of(self, peer)
    }

    fn alive_peers(&self) -> Vec<PeerId> {
        Engine::alive_peers(self).collect()
    }

    fn view_of(&self, peer: PeerId) -> &PartialView {
        Engine::view_of(self, peer)
    }

    fn edge_usable(&self, holder: PeerId, d: &NodeDescriptor) -> bool {
        Engine::edge_usable(self, holder, d)
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        Engine::obs_report(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BaselineEngine, ShuffleStats};
    use crate::policy::GossipConfig;
    use nylon_net::NatType;
    use nylon_sim::{ShardAssign, SimRng};

    /// `n` peers, 30 % public, the rest behind port-restricted cones.
    fn populate(eng: &mut impl PeerSampler, n: u32) {
        for i in 0..n {
            let class = if i % 10 < 3 {
                NatClass::Public
            } else {
                NatClass::Natted(NatType::PortRestrictedCone)
            };
            eng.add_peer(class);
        }
    }

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

    fn on_workers(
        workers: usize,
        assign: ShardAssign,
        cfg: GossipConfig,
        net: NetConfig,
        seed: u64,
    ) -> BaselineEngine {
        let plan = Workers::Plan(ShardPlan::new(workers, assign));
        with_workers(plan, || BaselineEngine::new(cfg, net, seed))
    }

    /// Protocol counters plus every view, as sorted ids.
    fn fingerprint(eng: &BaselineEngine) -> (ShuffleStats, Vec<Vec<u32>>) {
        let views = (0..eng.peer_count() as u32)
            .map(|i| {
                let mut ids: Vec<u32> = eng.view_of(PeerId(i)).iter().map(|d| d.id.0).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        (eng.stats(), views)
    }

    fn run_on(workers: usize, assign: ShardAssign, seed: u64) -> BaselineEngine {
        let (cfg, net) = (GossipConfig::default(), NetConfig::default());
        let mut eng = on_workers(workers, assign, cfg, net, seed);
        populate(&mut eng, 60);
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(8);
        eng
    }

    #[test]
    fn workers_are_one_per_625_peers_within_the_core_share() {
        assert_eq!(auto_workers(400, 2, 1), 1);
        assert_eq!(auto_workers(1_249, 2, 1), 1);
        assert_eq!(auto_workers(1_250, 2, 1), 2);
        assert_eq!(auto_workers(200_000, 2, 1), 2);
        assert_eq!(auto_workers(2_500, 8, 1), 4);
        assert_eq!(auto_workers(20_000, 8, 1), 8);
        assert_eq!(auto_workers(200_000, 8, 1), 8);
        // `repro --full`: as many jobs as cores leaves each cell one.
        assert_eq!(auto_workers(10_000, 2, 2), 1);
        assert_eq!(auto_workers(10_000, 2, 4), 1);
        assert_eq!(auto_workers(100_000, 16, 4), 4);
        assert_eq!(auto_workers(0, 0, 0), 1);
    }

    #[test]
    fn engines_size_themselves_at_start_as_one_of_their_jobs() {
        let start = || {
            let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 1);
            populate(&mut eng, 10_000);
            eng.bootstrap_random_public(8);
            eng.start();
            eng
        };
        assert_eq!(start().worker_count(), auto_workers(10_000, cores(), 1));
        assert_eq!(with_workers(Workers::OneOf(cores()), start).worker_count(), 1);
        // Reading the address plan leaves the choice to `start`; a state
        // query settles the engine on one worker.
        let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 1);
        populate(&mut eng, 10_000);
        assert!(eng.class_of(PeerId(0)).is_public() && eng.alive_peers().count() == 10_000);
        let mut settled = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 1);
        populate(&mut settled, 10_000);
        assert!(settled.view_of(PeerId(0)).is_empty());
        for e in [&mut eng, &mut settled] {
            e.bootstrap_random_public(8);
            e.start();
        }
        assert_eq!(eng.worker_count(), auto_workers(10_000, cores(), 1));
        assert_eq!(settled.worker_count(), 1);
    }

    #[test]
    fn worker_count_and_map_do_not_change_the_run() {
        let reference = fingerprint(&run_on(1, ShardAssign::RoundRobin, 7));
        assert!(reference.0.initiated > 300, "run too small to be meaningful");
        for workers in [2usize, 4] {
            for assign in [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(3)] {
                let got = fingerprint(&run_on(workers, assign, 7));
                assert_eq!(got, reference, "run diverged on {workers} workers, {assign:?}");
            }
        }
        let other_seed = fingerprint(&run_on(2, ShardAssign::RoundRobin, 8));
        assert_ne!(other_seed, reference, "the seed must reach a multi-worker run");
    }

    #[test]
    fn tiny_tick_barrier_stress_pins_the_merge_order() {
        // 1 ms lockstep ticks (latency 2 ms ± 1 ms jitter) against a
        // 200 ms shuffle period: thousands of barrier crossings, every
        // flight arriving within a tick or two of its send — the densest
        // cross-worker interleaving the lockstep loop can see, with the jittered
        // per-peer RNG path active. Every adversarial map must still
        // reproduce the one-worker run exactly, pinning the canonical
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
        let run = |workers, assign| {
            let mut eng = on_workers(workers, assign, cfg.clone(), net.clone(), 7);
            populate(&mut eng, 40);
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
    fn additive_gauges_total_over_the_workers() {
        let gauges = |workers| {
            let mut r = nylon_obs::Report::new();
            run_on(workers, ShardAssign::RoundRobin, 7).obs_report(&mut r);
            [
                ("net", "nat_sessions"),
                ("net", "nat_session_slots"),
                ("net", "nat_box_bytes"),
                ("net", "alive_peers"),
                ("view", "slot_bytes"),
            ]
            .map(|(layer, metric)| match r.get(layer, metric) {
                Some(nylon_obs::MetricValue::Gauge(v)) => *v,
                other => panic!("{layer}/{metric}: {other:?}"),
            })
        };
        let one = gauges(1);
        assert!(one[0] > 0, "no NAT session to count");
        assert_eq!(gauges(2), one);
        assert_eq!(gauges(3), one);
    }

    #[test]
    fn kills_and_usability_oracle_work_across_workers() {
        let victims: Vec<PeerId> = (0..10).map(PeerId).collect();
        let run = |workers| {
            let mut eng = run_on(workers, ShardAssign::RoundRobin, 11);
            eng.kill_peers(&victims);
            eng.run_rounds(2);
            eng
        };
        let (one, three) = (run(1), run(3));
        assert_eq!(three.alive_peers().count(), 50);
        for holder in one.alive_peers() {
            let usable = |eng: &BaselineEngine| -> Vec<bool> {
                eng.view_of(holder).iter().map(|d| eng.edge_usable(holder, d)).collect()
            };
            // Edges toward dead peers are unusable wherever the ends live,
            // and the two-worker oracle agrees with the one-worker one.
            for d in three.view_of(holder).iter().filter(|d| victims.contains(&d.id)) {
                assert!(!three.edge_usable(holder, d), "dead target reported usable");
            }
            assert_eq!(usable(&one), usable(&three), "oracle diverged for holder {holder:?}");
        }
    }

    #[test]
    fn sample_log_and_wire_tap_read_the_same_at_any_worker_count() {
        let run = |workers| {
            let (cfg, net) = (GossipConfig::default(), NetConfig::default());
            let mut eng = on_workers(workers, ShardAssign::RoundRobin, cfg, net, 7);
            populate(&mut eng, 60);
            eng.bootstrap_random_public(8);
            eng.enable_sample_log();
            eng.start();
            eng.run_rounds(6);
            let log = eng.sample_log().expect("enabled");
            // Wire-tap mode: each worker advances on its own, and an
            // injected datagram is handled by its addressee's worker.
            eng.enable_wire_tap();
            eng.run_rounds(1);
            let out = eng.take_outbound();
            let first = &out[0];
            let to = eng.run().plan_net().addressee_of(first.dst).expect("a target");
            let from_ep = eng.descriptor_of(first.from).addr;
            eng.deliver_wire(to, from_ep, first.payload.clone());
            let answers = eng.take_outbound();
            let sent: Vec<String> = out.iter().chain(&answers).map(|o| format!("{o:?}")).collect();
            (log, sent, fingerprint(&eng))
        };
        let one = run(1);
        assert!(!one.0.is_empty() && !one.1.is_empty());
        assert_eq!(run(2), one);
        assert_eq!(run(3), one);
    }

    /// Every peer's contacts over a few streams: `want(p)` of them, never
    /// `p`, never one twice.
    fn assert_contacts(eng: &BaselineEngine, per_view: usize, want: impl Fn(PeerId) -> usize) {
        let pool = eng.only().host.bootstrap_pool();
        for p in eng.alive_peers() {
            for seed in 0..20 {
                let mut c = pool.contacts(p, &mut SimRng::new(seed), per_view);
                assert_eq!(c.len(), want(p), "contacts of {p}");
                assert!(!c.contains(&p), "{p} drew itself");
                let publics = c.iter().filter(|q| eng.class_of(**q).is_public()).count();
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
        assert!(all_natted.only().host.bootstrap_pool().fallback);
        assert_contacts(&all_natted, 3, |_| 3);
        assert_contacts(&all_natted, 8, |_| 4);
    }

    #[test]
    fn bootstrap_contacts_are_uniform_over_the_pool_minus_self() {
        // The pool's last peer stands in for `p`'s own slot: it must come
        // up as often as any other.
        let pool = engine_with(10, 5, 1).only().host.bootstrap_pool();
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
}
