//! Lockstep sharded simulation driver.
//!
//! One logical simulation is partitioned across `S` shards, each owning a
//! disjoint subset of the nodes and running its *own* event loop (timer
//! wheel, slab, per-node RNG streams — all the machinery of a
//! single-threaded [`Sim`](crate::Sim)). The shards advance in lockstep
//! ticks of at most the minimum network latency (the classic conservative
//! lookahead of parallel discrete-event simulation): every message sent
//! during tick `k` arrives strictly after the tick boundary, so exchanging
//! the per-(src, dst) outboxes at the barrier and scheduling them before
//! tick `k+1` starts can never deliver a message into its own past.
//!
//! Determinism does **not** come from thread scheduling discipline — it
//! comes from the merge order. Each shard's outgoing envelopes for a tick
//! are collected per destination shard; at the barrier the destination
//! concatenates all incoming batches and [`ShardWorker::absorb`] sorts
//! them into a canonical order that is a function of the *logical* stream
//! (arrival time, sending node, per-sender send order) and not of which
//! shard — or which thread — produced them. Combined with per-node RNG
//! streams (`SimRng::fork` is a pure function of `(seed, label)`), the
//! observable output is byte-identical for every shard count and every
//! node→shard map.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::time::{SimDuration, SimTime};

/// Deterministic node→shard assignment.
///
/// Round-robin is the default (it balances load for id-correlated
/// populations such as "every 10th peer is public"); the other variants
/// exist mostly to *stress* the canonical merge order in tests — a correct
/// sharded run must produce identical output under all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssign {
    /// `node % shards`.
    RoundRobin,
    /// Every node on shard 0; the other shards idle. Degenerate but legal.
    AllOnOne,
    /// Pseudo-random assignment derived from the given salt (pure in
    /// `(salt, node)`, so still deterministic).
    Random(u64),
}

/// A shard count plus an assignment rule; `shard_of` is a pure function,
/// so every shard (and every run) agrees on who owns each node without
/// coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    assign: ShardAssign,
}

impl ShardPlan {
    /// A plan over `shards` shards with the given assignment rule.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, assign: ShardAssign) -> Self {
        assert!(shards > 0, "a sharded sim needs at least one shard");
        ShardPlan { shards, assign }
    }

    /// Round-robin plan, the default assignment.
    pub fn round_robin(shards: usize) -> Self {
        ShardPlan::new(shards, ShardAssign::RoundRobin)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: u32) -> usize {
        match self.assign {
            ShardAssign::RoundRobin => node as usize % self.shards,
            ShardAssign::AllOnOne => 0,
            ShardAssign::Random(salt) => {
                (splitmix64(salt ^ u64::from(node)) % self.shards as u64) as usize
            }
        }
    }
}

/// One worker's share of a [`ShardPlan`]: which nodes it owns, and where
/// each owned node sits in the worker's dense per-node tables.
///
/// A worker stores state only for the nodes it owns, in id order, so an
/// owned node's slot is its rank among them. Under round-robin that rank
/// is arithmetic — `node / S`, which makes the one-worker case `node`
/// itself; the test-only maps list their owned nodes and search that
/// list.
#[derive(Debug, Clone)]
pub struct Share {
    plan: ShardPlan,
    idx: usize,
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    /// Owner `node % d`, slot `node / d`: round-robin over `d` workers —
    /// and all-on-one, whose `d` of 1 puts every node on worker 0 at its
    /// own id.
    Div { d: u32 },
    /// The owned nodes in id order (owner from the plan, slot by search).
    Listed(Vec<u32>),
}

impl Share {
    /// Worker `idx`'s share of `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a shard of `plan`.
    pub fn new(plan: ShardPlan, idx: usize) -> Self {
        assert!(idx < plan.shards(), "shard index out of range");
        let slots = match plan.assign {
            ShardAssign::RoundRobin => Slots::Div { d: plan.shards as u32 },
            ShardAssign::AllOnOne => Slots::Div { d: 1 },
            ShardAssign::Random(_) => Slots::Listed(Vec::new()),
        };
        Share { plan, idx, slots }
    }

    /// The only worker of a one-worker plan: it owns every node.
    pub fn whole() -> Self {
        Share::new(ShardPlan::round_robin(1), 0)
    }

    /// The plan this share belongs to.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// This worker's index in the plan.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The worker owning `node`.
    #[inline]
    pub fn owner_of(&self, node: u32) -> usize {
        match self.slots {
            Slots::Div { d } => (node % d) as usize,
            Slots::Listed(_) => self.plan.shard_of(node),
        }
    }

    /// Whether this worker owns `node`.
    #[inline]
    pub fn owns(&self, node: u32) -> bool {
        self.owner_of(node) == self.idx
    }

    /// The slot of owned `node` in this worker's per-node tables.
    #[inline]
    pub fn slot(&self, node: u32) -> usize {
        debug_assert!(self.owns(node), "node {node} is not owned by worker {}", self.idx);
        match &self.slots {
            Slots::Div { d } => (node / d) as usize,
            Slots::Listed(owned) => owned.binary_search(&node).expect("owned node was admitted"),
        }
    }

    /// Registers `node`, the next id of the population, and returns its
    /// slot when this worker owns it.
    pub fn admit(&mut self, node: u32) -> Option<usize> {
        if !self.owns(node) {
            return None;
        }
        if let Slots::Listed(owned) = &mut self.slots {
            debug_assert!(owned.last().is_none_or(|last| *last < node), "nodes admitted in order");
            owned.push(node);
        }
        Some(self.slot(node))
    }
}

/// The one-round mixer behind `SimRng::fork`, reused for the `Random`
/// assignment so shard maps are pure in `(salt, node)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard of a sharded simulation: a complete event loop over the nodes
/// it owns, which stages cross-shard messages instead of scheduling them
/// directly.
pub trait ShardWorker: Send {
    /// A message crossing a shard boundary (including "boundaries" within
    /// the same shard — *every* network send goes through the exchange so
    /// delivery order cannot depend on co-location).
    type Envelope: Send;

    /// Process all local events up to and including `boundary`, staging
    /// outgoing envelopes into `outbox()[dst_shard]`, then advance the
    /// local clock to `boundary`.
    fn run_tick(&mut self, boundary: SimTime);

    /// The envelopes staged since the driver last emptied them: one vector
    /// per shard of the run, or the driver panics. It drains or swaps the
    /// vectors and never resizes the slice, so their capacity is reused
    /// tick after tick.
    fn outbox(&mut self) -> &mut [Vec<Self::Envelope>];

    /// Accept the merged batch of envelopes addressed to this shard for the
    /// tick just finished, leaving `batch` empty. The implementation must
    /// order the batch by a key that is a pure function of the logical
    /// message stream (e.g. arrival time, then sending node — per-sender
    /// order is already positional) before scheduling, so the result is
    /// independent of the shard count.
    fn absorb(&mut self, batch: &mut Vec<Self::Envelope>);

    /// Wire size attributed to one envelope in cross-shard traffic
    /// telemetry. Purely observational — the default of 0 simply leaves
    /// the byte counters empty for workers that don't carry a size.
    fn envelope_bytes(_envelope: &Self::Envelope) -> u64 {
        0
    }
}

/// Advances a lone worker from `from` to `deadline` in lockstep ticks: the
/// whole kernel at S = 1, the one-shard case of [`ShardedSim::run_until`].
/// Same boundary sequence, same staging and same canonical merge as the
/// threaded path, so a one-worker run replays any S-worker run. `staged`
/// observes each tick's outbox before it is absorbed.
fn run_lone<W: ShardWorker>(
    worker: &mut W,
    from: SimTime,
    deadline: SimTime,
    tick: SimDuration,
    mut staged: impl FnMut(&[Vec<W::Envelope>]),
) {
    let mut now = from;
    while now < deadline {
        now = (now + tick).min(deadline);
        worker.run_tick(now);
        staged(worker.outbox());
        // Lent out for the call and handed back: the one staging vector
        // keeps its capacity, so a steady tick allocates nothing.
        let mut batch = std::mem::take(&mut worker.outbox()[0]);
        worker.absorb(&mut batch);
        worker.outbox()[0] = batch;
    }
}

/// How long a lane that reached the tick barrier early yields its core
/// before it sleeps. A tick's work is about 100 µs at 20 000 peers on two
/// lanes, so the last lane is usually within this bound; a lane that
/// waits longer (an idle shard, more lanes than cores) stops burning a
/// core other lanes may need.
const YIELD_FOR: Duration = Duration::from_micros(50);

/// The lanes' one meeting point per tick: an arrival count and a
/// generation counter.
///
/// The last lane to arrive opens the next generation; the others yield
/// their core until it moves, for at most [`YIELD_FOR`], then sleep on the
/// condvar. Yielding rather than spinning keeps a lane that waits from
/// holding a core the lane it waits for needs, when there are more lanes
/// than cores. The last lane touches the lock only when some lane sleeps.
/// A lane that panics breaks the barrier ([`Leave`]), and every lane that
/// waits at it, or comes to it later, panics too instead of waiting for
/// ever.
#[derive(Debug)]
struct TickBarrier {
    lanes: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Lanes asleep on `wake` (or about to be): the opener notifies only
    /// when this is nonzero.
    sleepers: AtomicUsize,
    broken: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl TickBarrier {
    fn new(lanes: usize) -> Self {
        TickBarrier {
            lanes,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            broken: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Whether the lanes are still waiting for `generation` to end.
    fn holds(&self, generation: usize) -> bool {
        assert!(!self.broken.load(SeqCst), "another lockstep lane panicked");
        self.generation.load(SeqCst) == generation
    }

    /// Returns once all `lanes` lanes have called `wait` for this
    /// generation.
    ///
    /// Every access is `SeqCst`. The opener's `arrived` reset comes before
    /// its generation store, and a waiter arrives at the next generation
    /// only after it saw that store, so no arrival is lost to the reset.
    /// No wake-up is lost either: a sleeper counts itself in `sleepers`
    /// and then re-reads the generation while it holds the lock, and the
    /// opener stores the generation and then reads `sleepers`. In the
    /// single order of those four operations, either the sleeper sees the
    /// new generation and does not sleep, or the opener sees the sleeper
    /// and notifies under the lock, which it can take only once the
    /// sleeper is waiting.
    fn wait(&self) {
        let generation = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.lanes {
            self.arrived.store(0, SeqCst);
            self.generation.store(generation.wrapping_add(1), SeqCst);
            if self.sleepers.load(SeqCst) > 0 {
                let _held = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.wake.notify_all();
            }
            return;
        }
        let yield_from = Instant::now();
        while self.holds(generation) {
            if yield_from.elapsed() >= YIELD_FOR {
                // The lock guards no data: a lane that panicked holding it
                // (at `holds`) left nothing half-written.
                let mut held = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.sleepers.fetch_add(1, SeqCst);
                while self.holds(generation) {
                    held = self.wake.wait(held).unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, SeqCst);
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Breaks its lane's barrier if the lane unwinds, so the lanes waiting
/// there panic too and the run fails instead of hanging.
struct Leave<'a>(&'a TickBarrier);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.broken.store(true, SeqCst);
            // Under the lock, so a lane between its last check and its
            // sleep cannot miss the wake-up.
            let _held = self.0.lock.lock();
            self.0.wake.notify_all();
        }
    }
}

/// One tick's envelopes between lanes: entry `src` locks what lane `src`
/// staged, one vector per destination lane.
type OutboxSet<E> = Vec<Mutex<Vec<Vec<E>>>>;

/// Per-shard exchange telemetry.
#[derive(Debug, Default)]
struct LaneObs {
    /// Lockstep ticks this lane ran.
    ticks: u64,
    /// Envelopes this lane staged into the exchange (all destinations).
    envelopes: u64,
    /// Wire bytes those envelopes carried (per `ShardWorker::envelope_bytes`).
    bytes: u64,
    /// Wall-clock nanoseconds this lane spent waiting at the tick barrier,
    /// yielding or asleep — the lockstep imbalance cost.
    stall_ns: u64,
}

impl LaneObs {
    /// Counts one staged outbox (a tick's worth of envelopes).
    #[inline]
    fn note_staged<W: ShardWorker>(&mut self, staged: &[Vec<W::Envelope>]) {
        self.ticks += 1;
        for per_dst in staged {
            self.envelopes += per_dst.len() as u64;
            self.bytes += per_dst.iter().map(W::envelope_bytes).sum::<u64>();
        }
    }
}

/// Runs `S` [`ShardWorker`]s in lockstep ticks, exchanging their outboxes
/// at every tick barrier.
///
/// The tick length must not exceed the minimum message latency (the
/// lookahead); callers derive it from the network configuration and hand
/// it to every [`run_until`](Self::run_until).
#[derive(Debug)]
pub struct ShardedSim<W: ShardWorker> {
    workers: Vec<W>,
    lane_obs: Vec<LaneObs>,
    now: SimTime,
}

impl<W: ShardWorker> ShardedSim<W> {
    /// Drives `workers`, one per shard, from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty.
    pub fn new(workers: Vec<W>) -> Self {
        assert!(!workers.is_empty(), "a sharded sim needs at least one worker");
        let lane_obs = workers.iter().map(|_| LaneObs::default()).collect();
        ShardedSim { workers, lane_obs, now: SimTime::ZERO }
    }

    /// Reports shard-layer telemetry into `out`: per-lane and total
    /// envelope/byte traffic through the tick exchange, plus the
    /// wall-clock barrier stall per lane (the lockstep imbalance cost).
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        out.gauge("shard", "lanes", self.lane_obs.len() as u64);
        let (mut envs, mut bytes, mut stall) = (0u64, 0u64, 0u64);
        for (i, lane) in self.lane_obs.iter().enumerate() {
            envs += lane.envelopes;
            bytes += lane.bytes;
            stall += lane.stall_ns;
            out.counter("shard", &format!("lane{i}_envelopes"), lane.envelopes);
            out.counter("shard", &format!("lane{i}_stall_ns"), lane.stall_ns);
        }
        out.counter("shard", "ticks", self.lane_obs.first().map_or(0, |l| l.ticks));
        out.counter("shard", "outbox_envelopes", envs);
        out.counter("shard", "outbox_bytes", bytes);
        out.counter("shard", "stall_ns", stall);
    }

    /// Current lockstep time (all shards' local clocks agree with this
    /// between `run_until` calls).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-shard workers, in shard order.
    pub fn workers(&self) -> &[W] {
        &self.workers
    }

    /// Mutable access to the per-shard workers (for population setup,
    /// kills, and other between-run mutations applied to every shard).
    pub fn workers_mut(&mut self) -> &mut [W] {
        &mut self.workers
    }

    /// Advances every shard to `deadline` in lockstep ticks of `tick`.
    ///
    /// With one shard the loop runs inline (no threads, no barriers); with
    /// more, shard 0 runs on the calling thread and one thread per other
    /// shard is spawned for the whole call. The lanes meet once per tick,
    /// after staging, so every outbox is complete before anyone reads it;
    /// consecutive ticks publish into alternate sets of outboxes, so the
    /// next tick's staging cannot race a slow reader of this one.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero (a zero tick means the network has zero
    /// minimum latency, which breaks the lookahead argument — senders
    /// could reach the same instant they send in).
    pub fn run_until(&mut self, deadline: SimTime, tick: SimDuration) {
        if self.now >= deadline {
            return;
        }
        assert!(tick > SimDuration::ZERO, "lockstep tick must be positive (zero-latency network?)");
        let shards = self.workers.len();
        if shards == 1 {
            let obs = &mut self.lane_obs[0];
            run_lone(&mut self.workers[0], self.now, deadline, tick, |out| {
                obs.note_staged::<W>(out)
            });
            self.now = deadline;
            return;
        }

        // outboxes[k % 2][src][dst]: tick k's envelopes from `src`,
        // published before barrier k and drained by `dst` after it. A lane
        // publishes into set k % 2 again only at tick k + 2, after it passed
        // barrier k + 1; no lane arrives there before it has drained tick k.
        // So a set is never written while a slow lane still reads it, and
        // each mutex is contended only by the readers of one tick.
        let outboxes: [OutboxSet<W::Envelope>; 2] = std::array::from_fn(|_| {
            (0..shards).map(|_| Mutex::new((0..shards).map(|_| Vec::new()).collect())).collect()
        });
        let barrier = TickBarrier::new(shards);
        let start = self.now;

        const POISONED: &str = "an outbox lock is poisoned only by a worker that panicked";
        // One lane per worker. Every lane walks the same boundary sequence —
        // a pure function of (start, tick, deadline), so no coordination
        // beyond the barrier is needed.
        let lane = |idx: usize, worker: &mut W, obs: &mut LaneObs| {
            let mut batch = Vec::new();
            let mut now = start;
            let mut parity = 0;
            let _leave = Leave(&barrier);
            while now < deadline {
                now = (now + tick).min(deadline);
                worker.run_tick(now);
                obs.note_staged::<W>(worker.outbox());
                let set = &outboxes[parity];
                parity ^= 1;
                // Publish by swapping with the vectors every reader drained
                // two ticks ago: the capacity cycles between the worker and
                // the exchange.
                set[idx].lock().expect(POISONED).swap_with_slice(worker.outbox());
                // Barrier stall is wall-clock-only telemetry: it never feeds
                // back into the simulation, so timing jitter cannot perturb
                // determinism.
                let stall_from = Instant::now();
                barrier.wait();
                obs.stall_ns += stall_from.elapsed().as_nanos() as u64;
                for src in set {
                    batch.append(&mut src.lock().expect(POISONED)[idx]);
                }
                worker.absorb(&mut batch);
            }
        };
        std::thread::scope(|scope| {
            let lane = &lane;
            let mut lanes = self.workers.iter_mut().zip(self.lane_obs.iter_mut()).enumerate();
            let (_, (first, first_obs)) = lanes.next().expect("two workers or more");
            for (idx, (worker, obs)) in lanes {
                scope.spawn(move || lane(idx, worker, obs));
            }
            // Worker 0 runs on the calling thread, so each worker keeps
            // allocating from the same thread's heap arena call after call
            // (one spawned thread reuses the arena the last one freed);
            // memory that migrates between arenas fragments both.
            lane(0, first, first_obs);
        });
        self.now = deadline;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy gossip shard for hammering the exchange: each owned node holds
    /// a counter and a deterministic RNG stream; every tick each node sends
    /// its counter to a pseudo-randomly chosen node (any shard), and
    /// absorbed messages are folded into the receiver's counter in arrival
    /// order. The fold is deliberately order-*sensitive* (multiply-xor), so
    /// any deviation in merge order changes the final state.
    struct ToyShard {
        plan: ShardPlan,
        idx: usize,
        nodes: u32,
        counters: BTreeMap<u32, u64>,
        now: SimTime,
        seq: u64,
        out: Vec<Vec<ToyMsg>>,
        /// Sleep [`NAP`] at the start of every even tick: a lane that is
        /// last at one barrier and first out of the next tick.
        naps: bool,
    }

    const NAP: Duration = Duration::from_micros(200);

    #[derive(Debug)]
    struct ToyMsg {
        arrive_at: SimTime,
        sender: u32,
        seq: u64,
        value: u64,
        dst: u32,
    }

    impl ToyShard {
        fn new(plan: ShardPlan, idx: usize, nodes: u32) -> Self {
            let counters = (0..nodes)
                .filter(|n| plan.shard_of(*n) == idx)
                .map(|n| (n, splitmix64(0xC0_FFEE ^ u64::from(n))))
                .collect();
            let out = (0..plan.shards()).map(|_| Vec::new()).collect();
            ToyShard { plan, idx, nodes, counters, now: SimTime::ZERO, seq: 0, out, naps: false }
        }
    }

    /// Wire size the toy attributes to each envelope.
    const TOY_MSG_BYTES: u64 = 32;

    impl ShardWorker for ToyShard {
        type Envelope = ToyMsg;

        fn envelope_bytes(_envelope: &ToyMsg) -> u64 {
            TOY_MSG_BYTES
        }

        fn run_tick(&mut self, boundary: SimTime) {
            // One send per owned node per tick, keyed purely on
            // (node, tick) so the traffic pattern is shard-independent.
            let tick_no = boundary.as_millis();
            if self.naps && tick_no % 2 == 0 {
                std::thread::sleep(NAP);
            }
            for (&node, &value) in &self.counters {
                let dst =
                    (splitmix64(u64::from(node) ^ (tick_no << 32)) % u64::from(self.nodes)) as u32;
                // Minimum latency of one tick: arrivals land in the next one.
                let arrive_at = boundary + SimDuration::from_millis(1 + (value % 3));
                self.seq += 1;
                self.out[self.plan.shard_of(dst)].push(ToyMsg {
                    arrive_at,
                    sender: node,
                    seq: self.seq,
                    value,
                    dst,
                });
            }
            self.now = boundary;
        }

        fn outbox(&mut self) -> &mut [Vec<ToyMsg>] {
            &mut self.out
        }

        fn absorb(&mut self, batch: &mut Vec<ToyMsg>) {
            // Canonical order: arrival instant, then sender, then
            // per-sender sequence — a pure function of the logical stream.
            batch.sort_by_key(|m| (m.arrive_at, m.sender, m.seq));
            for m in batch.drain(..) {
                assert!(m.arrive_at > self.now, "lookahead violated: arrival in the past");
                assert_eq!(self.plan.shard_of(m.dst), self.idx, "misrouted envelope");
                let c = self.counters.get_mut(&m.dst).expect("dst owned by this shard");
                *c = (c.rotate_left(7) ^ m.value).wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1);
            }
        }
    }

    fn run_toy(plan: ShardPlan, nodes: u32, ticks: u64) -> BTreeMap<u32, u64> {
        let workers = (0..plan.shards()).map(|i| ToyShard::new(plan, i, nodes)).collect();
        run_workers(workers, ticks)
    }

    fn run_workers(workers: Vec<ToyShard>, ticks: u64) -> BTreeMap<u32, u64> {
        let mut sim = ShardedSim::new(workers);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(ticks), SimDuration::from_millis(1));
        let mut merged = BTreeMap::new();
        for w in sim.workers() {
            for (&n, &c) in &w.counters {
                assert!(merged.insert(n, c).is_none(), "node {n} owned twice");
            }
        }
        merged
    }

    /// The tick-barrier stress test: tiny ticks, order-sensitive folding,
    /// and adversarial shard maps must all converge to the single-shard
    /// reference state.
    #[test]
    fn exchange_is_identical_for_all_shard_counts_and_maps() {
        let nodes = 97; // prime, so round-robin stripes never align with anything
        let ticks = 50;
        let reference = run_toy(ShardPlan::round_robin(1), nodes, ticks);
        assert_eq!(reference.len(), nodes as usize);
        for shards in [2usize, 3, 4, 7] {
            for assign in
                [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(0xDEAD)]
            {
                let got = run_toy(ShardPlan::new(shards, assign), nodes, ticks);
                assert_eq!(got, reference, "state diverged at shards={shards} assign={assign:?}");
            }
        }
    }

    /// The exchange counters the ledger reads (`shard/*` rows are not in
    /// any golden): every lane counts the ticks it ran and the envelopes
    /// and bytes it staged, on the lone-lane path and the threaded one.
    #[test]
    fn lane_counters_count_every_tick_and_envelope() {
        let (nodes, ticks) = (97u32, 50u64);
        let sent = u64::from(nodes) * ticks;
        for lanes in [1usize, 3] {
            let plan = ShardPlan::round_robin(lanes);
            let mut sim =
                ShardedSim::new((0..lanes).map(|i| ToyShard::new(plan, i, nodes)).collect());
            sim.run_until(
                SimTime::ZERO + SimDuration::from_millis(ticks),
                SimDuration::from_millis(1),
            );
            let mut out = nylon_obs::Report::new();
            sim.obs_report(&mut out);
            let read = |metric: &str| match out.get("shard", metric) {
                Some(nylon_obs::MetricValue::Counter(v) | nylon_obs::MetricValue::Gauge(v)) => *v,
                other => panic!("shard/{metric} at {lanes} lanes: {other:?}"),
            };
            assert_eq!(read("lanes"), lanes as u64);
            assert_eq!(read("ticks"), ticks);
            assert_eq!(read("outbox_envelopes"), sent);
            assert_eq!(read("outbox_bytes"), sent * TOY_MSG_BYTES);
            let per_lane: u64 = (0..lanes).map(|i| read(&format!("lane{i}_envelopes"))).sum();
            assert_eq!(per_lane, sent, "lane envelopes at {lanes} lanes");
        }
    }

    /// A lane that naps on every other tick arrives last at that tick's
    /// barrier, after the others went to sleep on it, and runs the next
    /// tick while they wake: it publishes tick k + 1 while they still
    /// drain tick k. Each tick's envelopes must still reach their readers
    /// whole and in their own tick.
    #[test]
    fn a_slow_lane_cannot_overwrite_a_tick_still_being_drained() {
        let (nodes, ticks) = (97, 200);
        let reference = run_toy(ShardPlan::round_robin(1), nodes, ticks);
        for shards in [2usize, 3] {
            let plan = ShardPlan::round_robin(shards);
            let mut workers: Vec<ToyShard> =
                (0..shards).map(|i| ToyShard::new(plan, i, nodes)).collect();
            workers[shards - 1].naps = true;
            assert_eq!(run_workers(workers, ticks), reference, "state diverged at shards={shards}");
        }
    }

    /// More lanes than cores cross many generations; one lane now and then
    /// stays away long enough that the others fall asleep. No lane may
    /// leave a generation before every lane arrived at it, and none may
    /// sleep through the wake-up that ends it.
    #[test]
    fn the_tick_barrier_holds_every_lane_until_the_last_arrives() {
        const GENERATIONS: usize = 10_000;
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) + 2;
        let barrier = TickBarrier::new(lanes);
        let arrivals = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for lane in 0..lanes {
                let (barrier, arrivals) = (&barrier, &arrivals);
                scope.spawn(move || {
                    let _leave = Leave(barrier);
                    for g in 0..GENERATIONS {
                        if lane == 0 && g % 500 == 0 {
                            std::thread::sleep(YIELD_FOR * 2);
                        }
                        arrivals.fetch_add(1, SeqCst);
                        barrier.wait();
                        // Every lane arrived at g; this one has not yet
                        // arrived at g + 1, so no lane can have passed it.
                        let seen = arrivals.load(SeqCst);
                        assert!(seen >= (g + 1) * lanes, "left generation {g} after {seen}");
                        assert!(seen < (g + 2) * lanes, "generation {g} saw {seen}");
                    }
                });
            }
        });
        assert_eq!(arrivals.into_inner(), GENERATIONS * lanes);
    }

    #[test]
    fn a_lane_that_panics_releases_the_lanes_waiting_for_it() {
        let barrier = TickBarrier::new(3);
        let run = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| barrier.wait());
                }
                let _leave = Leave(&barrier);
                // Let the waiters reach their sleep before this lane fails.
                std::thread::sleep(YIELD_FOR * 4);
                panic!("a worker failed");
            })
        });
        assert!(run.is_err());
    }

    #[test]
    fn deadline_not_a_tick_multiple_is_honored() {
        // 7 ms of 2 ms ticks: the last tick is clipped to the deadline.
        let plan = ShardPlan::round_robin(3);
        let workers: Vec<ToyShard> = (0..3).map(|i| ToyShard::new(plan, i, 10)).collect();
        let mut sim = ShardedSim::new(workers);
        let deadline = SimTime::ZERO + SimDuration::from_millis(7);
        sim.run_until(deadline, SimDuration::from_millis(2));
        assert_eq!(sim.now(), deadline);
        for w in sim.workers() {
            assert_eq!(w.now, deadline, "shard clock out of lockstep");
        }
    }

    #[test]
    fn assignments_are_total_and_in_range() {
        for shards in 1..6 {
            for assign in [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(7)] {
                let plan = ShardPlan::new(shards, assign);
                for node in 0..1000 {
                    assert!(plan.shard_of(node) < shards);
                }
            }
        }
    }

    #[test]
    fn shares_agree_with_the_plan_and_pack_owned_nodes() {
        for shards in 1..6 {
            for assign in [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(7)] {
                let plan = ShardPlan::new(shards, assign);
                let mut shares: Vec<Share> = (0..shards).map(|i| Share::new(plan, i)).collect();
                let mut next = vec![0usize; shards];
                for node in 0..500 {
                    let owner = plan.shard_of(node);
                    for (i, share) in shares.iter_mut().enumerate() {
                        assert_eq!(share.owner_of(node), owner, "{plan:?} node {node}");
                        let slot = share.admit(node);
                        assert_eq!(slot.is_some(), i == owner);
                        if let Some(slot) = slot {
                            assert_eq!(slot, next[i], "{plan:?} node {node}: slots are ranks");
                            assert_eq!(share.slot(node), slot);
                            next[i] += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardPlan::round_robin(0);
    }
}
