//! The simulated workloads: one engine, one population, a warm-up and a
//! fixed measured window, driven through `PeerSampler` alone.
//!
//! Everything the ledger knows about a run it learns from outside the
//! program: wall clocks around public calls, `obs_report` snapshots
//! before and after the window, and the views and oracles every engine
//! exposes through the trait.

use std::time::Instant;

use nylon::{NylonConfig, NylonEngine};
use nylon_faults::{FaultConfig, FaultPlan, FaultSpec};
use nylon_gossip::{
    BaselineEngine, GossipConfig, PeerSampler, SamplerConfig, Sharded, ShardedConfig,
};
use nylon_net::{NetConfig, PeerId};
use nylon_sim::{SimDuration, SimRng};
use nylon_transport::{LiveSampler, SimTransport};
use nylon_workloads::runner::{self, SnapshotScratch};
use nylon_workloads::Scenario;

use crate::counts::{Counts, Fnv};
use crate::host::{self, NoiseGuard};
use crate::json::Value;
use crate::seam::SeamRunner;
use crate::spans::{SpanId, SpanLog};
use crate::{ops, ChildCtx, Mode};

/// Share of peers behind NATs in every simulated population: the
/// NAT-dominated regime the paper argues is the realistic one.
pub const NAT_PCT: f64 = 70.0;

/// Population of the `--check` self-test runs.
pub const TOY_PEERS: usize = 400;

/// Which protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `NylonEngine`, the paper's protocol.
    Nylon,
    /// `BaselineEngine`, the NAT-oblivious sampler on the same kernel.
    Baseline,
}

/// One simulated workload, fully described.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Protocol.
    pub engine: Engine,
    /// Population size.
    pub peers: usize,
    /// `0` = the direct single-threaded kernel; `S > 0` = `Sharded` with
    /// `S` lockstep shards.
    pub shards: usize,
    /// Rounds run before the clock starts.
    pub warm_rounds: u64,
    /// Rounds inside the measured window.
    pub rounds: u64,
    /// Fault spec for `Scenario::faults`.
    pub faults: Option<&'static str>,
    /// Kill wave: after this many measured rounds, this share of the
    /// alive peers is killed at once.
    pub kill: Option<(u64, f64)>,
    /// O(per_view) bootstrap instead of the exhaustive one (the only way
    /// to populate six-digit populations in seconds).
    pub sparse_bootstrap: bool,
    /// Lowest biggest-cluster share the run may end with.
    pub min_cluster_pct: f64,
    /// The `tests/scale_smoke.rs` liveness floor: initiations ≥ 95 % of
    /// peer-rounds and ≥ 85 % full views.
    pub scale_checks: bool,
}

/// What the benchmark needs from an engine beyond `PeerSampler`: where its
/// protocol counters live in the telemetry, and a sparse bootstrap where
/// the engine has one.
pub trait LedgerEngine: PeerSampler {
    /// Telemetry layer of the protocol counters.
    const LAYER: &'static str;
    /// Counter of shuffles that completed (the initiator got its answer).
    const COMPLETED: &'static str;

    /// Bootstraps in O(per_view) per peer where the engine can.
    fn bootstrap_sparse(&mut self, per_view: usize) {
        self.bootstrap_random_public(per_view);
    }
}

impl LedgerEngine for NylonEngine {
    const LAYER: &'static str = "engine.nylon";
    const COMPLETED: &'static str = "requests_completed";
}

impl LedgerEngine for BaselineEngine {
    const LAYER: &'static str = "engine.baseline";
    const COMPLETED: &'static str = "responses_received";

    fn bootstrap_sparse(&mut self, per_view: usize) {
        self.bootstrap_random_public_sparse(per_view);
    }
}

impl LedgerEngine for Sharded<NylonEngine> {
    const LAYER: &'static str = NylonEngine::LAYER;
    const COMPLETED: &'static str = NylonEngine::COMPLETED;
}

impl LedgerEngine for Sharded<BaselineEngine> {
    const LAYER: &'static str = BaselineEngine::LAYER;
    const COMPLETED: &'static str = BaselineEngine::COMPLETED;

    fn bootstrap_sparse(&mut self, per_view: usize) {
        self.bootstrap_random_public_sparse(per_view);
    }
}

/// Runs one child process' worth of a simulated workload.
pub fn run(ctx: &ChildCtx, spec: &SimSpec) -> Value {
    match (spec.engine, spec.shards) {
        (Engine::Nylon, 0) => run_live(ctx, spec, NylonConfig::default()),
        (Engine::Baseline, 0) => run_live(ctx, spec, GossipConfig::default()),
        (Engine::Nylon, s) => run_direct(ctx, spec, ShardedConfig::new(NylonConfig::default(), s)),
        (Engine::Baseline, s) => {
            run_direct(ctx, spec, ShardedConfig::new(GossipConfig::default(), s))
        }
    }
}

/// Engines with a wire-tap seam can also run the seam-trace mode.
fn run_live<C: SamplerConfig>(ctx: &ChildCtx, spec: &SimSpec, cfg: C) -> Value
where
    C::Sampler: LedgerEngine + LiveSampler,
{
    if ctx.mode == Mode::Seam {
        run_seam(ctx, spec, cfg)
    } else {
        run_direct(ctx, spec, cfg)
    }
}

fn scenario(ctx: &ChildCtx, spec: &SimSpec) -> Scenario {
    let mut scn = Scenario::new(spec.peers, NAT_PCT, ctx.seed);
    scn.faults = spec.faults.map(|s| FaultSpec::parse(s).expect("workload fault specs are valid"));
    scn
}

/// `runner::build_with_plan`, call for call, with a span around each
/// lifecycle step. Used where the spans are wanted (traced runs) and
/// where `runner::build` has no equivalent (the sparse bootstrap);
/// `--check` asserts both builders end in the same engine state.
fn build_timed<C: SamplerConfig>(
    scn: &Scenario,
    mut cfg: C,
    sparse: bool,
    log: &mut SpanLog,
    parent: SpanId,
) -> C::Sampler
where
    C::Sampler: LedgerEngine,
{
    if let Err(e) = scn.validate() {
        panic!("invalid scenario: {e}");
    }
    let net_cfg = NetConfig::default();
    cfg.set_view_size(scn.view_size);
    cfg.align_to_net(&net_cfg);
    let p = Some(parent);
    let classes = log.time("workloads.scenario.classes", p, || scn.classes());
    let plan = log.time("faults.plan.compile", p, || {
        let spec = scn.faults.filter(|s| !s.is_none())?;
        let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), scn.seed, &classes);
        (!plan.is_noop()).then_some(plan)
    });
    let mut eng = C::Sampler::with_seed(cfg, net_cfg, scn.seed);
    log.time("workloads.runner.add_peers", p, || {
        for class in &classes {
            eng.add_peer(*class);
        }
    });
    if let Some(plan) = plan {
        log.time("faults.plan.install", p, || eng.install_fault_plan(plan));
    }
    log.time("workloads.runner.bootstrap", p, || {
        if sparse {
            eng.bootstrap_sparse(scn.bootstrap_contacts);
        } else {
            eng.bootstrap_random_public(scn.bootstrap_contacts);
        }
    });
    log.time("workloads.runner.start", p, || eng.start());
    eng
}

/// What drives the engine through a window: the engine's own kernel, or
/// the seam loop around it.
trait Drive {
    type Eng: PeerSampler;
    fn eng(&self) -> &Self::Eng;
    fn eng_mut(&mut self) -> &mut Self::Eng;
    fn run_rounds(&mut self, n: u64);
}

struct Direct<S>(S);

impl<S: PeerSampler> Drive for Direct<S> {
    type Eng = S;
    fn eng(&self) -> &S {
        &self.0
    }
    fn eng_mut(&mut self) -> &mut S {
        &mut self.0
    }
    fn run_rounds(&mut self, n: u64) {
        self.0.run_rounds(n);
    }
}

struct Seam<'a, S: LiveSampler> {
    runner: SeamRunner<S, SimTransport<S::Payload>>,
    log: &'a mut SpanLog,
    /// Spans go under this parent; `None` while warming up.
    parent: Option<SpanId>,
}

impl<S: LiveSampler> Drive for Seam<'_, S> {
    type Eng = S;
    fn eng(&self) -> &S {
        self.runner.engine()
    }
    fn eng_mut(&mut self) -> &mut S {
        self.runner.engine_mut()
    }
    fn run_rounds(&mut self, n: u64) {
        let trace = self.parent.map(|p| (&mut *self.log, p));
        self.runner.run_rounds(n, trace);
    }
}

/// The measured window: counters before and after, the wall clock, and
/// how many peer-rounds it simulated.
struct Window {
    started: Instant,
    wall_s: f64,
    /// Σ over window segments of (alive peers at segment start × rounds).
    peer_rounds: f64,
    counts: Counts,
    bytes_sent: u64,
    noise: Value,
    alloc: Option<Value>,
}

fn bytes_sent<S: PeerSampler>(eng: &S) -> u64 {
    (0..eng.peer_count()).map(|i| eng.traffic_of(PeerId(i as u32)).bytes_sent).sum()
}

fn measure<D: Drive>(d: &mut D, ctx: &ChildCtx, spec: &SimSpec) -> Window {
    let before = Counts::snapshot(d.eng());
    let bytes0 = bytes_sent(d.eng());
    // The generator's own randomness: which peers the kill wave takes.
    let mut gen = SimRng::new(ctx.seed).fork(0x6C65_6467_6572); // "ledger"
    let segments = match spec.kill {
        Some((at, share)) => vec![(at, share), (spec.rounds - at, 0.0)],
        None => vec![(spec.rounds, 0.0)],
    };
    let alloc0 = ctx.alloc.map(|a| a.read());
    let guard = NoiseGuard::start();
    let started = Instant::now();
    let mut peer_rounds = 0.0;
    for (rounds, kill_share) in segments {
        let mut alive = d.eng().alive_peers();
        peer_rounds += (alive.len() as u64 * rounds) as f64;
        d.run_rounds(rounds);
        if kill_share > 0.0 {
            alive = d.eng().alive_peers();
            gen.shuffle(&mut alive);
            alive.truncate((alive.len() as f64 * kill_share) as usize);
            d.eng_mut().kill_peers(&alive);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let noise = guard.finish();
    let alloc = ctx.alloc.zip(alloc0).map(|(a, before)| a.since(before));
    Window {
        started,
        wall_s,
        peer_rounds,
        counts: Counts::snapshot(d.eng()).since(&before),
        bytes_sent: bytes_sent(d.eng()) - bytes0,
        noise,
        alloc,
    }
}

/// FNV-1a over every replayable counter and every view (ids, ages,
/// advertised endpoints): what a change that only makes the simulator
/// faster must leave identical.
fn fingerprint<S: PeerSampler>(eng: &S, counts: &Counts) -> String {
    let mut fp = Fnv::default();
    fp.counts(counts);
    for i in 0..eng.peer_count() {
        let view = eng.view_of(PeerId(i as u32));
        fp.u64(view.len() as u64);
        for d in view.iter() {
            fp.u64(u64::from(d.id.0) << 16 | u64::from(d.age));
            fp.u64(u64::from(d.addr.ip.0) << 16 | u64::from(d.addr.port.0));
        }
    }
    fp.hex()
}

/// Reads the end state every simulated workload reports into `rec` and
/// returns the checks it failed. Runs after the clock stopped; its own
/// cost is reported as the `metrics.*` / `obs.report` layer timings.
///
/// `direct` is false over the seam, whose end state is not the direct
/// kernel's (ticks quantize delivery, and the transport's fabric, not the
/// engine's, carries the datagrams): there the floors and the conservation
/// law do not apply and only the view invariants are checked.
fn end_state<S: LedgerEngine>(
    eng: &S,
    spec: &SimSpec,
    view_size: usize,
    w: &Window,
    direct: bool,
    rec: &mut Value,
) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();

    let t = Instant::now();
    let cluster_pct = runner::biggest_cluster_pct_with(eng, &mut SnapshotScratch::new());
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let stale = runner::staleness(eng);
    let staleness_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut merged = nylon_obs::Report::new();
    {
        let mut report = nylon_obs::Report::new();
        eng.obs_report(&mut report);
        merged.absorb(&report);
    }
    let obs_report_us = t.elapsed().as_secs_f64() * 1e6;
    let total = Counts::of(&merged);

    // View invariants.
    let (mut alive, mut full, mut bad_views) = (0u64, 0u64, 0u64);
    let mut seen: Vec<u32> = Vec::with_capacity(view_size + 1);
    for p in eng.alive_peers() {
        let view = eng.view_of(p);
        alive += 1;
        full += u64::from(view.len() == view_size);
        seen.clear();
        seen.extend(view.iter().map(|d| d.id.0));
        seen.sort_unstable();
        let dups = seen.windows(2).any(|w| w[0] == w[1]);
        if dups || view.contains(p) || view.len() > view_size {
            bad_views += 1;
        }
    }
    if bad_views > 0 {
        failures
            .push(format!("{bad_views} alive views hold a self entry, a duplicate or overflow"));
    }
    if direct && cluster_pct < spec.min_cluster_pct {
        failures.push(format!(
            "biggest cluster {cluster_pct:.2}% is below the {}% floor",
            spec.min_cluster_pct
        ));
    }

    // Fabric conservation since time zero: every datagram sent is received,
    // dropped for a counted reason, or still in flight (at most one pending
    // event each; per shard under sharding, and gauges merge by maximum).
    let (sent, received) =
        (total.counter("net/datagrams_sent"), total.counter("net/datagrams_received"));
    let drops = total.counter("net/drops_total");
    let in_flight_cap = total.gauge("kernel/pending_events") * total.gauge("shard/lanes").max(1);
    let in_flight = sent as i128 - received as i128 - drops as i128;
    if direct && (in_flight < 0 || in_flight > in_flight_cap as i128) {
        failures.push(format!(
            "fabric conservation broken: sent {sent} - received {received} - drops {drops} = \
             {in_flight}, outside [0, {in_flight_cap}]"
        ));
    }

    let attempted = w.counts.counter(&format!("{}/shuffles_initiated", S::LAYER));
    let completed = w.counts.counter(&format!("{}/{}", S::LAYER, S::COMPLETED)).min(attempted);
    if direct && spec.scale_checks {
        if (attempted as f64) < 0.95 * w.peer_rounds {
            failures.push(format!(
                "only {attempted} initiations in {} peer-rounds (< 95 %)",
                w.peer_rounds
            ));
        }
        if (full as f64) < 0.85 * alive as f64 {
            failures.push(format!("only {full} of {alive} views are full (< 85 %)"));
        }
    }
    if attempted == 0 {
        failures.push("no shuffle was initiated inside the window".to_string());
    }

    let events = w.counts.counter("kernel/events_processed");
    rec.set("wall_s", w.wall_s)
        .set("attempted", attempted)
        .set("completed", completed)
        .set("ops_ok_share", completed as f64 / attempted.max(1) as f64)
        .set("sim_cluster_pct", cluster_pct)
        .set("sim_fresh_pct", 100.0 - stale.stale_pct)
        .set("sim_bytes_per_peer_round", w.bytes_sent as f64 / w.peer_rounds)
        .set("sim_fingerprint", fingerprint(eng, &total))
        .set("peers", eng.peer_count())
        .set("peer_rounds", w.peer_rounds)
        .set("ns_per_node_round", w.wall_s * 1e9 / w.peer_rounds)
        .set("events_per_s", events as f64 / w.wall_s)
        .set("alive_at_end", alive)
        .set("full_views_share", full as f64 / alive.max(1) as f64)
        .set("rss_bytes_at_end", host::rss_bytes())
        .set("noise", w.noise.clone())
        .set("window", w.counts.to_json())
        .set("total", total.exact().to_json());
    let mut layer = Value::obj();
    layer
        .set("metrics.graph.snapshot_ms", snapshot_ms)
        .set("metrics.staleness.ms", staleness_ms)
        .set("obs.report.us", obs_report_us);
    rec.set("end_state_ops", layer);
    if let Some(alloc) = &w.alloc {
        rec.set("alloc", alloc.clone());
    }
    failures
}

fn set_failures(rec: &mut Value, failures: Vec<String>) {
    rec.set("failures", failures.into_iter().map(Value::from).collect::<Vec<_>>());
}

/// The spans directly under `parent`, as `{name: seconds}`.
fn child_spans(log: &SpanLog, parent: SpanId) -> Value {
    let mut v = Value::obj();
    for s in log.spans().iter().filter(|s| s.parent == Some(parent)) {
        v.set(s.name, s.dur_s);
    }
    v
}

/// End-to-end, set-up-only and traced modes on the engine's own kernel.
fn run_direct<C: SamplerConfig>(ctx: &ChildCtx, spec: &SimSpec, cfg: C) -> Value
where
    C::Sampler: LedgerEngine,
{
    let mut rec = Value::obj();
    let scn = scenario(ctx, spec);
    let mut log = SpanLog::new(ctx.start.main);
    let setup = log.open("setup", None);
    let eng = if ctx.mode == Mode::Traced || spec.sparse_bootstrap {
        build_timed(&scn, cfg, spec.sparse_bootstrap, &mut log, setup)
    } else {
        runner::build(&scn, cfg)
    };
    log.close(setup);
    rec.set("setup_s", ctx.start.elapsed_s());
    rec.set("setup_phases", child_spans(&log, setup));
    if ctx.mode == Mode::Setup {
        return rec;
    }

    let mut d = Direct(eng);
    d.run_rounds(spec.warm_rounds);
    let w = measure(&mut d, ctx, spec);
    let failures = end_state(d.eng(), spec, scn.view_size, &w, true, &mut rec);
    set_failures(&mut rec, failures);
    if ctx.mode == Mode::Traced {
        rec.set("ops", ops::for_sim(spec, &scn, &w.counts));
    }
    rec
}

/// Seam-trace mode: the same population, warm-up and window, driven by
/// the benchmark's copy of the live loop over `SimTransport`.
fn run_seam<C: SamplerConfig>(ctx: &ChildCtx, spec: &SimSpec, cfg: C) -> Value
where
    C::Sampler: LedgerEngine + LiveSampler,
{
    let mut rec = Value::obj();
    let scn = scenario(ctx, spec);
    let mut log = SpanLog::new(ctx.start.main);
    let root = log.open("run", None);
    let eng = log.time("setup", Some(root), || runner::build(&scn, cfg));
    rec.set("setup_s", ctx.start.elapsed_s());
    let transport = SimTransport::new(&scn.classes(), NetConfig::default(), ctx.seed ^ 0x5EA4);
    let tick = seam_tick(eng.shuffle_period());
    let mut d = Seam { runner: SeamRunner::new(eng, transport, tick), log: &mut log, parent: None };

    let warm = Instant::now();
    d.run_rounds(spec.warm_rounds);
    let warm_s = warm.elapsed().as_secs_f64();
    d.log.push("warmup", Some(root), warm, warm_s, 1);
    let window = d.log.open("window", Some(root));
    d.parent = Some(window);
    let w = measure(&mut d, ctx, spec);
    // The window span is exactly the measured clock, not the counter
    // snapshots that bracket it.
    d.log.retime(window, w.started, w.wall_s);
    d.log.close(root);

    let mut failures = end_state(d.eng(), spec, scn.view_size, &w, false, &mut rec);
    let log = &*d.log;
    let mut phases = Value::obj();
    for name in crate::seam::PHASES {
        let mut p = Value::obj();
        p.set("s", log.total(name)).set("calls", log.calls(name));
        phases.set(name, p);
    }
    let (coverage, worst) = log.coverage("tick");
    if coverage < 0.95 {
        failures.push(format!("seam phases cover only {:.1}% of tick time", coverage * 100.0));
    }
    set_failures(&mut rec, failures);
    let mut seam = Value::obj();
    seam.set("phases", phases)
        .set("ticks", log.calls("tick"))
        .set("tick_s", log.total("tick"))
        .set("coverage", coverage)
        .set("coverage_worst_tick", worst);
    rec.set("seam", seam);
    let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
    match std::fs::write(&path, log.to_json().to_pretty()) {
        Ok(()) => rec.set("trace_file", path.display().to_string()),
        Err(e) => rec.set("trace_file_error", e.to_string()),
    };
    rec
}

/// The live loop's tick: a tenth of the shuffle period, as
/// `LiveRunner::new` recommends.
pub fn seam_tick(period: SimDuration) -> SimDuration {
    SimDuration::from_millis((period.as_millis() / 10).max(1))
}

/// Engine state after `rounds` rounds under the real `LiveRunner` and
/// under the benchmark's copy of its loop; `--check` requires equality.
pub fn seam_matches_live_runner(seed: u64, peers: usize, rounds: u64) -> Result<(), String> {
    fn counts_after<C: SamplerConfig>(
        scn: &Scenario,
        cfg: C,
        rounds: u64,
        copy: bool,
    ) -> (Counts, String)
    where
        C::Sampler: LedgerEngine + LiveSampler,
    {
        let eng = runner::build(scn, cfg);
        let transport = SimTransport::new(&scn.classes(), NetConfig::default(), scn.seed ^ 0x5EA4);
        let tick = seam_tick(eng.shuffle_period());
        if copy {
            let mut r = SeamRunner::new(eng, transport, tick);
            r.run_rounds(rounds, None);
            state_of(r.engine())
        } else {
            let mut r = nylon_transport::LiveRunner::new(eng, transport, tick);
            r.run_rounds(rounds);
            state_of(r.engine())
        }
    }
    fn state_of<S: LedgerEngine>(eng: &S) -> (Counts, String) {
        let counts = Counts::snapshot(eng).exact();
        let fp = fingerprint(eng, &counts);
        (counts, fp)
    }
    let scn = Scenario::new(peers, NAT_PCT, seed);
    for (name, live, copy) in [
        (
            "nylon",
            counts_after(&scn, NylonConfig::default(), rounds, false),
            counts_after(&scn, NylonConfig::default(), rounds, true),
        ),
        (
            "baseline",
            counts_after(&scn, GossipConfig::default(), rounds, false),
            counts_after(&scn, GossipConfig::default(), rounds, true),
        ),
    ] {
        if live != copy {
            return Err(format!(
                "{name}: seam loop ends in fingerprint {} but LiveRunner in {}",
                copy.1, live.1
            ));
        }
        if live.0.counter("kernel/events_processed") == 0 {
            return Err(format!("{name}: the live loop processed no event"));
        }
    }
    Ok(())
}
