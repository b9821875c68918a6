//! Deterministic NAT/RVP fault injection over the simulated network.
//!
//! A [`FaultPlan`] is compiled once, before the engine starts, from a
//! [`FaultConfig`] plus the population's NAT classes and a seed-forked RNG
//! stream.  The plan is a plain sorted list of [`FaultEvent`]s, so it is
//! trivially worker- and resume-deterministic: every worker of an engine
//! applies every event at the same virtual instant to its own fabric, which
//! holds the liveness of every peer and the NAT boxes of the peers it owns.
//!
//! Fault times sit at [`GRID_OFFSET`] past a multiple of the fault period.
//! Protocol traffic (shuffles, deliveries, lockstep ticks) lives on the
//! 50 ms latency grid, so the offset guarantees fault events never tie with
//! protocol events — tie-breaking would otherwise depend on queue insertion
//! order, which shard count could perturb.

use std::sync::Arc;

use nylon_net::{NatClass, NatType, Network, PeerId};
use nylon_obs::Counters;
use nylon_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Offset added to every fault instant so faults never tie with protocol
/// events on the 50 ms latency grid.
pub const GRID_OFFSET: SimDuration = SimDuration::from_millis(13);

/// RNG fork label for the fault plan stream ("faults").
pub const FAULTS_RNG_LABEL: u64 = 0x6661_756C_7473;

/// The shuffle period the standard intensities are stated at by
/// [`FaultConfig::from_spec`]: the paper's 5 s.
pub const PAPER_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Shuffle periods after which a standard plan generates no more periodic
/// events.
const HORIZON_PERIODS: u64 = 60;

/// One fault token: its name and the standard intensities it sets.
struct Fault {
    /// The token [`FaultSpec::parse`] accepts and [`FaultSpec::label`]
    /// prints.
    name: &'static str,
    /// Switches the category on in a [`FaultConfig`] at its standard
    /// intensity, stated in shuffle periods of the given length.
    enable: fn(&mut FaultConfig, SimDuration),
}

/// Every fault token, in label order. A [`FaultSpec`] is a set of rows of
/// this table; [`FAULT_NAMES`], [`FaultSpec::parse`], [`FaultSpec::label`]
/// and [`FaultConfig::at_period`] all read it.
const FAULTS: [Fault; 8] = [
    // Mobile-style mid-session NAT mapping rebinding, every 6 periods.
    Fault { name: "rebind", enable: |c, p| (c.rebind_period, c.rebind_fraction) = (p * 6, 0.2) },
    // One correlated crash wave over the public (RVP-capable) peers.
    Fault { name: "rvp-crash", enable: |c, p| c.rvp_crash_at = SimTime::ZERO + p * 12 },
    // Periodic kill/revive flapping waves.
    Fault { name: "flap", enable: |c, p| c.flap_period = p * 8 },
    // Carrier-grade NAT: stack a second `NatBox` in front of some peers.
    Fault { name: "cgn", enable: |c, _| c.cgn = true },
    // Enable hairpinning on some NAT boxes (it is off by default).
    Fault { name: "hairpin", enable: |c, _| c.hairpin = true },
    // Windows of heavy random loss, 2 periods out of every 12.
    Fault { name: "loss-burst", enable: |c, p| c.loss_burst_period = p * 12 },
    // One window during which the population is split in two.
    Fault {
        name: "partition",
        enable: |c, p| (c.partition_at, c.partition_len) = (SimTime::ZERO + p * 12, p * 4),
    },
    // Engine graceful-degradation logic (punch retries, RVP failover,
    // stale-mapping re-punch). Off by default so the clean path is
    // byte-identical to the pre-fault-plane code.
    Fault { name: "harden", enable: |c, _| c.harden = true },
];

/// All fault names accepted by [`FaultSpec::parse`]: every token, then the
/// no-op `none`.
pub const FAULT_NAMES: [&str; FAULTS.len() + 1] = {
    let mut names = ["none"; FAULTS.len() + 1];
    let mut i = 0;
    while i < FAULTS.len() {
        names[i] = FAULTS[i].name;
        i += 1;
    }
    names
};

/// Which fault categories a scenario enables: a set of fault tokens.
///
/// This is the CLI/scenario-facing switchboard; intensities live in
/// [`FaultConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec(u8);

const _: () = assert!(FAULTS.len() <= u8::BITS as usize, "FaultSpec holds one bit per token");

impl FaultSpec {
    /// Parses a comma-separated fault list, e.g. `"rebind,flap,harden"`.
    ///
    /// `"none"` is accepted as an explicit no-op token.  Unknown names
    /// error out enumerating every valid name.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut spec = FaultSpec::default();
        for name in s.split(',').map(str::trim).filter(|t| !t.is_empty() && *t != "none") {
            let Some(i) = FAULTS.iter().position(|f| f.name == name) else {
                return Err(format!("unknown fault '{name}' (valid: {})", FAULT_NAMES.join(", ")));
            };
            spec.0 |= 1 << i;
        }
        Ok(spec)
    }

    /// The table rows in the set, in label order.
    fn rows(self) -> impl Iterator<Item = &'static Fault> {
        let faults: &'static [Fault] = &FAULTS;
        faults.iter().enumerate().filter(move |(i, _)| self.0 & (1 << i) != 0).map(|(_, f)| f)
    }

    /// The names of the tokens in the set, in label order.
    pub fn names(self) -> Vec<&'static str> {
        self.rows().map(|f| f.name).collect()
    }

    /// `true` when no fault category (and no hardening) is enabled.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// Canonical `+`-joined label, `"none"` when empty; round-trips through
    /// [`FaultSpec::parse`] (after `+` → `,`).
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_owned();
        }
        self.names().join("+")
    }
}

/// Numeric fault intensities.  `Default` disables everything; use
/// [`FaultConfig::from_spec`] for the standard intensities of each enabled
/// category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Horizon after which no more periodic events are generated.
    pub horizon: SimDuration,
    /// Period between rebind waves (`ZERO` disables).
    pub rebind_period: SimDuration,
    /// Fraction of natted peers drawn per rebind wave.
    pub rebind_fraction: f64,
    /// Instant of the correlated RVP crash wave, which kills
    /// [`RVP_CRASH_FRACTION`] of the public peers (`ZERO` disables).
    pub rvp_crash_at: SimTime,
    /// Flap cycle period: kill [`FLAP_FRACTION`] of all peers at the cycle
    /// start, revive them half-way (`ZERO` disables).
    pub flap_period: SimDuration,
    /// Put [`CGN_FRACTION`] of the natted peers behind a second,
    /// carrier-grade box.
    pub cgn: bool,
    /// Enable hairpinning on the boxes of [`HAIRPIN_FRACTION`] of the
    /// natted peers.
    pub hairpin: bool,
    /// Period between loss-burst windows of [`BURST_PROB`] loss, each
    /// lasting `1 / BURST_SHARE` of it (`ZERO` disables).
    pub loss_burst_period: SimDuration,
    /// Start of the partition window, which cuts the
    /// [`PARTITION_CUT_FRACTION`] of peers with the lowest ids off from the
    /// rest (`ZERO` disables).
    pub partition_at: SimTime,
    /// Length of the partition window.
    pub partition_len: SimDuration,
    /// Enable engine graceful-degradation logic.
    pub harden: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            horizon: SimDuration::from_secs(300),
            rebind_period: SimDuration::ZERO,
            rebind_fraction: 0.0,
            rvp_crash_at: SimTime::ZERO,
            flap_period: SimDuration::ZERO,
            cgn: false,
            hairpin: false,
            loss_burst_period: SimDuration::ZERO,
            partition_at: SimTime::ZERO,
            partition_len: SimDuration::ZERO,
            harden: false,
        }
    }
}

impl FaultConfig {
    /// Standard intensities for each category enabled in `spec`, at the
    /// paper's shuffle period ([`PAPER_PERIOD`]).
    pub fn from_spec(spec: &FaultSpec) -> Self {
        Self::at_period(spec, PAPER_PERIOD)
    }

    /// The standard intensities of [`from_spec`](Self::from_spec) for a
    /// run whose shuffle period is `period`: every instant and period is
    /// the same number of shuffle periods.
    pub fn at_period(spec: &FaultSpec, period: SimDuration) -> Self {
        let mut cfg = FaultConfig { horizon: period * HORIZON_PERIODS, ..FaultConfig::default() };
        for f in spec.rows() {
            (f.enable)(&mut cfg, period);
        }
        cfg
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Expire and re-port `PeerId`'s live NAT mapping(s).
    Rebind(PeerId),
    /// Kill the peer (no-op if already dead).
    Crash(PeerId),
    /// Revive the peer (no-op if alive). No timer work: under a fault plan a
    /// dead peer's round timer keeps ticking idle, so it resumes at its
    /// original phase.
    Revive(PeerId),
    /// Random loss window: drop with `prob_ppm`/1e6 until `until`.
    LossBurst { until: SimTime, prob_ppm: u32, salt: u64 },
    /// Split peers `< cut` from peers `>= cut` until `until`.
    Partition { until: SimTime, cut: u32 },
}

/// A fault with its instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual instant at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// NAT type of the stacked carrier-grade boxes.
const CGN_TYPE: NatType = NatType::PortRestrictedCone;
/// Fraction of natted peers put behind a carrier-grade box.
pub const CGN_FRACTION: f64 = 0.3;
/// Fraction of natted peers whose box gets hairpinning enabled.
pub const HAIRPIN_FRACTION: f64 = 0.5;
/// Fraction of public peers killed by the RVP crash wave.
pub const RVP_CRASH_FRACTION: f64 = 0.5;
/// Fraction of all peers drawn per flap cycle.
pub const FLAP_FRACTION: f64 = 0.2;
/// A loss-burst window lasts `1 / BURST_SHARE` of the burst period.
pub const BURST_SHARE: u64 = 6;
/// Per-datagram drop probability inside a loss-burst window.
pub const BURST_PROB: f64 = 0.3;
/// Fraction of peers (lowest ids) the partition cuts off from the rest.
pub const PARTITION_CUT_FRACTION: f64 = 0.5;

/// A compiled, sorted fault schedule plus start-of-run topology changes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Engine graceful-degradation switch, carried with the plan so it
    /// rides the same install seam: the engine host reads it once, when
    /// the plan is installed, and protocols ask the host.
    pub harden: bool,
    /// Peers put behind a second, carrier-grade NAT box before start.
    pub cgn: Vec<(PeerId, NatType)>,
    /// Peers whose NAT box gets hairpinning enabled before start.
    pub hairpin: Vec<PeerId>,
    /// Scheduled events, sorted by instant (stably, so same-instant events
    /// keep their generation order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Compiles the plan for a population described by `classes`
    /// (`classes[i]` is the class of `PeerId(i as u32)`).
    ///
    /// Pure function of `(cfg, seed, classes)`: all randomness comes from a
    /// fork of `seed` under [`FAULTS_RNG_LABEL`], so a resumed run compiles
    /// the identical plan.
    pub fn compile(cfg: &FaultConfig, seed: u64, classes: &[NatClass]) -> Self {
        let mut rng = SimRng::new(seed).fork(FAULTS_RNG_LABEL);
        let natted: Vec<PeerId> = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_natted())
            .map(|(i, _)| PeerId(i as u32))
            .collect();
        let publics: Vec<PeerId> = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_public())
            .map(|(i, _)| PeerId(i as u32))
            .collect();
        let everyone: Vec<PeerId> = (0..classes.len()).map(|i| PeerId(i as u32)).collect();
        let horizon = SimTime::ZERO + cfg.horizon;

        let mut plan = FaultPlan { harden: cfg.harden, ..FaultPlan::default() };

        // Topology faults: applied once, before the engine starts.
        if cfg.cgn {
            let n = frac_count(natted.len(), CGN_FRACTION);
            plan.cgn = rng
                .sample_without_replacement(&natted, n)
                .into_iter()
                .map(|p| (p, CGN_TYPE))
                .collect();
        }
        if cfg.hairpin {
            let n = frac_count(natted.len(), HAIRPIN_FRACTION);
            plan.hairpin = rng.sample_without_replacement(&natted, n);
        }

        // Rebind waves.
        if !cfg.rebind_period.is_zero() && !natted.is_empty() {
            let n = frac_count(natted.len(), cfg.rebind_fraction);
            let mut k = 1u64;
            loop {
                let at = SimTime::ZERO + cfg.rebind_period * k + GRID_OFFSET;
                if at > horizon {
                    break;
                }
                for p in rng.sample_without_replacement(&natted, n) {
                    plan.events.push(FaultEvent { at, kind: FaultKind::Rebind(p) });
                }
                k += 1;
            }
        }

        // One correlated RVP crash wave: the victims come from a single
        // draw, so failures are clustered, not independent.
        if cfg.rvp_crash_at > SimTime::ZERO && !publics.is_empty() {
            let at = cfg.rvp_crash_at + GRID_OFFSET;
            if at <= horizon {
                let n = frac_count(publics.len(), RVP_CRASH_FRACTION);
                for p in rng.sample_without_replacement(&publics, n) {
                    plan.events.push(FaultEvent { at, kind: FaultKind::Crash(p) });
                }
            }
        }

        // Flap cycles: kill a drawn set at the cycle start, revive the same
        // set half a period later.
        if !cfg.flap_period.is_zero() && !everyone.is_empty() {
            let n = frac_count(everyone.len(), FLAP_FRACTION);
            let half = SimDuration::from_millis(cfg.flap_period.as_millis() / 2);
            let mut k = 1u64;
            loop {
                let down = SimTime::ZERO + cfg.flap_period * k + GRID_OFFSET;
                let up = down + half;
                if up > horizon {
                    break;
                }
                for p in rng.sample_without_replacement(&everyone, n) {
                    plan.events.push(FaultEvent { at: down, kind: FaultKind::Crash(p) });
                    plan.events.push(FaultEvent { at: up, kind: FaultKind::Revive(p) });
                }
                k += 1;
            }
        }

        // Loss-burst windows.
        if !cfg.loss_burst_period.is_zero() {
            let prob_ppm = (BURST_PROB * 1e6).round() as u32;
            let len = SimDuration::from_millis(cfg.loss_burst_period.as_millis() / BURST_SHARE);
            let mut k = 1u64;
            loop {
                let at = SimTime::ZERO + cfg.loss_burst_period * k + GRID_OFFSET;
                if at > horizon {
                    break;
                }
                let salt = rng.gen_u64();
                plan.events.push(FaultEvent {
                    at,
                    kind: FaultKind::LossBurst { until: at + len, prob_ppm, salt },
                });
                k += 1;
            }
        }

        // One partition window.
        if cfg.partition_at > SimTime::ZERO {
            let at = cfg.partition_at + GRID_OFFSET;
            if at <= horizon {
                let cut = frac_count(classes.len(), PARTITION_CUT_FRACTION) as u32;
                plan.events.push(FaultEvent {
                    at,
                    kind: FaultKind::Partition { until: at + cfg.partition_len, cut },
                });
            }
        }

        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// `true` when the plan changes nothing at all.
    pub fn is_noop(&self) -> bool {
        !self.harden && self.cgn.is_empty() && self.hairpin.is_empty() && self.events.is_empty()
    }

    /// Applies the start-of-run topology faults (CGN stacking, hairpin
    /// enabling).  Call once, after peers exist and before bootstrap.
    pub fn apply_topology<P>(&self, net: &mut Network<P>) {
        for &(p, t) in &self.cgn {
            net.stack_cgn(p, t);
        }
        for &p in &self.hairpin {
            net.set_hairpin(p, true);
        }
    }
}

/// Picks `round(len * frac)` clamped to `[1, len]` (0 when `len == 0` or
/// the fraction is zero).
fn frac_count(len: usize, frac: f64) -> usize {
    if len == 0 || frac <= 0.0 {
        return 0;
    }
    ((len as f64 * frac).round() as usize).clamp(1, len)
}

nylon_obs::counters! {
    /// Counters of faults actually applied.
    ///
    /// Every worker of an engine applies every event; to keep the summed
    /// totals equal to the one-worker totals, per-peer faults are counted only
    /// by the worker that owns the target and global windows only by worker 0.
    pub struct FaultStats {
        /// NAT mappings rebound.
        rebinds,
        /// Peers killed (crash waves + flap downs that found them alive).
        crashes,
        /// Peers revived.
        revives,
        /// Loss-burst windows opened.
        loss_bursts,
        /// Partition windows opened.
        partitions,
    }
}

/// Cursor over a [`FaultPlan`] that applies due events to a `Network`.
///
/// One runtime lives inside each engine worker, all sharing the one plan.
/// The worker schedules a timer for [`FaultRuntime::next_at`], calls
/// [`FaultRuntime::apply_due`] when it fires, and re-arms for the next
/// instant. Revived peers need no timer work: a dead peer's round timer
/// keeps ticking idle, so a revived one resumes at its original phase.
#[derive(Debug, Clone)]
pub struct FaultRuntime {
    plan: Arc<FaultPlan>,
    cursor: usize,
    count_global: bool,
    stats: FaultStats,
}

impl FaultRuntime {
    /// Wraps a compiled plan.  `count_global` must be `true` on exactly one
    /// worker (worker 0) so summed stats are not multiplied by the worker
    /// count.
    pub fn new(plan: Arc<FaultPlan>, count_global: bool) -> Self {
        FaultRuntime { plan, cursor: 0, count_global, stats: FaultStats::default() }
    }

    /// Whether engine graceful-degradation logic is on (the plan's
    /// [`FaultPlan::harden`]).
    pub fn harden(&self) -> bool {
        self.plan.harden
    }

    /// The plan this runtime applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Instant of the next unapplied event, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.plan.events.get(self.cursor).map(|e| e.at)
    }

    /// Counters of applied faults (ownership-filtered; see [`FaultStats`]).
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Applies every event due at or before `now` to `net`, one worker's
    /// fabric (see [`Network::owns`] — every peer on an unsharded one).
    pub fn apply_due<P>(&mut self, now: SimTime, net: &mut Network<P>) {
        while let Some(ev) = self.plan.events.get(self.cursor).copied() {
            if ev.at > now {
                break;
            }
            self.cursor += 1;
            match ev.kind {
                FaultKind::Rebind(p) => {
                    if net.rebind_nat(p) && net.owns(p) {
                        self.stats.rebinds += 1;
                    }
                }
                FaultKind::Crash(p) => {
                    let was_alive = net.is_alive(p);
                    net.kill_peer(p);
                    if was_alive && net.owns(p) {
                        self.stats.crashes += 1;
                    }
                }
                FaultKind::Revive(p) => {
                    if net.revive_peer(p) && net.owns(p) {
                        self.stats.revives += 1;
                    }
                }
                FaultKind::LossBurst { until, prob_ppm, salt } => {
                    net.inject_loss_burst(until, f64::from(prob_ppm) / 1e6, salt);
                    if self.count_global {
                        self.stats.loss_bursts += 1;
                    }
                }
                FaultKind::Partition { until, cut } => {
                    net.inject_partition(until, cut);
                    if self.count_global {
                        self.stats.partitions += 1;
                    }
                }
            }
        }
    }

    /// Reports fault counters under `layer`: `faults` for an engine's
    /// fabric, `emulator` for the NAT emulator's.
    pub fn obs_report(&self, out: &mut nylon_obs::Report, layer: &str) {
        self.stats.report(out, layer);
        if self.count_global {
            out.counter(layer, "planned_events", self.plan.events.len() as u64);
            out.counter(layer, "cgn_stacked", self.plan.cgn.len() as u64);
            out.counter(layer, "hairpin_enabled", self.plan.hairpin.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::NetConfig;
    use proptest::prelude::*;

    fn classes(publics: usize, natted: usize) -> Vec<NatClass> {
        let mut v = vec![NatClass::Public; publics];
        v.extend(std::iter::repeat_n(NatClass::Natted(NatType::PortRestrictedCone), natted));
        v
    }

    #[test]
    fn parse_accepts_all_names_and_none() {
        let spec =
            FaultSpec::parse("rebind,rvp-crash,flap,cgn,hairpin,loss-burst,partition,harden")
                .unwrap();
        assert_eq!(spec.names(), FAULT_NAMES[..8]);
        assert!(FaultSpec::parse("none").unwrap().is_none());
        assert!(FaultSpec::parse("").unwrap().is_none());
        assert_eq!(FaultSpec::parse(" rebind , none ").unwrap().label(), "rebind");
    }

    /// Every one of the 256 token sets prints a label that parses back to
    /// the same set, and no two sets share a label.
    #[test]
    fn every_token_set_round_trips_through_its_label() {
        let mut labels = std::collections::BTreeSet::new();
        for bits in 0..=u8::MAX {
            let spec = FaultSpec(bits);
            let label = spec.label();
            assert_eq!(FaultSpec::parse(&label.replace('+', ",")), Ok(spec), "{label}");
            assert!(labels.insert(label));
        }
    }

    /// The standard intensities of each single token, written out: a table
    /// row cannot move one unseen.
    #[test]
    fn each_token_sets_its_standard_intensities() {
        let off = FaultConfig::default();
        let one = |name: &str| FaultConfig::from_spec(&FaultSpec::parse(name).unwrap());
        let secs = SimDuration::from_secs;
        assert_eq!(
            one("rebind"),
            FaultConfig { rebind_period: secs(30), rebind_fraction: 0.2, ..off }
        );
        assert_eq!(one("rvp-crash"), FaultConfig { rvp_crash_at: SimTime::from_secs(60), ..off });
        assert_eq!(one("flap"), FaultConfig { flap_period: secs(40), ..off });
        assert_eq!(one("cgn"), FaultConfig { cgn: true, ..off });
        assert_eq!(one("hairpin"), FaultConfig { hairpin: true, ..off });
        assert_eq!(one("loss-burst"), FaultConfig { loss_burst_period: secs(60), ..off });
        assert_eq!(
            one("partition"),
            FaultConfig { partition_at: SimTime::from_secs(60), partition_len: secs(20), ..off }
        );
        assert_eq!(one("harden"), FaultConfig { harden: true, ..off });
        assert_eq!(one("none"), off);
        assert_eq!(off.horizon, secs(300));
    }

    /// Every token states its intensities in shuffle periods: at a period
    /// 50 times shorter than the paper's, every instant and period is 50
    /// times shorter, and the fractions and switches are the same.
    #[test]
    fn intensities_scale_with_the_period() {
        let spec = FaultSpec(u8::MAX);
        let paper = FaultConfig::from_spec(&spec);
        let live = FaultConfig::at_period(&spec, SimDuration::from_millis(100));
        let d = |d: SimDuration| SimDuration::from_millis(d.as_millis() / 50);
        let t = |t: SimTime| SimTime::from_millis(t.as_millis() / 50);
        assert_eq!(
            live,
            FaultConfig {
                horizon: d(paper.horizon),
                rebind_period: d(paper.rebind_period),
                rvp_crash_at: t(paper.rvp_crash_at),
                flap_period: d(paper.flap_period),
                loss_burst_period: d(paper.loss_burst_period),
                partition_at: t(paper.partition_at),
                partition_len: d(paper.partition_len),
                ..paper
            }
        );
        assert_eq!(live.horizon, SimDuration::from_secs(6));
    }

    #[test]
    fn parse_rejects_unknown_names_enumerating_valid_ones() {
        let err = FaultSpec::parse("rebind,bogus").unwrap_err();
        assert!(err.contains("unknown fault 'bogus'"), "{err}");
        for name in FAULT_NAMES {
            assert!(err.contains(name), "{err} should list {name}");
        }
    }

    #[test]
    fn label_round_trips() {
        let spec = FaultSpec::parse("flap,rebind,harden").unwrap();
        let label = spec.label();
        assert_eq!(label, "rebind+flap+harden");
        assert_eq!(FaultSpec::parse(&label.replace('+', ",")).unwrap(), spec);
        assert_eq!(FaultSpec::default().label(), "none");
    }

    #[test]
    fn disabled_config_compiles_to_noop_plan() {
        let plan = FaultPlan::compile(&FaultConfig::default(), 7, &classes(4, 12));
        assert!(plan.is_noop());
        let spec = FaultSpec::parse("harden").unwrap();
        let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), 7, &classes(4, 12));
        assert!(plan.harden && plan.events.is_empty());
    }

    #[test]
    fn events_sit_off_the_latency_grid() {
        let spec = FaultSpec::parse("rebind,rvp-crash,flap,loss-burst,partition").unwrap();
        let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), 42, &classes(6, 18));
        assert!(!plan.events.is_empty());
        for ev in &plan.events {
            assert_eq!(
                ev.at.as_millis() % 50,
                GRID_OFFSET.as_millis(),
                "{ev:?} ties with the 50 ms protocol grid"
            );
        }
        // Sorted by instant.
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn crash_wave_draws_half_the_publics() {
        let spec = FaultSpec::parse("rvp-crash").unwrap();
        let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), 42, &classes(8, 8));
        let victims: Vec<PeerId> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(victims.len(), 4);
        // All victims are public peers (ids 0..8 here).
        assert!(victims.iter().all(|p| p.0 < 8));
    }

    #[test]
    fn flap_revives_exactly_the_killed_set_half_a_period_later() {
        let spec = FaultSpec::parse("flap").unwrap();
        let plan = FaultPlan::compile(&FaultConfig::from_spec(&spec), 11, &classes(5, 15));
        let half = SimDuration::from_secs(20);
        let mut downs: Vec<(SimTime, PeerId)> = Vec::new();
        let mut ups: Vec<(SimTime, PeerId)> = Vec::new();
        for ev in &plan.events {
            match ev.kind {
                FaultKind::Crash(p) => downs.push((ev.at, p)),
                FaultKind::Revive(p) => ups.push((ev.at - half, p)),
                _ => {}
            }
        }
        assert!(!downs.is_empty());
        assert_eq!(downs, ups);
    }

    #[test]
    fn runtime_applies_crash_and_revive_with_owned_stats() {
        // Worker 0 of a two-worker round-robin plan owns the even peer ids.
        let share = nylon_sim::Share::new(nylon_sim::ShardPlan::round_robin(2), 0);
        let mut net: Network<u8> = Network::for_worker(NetConfig::default(), 99, share);
        for _ in 0..4 {
            net.add_peer(NatClass::Public);
        }
        let events = vec![
            FaultEvent { at: SimTime::from_millis(13), kind: FaultKind::Crash(PeerId(0)) },
            FaultEvent { at: SimTime::from_millis(13), kind: FaultKind::Crash(PeerId(1)) },
            FaultEvent { at: SimTime::from_millis(63), kind: FaultKind::Revive(PeerId(0)) },
        ];
        let plan = FaultPlan { events, ..FaultPlan::default() };
        let mut rt = FaultRuntime::new(Arc::new(plan), true);

        assert_eq!(rt.next_at(), Some(SimTime::from_millis(13)));
        rt.apply_due(SimTime::from_millis(13), &mut net);
        assert!(!net.is_alive(PeerId(0)) && !net.is_alive(PeerId(1)));
        assert_eq!(rt.stats().crashes, 1, "only the owned crash is counted");
        assert_eq!(rt.next_at(), Some(SimTime::from_millis(63)));

        rt.apply_due(SimTime::from_millis(63), &mut net);
        assert!(net.is_alive(PeerId(0)));
        assert_eq!(rt.stats().revives, 1);
        assert_eq!(rt.next_at(), None);
    }

    #[test]
    fn obs_report_carries_fault_counters() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at: SimTime::from_millis(13),
                kind: FaultKind::Crash(PeerId(0)),
            }],
            ..FaultPlan::default()
        };
        let mut net: Network<u8> = Network::new(NetConfig::default(), 1);
        net.add_peer(NatClass::Public);
        let mut rt = FaultRuntime::new(Arc::new(plan), true);
        rt.apply_due(SimTime::from_millis(13), &mut net);
        let mut out = nylon_obs::Report::new();
        rt.obs_report(&mut out, "faults");
        assert!(matches!(out.get("faults", "crashes"), Some(nylon_obs::MetricValue::Counter(1))));
        assert!(matches!(
            out.get("faults", "planned_events"),
            Some(nylon_obs::MetricValue::Counter(1))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary text never panics the parser: it is accepted exactly
        /// when every comma-separated token names a fault (or `none`), and
        /// what it accepts round-trips through its label. The text is drawn
        /// from fault names, separators and arbitrary characters, so both
        /// outcomes come up.
        #[test]
        fn parse_never_panics_on_arbitrary_text(
            words in proptest::collection::vec(any::<u32>(), 0..24),
        ) {
            let text: String = words
                .iter()
                .map(|&w| match w % 16 {
                    n @ 0..9 => FAULT_NAMES[n as usize].to_string(),
                    9 | 10 => ",".to_string(),
                    11 => " ".to_string(),
                    12 => "+".to_string(),
                    _ => char::from_u32(w >> 11).unwrap_or('\u{fffd}').to_string(),
                })
                .collect();
            let known = text
                .split(',')
                .map(str::trim)
                .all(|t| t.is_empty() || FAULT_NAMES.contains(&t));
            match FaultSpec::parse(&text) {
                Ok(spec) => {
                    prop_assert!(known, "{text:?} parsed");
                    let label = spec.label().replace('+', ",");
                    prop_assert_eq!(FaultSpec::parse(&label), Ok(spec));
                }
                Err(_) => prop_assert!(!known, "{text:?} rejected"),
            }
        }

        /// Same (cfg, seed, classes) → byte-identical plan; the plan is a
        /// pure function, which is what makes it shard- and
        /// resume-deterministic.
        #[test]
        fn compile_is_deterministic(
            seed in 0u64..u64::MAX,
            publics in 1usize..8,
            natted in 1usize..24,
        ) {
            let spec = FaultSpec::parse(
                "rebind,rvp-crash,flap,cgn,hairpin,loss-burst,partition",
            ).unwrap();
            let cfg = FaultConfig::from_spec(&spec);
            let cls = classes(publics, natted);
            let a = FaultPlan::compile(&cfg, seed, &cls);
            let b = FaultPlan::compile(&cfg, seed, &cls);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            prop_assert!(!a.events.is_empty());
        }
    }
}
