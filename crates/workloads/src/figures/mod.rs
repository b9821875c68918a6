//! One generator per paper artifact, as declarative experiment plans.
//!
//! Every module describes one table or figure of the paper as a
//! [`Plan`]: the sweeps to execute (named grids of `(point, seed)` cells
//! for the [`crate::experiment`] executor) plus a render step turning the
//! collected cell values into [`Table`]s — the same series the paper
//! plots, with mean (and where meaningful, standard deviation) over
//! seeds. Absolute numbers are not expected to match the authors' testbed
//! — the *shapes* (who wins, where thresholds fall) are; see
//! EXPERIMENTS.md for the side-by-side reading.
//!
//! Splitting plan from render is what buys the executor its leverage:
//! sweeps from several artifacts merge into one cell pool (figures that
//! read different columns of the same simulations — 3/4 and 7/8 — run
//! them once), the pool parallelizes across everything at once, and each
//! completed cell checkpoints for `--resume`.

use nylon_adversary::AttackKind;
use nylon_faults::FaultSpec;

use crate::experiment::{ExecOptions, Experiment, Results, Sweep};
use crate::output::Table;

mod ablation;
mod adversary;
mod common;
mod correctness;
mod extensions;
mod fig10;
mod fig2;
mod fig34;
mod fig78;
mod fig9;
mod resilience;
mod table1;
mod timeline;

/// The four peer-sampling engines the harness can build, for the
/// `--engine` override and the engine-parametric adversarial artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The NAT-oblivious baseline, (push/pull, rand, healer).
    Baseline,
    /// Nylon, the paper's NAT-resilient sampler.
    Nylon,
    /// The static-RVP strawman (fixed rendezvous assignment).
    StaticRvp,
    /// PeerSwap, the Cyclon-style swap sampler with randomness guarantees.
    PeerSwap,
}

impl EngineKind {
    /// Every engine, in presentation order.
    pub const ALL: [EngineKind; 4] =
        [EngineKind::Baseline, EngineKind::Nylon, EngineKind::StaticRvp, EngineKind::PeerSwap];

    /// The stable CLI/figure-label name.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Baseline => "baseline",
            EngineKind::Nylon => "nylon",
            EngineKind::StaticRvp => "static-rvp",
            EngineKind::PeerSwap => "peerswap",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<EngineKind> {
        Self::ALL.into_iter().find(|k| k.label() == name)
    }
}

/// Scale knobs shared by all generators.
///
/// The default is laptop scale (hundreds of peers, a few seeds); the
/// paper's setup is 10,000 peers and 30 seeds, reachable with
/// [`FigureScale::paper`] or the `repro --full` flag.
#[derive(Debug, Clone)]
pub struct FigureScale {
    /// Network size (paper: 10,000).
    pub peers: usize,
    /// Seeds per data point (paper: 30).
    pub seeds: u64,
    /// Steady-state horizon in shuffle rounds for non-churn experiments.
    pub rounds: u64,
    /// Use the paper's churn horizons (500 warmup / 1500 post-churn
    /// shuffles) instead of scaled-down ones.
    pub full_churn_horizons: bool,
    /// Base seed from which per-point seeds are derived.
    pub base_seed: u64,
    /// Engine override for the engine-generic steady-state artifacts:
    /// `None` measures each figure's own engine (fig2's six baseline
    /// configurations, fig3/4's baseline, fig7/8's Nylon); `Some(kind)`
    /// reroutes those cells through the selected engine, so any engine
    /// runs the whole steady-state plan unmodified. Engine-specific
    /// artifacts keep their engines regardless: fig9's RVP chain lengths
    /// and the churn/lifecycle scripts are Nylon-only, fig7's NAT-free
    /// reference line stays the baseline, and the adversarial artifacts
    /// (`randomness`, `capture`, `eclipse`) are engine-parametric
    /// head-to-heads already.
    pub engine: Option<EngineKind>,
    /// Attack override for the `capture` artifact (default:
    /// self-promotion). The `eclipse` artifact always runs its two
    /// eclipse variants — that contrast is the figure.
    pub attack: Option<AttackKind>,
    /// Fault-plan override for the engine-generic steady-state cells
    /// (fig2, fig3/4, fig7/8): compile and install this spec's fault plan
    /// at default intensities into every such cell's engine. `None` (or a
    /// spec that parses to `none`) leaves every run clean. The `resilience`
    /// artifact ignores the override — its fault profiles *are* the sweep —
    /// and the engine-specific artifacts (fig9, the churn scripts) keep
    /// clean runs, mirroring how `--engine` leaves them alone.
    pub faults: Option<FaultSpec>,
}

impl Default for FigureScale {
    fn default() -> Self {
        FigureScale {
            peers: 400,
            seeds: 3,
            rounds: 120,
            full_churn_horizons: false,
            base_seed: 0xA11CE,
            engine: None,
            attack: None,
            faults: None,
        }
    }
}

impl FigureScale {
    /// The paper's experimental scale: 10,000 peers, 30 seeds.
    pub fn paper() -> Self {
        FigureScale {
            peers: 10_000,
            seeds: 30,
            rounds: 400,
            full_churn_horizons: true,
            base_seed: 0xA11CE,
            engine: None,
            attack: None,
            faults: None,
        }
    }

    /// Identity of the runs this scale produces, for checkpoint matching:
    /// cells computed at a different scale answer different questions.
    ///
    /// The worker count is not part of the scale but of
    /// [`ExecOptions::shards`], because cells do not depend on it: a
    /// checkpoint written under `--shards 2` resumes under `--shards 4` or
    /// without the flag.
    pub fn fingerprint(&self) -> String {
        format!(
            "peers={} seeds={} rounds={} full_churn={} base_seed={}{}{}{}",
            self.peers,
            self.seeds,
            self.rounds,
            self.full_churn_horizons,
            self.base_seed,
            self.engine.map(|k| format!(" engine={}", k.label())).unwrap_or_default(),
            self.attack.map(|k| format!(" attack={}", k.label())).unwrap_or_default(),
            self.faults
                .filter(|s| !s.is_none())
                .map(|s| format!(" faults={}", s.label()))
                .unwrap_or_default(),
        )
    }
}

/// Names accepted by [`plan`]/[`generate`], in presentation order.
pub const FIGURES: &[&str] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "correctness",
    "ablation",
    "extensions",
    "timeline",
    "randomness",
    "capture",
    "eclipse",
    "resilience",
]
.as_slice();

/// Renders collected cell values into an artifact's tables.
type RenderFn = Box<dyn Fn(&Results) -> Vec<Table> + Send + Sync>;

/// One artifact as a declarative unit: the sweeps it needs executed and
/// the render step producing its tables from the results.
pub struct Plan {
    name: &'static str,
    sweeps: Vec<Sweep>,
    render: RenderFn,
}

impl Plan {
    pub(crate) fn new(
        name: &'static str,
        sweeps: Vec<Sweep>,
        render: impl Fn(&Results) -> Vec<Table> + Send + Sync + 'static,
    ) -> Self {
        Plan { name, sweeps, render: Box::new(render) }
    }

    /// The artifact this plan regenerates.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of simulation cells the plan registers (before cross-plan
    /// dedup).
    pub fn cell_count(&self) -> usize {
        self.sweeps.iter().map(Sweep::cell_count).sum()
    }

    /// Splits the plan into its sweeps (for [`Experiment::add_sweep`]) and
    /// render step.
    pub fn into_parts(self) -> (Vec<Sweep>, RenderFn) {
        (self.sweeps, self.render)
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan").field("name", &self.name).field("sweeps", &self.sweeps).finish()
    }
}

/// Builds the experiment plan for one named artifact.
///
/// Returns `None` for an unknown name. Some artifacts (fig7/fig8, the
/// ablations) produce multiple tables; some (fig3/fig4, fig7/fig8) share
/// their sweeps, so executing several plans through one [`Experiment`]
/// runs the shared simulations once.
pub fn plan(name: &str, scale: &FigureScale) -> Option<Plan> {
    let plan = match name {
        "table1" => Plan::new("table1", Vec::new(), |_| vec![table1::generate()]),
        "fig2" => fig2::plan(scale),
        "fig3" => fig34::plan_fig3(scale),
        "fig4" => fig34::plan_fig4(scale),
        "fig7" => fig78::plan_fig7(scale),
        "fig8" => fig78::plan_fig8(scale),
        "fig9" => fig9::plan(scale),
        "fig10" => fig10::plan(scale),
        "correctness" => correctness::plan(scale),
        "ablation" => ablation::plan(scale),
        "extensions" => extensions::plan(scale),
        "timeline" => timeline::plan(scale),
        "randomness" => adversary::plan_randomness(scale),
        "capture" => adversary::plan_capture(scale),
        "eclipse" => adversary::plan_eclipse(scale),
        "resilience" => resilience::plan(scale),
        _ => return None,
    };
    Some(plan)
}

/// Generates the table(s) for one named artifact by executing its plan on
/// a default-configured executor (no checkpoint, auto `--jobs`).
///
/// Returns `None` for an unknown name.
pub fn generate(name: &str, scale: &FigureScale) -> Option<Vec<Table>> {
    generate_with(name, scale, &ExecOptions::default())
}

/// [`generate`] with explicit execution options.
pub fn generate_with(name: &str, scale: &FigureScale, opts: &ExecOptions) -> Option<Vec<Table>> {
    let plan = plan(name, scale)?;
    let (sweeps, render) = plan.into_parts();
    let mut experiment = Experiment::new();
    for sweep in sweeps {
        experiment.add_sweep(sweep);
    }
    let results = experiment.run(opts);
    Some(render(&results))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(generate("fig99", &FigureScale::default()).is_none());
        assert!(plan("fig99", &FigureScale::default()).is_none());
    }

    #[test]
    fn table1_needs_no_simulation() {
        let p = plan("table1", &FigureScale::default()).unwrap();
        assert_eq!(p.cell_count(), 0);
        let tables = generate("table1", &FigureScale::default()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 4);
    }

    #[test]
    fn every_figure_has_a_plan() {
        let scale = FigureScale::default();
        for name in FIGURES {
            let p = plan(name, &scale).unwrap_or_else(|| panic!("no plan for {name}"));
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn shared_sweeps_dedup_across_plans() {
        let scale = FigureScale::default();
        let mut pairs = 0;
        for (a, b) in [("fig3", "fig4"), ("fig7", "fig8")] {
            let pa = plan(a, &scale).unwrap();
            let pb = plan(b, &scale).unwrap();
            let solo = pa.cell_count();
            let mut exp = Experiment::new();
            for s in pa.into_parts().0 {
                exp.add_sweep(s);
            }
            for s in pb.into_parts().0 {
                exp.add_sweep(s);
            }
            assert!(
                exp.cell_count() <= solo.max(plan(b, &scale).unwrap().cell_count()),
                "{a}+{b} must share cells: {} vs {solo} alone",
                exp.cell_count()
            );
            pairs += 1;
        }
        assert_eq!(pairs, 2);
    }

    /// Every sweep draws its own populations: across the plans of all
    /// artifacts no seed drives two sweeps (a sweep two figures share by
    /// design is merged into one by the executor). Inside a sweep two
    /// points draw either disjoint seeds or the same list — a paired
    /// comparison on the same populations, like `abl-rvp`'s Nylon against
    /// static RVPs.
    #[test]
    fn no_two_sweeps_share_a_seed() {
        let scale = FigureScale::default();
        let mut exp = Experiment::new();
        for name in FIGURES {
            for sweep in plan(name, &scale).unwrap().into_parts().0 {
                exp.add_sweep(sweep);
            }
        }
        let mut points: HashMap<(String, String), Vec<u64>> = HashMap::new();
        for cell in exp.cell_ids() {
            points.entry((cell.sweep, cell.point)).or_default().push(cell.seed);
        }
        let mut owners: HashMap<u64, &(String, String)> = HashMap::new();
        for (key, seeds) in &points {
            for seed in seeds {
                let owner = *owners.entry(*seed).or_insert(key);
                assert_eq!(owner.0, key.0, "seed {seed} drives {owner:?} and {key:?}");
                assert_eq!(points[owner], *seeds, "{owner:?} and {key:?} share seed {seed}");
            }
        }
    }

    #[test]
    fn paper_scale_is_paper_sized() {
        let s = FigureScale::paper();
        assert_eq!(s.peers, 10_000);
        assert_eq!(s.seeds, 30);
        assert!(s.full_churn_horizons);
    }

    #[test]
    fn fingerprints_distinguish_scales() {
        assert_ne!(FigureScale::default().fingerprint(), FigureScale::paper().fingerprint());
        let mut reseeded = FigureScale::default();
        reseeded.base_seed ^= 1;
        assert_ne!(FigureScale::default().fingerprint(), reseeded.fingerprint());
    }

    #[test]
    fn fingerprints_distinguish_engine_and_attack_overrides() {
        let base = FigureScale::default();
        for kind in EngineKind::ALL {
            let overridden = FigureScale { engine: Some(kind), ..FigureScale::default() };
            assert_ne!(base.fingerprint(), overridden.fingerprint());
            assert!(overridden.fingerprint().contains(kind.label()));
        }
        let attacked = FigureScale { attack: Some(AttackKind::Eclipse), ..FigureScale::default() };
        assert_ne!(base.fingerprint(), attacked.fingerprint());
    }

    #[test]
    fn engine_kinds_roundtrip_through_labels() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(EngineKind::parse("cyclon"), None);
    }
}
