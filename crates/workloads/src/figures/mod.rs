//! One generator per paper artifact, as declarative experiment plans.
//!
//! Every module describes one table or figure of the paper as a
//! [`Plan`]: the sweeps to execute (named grids of `(point, seed)` cells
//! for the [`crate::experiment`] executor) plus a render step turning the
//! collected cell values into [`Table`]s — the same series the paper
//! plots, with mean (and where meaningful, standard deviation) over
//! seeds. Absolute numbers are not expected to match the authors' testbed
//! — the *shapes* (who wins, where thresholds fall) are; see README
//! "Reproducing the paper" for what each artifact shows.
//!
//! A plan states its grid once: while it registers the points of a sweep
//! it records, in print order, the table rows they feed (`Rows`) — each
//! row's label cells and the keys of the points behind its value cells —
//! and the render reads that record, so it never rebuilds a key.
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

/// Builds one artifact's plan at a scale.
type PlanFn = fn(&FigureScale) -> Plan;

/// Every artifact, in presentation order, with the function building its
/// plan: the names [`plan`] and [`generate`] accept.
pub const FIGURES: &[(&str, PlanFn)] = &[
    ("table1", table1::plan),
    ("fig2", fig2::plan),
    ("fig3", fig34::plan_fig3),
    ("fig4", fig34::plan_fig4),
    ("fig7", fig78::plan_fig7),
    ("fig8", fig78::plan_fig8),
    ("fig9", fig9::plan),
    ("fig10", fig10::plan),
    ("correctness", correctness::plan),
    ("ablation", ablation::plan),
    ("extensions", extensions::plan),
    ("timeline", timeline::plan),
    ("randomness", adversary::plan_randomness),
    ("capture", adversary::plan_capture),
    ("eclipse", adversary::plan_eclipse),
    ("resilience", resilience::plan),
];

/// Renders collected cell values into an artifact's tables.
type RenderFn = Box<dyn Fn(&Results) -> Vec<Table> + Send + Sync>;

/// The rows a plan recorded for one sweep, in print order: each row's
/// label cells and the keys of the points behind its value cells.
#[derive(Debug)]
struct Rows {
    sweep: &'static str,
    rows: Vec<(Vec<String>, Vec<String>)>,
}

impl Rows {
    /// Appends one row to `table` per recorded row: its label cells, then
    /// the value cells `cells` formats from the per-seed values of the
    /// row's points, in recorded order.
    fn render(
        &self,
        results: &Results,
        mut table: Table,
        mut cells: impl FnMut(&[&[Vec<f64>]]) -> Vec<String>,
    ) -> Table {
        for (labels, keys) in &self.rows {
            let points: Vec<&[Vec<f64>]> =
                keys.iter().map(|key| results.point(self.sweep, key)).collect();
            table.push_row(labels.iter().cloned().chain(cells(&points)));
        }
        table
    }
}

/// A sweep being planned together with the rows it feeds.
struct Grid {
    sweep: Sweep,
    rows: Rows,
}

impl Grid {
    fn new(sweep: &'static str) -> Self {
        Grid { sweep: Sweep::new(sweep), rows: Rows { sweep, rows: Vec::new() } }
    }

    /// Starts a row with these label cells.
    fn row(&mut self, labels: impl IntoIterator<Item = String>) -> &mut Self {
        self.rows.rows.push((labels.into_iter().collect(), Vec::new()));
        self
    }

    /// Registers a point ([`Sweep::point`]) behind the current row's next
    /// value cell.
    fn point(
        &mut self,
        key: String,
        seeds: Vec<u64>,
        run: impl Fn(u64) -> Vec<f64> + Send + Sync + 'static,
    ) -> &mut Self {
        self.reads(&key);
        self.sweep.point(key, seeds, run);
        self
    }

    /// Puts an already-registered point behind the current row's next
    /// value cell.
    fn reads(&mut self, key: &str) -> &mut Self {
        let (_, keys) = self.rows.rows.last_mut().expect("a row to read the point into");
        keys.push(key.to_string());
        self
    }
}

/// One artifact as a declarative unit: the sweeps it needs executed and
/// the render step producing its tables from the results.
pub struct Plan {
    sweeps: Vec<Sweep>,
    render: RenderFn,
}

impl Plan {
    /// A plan executing the sweeps of `grids`; `render` reads the rows
    /// they recorded, one [`Rows`] per grid, in order.
    fn new(
        grids: Vec<Grid>,
        render: impl Fn(&Results, &[Rows]) -> Vec<Table> + Send + Sync + 'static,
    ) -> Self {
        let (sweeps, rows): (Vec<Sweep>, Vec<Rows>) =
            grids.into_iter().map(|g| (g.sweep, g.rows)).unzip();
        Plan { sweeps, render: Box::new(move |results| render(results, &rows)) }
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
        f.debug_struct("Plan").field("sweeps", &self.sweeps).finish()
    }
}

/// Builds the experiment plan for one named artifact.
///
/// Returns `None` for an unknown name. Some artifacts (fig7/fig8, the
/// ablations) produce multiple tables; some (fig3/fig4, fig7/fig8) share
/// their sweeps, so executing several plans through one [`Experiment`]
/// runs the shared simulations once.
pub fn plan(name: &str, scale: &FigureScale) -> Option<Plan> {
    FIGURES.iter().find(|(known, _)| *known == name).map(|(_, plan)| plan(scale))
}

/// One experiment over the plans of the named artifacts — sweeps they
/// share merge, so the pool runs shared simulations once and parallelizes
/// across artifacts, points and seeds — plus their renders, in order.
///
/// Returns `None` if a name is unknown.
pub fn assemble(
    names: &[impl AsRef<str>],
    scale: &FigureScale,
) -> Option<(Experiment, Vec<RenderFn>)> {
    let mut experiment = Experiment::new();
    let mut renders = Vec::new();
    for name in names {
        let (sweeps, render) = plan(name.as_ref(), scale)?.into_parts();
        for sweep in sweeps {
            experiment.add_sweep(sweep);
        }
        renders.push(render);
    }
    Some((experiment, renders))
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
    let (experiment, renders) = assemble(&[name], scale)?;
    let results = experiment.run(opts);
    Some(renders.iter().flat_map(|render| render(&results)).collect())
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
    fn every_artifact_is_registered_once() {
        for (name, _) in FIGURES {
            assert_eq!(FIGURES.iter().filter(|(n, _)| n == name).count(), 1, "{name} twice");
        }
    }

    #[test]
    fn shared_sweeps_dedup_across_plans() {
        let scale = FigureScale::default();
        for (a, b) in [("fig3", "fig4"), ("fig7", "fig8")] {
            let solo = plan(a, &scale).unwrap().cell_count();
            let pair = assemble(&[a, b], &scale).unwrap().0.cell_count();
            assert!(
                pair <= solo.max(plan(b, &scale).unwrap().cell_count()),
                "{a}+{b} must share cells: {pair} vs {solo} alone"
            );
        }
    }

    /// Every sweep draws its own populations: across the plans of all
    /// artifacts no seed drives two sweeps (a sweep two figures share by
    /// design is merged into one by the executor). Inside a sweep two
    /// points draw either disjoint seeds or the same list — a paired
    /// comparison on the same populations, like `abl-rvp`'s Nylon against
    /// static RVPs.
    #[test]
    fn no_two_sweeps_share_a_seed() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        let (exp, _) = assemble(&names, &FigureScale::default()).unwrap();
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

    /// `--engine` changes only the engine: naming a figure's own engine
    /// renders its tables byte for byte, and fig2 under another engine
    /// collapses to one row per view size, labelled with that engine.
    #[test]
    fn engine_override_changes_only_the_engine() {
        let tiny = FigureScale { peers: 32, seeds: 1, rounds: 8, ..FigureScale::default() };
        let csv = |names: &[&str], engine| {
            let scale = FigureScale { engine, ..tiny.clone() };
            let (exp, renders) = assemble(names, &scale).unwrap();
            let results = exp.run(&ExecOptions::default());
            renders.iter().flat_map(|r| r(&results)).map(|t| t.to_csv()).collect::<Vec<_>>()
        };
        assert_eq!(
            csv(&["fig3", "fig4"], Some(EngineKind::Baseline)),
            csv(&["fig3", "fig4"], None)
        );
        assert_eq!(csv(&["fig7", "fig8"], Some(EngineKind::Nylon)), csv(&["fig7", "fig8"], None));
        let scale = FigureScale { engine: Some(EngineKind::PeerSwap), ..tiny };
        let fig2 = generate("fig2", &scale).unwrap();
        let rows: Vec<[&str; 2]> = fig2[0].rows.iter().map(|r| [&*r[0], &*r[1]]).collect();
        assert_eq!(rows, [["15", "peerswap"], ["27", "peerswap"]]);
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
