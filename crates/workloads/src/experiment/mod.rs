//! Declarative, checkpointable experiment execution.
//!
//! The paper's evaluation is a grid of sweeps — NAT percentage × view
//! size × configuration × 30 seeds — and this module is the one executor
//! that runs any of them:
//!
//! * a [`Sweep`] is a named grid of points, each point a list of seeds
//!   plus the per-seed computation (a pure `Fn(u64) -> Vec<f64>`);
//! * an [`Experiment`] collects the sweeps of every requested artifact,
//!   deduplicating cells shared between figures (Figures 3 and 4 read
//!   different columns of the same simulations, as do Figures 7 and 8);
//! * [`Experiment::run`] executes all cells on a bounded worker pool
//!   (`--jobs`), parallelizing across sweep points and figures — not just
//!   seeds — while capping the number of concurrently live simulations so
//!   10k-peer memory stays bounded;
//! * with a checkpoint directory configured, every completed cell is
//!   appended as a JSON line, and a resumed run restores whatever a
//!   killed run managed to finish (see [`checkpoint`]).
//!
//! **Cell identity contract:** a cell is globally identified by
//! `(sweep, point, seed)`. Registering the same identity twice — within a
//! run or across a kill/resume — must mean the *same computation*; the
//! executor runs it once and reuses the values. This is what makes both
//! cross-figure dedup and checkpoint resume sound, and it holds because
//! every cell is a pure function of its seed (the determinism contract
//! guarded by `tests/replay_determinism.rs`).
//!
//! Results are keyed, not ordered: output is byte-identical for any
//! `--jobs` value and for interrupted-then-resumed runs.

mod checkpoint;

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use nylon_gossip::Workers;
use nylon_sim::ShardPlan;

use crate::runner::panic_message;

/// The globally unique identity of one simulation cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// The sweep the cell belongs to.
    pub sweep: String,
    /// The point key within the sweep.
    pub point: String,
    /// The seed driving the run.
    pub seed: u64,
}

/// The per-seed computation of one sweep point.
type CellFn = Box<dyn Fn(u64) -> Vec<f64> + Send + Sync>;

struct Point {
    key: String,
    seeds: Vec<u64>,
    run: CellFn,
}

impl std::fmt::Debug for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Point").field("key", &self.key).field("seeds", &self.seeds).finish()
    }
}

/// A named grid of `(point, seed)` cells sharing one metric layout.
///
/// Every cell of a sweep returns the same small vector of metrics (e.g.
/// `[stale_pct, natted_nonstale_pct]`); the figure's render step picks
/// columns out of it.
#[derive(Debug)]
pub struct Sweep {
    name: String,
    points: Vec<Point>,
}

impl Sweep {
    /// Creates an empty sweep. Names are global: two figures registering
    /// the same sweep name share its cells (see the module docs).
    pub fn new(name: impl Into<String>) -> Self {
        Sweep { name: name.into(), points: Vec::new() }
    }

    /// Adds a point: one key, its seed list, and the per-seed computation.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered in this sweep.
    pub fn point(
        &mut self,
        key: impl Into<String>,
        seeds: Vec<u64>,
        run: impl Fn(u64) -> Vec<f64> + Send + Sync + 'static,
    ) -> &mut Self {
        let key = key.into();
        assert!(
            !self.points.iter().any(|p| p.key == key),
            "duplicate point '{key}' in sweep '{}'",
            self.name
        );
        self.points.push(Point { key, seeds, run: Box::new(run) });
        self
    }

    /// Number of cells in this sweep.
    pub fn cell_count(&self) -> usize {
        self.points.iter().map(|p| p.seeds.len()).sum()
    }
}

/// Execution knobs for [`Experiment::run`]. Neither thread count moves a
/// byte of the results.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads, i.e. the maximum number of concurrently live
    /// simulations. `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Lockstep workers per cell (`--shards`): `0` lets each engine size
    /// itself as one of `jobs` concurrent cells
    /// ([`nylon_gossip::auto_workers`]); `N` builds every engine of every
    /// cell on `N` round-robin workers.
    pub shards: usize,
    /// Directory receiving the JSONL checkpoint; `None` disables
    /// checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Restore already-computed cells from the checkpoint instead of
    /// starting fresh.
    pub resume: bool,
    /// Identity of the run (scale, base seed). Resuming a checkpoint
    /// written under a different fingerprint is refused — its cells came
    /// from different simulations, and silently overwriting it could
    /// throw away hours of computed cells over a forgotten scale flag.
    pub fingerprint: String,
}

impl ExecOptions {
    fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        }
    }
}

/// Completed cell values, keyed by `(sweep, point)` with per-point rows in
/// declared seed order — the same shape regardless of worker scheduling.
#[derive(Debug, Default)]
pub struct Results {
    points: HashMap<(String, String), Vec<Vec<f64>>>,
}

impl Results {
    /// Per-seed value vectors of one point, in declared seed order.
    ///
    /// # Panics
    ///
    /// Panics if the point was never part of the executed experiment —
    /// that is a plan/render mismatch, not a runtime condition.
    pub fn point(&self, sweep: &str, point: &str) -> &[Vec<f64>] {
        self.points
            .get(&(sweep.to_string(), point.to_string()))
            .unwrap_or_else(|| panic!("no results for cell {sweep}::{point}"))
    }

    /// One metric column of a point across seeds, in declared seed order.
    pub fn col(&self, sweep: &str, point: &str, idx: usize) -> Vec<f64> {
        self.point(sweep, point).iter().map(|row| row[idx]).collect()
    }
}

/// A set of sweeps executed together on one worker pool.
#[derive(Debug, Default)]
pub struct Experiment {
    sweeps: Vec<Sweep>,
}

impl Experiment {
    /// An empty experiment.
    pub fn new() -> Self {
        Experiment::default()
    }

    /// Adds a sweep, merging it with an already-registered sweep of the
    /// same name. Points whose keys are already present are dropped: by
    /// the cell-identity contract they denote the same computation, which
    /// is how figures sharing simulations (fig3/fig4, fig7/fig8) run them
    /// once.
    pub fn add_sweep(&mut self, sweep: Sweep) {
        match self.sweeps.iter_mut().find(|s| s.name == sweep.name) {
            None => self.sweeps.push(sweep),
            Some(existing) => {
                for point in sweep.points {
                    match existing.points.iter().find(|p| p.key == point.key) {
                        None => existing.points.push(point),
                        Some(prior) => assert_eq!(
                            prior.seeds, point.seeds,
                            "cell-identity contract violated for {}::{}",
                            existing.name, point.key
                        ),
                    }
                }
            }
        }
    }

    /// Total number of cells after dedup.
    pub fn cell_count(&self) -> usize {
        self.sweeps.iter().map(Sweep::cell_count).sum()
    }

    /// The identity of every cell after dedup, in registration order.
    #[cfg(test)]
    pub(crate) fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.sweeps.iter().flat_map(|sweep| {
            sweep.points.iter().flat_map(move |point| {
                point.seeds.iter().map(move |&seed| CellId {
                    sweep: sweep.name.clone(),
                    point: point.key.clone(),
                    seed,
                })
            })
        })
    }

    /// Runs every cell on a bounded worker pool and returns the keyed
    /// results.
    ///
    /// # Panics
    ///
    /// Propagates the first cell panic, naming the sweep, point and seed
    /// that died. Checkpoint I/O errors also panic: a run asked to be
    /// interruptible must not silently lose its safety net.
    pub fn run(&self, opts: &ExecOptions) -> Results {
        struct CellRef<'a> {
            sweep: &'a str,
            point: &'a Point,
            point_idx: usize,
            seed: u64,
        }
        impl CellRef<'_> {
            fn id(&self) -> CellId {
                CellId {
                    sweep: self.sweep.to_string(),
                    point: self.point.key.clone(),
                    seed: self.seed,
                }
            }
        }

        let mut cells: Vec<CellRef> = Vec::with_capacity(self.cell_count());
        let mut point_count = 0usize;
        for sweep in &self.sweeps {
            for point in &sweep.points {
                for seed in &point.seeds {
                    cells.push(CellRef {
                        sweep: &sweep.name,
                        point,
                        point_idx: point_count,
                        seed: *seed,
                    });
                }
                point_count += 1;
            }
        }
        let total = cells.len();

        // Restore and (re)write the checkpoint. The rewrite goes to a
        // temp file renamed over the original — header plus every
        // restored cell — which atomically repairs a truncated tail from
        // a killed run, preserves cells belonging to artifacts outside
        // this invocation, and cannot lose the restored cells to a kill
        // during startup.
        let mut restored: HashMap<CellId, Vec<f64>> = HashMap::new();
        let mut writer = None;
        if let Some(dir) = &opts.checkpoint {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create checkpoint dir {}: {e}", dir.display()));
            let path = dir.join(checkpoint::FILE_NAME);
            if opts.resume {
                match checkpoint::load(&path, &opts.fingerprint) {
                    checkpoint::LoadOutcome::Loaded(cells) => restored = cells,
                    // Refuse rather than overwrite: the mismatch usually
                    // means a forgotten scale flag, and the file may hold
                    // hours of paper-scale cells.
                    checkpoint::LoadOutcome::Mismatch => panic!(
                        "checkpoint {} was written at a different scale than \
                         '{}' — re-run with the original scale flags, or drop \
                         --resume (without it the file is overwritten)",
                        path.display(),
                        opts.fingerprint
                    ),
                    checkpoint::LoadOutcome::Missing => {}
                }
            }
            let mut text = checkpoint::header_line(&opts.fingerprint);
            text.push('\n');
            let mut kept: Vec<(&CellId, &Vec<f64>)> = restored.iter().collect();
            kept.sort_by_key(|(id, _)| *id);
            for (id, values) in kept {
                text.push_str(&checkpoint::cell_line(id, values));
                text.push('\n');
            }
            let tmp = dir.join(format!("{}.tmp", checkpoint::FILE_NAME));
            std::fs::write(&tmp, text.as_bytes())
                .unwrap_or_else(|e| panic!("cannot write checkpoint {}: {e}", tmp.display()));
            std::fs::rename(&tmp, &path)
                .unwrap_or_else(|e| panic!("cannot replace checkpoint {}: {e}", path.display()));
            let file = std::fs::File::options()
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("cannot open checkpoint {}: {e}", path.display()));
            writer = Some(Mutex::new(file));
        }

        // Seed the result slots with restored cells; everything else is
        // pending work for the pool.
        let slots: Vec<OnceLock<Vec<f64>>> = (0..total).map(|_| OnceLock::new()).collect();
        let point_remaining: Vec<AtomicUsize> =
            (0..point_count).map(|_| AtomicUsize::new(0)).collect();
        let mut pending: Vec<usize> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            if let Some(values) = restored.get(&cell.id()) {
                let _ = slots[i].set(values.clone());
            } else {
                pending.push(i);
                point_remaining[cell.point_idx].fetch_add(1, Ordering::Relaxed);
            }
        }
        let done = AtomicUsize::new(total - pending.len());
        if done.load(Ordering::Relaxed) > 0 {
            progress(&format!(
                "resumed {}/{total} cells from checkpoint",
                done.load(Ordering::Relaxed)
            ));
        }

        // One run-wide clock: every worker measures its cells as offsets
        // from the same epoch, and the same durations feed both the
        // progress lines and the `exec` telemetry layer.
        let timer = nylon_obs::PhaseTimer::start();
        let cursor = AtomicUsize::new(0);
        let failure: Mutex<Option<(CellId, String)>> = Mutex::new(None);
        let workers = opts.effective_jobs().min(pending.len()).max(1);
        if !pending.is_empty() {
            progress(&format!(
                "{} cell(s) on {workers} worker thread(s){}",
                pending.len(),
                if opts.jobs == 0 { " (auto-detected parallelism)" } else { "" }
            ));
        }
        let rate_limiter = ProgressRateLimiter::new();
        // The cells running side by side share the cores: each engine
        // sizes itself as one of `workers` jobs, unless `--shards` pins it.
        let cell_workers = match opts.shards {
            0 => Workers::OneOf(workers),
            n => Workers::Plan(ShardPlan::round_robin(n)),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    nylon_gossip::with_workers(cell_workers, || loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= pending.len() {
                            break;
                        }
                        let cell = &cells[pending[k]];
                        let cell_mark = timer.mark();
                        match catch_unwind(AssertUnwindSafe(|| (cell.point.run)(cell.seed))) {
                            Ok(values) => {
                                let elapsed = cell_mark.elapsed(&timer);
                                if nylon_obs::is_active() {
                                    let mut r = nylon_obs::Report::new();
                                    r.counter("exec", "cells_completed", 1);
                                    r.observe("exec", "cell_wall_ms", elapsed.as_millis() as u64);
                                    nylon_obs::merge_report(&r);
                                    nylon_obs::periodic_snapshot();
                                }
                                if let Some(w) = &writer {
                                    let line = checkpoint::cell_line(&cell.id(), &values);
                                    let mut file = w.lock().expect("checkpoint lock poisoned");
                                    writeln!(file, "{line}")
                                        .and_then(|()| file.flush())
                                        .unwrap_or_else(|e| {
                                            panic!("cannot append checkpoint: {e}")
                                        });
                                }
                                let _ = slots[pending[k]].set(values);
                                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                                let point_done = point_remaining[cell.point_idx]
                                    .fetch_sub(1, Ordering::Relaxed)
                                    == 1;
                                // Per-cell completion (seed + elapsed), rate
                                // limited so `--full` runs (thousands of cells)
                                // keep readable logs; the per-point summary
                                // below always prints.
                                if !point_done && rate_limiter.allow() {
                                    progress(&format!(
                                        "cell {}::{} seed={} done in {:.1?} ({d}/{total})",
                                        cell.sweep, cell.point.key, cell.seed, elapsed
                                    ));
                                }
                                if point_done {
                                    progress(&format!(
                                        "{}::{} done ({d}/{total} cells, last seed {} took {:.1?})",
                                        cell.sweep, cell.point.key, cell.seed, elapsed
                                    ));
                                }
                            }
                            Err(payload) => {
                                let mut slot = failure.lock().expect("failure lock poisoned");
                                slot.get_or_insert((cell.id(), panic_message(&*payload)));
                                // Drain the queue so other workers stop early.
                                cursor.store(usize::MAX / 2, Ordering::Relaxed);
                                break;
                            }
                        }
                    })
                });
            }
        });
        if let Some((id, msg)) = failure.into_inner().expect("failure lock poisoned") {
            panic!("experiment cell {}::{} seed={} panicked: {msg}", id.sweep, id.point, id.seed);
        }
        let run_wall = timer.elapsed();
        progress(&format!("all cells done in {run_wall:.1?}"));
        if nylon_obs::is_active() {
            let mut r = nylon_obs::Report::new();
            r.gauge("exec", "run_wall_ms", run_wall.as_millis() as u64);
            nylon_obs::merge_report(&r);
        }

        let mut results = Results::default();
        let mut slot_iter = slots.into_iter();
        for sweep in &self.sweeps {
            for point in &sweep.points {
                let rows: Vec<Vec<f64>> = point
                    .seeds
                    .iter()
                    .map(|_| {
                        slot_iter
                            .next()
                            .expect("one slot per cell")
                            .into_inner()
                            .expect("cell completed")
                    })
                    .collect();
                results.points.insert((sweep.name.clone(), point.key.clone()), rows);
            }
        }
        results
    }
}

/// Writes a progress line to stderr (the tables go to stdout).
pub(crate) fn progress(msg: &str) {
    eprintln!("[repro] {msg}");
}

/// Minimum interval between rate-limited per-cell progress lines.
const PROGRESS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// Lock-free rate limiter for per-cell progress lines: at most one line
/// per [`PROGRESS_INTERVAL`] across all workers, so a `--full` run's log
/// stays a heartbeat instead of a firehose.
struct ProgressRateLimiter {
    started: std::time::Instant,
    last_emit_ms: AtomicUsize,
}

impl ProgressRateLimiter {
    fn new() -> Self {
        ProgressRateLimiter {
            started: std::time::Instant::now(),
            last_emit_ms: AtomicUsize::new(0),
        }
    }

    /// `true` if the caller won the right to emit one line now (at most
    /// one winner per interval, races resolved by the compare-exchange).
    fn allow(&self) -> bool {
        let now = self.started.elapsed().as_millis() as usize;
        let last = self.last_emit_ms.load(Ordering::Relaxed);
        now.saturating_sub(last) >= PROGRESS_INTERVAL.as_millis() as usize
            && self
                .last_emit_ms
                .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nylon-exp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn two_sweep_experiment(counter: Arc<AtomicU64>) -> Experiment {
        let mut exp = Experiment::new();
        let mut a = Sweep::new("a");
        for p in 0..3u64 {
            let counter = Arc::clone(&counter);
            a.point(format!("p{p}"), vec![10, 20, 30], move |seed| {
                counter.fetch_add(1, Ordering::Relaxed);
                vec![(p * 1000 + seed) as f64, seed as f64 / 2.0]
            });
        }
        exp.add_sweep(a);
        let mut b = Sweep::new("b");
        b.point("only", vec![1, 2], |seed| vec![seed as f64]);
        exp.add_sweep(b);
        exp
    }

    #[test]
    fn results_are_keyed_and_seed_ordered() {
        let exp = two_sweep_experiment(Arc::new(AtomicU64::new(0)));
        let results = exp.run(&ExecOptions { jobs: 4, ..ExecOptions::default() });
        assert_eq!(
            results.point("a", "p2"),
            &[vec![2010.0, 5.0], vec![2020.0, 10.0], vec![2030.0, 15.0]]
        );
        assert_eq!(results.col("b", "only", 0), vec![1.0, 2.0]);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let run = |jobs| {
            let exp = two_sweep_experiment(Arc::new(AtomicU64::new(0)));
            let r = exp.run(&ExecOptions { jobs, ..ExecOptions::default() });
            (r.col("a", "p0", 0), r.col("a", "p1", 1), r.col("b", "only", 0))
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn merging_sweeps_dedups_shared_points() {
        let mut exp = Experiment::new();
        let mut one = Sweep::new("shared");
        one.point("x", vec![1, 2], |s| vec![s as f64]);
        exp.add_sweep(one);
        let mut two = Sweep::new("shared");
        two.point("x", vec![1, 2], |s| vec![s as f64]);
        two.point("y", vec![3], |s| vec![s as f64]);
        exp.add_sweep(two);
        assert_eq!(exp.cell_count(), 3, "duplicate point 'x' must be merged away");
        let results = exp.run(&ExecOptions::default());
        assert_eq!(results.col("shared", "y", 0), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate point")]
    fn duplicate_point_in_one_sweep_panics() {
        let mut s = Sweep::new("s");
        s.point("x", vec![1], |_| vec![]);
        s.point("x", vec![2], |_| vec![]);
    }

    #[test]
    fn cell_panic_names_sweep_point_seed() {
        let mut exp = Experiment::new();
        let mut s = Sweep::new("fragile");
        s.point("edge", vec![5, 77], |seed| {
            if seed == 77 {
                panic!("engine exploded");
            }
            vec![seed as f64]
        });
        exp.add_sweep(s);
        let err = catch_unwind(AssertUnwindSafe(|| {
            exp.run(&ExecOptions { jobs: 1, ..ExecOptions::default() })
        }))
        .expect_err("cell panic must propagate");
        let msg = panic_message(&*err);
        for needle in ["fragile", "edge", "77", "engine exploded"] {
            assert!(msg.contains(needle), "panic message '{msg}' lacks '{needle}'");
        }
    }

    #[test]
    fn checkpoint_resume_skips_computed_cells() {
        let dir = temp_dir("resume");
        let fingerprint = "test-scale".to_string();
        let counter = Arc::new(AtomicU64::new(0));
        let first = two_sweep_experiment(Arc::clone(&counter)).run(&ExecOptions {
            jobs: 2,
            checkpoint: Some(dir.clone()),
            resume: false,
            fingerprint: fingerprint.clone(),
            ..ExecOptions::default()
        });
        let ran_first = counter.swap(0, Ordering::Relaxed);
        assert_eq!(ran_first, 9, "3 points x 3 seeds in sweep 'a'");
        let second = two_sweep_experiment(Arc::clone(&counter)).run(&ExecOptions {
            jobs: 2,
            checkpoint: Some(dir.clone()),
            resume: true,
            fingerprint: fingerprint.clone(),
            ..ExecOptions::default()
        });
        assert_eq!(counter.load(Ordering::Relaxed), 0, "resume must not recompute cells");
        assert_eq!(first.point("a", "p1"), second.point("a", "p1"));

        // A truncated checkpoint (killed run) restores the surviving cells
        // and recomputes the rest.
        let path = dir.join("cells.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, &cut[..cut.len() - 7]).unwrap(); // mid-line cut
        let third = two_sweep_experiment(Arc::clone(&counter)).run(&ExecOptions {
            jobs: 2,
            checkpoint: Some(dir.clone()),
            resume: true,
            fingerprint: fingerprint.clone(),
            ..ExecOptions::default()
        });
        let reran = counter.load(Ordering::Relaxed);
        assert!(reran > 0, "truncated cells must be recomputed");
        assert!(reran < 9, "surviving cells must be restored, reran {reran}");
        assert_eq!(first.point("a", "p2"), third.point("a", "p2"));

        // A fingerprint mismatch refuses to resume (and leaves the file
        // untouched) instead of silently overwriting computed cells.
        let before = std::fs::read_to_string(dir.join("cells.jsonl")).unwrap();
        let err = catch_unwind(AssertUnwindSafe(|| {
            two_sweep_experiment(Arc::new(AtomicU64::new(0))).run(&ExecOptions {
                jobs: 2,
                checkpoint: Some(dir.clone()),
                resume: true,
                fingerprint: "other-scale".to_string(),
                ..ExecOptions::default()
            })
        }))
        .expect_err("mismatched resume must refuse");
        assert!(panic_message(&*err).contains("different scale"));
        let after = std::fs::read_to_string(dir.join("cells.jsonl")).unwrap();
        assert_eq!(before, after, "mismatched resume must not touch the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_rate_limiter_emits_at_most_once_per_interval() {
        let limiter = ProgressRateLimiter::new();
        // Let one interval pass so the first allow() can win.
        std::thread::sleep(PROGRESS_INTERVAL);
        let wins: usize = (0..100).filter(|_| limiter.allow()).count();
        assert_eq!(wins, 1, "one interval, one line");
        std::thread::sleep(PROGRESS_INTERVAL);
        assert!(limiter.allow(), "a new interval allows a new line");
    }

    #[test]
    fn fresh_run_overwrites_stale_checkpoint() {
        let dir = temp_dir("fresh");
        let opts = |resume| ExecOptions {
            jobs: 1,
            checkpoint: Some(dir.clone()),
            resume,
            fingerprint: "fp".to_string(),
            ..ExecOptions::default()
        };
        let counter = Arc::new(AtomicU64::new(0));
        two_sweep_experiment(Arc::clone(&counter)).run(&opts(false));
        counter.store(0, Ordering::Relaxed);
        // Without --resume the checkpoint is rewritten, not reused.
        two_sweep_experiment(Arc::clone(&counter)).run(&opts(false));
        assert_eq!(counter.load(Ordering::Relaxed), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
