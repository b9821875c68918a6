//! `figures-400`: the `repro` pipeline in-process — what users of this
//! repository actually run.
//!
//! `figures::plan` for `fig9` and `resilience` at the default scale, one
//! `Experiment` over two workers, tables rendered: 174 short cells across
//! all four engines, so per-cell build/bootstrap, executor scheduling,
//! `nylon-metrics` snapshots and rendering dominate and the steady-state
//! round cost matters little.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use nylon::NylonConfig;
use nylon_workloads::figures::{self, FigureScale};
use nylon_workloads::runner::{self, SnapshotScratch};
use nylon_workloads::{ExecOptions, Experiment, Scenario, Table};

use crate::counts::Fnv;
use crate::host::{self, NoiseGuard};
use crate::json::{self, Value};
use crate::stats::median;
use crate::{ChildCtx, Mode};

/// The artifacts this workload regenerates.
const ARTIFACTS: [&str; 2] = ["fig9", "resilience"];
/// Executor workers: one per core of the reference host.
const JOBS: usize = 2;

fn scale(ctx: &ChildCtx) -> FigureScale {
    let base = FigureScale { base_seed: ctx.seed, ..FigureScale::default() };
    if ctx.toy {
        FigureScale { peers: 60, seeds: 1, rounds: 30, ..base }
    } else {
        base
    }
}

/// Mean of the numeric cells of one column (cells rendered "-" skipped).
fn column_mean(table: &Table, column: &str) -> Option<f64> {
    let idx = table.columns.iter().position(|c| c == column)?;
    let vals: Vec<f64> = table.rows.iter().filter_map(|r| r[idx].parse().ok()).collect();
    (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
}

/// Runs one child process' worth of the figure pipeline.
pub fn run(ctx: &ChildCtx) -> Value {
    let mut rec = Value::obj();
    let scale = scale(ctx);
    let mut experiment = Experiment::new();
    let mut renders = Vec::new();
    for name in ARTIFACTS {
        let plan = figures::plan(name, &scale).expect("artifact names are known");
        let (sweeps, render) = plan.into_parts();
        for sweep in sweeps {
            experiment.add_sweep(sweep);
        }
        renders.push(render);
    }
    let cells = experiment.cell_count() as u64;
    rec.set("setup_s", ctx.start.elapsed_s());
    if ctx.mode == Mode::Setup {
        return rec;
    }

    // The traced pass turns the program's own stats sink on and reads the
    // executor's per-cell wall times back from the file it writes.
    let stats_path = ctx.out_dir.join(format!("stats-{}.jsonl", ctx.workload));
    if ctx.mode == Mode::Traced {
        if let Err(e) = nylon_obs::install(&stats_path) {
            rec.set("stats_sink_error", e.to_string());
        }
    }

    let alloc0 = ctx.alloc.map(|a| a.read());
    let guard = NoiseGuard::start();
    let started = Instant::now();
    let opts = ExecOptions { jobs: JOBS, ..ExecOptions::default() };
    // A panicking cell is a failed run, not a crashed benchmark.
    let results = catch_unwind(AssertUnwindSafe(|| experiment.run(&opts)));
    let run_s = started.elapsed().as_secs_f64();
    let rendered = Instant::now();
    let tables: Vec<Table> = match &results {
        Ok(results) => renders.iter().flat_map(|render| render(results)).collect(),
        Err(_) => Vec::new(),
    };
    let text: String = tables.iter().map(|t| t.to_string()).collect();
    let render_s = rendered.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    let noise = guard.finish();
    if let Some((a, before)) = ctx.alloc.zip(alloc0) {
        rec.set("alloc", a.since(before));
    }

    let mut failures: Vec<String> = Vec::new();
    if results.is_err() {
        failures.push("an experiment cell panicked; not every planned cell completed".into());
    }
    for t in &tables {
        if t.rows.is_empty() {
            failures.push(format!("table '{}' is empty", t.title));
        }
        let bad = t.rows.iter().flatten().filter(|c| c.contains("NaN") || c.contains("inf"));
        if bad.count() > 0 {
            failures.push(format!("table '{}' holds NaN or inf cells", t.title));
        }
    }
    // The cluster axis of this workload: where the recovery table says the
    // overlays ended up, averaged over its rows.
    let cluster = tables.iter().find_map(|t| column_mean(t, "final %"));
    if results.is_ok() && cluster.is_none() {
        failures.push("the recovery table has no numeric 'final %' column".into());
    }
    let completed = if failures.is_empty() { cells } else { 0 };
    let mut fp = Fnv::default();
    fp.bytes(text.as_bytes());

    // Simulated peer-rounds behind the tables, for the derived rate.
    let peer_rounds = cells as f64 * scale.peers as f64 * scale.rounds as f64;
    rec.set("wall_s", wall_s)
        .set("attempted", cells)
        .set("completed", completed)
        .set("failed", cells - completed)
        .set("ops_ok_share", completed as f64 / cells.max(1) as f64)
        .set("sim_cluster_pct", cluster.unwrap_or(0.0))
        // Neither artifact reports staleness or bandwidth; see README.
        .set("sim_fresh_pct", NOT_MEASURED_PCT)
        .set("sim_bytes_per_peer_round", NOT_MEASURED_BYTES)
        .set("sim_fingerprint", fp.hex())
        .set("peers", scale.peers)
        .set("peer_rounds", peer_rounds)
        .set("cells_per_s", cells as f64 / wall_s)
        .set("ns_per_node_round", wall_s * 1e9 / peer_rounds)
        .set("rss_bytes_at_end", host::rss_bytes())
        .set("failures", failures.into_iter().map(Value::from).collect::<Vec<_>>())
        .set("noise", noise);

    if ctx.mode == Mode::Traced {
        nylon_obs::final_snapshot();
        let mut layer = Value::obj();
        layer.set("workloads.render_ms", render_s * 1e3).set("workloads.experiment.run_s", run_s);
        let sink = std::fs::read_to_string(&stats_path).unwrap_or_default();
        if let Some(exec) = sink.lines().last().and_then(|l| json::parse(l).ok()) {
            if let Some(cell) = exec.path(&["layers", "exec", "cell_wall_ms"]) {
                let busy_s = cell.num_or_zero("sum") / 1e3;
                layer
                    .set("workloads.experiment.cell_ms_p50", cell.num_or_zero("p50"))
                    .set("workloads.experiment.cell_ms_p90", cell.num_or_zero("p90"))
                    .set("workloads.experiment.worker_busy_share", busy_s / (JOBS as f64 * run_s));
            }
            // The cells flushed their engines' telemetry into the sink:
            // these are the exact, replayable counts of the whole pipeline.
            let mut counts = Value::obj();
            for (layer_name, metrics) in exec.get("layers").map(Value::entries).unwrap_or_default()
            {
                for (metric, body) in metrics.entries() {
                    if let Some(v) = body.get("value").and_then(Value::num) {
                        counts.set(&format!("{layer_name}/{metric}"), v);
                    }
                }
            }
            rec.set("window", counts);
        }
        layer_ops(&scale, &mut layer);
        rec.set("end_state_ops", layer);
    }
    rec
}

/// Stand-in reported where a workload has no such statistic, so every
/// workload prints every end-to-end metric (the driver's contract).
pub const NOT_MEASURED_PCT: f64 = 100.0;
/// See [`NOT_MEASURED_PCT`].
pub const NOT_MEASURED_BYTES: f64 = 1.0;

/// What one cell pays outside the rounds themselves: the overlay snapshot,
/// the staleness report and the telemetry flush, timed on an engine of the
/// cells' size.
fn layer_ops(scale: &FigureScale, layer: &mut Value) {
    let scn = Scenario::new(scale.peers, 60.0, scale.base_seed);
    let mut eng: nylon::NylonEngine = runner::build(&scn, NylonConfig::default());
    eng.run_rounds(scale.rounds.min(30));
    let mut scratch = SnapshotScratch::new();
    let time = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..25)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let snapshot = time(&mut || {
        std::hint::black_box(runner::biggest_cluster_pct_with(&eng, &mut scratch));
    });
    let stale = time(&mut || {
        std::hint::black_box(runner::staleness(&eng));
    });
    let report = time(&mut || {
        let mut merged = nylon_obs::Report::new();
        let mut r = nylon_obs::Report::new();
        eng.obs_report(&mut r);
        merged.absorb(&r);
        std::hint::black_box(merged);
    });
    layer
        .set("metrics.graph.snapshot_ms", snapshot * 1e3)
        .set("metrics.staleness.ms", stale * 1e3)
        .set("obs.report.us", report * 1e6);
}
