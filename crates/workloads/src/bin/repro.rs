//! Command-line reproduction harness.
//!
//! ```text
//! repro [ARTIFACTS...] [--peers N] [--seeds K] [--rounds R] [--seed S]
//!       [--full] [--jobs N] [--shards N] [--engine NAME] [--attack NAME]
//!       [--faults SPEC] [--checkpoint DIR] [--resume] [--csv] [--out DIR]
//!       [--stats FILE]
//!
//! ARTIFACTS: table1 fig2 fig3 fig4 fig7 fig8 fig9 fig10 correctness
//!            ablation extensions timeline randomness capture eclipse
//!            resilience all     (default: all)
//!
//! repro live [--peers N] [--nat-pct PCT] [--rounds R] [--period-ms MS]
//!            [--seed S] [--faults SPEC] [--no-compare] [--min-cluster PCT]
//!            [--stats FILE]
//!
//! repro stats-report FILE
//! repro stats-report --diff BEFORE AFTER
//! repro stats-report --counters FILE
//!
//! The `stats-report` subcommand summarizes the JSONL a `--stats` run
//! wrote: per-layer metric table plus derived events/s, allocations
//! avoided, cell latency quantiles and per-shard imbalance. With
//! `--diff` it compares two such files instead: per-(layer, metric)
//! counter deltas and histogram quantile shifts, for before/after
//! comparisons across a change. With `--counters` it prints every counter,
//! gauge and histogram digest as a sorted `layer/metric value` list, less
//! the rows that move with the host or the worker count: the form
//! `scripts/golden.sh` commits beside each golden transcript.
//!
//! The `live` subcommand runs the on-wire demo instead: N in-process
//! nodes over real loopback UDP behind the user-space NAT emulator,
//! driven by the unmodified Nylon engine, beside (unless --no-compare)
//! the simulated twin of the same scenario, which runs first and stays out
//! of the --stats file. It exits 1 when a frame sent ended in no counted
//! place.
//!
//! --peers N        network size             (default 400; paper 10000)
//! --seeds K        seeds per data point     (default 3; paper 30)
//! --rounds R       steady-state horizon, rounds (default 120)
//! --seed S         base seed
//! --full           paper scale: 10000 peers, 30 seeds, full churn
//!                  horizons (explicit flags win regardless of order)
//! --jobs N         worker threads / max concurrently live simulations
//!                  (default: available parallelism)
//! --shards N       run every engine of every artifact's cells on N
//!                  lockstep workers, one thread each, instead of letting
//!                  it size itself (one worker per 625 peers, at most
//!                  the cores left per concurrent job); 0 is the same as
//!                  no flag. Like --jobs, a wall-clock knob: output is
//!                  byte-identical for every N and without the flag.
//! --engine NAME    reroute the engine-generic steady-state cells (fig2,
//!                  fig3/4, fig7/8) through one engine: baseline, nylon,
//!                  static-rvp or peerswap. Engine-specific artifacts
//!                  (fig9's chain lengths, the churn scripts) keep theirs.
//! --attack NAME    attack for the capture figure: shuffle-lying,
//!                  self-promotion (default), eclipse or nat-eclipse
//! --faults SPEC    comma-separated fault plan (rebind, rvp-crash, flap,
//!                  cgn, hairpin, loss-burst, partition, harden, none) to
//!                  compile and install into the engine-generic
//!                  steady-state cells at standard intensities. `none` is
//!                  the clean run (byte-identical to omitting the flag);
//!                  the `resilience` artifact sweeps its own profiles and
//!                  ignores the override. Unknown names error out listing
//!                  the valid ones.
//! --checkpoint DIR append each completed cell to DIR/cells.jsonl
//! --resume         restore already-computed cells from the checkpoint
//! --csv            print CSV instead of markdown
//! --out DIR        also write one .csv file per table into DIR
//! --stats FILE     record runtime telemetry snapshots (schema-versioned
//!                  JSONL) to FILE. Telemetry only observes: figure
//!                  output is byte-identical with or without it.
//! ```
//!
//! All requested artifacts execute as **one** experiment: their sweeps
//! merge (figures sharing simulations run them once) and every cell —
//! across figures, sweep points and seeds — feeds the same bounded worker
//! pool. Output is byte-identical for any `--jobs` value and for
//! interrupted-then-resumed runs.

use std::process::ExitCode;

use nylon_workloads::cli::{
    attack_names, engine_names, fault_names, parse_artifact_args, parse_live_args, ArtifactArgs,
    LiveArgs,
};
use nylon_workloads::figures::{self, FIGURES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("live") {
        return live_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("stats-report") {
        return stats_report_main(&args[1..]);
    }
    let ArtifactArgs { names, scale, opts, csv, out_dir, stats } = match parse_artifact_args(&args)
    {
        Ok(Some(request)) => request,
        Ok(None) => return usage(""),
        Err(e) => return usage(&e),
    };
    if let Some(path) = &stats {
        // Install before any cell runs so every merge lands in the sink.
        if let Err(e) = nylon_obs::install(std::path::Path::new(path)) {
            eprintln!("warning: --stats {path} disabled: {e}");
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "[repro] scale: {} peers, {} seeds, {} rounds{}{}{}{}{}",
        scale.peers,
        scale.seeds,
        scale.rounds,
        if scale.full_churn_horizons { ", paper churn horizons" } else { "" },
        if opts.shards > 0 {
            format!(", {} worker(s) per engine", opts.shards)
        } else {
            String::new()
        },
        scale.engine.map(|k| format!(", engine {}", k.label())).unwrap_or_default(),
        scale.attack.map(|k| format!(", attack {}", k.label())).unwrap_or_default(),
        scale.faults.map(|s| format!(", faults {}", s.label())).unwrap_or_default(),
    );

    let (experiment, renders) = figures::assemble(&names, &scale).expect("names validated above");
    eprintln!("[repro] {} cells across {} artifacts", experiment.cell_count(), renders.len());
    let results = experiment.run(&opts);
    if stats.is_some() {
        nylon_obs::final_snapshot();
    }

    for (name, render) in names.iter().zip(renders) {
        let tables = render(&results);
        for (i, table) in tables.iter().enumerate() {
            print!("{}", table.transcript(csv));
            if let Some(dir) = &out_dir {
                let suffix = if tables.len() > 1 { format!("_{}", i + 1) } else { String::new() };
                let path = format!("{dir}/{name}{suffix}.csv");
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// The `repro stats-report` subcommand: summarize a `--stats` JSONL file,
/// diff two of them (`--diff BEFORE AFTER`), or list its exact counters
/// (`--counters FILE`).
fn stats_report_main(args: &[String]) -> ExitCode {
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(t) => Some(t),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            None
        }
    };
    let rendered = match args {
        [path] => {
            let Some(text) = read(path) else { return ExitCode::FAILURE };
            nylon_workloads::stats_report::render(&text).map_err(|e| format!("{path}: {e}"))
        }
        [flag, before, after] if flag == "--diff" => {
            let (Some(b), Some(a)) = (read(before), read(after)) else {
                return ExitCode::FAILURE;
            };
            nylon_workloads::stats_report::render_diff(&b, &a)
                .map_err(|e| format!("{before} vs {after}: {e}"))
        }
        [flag, path] if flag == "--counters" => {
            let Some(text) = read(path) else { return ExitCode::FAILURE };
            nylon_workloads::stats_report::render_counters(&text)
                .map_err(|e| format!("{path}: {e}"))
        }
        _ => {
            eprintln!("usage: repro stats-report FILE");
            eprintln!("       repro stats-report --diff BEFORE AFTER");
            eprintln!("       repro stats-report --counters FILE");
            return ExitCode::FAILURE;
        }
    };
    match rendered {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `repro live` subcommand: the on-wire loopback-UDP demo.
fn live_main(args: &[String]) -> ExitCode {
    use nylon_workloads::live::{run_live, run_sim_twin, OverlaySnapshot};

    let LiveArgs { scale, compare, min_cluster, stats } = match parse_live_args(args) {
        Ok(Some(request)) => request,
        Ok(None) => return live_usage(""),
        Err(e) => return live_usage(&e),
    };
    eprintln!(
        "[repro] live: {} nodes over loopback UDP, {}% NAT, {} rounds at {} ms/round (~{:.1} s){}",
        scale.peers,
        scale.nat_pct,
        scale.rounds,
        scale.period_ms,
        (scale.rounds * scale.period_ms) as f64 / 1000.0,
        scale.faults.map(|s| format!(", faults {}", s.label())).unwrap_or_default()
    );
    // The simulated twin runs before the sink is installed, so the stats
    // file holds the live run's rows alone.
    let sim = compare.then(|| run_sim_twin(&scale));
    if let Some(path) = &stats {
        if let Err(e) = nylon_obs::install(std::path::Path::new(path)) {
            eprintln!("warning: --stats {path} disabled: {e}");
        }
    }

    let live = match run_live(&scale) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: live run failed to set up sockets: {e}");
            return ExitCode::FAILURE;
        }
    };
    let print_snapshot = |label: &str, s: &OverlaySnapshot| {
        println!(
            "{label:<10} cluster {:6.1} %   stale {:5.1} %   indegree {:5.1} ± {:4.1}   \
             shuffles {}   punches {}   relayed {}",
            s.cluster_pct,
            s.stale_pct,
            s.indegree_mean,
            s.indegree_std,
            s.requests_completed,
            s.punch_successes,
            s.relayed_requests
        );
    };
    println!("## live loopback-UDP overlay\n");
    print_snapshot("live", &live.overlay);
    println!(
        "{:<10} sent {}   forwarded {}   NAT-dropped {}   malformed {}   unaccounted {}   \
         decode errors {}   wall {:.1?}",
        "emulator",
        live.packets_sent,
        live.emulator_forwarded,
        live.emulator_dropped,
        live.emulator_malformed,
        live.unaccounted,
        live.decode_errors,
        live.wall
    );
    if live.wire_rebinds > 0 || live.wire_cgn > 0 {
        println!(
            "{:<10} wire rebinds {}   cgn boxes {}",
            "faults", live.wire_rebinds, live.wire_cgn
        );
    }
    if let Some(sim) = sim {
        print_snapshot("simulated", &sim);
        println!(
            "{:<10} cluster delta {:+.1} pts (live - simulated)   shuffles {} live / {} simulated",
            "delta",
            live.overlay.cluster_pct - sim.cluster_pct,
            live.overlay.requests_completed,
            sim.requests_completed
        );
    }
    if stats.is_some() {
        nylon_obs::final_snapshot();
    }
    if live.unaccounted > 0 {
        eprintln!("error: {} frames sent ended in no counted place", live.unaccounted);
        return ExitCode::FAILURE;
    }
    if live.overlay.cluster_pct < min_cluster {
        eprintln!(
            "error: live overlay cluster {:.1}% is below the {min_cluster}% floor",
            live.overlay.cluster_pct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn live_usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro live [--peers N] [--nat-pct PCT] [--rounds R] [--period-ms MS] [--seed S] [--faults SPEC] [--no-compare] [--min-cluster PCT] [--stats FILE]"
    );
    eprintln!("live faults: comma-separated of {}", fault_names());
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [ARTIFACTS...] [--peers N] [--seeds K] [--rounds R] [--seed S] [--full] [--jobs N] [--shards N] [--engine NAME] [--attack NAME] [--faults SPEC] [--checkpoint DIR] [--resume] [--csv] [--out DIR] [--stats FILE]"
    );
    eprintln!("       repro stats-report FILE");
    eprintln!("       repro stats-report --diff BEFORE AFTER");
    eprintln!("       repro stats-report --counters FILE");
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("artifacts: {} all", names.join(" "));
    eprintln!("engines: {}", engine_names());
    eprintln!("attacks: {}", attack_names());
    eprintln!("faults: comma-separated of {}", fault_names());
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
