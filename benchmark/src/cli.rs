//! The parent process: command line, child processes, aggregation,
//! printing and the result file.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{self, Value};
use crate::layers::{self, Pass, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::{self, Kind, Workload, END_TO_END, WORKLOADS};
use crate::{check, compare, host, AllocProbe, ChildCtx, Mode, Start};

const USAGE: &str = "\
usage: benchmark/run.sh [options]

  (no option)            every workload, 3 interleaved reps, end-to-end metrics
  --workload W           only workload W
  --seed S               generator seed (default 5)
  --reps R               end-to-end repetitions per workload (default 3)
  --trace                also run the traced pass: per-layer metrics, span files, sweeps
  --check                self-test: determinism, seam loop, build profile
  --compare A.json B.json  compare two result files, B against base A
  --out FILE             result file (default benchmark/out/results.json)

driver form (one run, last stdout line is a JSON result):
  --workload W --seed S --seconds N --trace 0|1
";

/// Parsed command line.
#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: usize,
    trace: bool,
    check: bool,
    compare: Option<(String, String)>,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    child: Option<Mode>,
    toy: bool,
    spawned_unix_ns: Option<u128>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 5,
        seconds: None,
        reps: 3,
        trace: false,
        check: false,
        compare: None,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        child: None,
        toy: false,
        spawned_unix_ns: None,
    };
    let mut it = args.iter().peekable();
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: '{s}' is not a valid number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => o.workload = Some(value(&mut it, arg)?.clone()),
            "--seed" => o.seed = number(value(&mut it, arg)?, arg)?,
            "--seconds" => {
                let s: f64 = number(value(&mut it, arg)?, arg)?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be within (0, 3600], got {s}"));
                }
                o.seconds = Some(s);
            }
            "--reps" => {
                o.reps = number(value(&mut it, arg)?, arg)?;
                if o.reps == 0 || o.reps > 1000 {
                    return Err("--reps must be within [1, 1000]".to_string());
                }
            }
            // `--trace` alone is a flag; the driver form passes `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            "--check" => o.check = true,
            "--compare" => {
                o.compare = Some((value(&mut it, arg)?.clone(), value(&mut it, arg)?.clone()));
            }
            "--out" => o.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--out-dir" => o.out_dir = PathBuf::from(value(&mut it, arg)?),
            "--child" => {
                let m = value(&mut it, arg)?;
                o.child = Some(Mode::parse(m).ok_or_else(|| format!("unknown child mode '{m}'"))?);
            }
            "--toy" => o.toy = true,
            "--spawned-unix-ns" => o.spawned_unix_ns = Some(number(value(&mut it, arg)?, arg)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

/// Entry point behind both binaries.
pub fn main(start: Start, alloc: Option<AllocProbe>) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() { 0 } else { 2 };
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {}: {e}", opts.out_dir.display());
        return 2;
    }
    let result = if let Some(mode) = opts.child {
        child_main(&opts, mode, start, alloc)
    } else if let Some((a, b)) = &opts.compare {
        compare::run(Path::new(a), Path::new(b))
    } else if opts.check {
        check::run(&Runner::new(&opts))
    } else if opts.seconds.is_some() && opts.workload.is_some() {
        driver_run(&opts)
    } else {
        full_run(&opts)
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            1
        }
    }
}

fn child_main(
    opts: &Opts,
    mode: Mode,
    start: Start,
    alloc: Option<AllocProbe>,
) -> Result<i32, String> {
    let ctx = ChildCtx {
        workload: opts.workload.clone().ok_or("--child needs --workload")?,
        seed: opts.seed,
        seconds: opts.seconds.unwrap_or(DEFAULT_SECONDS),
        toy: opts.toy,
        mode,
        start: opts.spawned_unix_ns.map_or(start, |ns| start.spawned_at(ns)),
        alloc,
        out_dir: opts.out_dir.clone(),
    };
    let rec = workloads::run_child(&ctx)?;
    println!("{}", rec.to_line());
    Ok(0)
}

/// Measurement budget when none is given (the time-based workload only;
/// every other window is a fixed amount of work).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Spawns children.
#[derive(Debug)]
pub struct Runner {
    exe_dir: PathBuf,
    out_dir: PathBuf,
    /// Generator seed.
    pub seed: u64,
    seconds: f64,
}

impl Runner {
    fn new(opts: &Opts) -> Runner {
        let exe_dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_else(|| PathBuf::from("."));
        Runner {
            exe_dir,
            out_dir: opts.out_dir.clone(),
            seed: opts.seed,
            seconds: opts.seconds.unwrap_or(DEFAULT_SECONDS),
        }
    }

    /// Runs `workload` in a child process and returns its record. The
    /// traced and seam modes run the binary with the counting allocator.
    pub fn child(&self, workload: &str, mode: Mode, toy: bool) -> Result<Value, String> {
        let bin = match mode {
            Mode::E2e | Mode::Setup => "ledger",
            Mode::Traced | Mode::Seam => "ledger-traced",
        };
        let exe = self.exe_dir.join(bin);
        let log_name = format!("{}-{}.log", workload.replace('/', "_"), mode.label());
        let log_path = self.out_dir.join(log_name);
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", mode.label(), "--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .arg("--out-dir")
            .arg(&self.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        if toy {
            cmd.arg("--toy");
        }
        let spawned = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        cmd.args(["--spawned-unix-ns", &spawned.to_string()]);
        // `output` waits for the child: no process outlives its run.
        let out = cmd.output().map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fail = |why: String| {
            let tail: Vec<String> = std::fs::read_to_string(&log_path)
                .unwrap_or_default()
                .lines()
                .rev()
                .take(12)
                .map(str::to_string)
                .collect();
            let tail: Vec<&str> = tail.iter().rev().map(String::as_str).collect();
            format!("{workload} ({}): {why}\n{}", mode.label(), tail.join("\n"))
        };
        if !out.status.success() {
            return Err(fail(format!("child exited with {}", out.status)));
        }
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
        let line = line.ok_or_else(|| fail("child printed no record".to_string()))?;
        json::parse(line).map_err(|e| fail(format!("child record does not parse: {e}")))
    }
}

fn failures_of(rec: &Value) -> Vec<String> {
    rec.get("failures")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.str().map(str::to_string))
        .collect()
}

fn has_seam(w: &Workload) -> bool {
    matches!(w.kind, Kind::Sim(spec) if spec.shards == 0)
}

/// The child runs of one workload's traced pass.
struct TracedPass {
    traced: Value,
    seam: Option<Value>,
    shards: Option<(Value, Value)>,
    failures: Vec<String>,
}

/// Runs the traced pass of `w` and checks it against the end-to-end run.
fn traced_pass(runner: &Runner, w: &Workload, e2e: &Value) -> Result<TracedPass, String> {
    let traced = runner.child(w.name, Mode::Traced, false)?;
    let mut failures: Vec<String> =
        failures_of(&traced).into_iter().map(|f| format!("traced: {f}")).collect();
    if matches!(w.kind, Kind::Sim(_) | Kind::Figures)
        && traced.get("sim_fingerprint") != e2e.get("sim_fingerprint")
    {
        failures.push("traced run diverged from the end-to-end run (fingerprints differ)".into());
    }
    let seam = if has_seam(w) { Some(runner.child(w.name, Mode::Seam, false)?) } else { None };
    if let Some(s) = &seam {
        failures.extend(failures_of(s).into_iter().map(|f| format!("seam: {f}")));
    }
    // The first honest two-core number: the paper's protocol at 20k peers
    // on one shard and on two.
    let shards = if w.name == "nylon-steady-20k" {
        Some((
            runner.child("aux/nylon/20000/1", Mode::E2e, false)?,
            runner.child("aux/nylon/20000/2", Mode::E2e, false)?,
        ))
    } else {
        None
    };
    Ok(TracedPass { traced, seam, shards, failures })
}

impl TracedPass {
    fn derive(&self, e2e: &Value) -> Vec<(&'static str, f64)> {
        layers::derive(&Pass {
            e2e,
            traced: &self.traced,
            seam: self.seam.as_ref(),
            shards: self.shards.as_ref().map(|(a, b)| (a, b)),
        })
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value).set("unit", unit);
    v
}

fn print_derived(rec: &Value) {
    for (key, unit) in [
        ("ns_per_node_round", "ns"),
        ("events_per_s", "1/s"),
        ("cells_per_s", "1/s"),
        ("pkts_per_s", "1/s"),
    ] {
        if let Some(v) = rec.get(key).and_then(Value::num) {
            println!("  {key:<28} {v:>14.1} {unit}  (derived)");
        }
    }
    if let Some(fp) = rec.get("sim_fingerprint").and_then(Value::str) {
        println!("  {:<28} {fp:>14}", "sim_fingerprint");
    }
}

fn is_noisy(rec: &Value) -> bool {
    rec.path(&["noise", "noisy"]).and_then(Value::bool) == Some(true)
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| format!("unknown workload '{name}'"))
}

/// The driver form: one workload, one seed, one JSON result line.
fn driver_run(opts: &Opts) -> Result<i32, String> {
    let w = workload_named(opts.workload.as_deref().expect("checked by the caller"))?;
    let runner = Runner::new(opts);
    let e2e = runner.child(w.name, Mode::E2e, false)?;
    let mut failures = failures_of(&e2e);
    let mut metrics = Value::obj();
    println!("{} (seed {}): {}", w.name, opts.seed, w.why);
    if opts.trace {
        let pass = traced_pass(&runner, w, &e2e)?;
        failures.extend(pass.failures.iter().cloned());
        for ((name, unit, _), (_, value)) in PER_LAYER.iter().zip(pass.derive(&e2e)) {
            println!("  {name:<44} {value:>16.4} {unit}");
            metrics.set(name, metric_json(value, unit));
        }
    } else {
        // Set-up is short next to its own noise: set up several more times
        // (each in a fresh process) and report the median.
        let first = e2e.num_or_zero("setup_s");
        let mut setups = vec![first];
        for _ in 0..if first < 0.2 { 8 } else { 2 } {
            setups.push(runner.child(w.name, Mode::Setup, false)?.num_or_zero("setup_s"));
        }
        for m in END_TO_END {
            let value = if m.name == "setup_s" { median(&setups) } else { e2e.num_or_zero(m.name) };
            println!("  {:<28} {value:>14.4} {}", m.name, m.unit);
            metrics.set(m.name, metric_json(value, m.unit));
        }
        print_derived(&e2e);
        if is_noisy(&e2e) {
            let share = e2e.path(&["noise", "wait_share"]).and_then(Value::num).unwrap_or(0.0);
            println!("  noisy: run-queue wait + steal = {:.1}% of the window", share * 100.0);
        }
    }
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    // An operation fails when the program fails it (a lost frame, a cell that
    // panicked) or when the run fails a check. A simulated shuffle that a
    // simulated NAT leaves unanswered is the protocol's behaviour, not a
    // failure of the simulator; `ops_ok_share` reports it.
    let attempted = (e2e.num_or_zero("attempted") as u64).max(1);
    let failed = if failures.is_empty() { e2e.num_or_zero("failed") as u64 } else { attempted };
    let mut result = Value::obj();
    result
        .set("correct", failures.is_empty())
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", result.to_line());
    Ok(0)
}

/// Scaling sweep points run by `--trace`, beyond the workloads' own rows.
const SWEEP_PEERS: [usize; 2] = [200, 2_000];

/// The full form: every selected workload, interleaved reps, the table,
/// the result file.
fn full_run(opts: &Opts) -> Result<i32, String> {
    let selected: Vec<&Workload> = match &opts.workload {
        Some(name) => vec![workload_named(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let runner = Runner::new(opts);
    eprintln!(
        "ledger: {} workload(s) x {} rep(s), seed {}, {} core(s), load {:.2}",
        selected.len(),
        opts.reps,
        opts.seed,
        host::nproc(),
        host::loadavg()
    );
    // Round-robin across workloads, so a slow stretch of the host spreads
    // over all of them instead of landing on one.
    let mut runs: Vec<Vec<Value>> = selected.iter().map(|_| Vec::new()).collect();
    for rep in 0..opts.reps {
        for (i, w) in selected.iter().enumerate() {
            eprintln!("ledger: rep {}/{} {}", rep + 1, opts.reps, w.name);
            runs[i].push(runner.child(w.name, Mode::E2e, false)?);
        }
    }

    let mut any_failed = false;
    let mut out_workloads = Value::obj();
    let mut scaling: Vec<Value> = Vec::new();
    let scaling_row = |engine: &str, peers: f64, shards: f64, rec: &Value| {
        let mut row = Value::obj();
        row.set("engine", engine)
            .set("peers", peers)
            .set("shards", shards)
            .set("ns_per_node_round", rec.num_or_zero("ns_per_node_round"))
            .set("wall_s", rec.num_or_zero("wall_s"));
        row
    };
    for (w, recs) in selected.iter().zip(&runs) {
        let mut failures: Vec<String> = recs.iter().flat_map(failures_of).collect();
        let first = &recs[0];
        let same = |key: &str| recs.iter().all(|r| r.get(key) == first.get(key));
        if matches!(w.kind, Kind::Sim(_) | Kind::Figures)
            && !(same("sim_fingerprint") && same("attempted") && same("completed"))
        {
            failures.push("reps of one seed disagree on fingerprint or counts".to_string());
        }
        let mut entry = Value::obj();
        println!("\n{} — {}", w.name, w.why);
        let mut e2e = Value::obj();
        // The base record of the traced pass: rep 0 with median timings.
        let mut base = first.clone();
        for m in END_TO_END {
            let samples: Vec<f64> = recs.iter().map(|r| r.num_or_zero(m.name)).collect();
            let s = Summary::of(&samples);
            println!(
                "  {:<28} {:>14.4} {:<6} min {:.4}  q1 {:.4}  q3 {:.4}  max {:.4}  n {}  \
                 spread {:.1}% (bound {:.1}%)",
                m.name,
                s.median,
                m.unit,
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.n,
                s.spread() * 100.0,
                m.bound * 100.0
            );
            let mut j = s.to_json();
            j.set("unit", m.unit);
            e2e.set(m.name, j);
            base.set(m.name, s.median);
        }
        let mut derived = Value::obj();
        for key in ["ns_per_node_round", "events_per_s", "cells_per_s", "pkts_per_s", "peer_rounds"]
        {
            if first.get(key).is_some() {
                let samples: Vec<f64> = recs.iter().map(|r| r.num_or_zero(key)).collect();
                derived.set(key, median(&samples));
                base.set(key, median(&samples));
            }
        }
        print_derived(&base);
        let noisy = recs.iter().filter(|r| is_noisy(r)).count();
        if noisy > 0 {
            println!(
                "  noisy: run-queue wait + steal above 2% of the window in {noisy} of {} reps",
                recs.len()
            );
        }
        entry
            .set("why", w.why)
            .set("sim_fingerprint", first.get("sim_fingerprint").cloned().unwrap_or(Value::Null))
            .set("attempted", first.num_or_zero("attempted"))
            .set("completed", first.num_or_zero("completed"))
            .set("noisy_reps", noisy)
            .set("end_to_end", e2e);
        entry.set("derived", derived);
        entry.set("exact_counts", first.get("window").cloned().unwrap_or(Value::Null));

        if opts.trace {
            eprintln!("ledger: traced pass {}", w.name);
            let pass = traced_pass(&runner, w, &base)?;
            failures.extend(pass.failures.iter().cloned());
            let mut per_layer = Value::obj();
            println!("  per-layer (traced pass):");
            for ((name, unit, _), (_, value)) in PER_LAYER.iter().zip(pass.derive(&base)) {
                if value != 0.0 {
                    println!("    {name:<42} {value:>16.4} {unit}");
                }
                per_layer.set(name, metric_json(value, unit));
            }
            entry.set("per_layer", per_layer);
            entry.set("ops", pass.traced.get("ops").cloned().unwrap_or(Value::Null));
            if let Some(s) = &pass.seam {
                entry.set("seam", s.get("seam").cloned().unwrap_or(Value::Null));
                entry.set("trace_file", s.get("trace_file").cloned().unwrap_or(Value::Null));
            }
            if let Kind::Sim(spec) = w.kind {
                if w.name.contains("steady") {
                    let engine = w.name.split('-').next().unwrap_or("?");
                    scaling.push(scaling_row(engine, spec.peers as f64, 0.0, &base));
                }
            }
            if let Some((s1, s2)) = &pass.shards {
                scaling.push(scaling_row("nylon", 20_000.0, 1.0, s1));
                scaling.push(scaling_row("nylon", 20_000.0, 2.0, s2));
            }
        }
        for f in &failures {
            println!("  CHECK FAILED: {f}");
        }
        any_failed |= !failures.is_empty();
        entry
            .set("correct", failures.is_empty())
            .set("failures", failures.into_iter().map(Value::from).collect::<Vec<_>>());
        out_workloads.set(w.name, entry);
    }

    if opts.trace && opts.workload.is_none() {
        for engine in ["nylon", "baseline"] {
            for peers in SWEEP_PEERS {
                eprintln!("ledger: sweep {engine} at {peers} peers");
                let rec = runner.child(&format!("aux/{engine}/{peers}/0"), Mode::E2e, false)?;
                scaling.push(scaling_row(engine, peers as f64, 0.0, &rec));
            }
        }
    }
    if !scaling.is_empty() {
        println!("\nscaling (trace-only; ns per node-round, shards 0 = direct kernel):");
        for row in &scaling {
            println!(
                "  {:<9} N = {:<7} S = {}  {:>10.1} ns/node-round  (window {:.3} s)",
                row.get("engine").and_then(Value::str).unwrap_or("?"),
                row.num_or_zero("peers"),
                row.num_or_zero("shards"),
                row.num_or_zero("ns_per_node_round"),
                row.num_or_zero("wall_s"),
            );
        }
    }

    let mut bounds = Value::obj();
    for m in END_TO_END {
        bounds.set(m.name, m.bound);
    }
    let mut file = Value::obj();
    file.set("schema", "nylon-ledger/1")
        .set("commit", std::env::var("LEDGER_COMMIT").unwrap_or_else(|_| "unknown".to_string()))
        .set("host", host::describe())
        .set("seed", opts.seed)
        .set("reps", opts.reps)
        .set("bounds", bounds)
        .set("workloads", out_workloads)
        .set("scaling", scaling);
    let path = opts.out.clone().unwrap_or_else(|| opts.out_dir.join("results.json"));
    std::fs::write(&path, file.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(i32::from(any_failed))
}
