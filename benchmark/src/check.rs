//! `--check`: the self-test that stands in for CI (which lives outside the
//! benchmark's directory).
//!
//! * every workload at toy size, twice with one seed: identical
//!   fingerprints and exactly equal counts; the simulated ones also
//!   through the traced builder, which must end in the same state;
//! * the seam-trace loop reproduces `LiveRunner`'s final engine state;
//! * `benchmark/Cargo.toml`'s `[profile.release]` equals the root's, so the
//!   benchmark keeps measuring the shipping build;
//! * `BENCHMARK.json`, where present, names exactly the workloads and
//!   metrics this binary reports.

use std::collections::BTreeMap;

use crate::cli::Runner;
use crate::json::{self, Value};
use crate::layers::PER_LAYER;
use crate::workloads::{Kind, END_TO_END, WORKLOADS};
use crate::Mode;

/// `key = value` pairs of one TOML table, comments and blanks dropped.
fn toml_table(text: &str, header: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

fn profiles_match() -> Result<(), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let root = toml_table(&read("Cargo.toml")?, "[profile.release]");
    let own = toml_table(&read("benchmark/Cargo.toml")?, "[profile.release]");
    if root.is_empty() {
        return Err("the root Cargo.toml has no [profile.release]".to_string());
    }
    if root != own {
        return Err(format!("[profile.release] differs: root {root:?}, benchmark {own:?}"));
    }
    Ok(())
}

fn manifest_matches() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else { return Ok(()) };
    let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::str).map(str::to_string))
            .collect()
    };
    let expect = [
        ("workloads", WORKLOADS.iter().map(|w| w.name.to_string()).collect::<Vec<_>>()),
        ("end_to_end", END_TO_END.iter().map(|m| m.name.to_string()).collect()),
        ("per_layer", PER_LAYER.iter().map(|m| m.0.to_string()).collect()),
    ];
    for (key, mut want) in expect {
        let mut got = names(key);
        got.sort();
        want.sort();
        if got != want {
            return Err(format!("BENCHMARK.json '{key}' names differ from the binary's"));
        }
    }
    for m in END_TO_END {
        let entry = v
            .get("end_to_end")
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .find(|e| e.get("name").and_then(Value::str) == Some(m.name));
        let entry = entry.expect("names were just compared");
        let same = entry.get("unit").and_then(Value::str) == Some(m.unit)
            && entry.get("better").and_then(Value::str) == Some(m.better.label())
            && entry.get("bound").and_then(Value::num) == Some(m.bound);
        if !same {
            return Err(format!("BENCHMARK.json disagrees with the binary on '{}'", m.name));
        }
    }
    Ok(())
}

/// The replayable part of a child record.
fn exact(rec: &Value) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for key in ["sim_fingerprint", "attempted", "completed", "total"] {
        out.push((key.to_string(), rec.get(key).cloned().unwrap_or(Value::Null)));
    }
    let window = rec.get("window").map(Value::entries).unwrap_or_default();
    out.extend(window.iter().filter(|(k, _)| !crate::counts::is_wall_clock(k)).cloned());
    out
}

fn workload_is_deterministic(runner: &Runner, name: &str, kind: Kind) -> Result<(), String> {
    let first = runner.child(name, Mode::E2e, true)?;
    let failures = first.get("failures").map(Value::items).unwrap_or_default();
    if let Some(f) = failures.first() {
        return Err(format!("check failed at toy size: {}", f.to_line()));
    }
    // Real sockets deliver in whatever order the kernel schedules the
    // receive threads; only the simulated workloads replay exactly.
    if matches!(kind, Kind::Wire) {
        return Ok(());
    }
    let second = runner.child(name, Mode::E2e, true)?;
    if exact(&first) != exact(&second) {
        return Err("two runs of one seed disagree on fingerprint or counts".to_string());
    }
    let traced = runner.child(name, Mode::Traced, true)?;
    if traced.get("sim_fingerprint") != first.get("sim_fingerprint") {
        return Err("the traced builder ends in a different state than runner::build".to_string());
    }
    Ok(())
}

/// Runs every check, printing one line each; exit code 1 on any failure.
pub fn run(runner: &Runner) -> Result<i32, String> {
    let mut failed = 0;
    let mut report = |name: &str, result: Result<(), String>| match result {
        Ok(()) => println!("PASS  {name}"),
        Err(e) => {
            failed += 1;
            println!("FAIL  {name}: {e}");
        }
    };
    report("build profile equals the root's", profiles_match());
    report("BENCHMARK.json names what the binary reports", manifest_matches());
    report(
        "seam loop reproduces LiveRunner's engine state",
        crate::sim::seam_matches_live_runner(runner.seed, crate::sim::TOY_PEERS, 30),
    );
    for w in WORKLOADS {
        report(
            &format!("{} at toy size: correct and replayable", w.name),
            workload_is_deterministic(runner, w.name, w.kind),
        );
    }
    println!("{}", if failed == 0 { "check: all passed" } else { "check: FAILED" });
    Ok(i32::from(failed > 0))
}
