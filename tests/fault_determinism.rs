//! Determinism gate for the fault plane: a `nylon-faults` plan is part of
//! the run identity, nothing else. The contracts under test:
//!
//! * a faulted run renders byte-identically at `--shards 1/2/4` — fault
//!   events fire from engine-scheduled timers on the deterministic grid,
//!   per-peer fault stats follow ownership, and global events are counted
//!   once (shard 0), so worker sums equal the single-engine totals;
//! * a faulted sweep survives a kill/`--resume` cycle unchanged — fault
//!   plans are compiled per cell from `(config, seed, classes)`, never
//!   from executor state;
//! * `--faults none` is the clean run — byte-identical to passing no flag
//!   at all, which is what the CI golden comparison of `fig9`/`table1`
//!   against the committed seed output relies on.

use std::path::PathBuf;

use nylon_faults::FaultSpec;
use nylon_workloads::experiment::ExecOptions;
use nylon_workloads::figures::{generate_with, FigureScale};

fn tiny() -> FigureScale {
    FigureScale { peers: 40, seeds: 1, rounds: 12, base_seed: 0xFA17, ..FigureScale::default() }
}

fn faulted() -> FigureScale {
    let spec = FaultSpec::parse("rebind,rvp-crash,flap,loss-burst,harden").expect("valid spec");
    FigureScale { faults: Some(spec), ..tiny() }
}

/// `--shards N`: every engine on `shards` workers.
fn at(shards: usize) -> ExecOptions {
    ExecOptions { shards, ..ExecOptions::default() }
}

/// Renders every table of one artifact to a single byte string.
fn render(name: &str, scale: &FigureScale, opts: &ExecOptions) -> String {
    generate_with(name, scale, opts)
        .expect("known figure name")
        .iter()
        .map(|t| format!("{}\n{}", t.to_markdown(), t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n---\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nylon-faultdet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resilience_artifact_is_byte_identical_at_shards_1_2_4() {
    // The resilience artifact runs every engine under nonzero fault plans
    // (rebind waves, a correlated RVP crash, flapping) with hardening on
    // and off — the deepest fault-plane path there is.
    let one = render("resilience", &tiny(), &at(1));
    let two = render("resilience", &tiny(), &at(2));
    let four = render("resilience", &tiny(), &at(4));
    assert!(!one.is_empty());
    assert_eq!(one, two, "resilience diverged between --shards 1 and --shards 2");
    assert_eq!(one, four, "resilience diverged between --shards 1 and --shards 4");
}

#[test]
fn faulted_fig9_is_byte_identical_at_shards_1_2_4() {
    // `repro fig9 --faults rebind,rvp-crash,flap,loss-burst,harden`: the
    // fault override reroutes the engine-generic cells through a faulted
    // fabric; the plan must replay identically on every shard topology.
    let one = render("fig9", &faulted(), &at(1));
    assert!(!one.is_empty());
    assert_ne!(one, render("fig9", &tiny(), &at(1)), "the fault plan had no observable effect");
    assert_eq!(one, render("fig9", &faulted(), &at(2)), "faulted fig9 diverged at --shards 2");
    assert_eq!(one, render("fig9", &faulted(), &at(4)), "faulted fig9 diverged at --shards 4");
}

#[test]
fn faults_none_is_byte_identical_to_no_flag() {
    // `--faults none` must be the clean run — same bytes as no flag at
    // all, at the fingerprint level too (so checkpoints interchange).
    let clean = tiny();
    let none = FigureScale { faults: Some(FaultSpec::default()), ..tiny() };
    assert_eq!(clean.fingerprint(), none.fingerprint());
    assert_eq!(render("fig9", &clean, &at(1)), render("fig9", &none, &at(1)));
}

#[test]
fn killed_then_resumed_faulted_run_matches_an_uninterrupted_one() {
    // Fault plans are compiled per cell from (config, seed, classes); a
    // truncated checkpoint replays the missing cells bit-for-bit.
    let scale = faulted();
    let dir = temp_dir("resume");
    let opts = |resume| ExecOptions {
        jobs: 4,
        shards: 2,
        checkpoint: Some(dir.clone()),
        resume,
        fingerprint: scale.fingerprint(),
    };
    let clean = render("resilience", &scale, &opts(false));

    let path = dir.join("cells.jsonl");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    assert!(bytes.len() > 100, "checkpoint suspiciously small: {} bytes", bytes.len());
    std::fs::write(&path, &bytes[..bytes.len() * 3 / 5]).unwrap();

    let resumed = render("resilience", &scale, &opts(true));
    assert_eq!(clean, resumed, "resumed faulted run rendered different tables");
    let _ = std::fs::remove_dir_all(&dir);
}
