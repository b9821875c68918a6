//! Deterministic-replay regression: the figure generators are pure
//! functions of their [`FigureScale`]. Two runs with the same `base_seed`
//! must render byte-identical output — this is the observable contract of
//! `SimRng::fork` stream independence (per-component streams derive only
//! from `(seed, label)`, never from global draw order) — and the executor
//! must preserve it for any `--jobs` value and across a kill/`--resume`
//! cycle (cells are keyed by `(sweep, point, seed)`, never by completion
//! order).

use std::path::PathBuf;

use nylon_workloads::experiment::ExecOptions;
use nylon_workloads::figures::{generate, generate_with, FigureScale};

fn tiny(base_seed: u64) -> FigureScale {
    FigureScale {
        peers: 40,
        seeds: 2,
        rounds: 12,
        full_churn_horizons: false,
        base_seed,
        ..FigureScale::default()
    }
}

/// Renders every table of one artifact to a single byte string.
fn render_with(name: &str, scale: &FigureScale, opts: &ExecOptions) -> String {
    generate_with(name, scale, opts)
        .expect("known figure name")
        .iter()
        .map(|t| format!("{}\n{}", t.to_markdown(), t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n---\n")
}

fn render(name: &str, scale: &FigureScale) -> String {
    generate(name, scale)
        .expect("known figure name")
        .iter()
        .map(|t| format!("{}\n{}", t.to_markdown(), t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n---\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nylon-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig2_replay_is_byte_identical() {
    let a = render("fig2", &tiny(0xF00D));
    let b = render("fig2", &tiny(0xF00D));
    assert!(!a.is_empty());
    assert_eq!(a, b, "fig2 output diverged between identical runs");
}

#[test]
fn fig2_seed_actually_reaches_the_simulation() {
    // Not a strict inequality law (tiny scales can coincide), but fig2
    // sweeps NAT percentages over a full simulation — two far-apart seeds
    // producing identical CSV almost surely means base_seed is ignored.
    let a = render("fig2", &tiny(1));
    let b = render("fig2", &tiny(0xDEAD_BEEF));
    assert_ne!(a, b, "different base seeds produced identical fig2 output");
}

#[test]
fn fig9_replay_is_byte_identical() {
    // fig9 exercises the Nylon engine (RVP chains) rather than the
    // baseline, covering the protocol-side RNG forks too.
    let a = render("fig9", &tiny(0xBEEF));
    let b = render("fig9", &tiny(0xBEEF));
    assert!(!a.is_empty());
    assert_eq!(a, b, "fig9 output diverged between identical runs");
}

#[test]
fn jobs_count_does_not_change_the_tables() {
    // fig2 is a real multi-point sweep (84 points at 2 seeds each): serial
    // and wide executors must schedule cells very differently yet render
    // byte-identical tables.
    let scale = tiny(0xCAFE);
    let serial = render_with("fig2", &scale, &ExecOptions { jobs: 1, ..ExecOptions::default() });
    let wide = render_with("fig2", &scale, &ExecOptions { jobs: 8, ..ExecOptions::default() });
    assert!(!serial.is_empty());
    assert_eq!(serial, wide, "--jobs 1 and --jobs 8 rendered different tables");
}

#[test]
fn killed_then_resumed_run_matches_an_uninterrupted_one() {
    let scale = tiny(0x5EED);
    let dir = temp_dir("resume");
    let opts = |resume| ExecOptions {
        jobs: 4,
        checkpoint: Some(dir.clone()),
        resume,
        fingerprint: scale.fingerprint(),
        ..ExecOptions::default()
    };
    // Uninterrupted run, leaving a complete checkpoint behind.
    let clean = render_with("fig2", &scale, &opts(false));

    // Simulate a killed run: truncate the checkpoint mid-file (and
    // mid-line), as a SIGKILL during an append would.
    let path = dir.join("cells.jsonl");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    assert!(bytes.len() > 100, "checkpoint suspiciously small: {} bytes", bytes.len());
    std::fs::write(&path, &bytes[..bytes.len() * 3 / 5]).unwrap();

    let resumed = render_with("fig2", &scale, &opts(true));
    assert_eq!(clean, resumed, "resumed run rendered different tables");

    // And resuming the now-complete checkpoint recomputes nothing yet
    // still renders identically.
    let restored = render_with("fig2", &scale, &opts(true));
    assert_eq!(clean, restored);
    let _ = std::fs::remove_dir_all(&dir);
}
