//! Differential determinism gate for the multi-core sharded driver.
//!
//! The contract under test: a run's rendered artifacts are a pure
//! function of the scale and base seed, *independent of the shard count* —
//! no flag, `--shards 1`, `--shards 2` and `--shards 4` schedule work onto
//! very different thread topologies (up to one shard a cell is a bare
//! engine running inline, without threads at all) yet must produce
//! byte-identical tables. This is the observable face of the tick-barrier
//! design: flights merge in canonical `(arrival, sender)` order, per-peer
//! network RNG streams depend only on the peer's own send history, and
//! non-owned bootstrap draws are reproduced from pure RNG forks.
//!
//! The executor's `--jobs` independence is orthogonal (cells are keyed,
//! not ordered) — the combined sweep below varies both axes at once so a
//! regression in either shows up.

use nylon_workloads::experiment::ExecOptions;
use nylon_workloads::figures::{generate, generate_with, EngineKind, FigureScale};

fn tiny(shards: usize) -> FigureScale {
    FigureScale {
        peers: 40,
        seeds: 2,
        rounds: 12,
        base_seed: 0x51AD,
        shards,
        ..FigureScale::default()
    }
}

/// Renders every table of one artifact to a single byte string.
fn render(name: &str, scale: &FigureScale) -> String {
    generate(name, scale)
        .expect("known figure name")
        .iter()
        .map(|t| format!("{}\n{}", t.to_markdown(), t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n---\n")
}

/// Every table of one artifact as CSV, one byte string.
fn flat(tables: &[nylon_workloads::output::Table]) -> String {
    tables.iter().map(|t| t.to_csv()).collect::<Vec<_>>().join("\n")
}

/// The stdout of `repro NAMES --peers 40 --seeds 1 --rounds 10`, without
/// a `--shards` flag for `shards == 0` and with `--shards N` otherwise:
/// what `scripts/golden.sh --write` cuts the goldens from.
fn cli_transcript(names: &[&str], shards: usize) -> String {
    let scale = FigureScale { peers: 40, seeds: 1, rounds: 10, shards, ..FigureScale::default() };
    names
        .iter()
        .flat_map(|name| generate(name, &scale).expect("known figure name"))
        .map(|t| format!("## {}\n\n{}\n", t.title, t.to_markdown()))
        .collect()
}

#[test]
fn committed_goldens_are_reproduced_at_every_shard_count() {
    // One golden per artifact set, last regenerated by PR 24's draw-order
    // re-baseline (`scripts/golden.sh`). The all-engine one runs every
    // protocol under faults and an adversary; fig9/table1 is the older one.
    for shards in [0, 1, 2, 4] {
        assert_eq!(
            cli_transcript(&["randomness", "resilience", "eclipse"], shards),
            include_str!("golden/all_engines.txt"),
            "all-engine golden diverged at shards {shards}"
        );
        assert_eq!(
            cli_transcript(&["fig9", "table1"], shards),
            include_str!("golden/fig9_table1.txt"),
            "fig9/table1 golden diverged at shards {shards}"
        );
    }
}

#[test]
fn fig9_is_byte_identical_at_shards_1_2_4() {
    // fig9 runs the full Nylon engine (RVP chains, hole punching) on the
    // sharded driver — the deepest protocol path the gate can cover.
    let one = render("fig9", &tiny(1));
    let two = render("fig9", &tiny(2));
    let four = render("fig9", &tiny(4));
    assert!(!one.is_empty());
    assert_eq!(one, two, "fig9 diverged between --shards 1 and --shards 2");
    assert_eq!(one, four, "fig9 diverged between --shards 1 and --shards 4");
}

#[test]
fn table1_is_byte_identical_at_shards_1_2_4() {
    let one = render("table1", &tiny(1));
    assert!(!one.is_empty());
    assert_eq!(one, render("table1", &tiny(2)));
    assert_eq!(one, render("table1", &tiny(4)));
}

#[test]
fn kill_free_fig2_sweep_is_shard_and_thread_count_independent() {
    // fig2 is the widest kill-free sweep (84 points): vary the shard
    // count and the worker-pool width together — 1×1 against 2×4 — so
    // both thread axes get exercised against the serial reference.
    let serial =
        generate_with("fig2", &tiny(1), &ExecOptions { jobs: 1, ..ExecOptions::default() })
            .expect("known figure name");
    let wide = generate_with("fig2", &tiny(2), &ExecOptions { jobs: 4, ..ExecOptions::default() })
        .expect("known figure name");
    assert!(!flat(&serial).is_empty());
    assert_eq!(
        flat(&serial),
        flat(&wide),
        "fig2 diverged between (shards 1, jobs 1) and (shards 2, jobs 4)"
    );
}

#[test]
fn peerswap_figures_are_byte_identical_at_shards_1_2_4() {
    // `repro --engine peerswap` reroutes the engine-generic steady-state
    // cells through the PeerSwap engine; its swap protocol must replay
    // byte-identically on every shard topology like the other three.
    let peerswap = |shards| FigureScale { engine: Some(EngineKind::PeerSwap), ..tiny(shards) };
    for name in ["fig2", "fig3", "fig7"] {
        let one = render(name, &peerswap(1));
        assert!(!one.is_empty());
        assert_eq!(one, render(name, &peerswap(2)), "{name} diverged at --shards 2");
        assert_eq!(one, render(name, &peerswap(4)), "{name} diverged at --shards 4");
    }
}

#[test]
fn adversarial_figures_are_shard_and_thread_count_independent() {
    // The Byzantine harness rewrites attacker views between rounds from
    // shard-independent RNG streams; eclipse cells (MaliciousSampler over
    // a sharded engine, victims designated) must not observe the shard
    // count or the worker-pool width.
    let serial =
        generate_with("eclipse", &tiny(1), &ExecOptions { jobs: 1, ..ExecOptions::default() })
            .expect("known figure name");
    let wide =
        generate_with("eclipse", &tiny(2), &ExecOptions { jobs: 4, ..ExecOptions::default() })
            .expect("known figure name");
    let four = generate("eclipse", &tiny(4)).expect("known figure name");
    assert!(!flat(&serial).is_empty());
    assert_eq!(flat(&serial), flat(&wide), "eclipse diverged between shards/jobs layouts");
    assert_eq!(flat(&serial), flat(&four), "eclipse diverged at --shards 4");
}

#[test]
fn stats_sink_never_perturbs_figure_output() {
    // The nylon-obs contract: telemetry only observes. With the sink
    // installed, every cell flushes its counters and the executor writes
    // snapshot lines — none of which may touch RNG draws or event order,
    // so fig9 and table1 must render byte-identically with stats on or
    // off at every shard count. Stats-off renders run FIRST: the sink is
    // a process-global OnceLock and cannot be uninstalled.
    let off: Vec<String> = [1, 2, 4]
        .iter()
        .flat_map(|s| [render("fig9", &tiny(*s)), render("table1", &tiny(*s))])
        .collect();

    let path =
        std::env::temp_dir().join(format!("nylon_shard_det_stats_{}.jsonl", std::process::id()));
    nylon_obs::install(&path).expect("first sink install in this process");
    assert!(nylon_obs::is_active(), "root tests must build with the obs feature on");

    let on: Vec<String> = [1, 2, 4]
        .iter()
        .flat_map(|s| [render("fig9", &tiny(*s)), render("table1", &tiny(*s))])
        .collect();
    nylon_obs::final_snapshot();

    assert_eq!(off, on, "stats collection changed rendered figure bytes");

    // The sink really did record those runs — the snapshot file carries
    // the schema marker and kernel counters from the flushed cells.
    let text = std::fs::read_to_string(&path).expect("stats file written");
    let _ = std::fs::remove_file(&path);
    let last = text.lines().last().expect("at least the final snapshot");
    assert!(last.contains("\"schema\":\"nylon-obs/1\""), "schema marker missing: {last}");
    assert!(last.contains("\"events_processed\""), "kernel counters missing: {last}");
}

#[test]
fn sharded_fingerprint_allows_resume_at_any_shard_count() {
    // The checkpoint fingerprint must treat every shard count, the
    // flag-less 0 included, as the same run identity: cells are
    // shard-count independent.
    assert_eq!(tiny(2).fingerprint(), tiny(4).fingerprint());
    assert_eq!(tiny(0).fingerprint(), tiny(1).fingerprint());
    assert_eq!(tiny(0).fingerprint(), tiny(2).fingerprint());
}

#[test]
fn checkpoint_cut_under_shards_2_resumes_without_the_flag() {
    // A run killed under `--shards 2` and resumed flag-less splices cells
    // of both into one table set (a fingerprint mismatch would panic, not
    // recompute), which must be the uninterrupted flag-less bytes.
    let dir = std::env::temp_dir().join(format!("nylon_shard_det_resume_{}", std::process::id()));
    let opts = |resume, scale: &FigureScale| ExecOptions {
        jobs: 2,
        checkpoint: Some(dir.clone()),
        resume,
        fingerprint: scale.fingerprint(),
    };
    let sharded = flat(&generate_with("fig9", &tiny(2), &opts(false, &tiny(2))).unwrap());

    // The kill: truncate the checkpoint mid-file, as a SIGKILL would.
    let path = dir.join("cells.jsonl");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    std::fs::write(&path, &bytes[..bytes.len() * 3 / 5]).unwrap();

    let resumed = flat(&generate_with("fig9", &tiny(0), &opts(true, &tiny(0))).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed, flat(&generate("fig9", &tiny(0)).unwrap()), "resume changed the tables");
    assert_eq!(resumed, sharded);
}
