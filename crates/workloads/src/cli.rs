//! The `repro` commands' flags: each command's are parsed and checked in
//! one pure function, so the binary acts only on a well-formed request and
//! every bad flag is a usage error rather than a panic inside a run.

use nylon_adversary::AttackKind;
use nylon_faults::FaultSpec;

use crate::experiment::ExecOptions;
use crate::figures::{EngineKind, FigureScale, FIGURES};
use crate::live::LiveScale;

/// A well-formed artifact run.
#[derive(Debug, Clone)]
pub struct ArtifactArgs {
    /// The artifacts to run, each a known name (`all` and no name expand
    /// to every artifact).
    pub names: Vec<String>,
    /// The scale: `--full`'s or the default, then every explicit flag.
    pub scale: FigureScale,
    /// Executor knobs, the checkpoint fingerprint cut from `scale`.
    pub opts: ExecOptions,
    /// `--csv`: print CSV instead of markdown.
    pub csv: bool,
    /// `--out DIR`: also write one CSV file per table there.
    pub out_dir: Option<String>,
    /// `--stats FILE`: the telemetry sink's path.
    pub stats: Option<String>,
}

/// Scale flags recorded as explicitly set, so they win over `--full`
/// regardless of the order they appear in.
#[derive(Default)]
struct ScaleOverrides {
    peers: Option<usize>,
    seeds: Option<u64>,
    rounds: Option<u64>,
    base_seed: Option<u64>,
}

/// The most OS threads `--jobs` or `--shards` may ask for. Each shard is
/// a thread holding a replica of the address plan, each job a thread
/// running cells: goldens and CI pin at most 4 shards, and the auto-sizer
/// never exceeds the cores.
const MAX_THREADS: usize = 64;

/// Parses the artifact command's arguments (everything after the program
/// name). `Ok(None)` asks for the usage text (`--help`); `Err` carries the
/// usage error to print. Never panics.
pub fn parse_artifact_args(args: &[String]) -> Result<Option<ArtifactArgs>, String> {
    let mut overrides = ScaleOverrides::default();
    let mut full = false;
    let mut names: Vec<String> = Vec::new();
    let mut csv = false;
    let mut out_dir: Option<String> = None;
    let mut jobs = 0usize;
    let mut shards = 0usize;
    let mut engine: Option<EngineKind> = None;
    let mut attack: Option<AttackKind> = None;
    let mut faults: Option<FaultSpec> = None;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut stats: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--peers" => overrides.peers = Some(positive(it.next(), "--peers")?),
            "--seeds" => overrides.seeds = Some(positive(it.next(), "--seeds")?),
            "--rounds" => overrides.rounds = Some(positive(it.next(), "--rounds")?),
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => overrides.base_seed = Some(v),
                None => return Err("--seed needs an integer".into()),
            },
            "--full" => full = true,
            "--jobs" => jobs = at_most_max_threads(positive(it.next(), "--jobs")?, "--jobs")?,
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => shards = at_most_max_threads(v, "--shards")?,
                None => return Err("--shards needs a non-negative integer".into()),
            },
            "--engine" => match it.next() {
                Some(v) => match EngineKind::parse(v) {
                    Some(kind) => engine = Some(kind),
                    None => {
                        return Err(format!("unknown engine '{v}' (valid: {})", engine_names()))
                    }
                },
                None => return Err(format!("--engine needs a name: {}", engine_names())),
            },
            "--attack" => match it.next() {
                Some(v) => match AttackKind::parse(v) {
                    Some(kind) => attack = Some(kind),
                    None => {
                        return Err(format!("unknown attack '{v}' (valid: {})", attack_names()))
                    }
                },
                None => return Err(format!("--attack needs a name: {}", attack_names())),
            },
            "--faults" => match it.next() {
                Some(v) => faults = Some(FaultSpec::parse(v)?),
                None => return Err(format!("--faults needs a spec: {}", fault_names())),
            },
            "--checkpoint" => match it.next() {
                Some(v) => checkpoint = Some(v.clone()),
                None => return Err("--checkpoint needs a directory".into()),
            },
            "--resume" => resume = true,
            "--stats" => match it.next() {
                Some(v) => stats = Some(v.clone()),
                None => return Err("--stats needs a file path".into()),
            },
            "--csv" => csv = true,
            "--out" => match it.next() {
                Some(v) => out_dir = Some(v.clone()),
                None => return Err("--out needs a directory".into()),
            },
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => names.push(name.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if resume && checkpoint.is_none() {
        return Err("--resume needs --checkpoint DIR".into());
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = FIGURES.iter().map(|(name, _)| name.to_string()).collect();
    }
    if let Some(n) = names.iter().find(|n| !FIGURES.iter().any(|(name, _)| name == n)) {
        return Err(format!("unknown artifact '{n}'"));
    }

    // `--full` sets the base scale; explicitly-set flags always win, in
    // any order ("repro --peers 100 --full" runs 100 peers at otherwise
    // paper scale).
    let mut scale = if full { FigureScale::paper() } else { FigureScale::default() };
    if let Some(v) = overrides.peers {
        scale.peers = v;
    }
    if let Some(v) = overrides.seeds {
        scale.seeds = v;
    }
    if let Some(v) = overrides.rounds {
        scale.rounds = v;
    }
    if let Some(v) = overrides.base_seed {
        scale.base_seed = v;
    }
    scale.engine = engine;
    scale.attack = attack;
    // `--faults none` is the clean run — identical bytes to no flag at all.
    scale.faults = faults.filter(|s| !s.is_none());
    let opts = ExecOptions {
        jobs,
        shards,
        checkpoint: checkpoint.map(Into::into),
        resume,
        fingerprint: scale.fingerprint(),
    };
    Ok(Some(ArtifactArgs { names, scale, opts, csv, out_dir, stats }))
}

/// A well-formed `repro live` run.
#[derive(Debug, Clone)]
pub struct LiveArgs {
    /// The run's knobs, checked by [`LiveScale::validate`].
    pub scale: LiveScale,
    /// Also run the simulated twin (`--no-compare` clears it).
    pub compare: bool,
    /// `--min-cluster PCT`: the run fails when the live overlay's biggest
    /// cluster holds less than this share of the peers; within [0, 100].
    pub min_cluster: f64,
    /// `--stats FILE`: the telemetry sink's path.
    pub stats: Option<String>,
}

/// Parses the `live` command's arguments (everything after `live`), with
/// the same contract as [`parse_artifact_args`]: `Ok(None)` asks for the
/// usage text, `Err` carries the usage error. Never panics.
pub fn parse_live_args(args: &[String]) -> Result<Option<LiveArgs>, String> {
    let mut scale = LiveScale::default();
    let mut compare = true;
    let mut min_cluster = 50.0;
    let mut stats: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--peers" => scale.peers = value(it.next(), "--peers needs an integer")?,
            "--nat-pct" => scale.nat_pct = value(it.next(), "--nat-pct needs a number")?,
            "--rounds" => scale.rounds = value(it.next(), "--rounds needs an integer")?,
            "--period-ms" => scale.period_ms = value(it.next(), "--period-ms needs an integer")?,
            "--seed" => scale.seed = value(it.next(), "--seed needs an integer")?,
            "--min-cluster" => {
                let err = "--min-cluster needs a percentage within [0, 100]";
                min_cluster = value(it.next(), err)?;
                if !(0.0..=100.0).contains(&min_cluster) {
                    return Err(err.into());
                }
            }
            "--no-compare" => compare = false,
            "--faults" => match it.next() {
                Some(v) => scale.faults = Some(FaultSpec::parse(v)?).filter(|s| !s.is_none()),
                None => {
                    return Err(format!(
                        "--faults needs a spec: comma-separated of {}",
                        fault_names()
                    ))
                }
            },
            "--stats" => match it.next() {
                Some(v) => stats = Some(v.clone()),
                None => return Err("--stats needs a file path".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    scale.validate()?;
    Ok(Some(LiveArgs { scale, compare, min_cluster, stats }))
}

/// A flag's value parsed as `T`, or the usage error `err`.
fn value<T: std::str::FromStr>(value: Option<&String>, err: &str) -> Result<T, String> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| err.to_string())
}

/// A count flag's value: a positive integer (no run has zero peers,
/// seeds, rounds or jobs).
fn positive<T: std::str::FromStr + Default + PartialEq>(
    value: Option<&String>,
    flag: &str,
) -> Result<T, String> {
    match value.and_then(|v| v.parse::<T>().ok()) {
        Some(v) if v != T::default() => Ok(v),
        _ => Err(format!("{flag} needs a positive integer")),
    }
}

/// A thread-count flag's value, or the usage error when it exceeds
/// [`MAX_THREADS`].
fn at_most_max_threads(v: usize, flag: &str) -> Result<usize, String> {
    if v > MAX_THREADS {
        return Err(format!("{flag} takes at most {MAX_THREADS} threads"));
    }
    Ok(v)
}

/// The engine names `--engine` takes.
pub fn engine_names() -> String {
    EngineKind::ALL.map(EngineKind::label).join(" ")
}

/// The attack names `--attack` takes.
pub fn attack_names() -> String {
    AttackKind::ALL.map(AttackKind::label).join(" ")
}

/// The fault names `--faults` takes, comma-separated.
pub fn fault_names() -> String {
    nylon_faults::FAULT_NAMES.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(line: &str) -> Result<Option<ArtifactArgs>, String> {
        parse_artifact_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// Flags, artifact names and values, good and bad, that the property
    /// test draws argument vectors from.
    const TOKENS: [&str; 42] = [
        "--peers",
        "--seeds",
        "--rounds",
        "--seed",
        "--full",
        "--jobs",
        "--shards",
        "--engine",
        "--attack",
        "--faults",
        "--checkpoint",
        "--resume",
        "--stats",
        "--csv",
        "--out",
        "--help",
        "-h",
        "--bogus",
        "-",
        "",
        "0",
        "1",
        "40",
        "64",
        "65",
        "-1",
        "18446744073709551616",
        "1e3",
        "NaN",
        "fig2",
        "all",
        "eclipse",
        "nope",
        "nylon",
        "peerswap",
        "capture",
        "shuffle-lying",
        "rebind,flap",
        "none",
        "rebind,,",
        "/tmp/x",
        "é",
    ];

    #[test]
    fn flags_build_the_scale_and_options() {
        let args = parse(
            "fig2 capture --peers 40 --seeds 2 --rounds 10 --seed 7 --jobs 3 \
                          --shards 2 --attack shuffle-lying --faults none --csv",
        )
        .unwrap()
        .unwrap();
        assert_eq!(args.names, ["fig2", "capture"]);
        let s = &args.scale;
        assert_eq!((s.peers, s.seeds, s.rounds, s.base_seed), (40, 2, 10, 7));
        assert_eq!(s.attack, Some(AttackKind::ShuffleLying));
        assert!(s.faults.is_none(), "--faults none is the clean run");
        assert_eq!((args.opts.jobs, args.opts.shards), (3, 2));
        assert_eq!(args.opts.fingerprint, s.fingerprint());
        assert!(args.csv);
    }

    #[test]
    fn explicit_flags_win_over_full_in_any_order() {
        let args = parse("--peers 100 --full").unwrap().unwrap();
        assert_eq!(args.scale.peers, 100);
        assert_eq!(args.scale.seeds, FigureScale::paper().seeds);
        assert_eq!(args.names.len(), FIGURES.len(), "no artifact means all");
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for line in ["fig2 --peers 0", "fig2 --seeds 0", "fig2 --rounds 0", "fig2 --jobs 0"] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("positive integer"), "{line}: {err}");
        }
    }

    #[test]
    fn thread_counts_above_the_ceiling_are_usage_errors() {
        for flag in ["--jobs", "--shards"] {
            let at = parse(&format!("fig2 {flag} {MAX_THREADS}")).unwrap().unwrap();
            assert_eq!(at.opts.jobs.max(at.opts.shards), MAX_THREADS, "{flag}");
            for v in [MAX_THREADS + 1, 100_000] {
                let line = format!("fig2 {flag} {v}");
                let err = parse(&line).expect_err(&line);
                assert!(err.contains("at most"), "{line}: {err}");
            }
        }
    }

    #[test]
    fn help_unknown_names_and_missing_values() {
        assert!(parse("fig2 --help").unwrap().is_none());
        assert!(parse("fig99").unwrap_err().contains("unknown artifact"));
        assert!(parse("--peers").unwrap_err().contains("--peers"));
        assert!(parse("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse("--resume").unwrap_err().contains("--checkpoint"));
    }

    fn parse_live(line: &str) -> Result<Option<LiveArgs>, String> {
        parse_live_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// The `live` command's flags and values, good and bad.
    const LIVE_TOKENS: [&str; 28] = [
        "--peers",
        "--nat-pct",
        "--rounds",
        "--period-ms",
        "--seed",
        "--min-cluster",
        "--no-compare",
        "--faults",
        "--stats",
        "--help",
        "--bogus",
        "",
        "0",
        "1",
        "4",
        "50",
        "100",
        "101",
        "-5",
        "nan",
        "inf",
        "-inf",
        "1e3",
        "rebind,cgn",
        "partition",
        "none",
        "/tmp/x",
        "é",
    ];

    #[test]
    fn live_flags_build_the_scale() {
        let args = parse_live(
            "--peers 4 --nat-pct 50 --rounds 2 --period-ms 100 --seed 9 --min-cluster 0 \
             --faults rebind --no-compare --stats s.jsonl",
        )
        .unwrap()
        .unwrap();
        let s = &args.scale;
        assert_eq!((s.peers, s.nat_pct, s.rounds, s.period_ms, s.seed), (4, 50.0, 2, 100, 9));
        assert_eq!(s.faults.map(|f| f.label()).as_deref(), Some("rebind"));
        assert_eq!(args.min_cluster, 0.0);
        assert!(!args.compare);
        assert_eq!(args.stats.as_deref(), Some("s.jsonl"));
        let d = parse_live("").unwrap().unwrap();
        assert_eq!(d.min_cluster, 50.0);
        assert!(d.compare);
    }

    #[test]
    fn min_cluster_outside_zero_to_hundred_is_a_usage_error() {
        for v in ["nan", "NaN", "-5", "101", "inf", "-inf", "x"] {
            let err = parse_live(&format!("--min-cluster {v}")).expect_err(v);
            assert!(err.contains("[0, 100]"), "{v}: {err}");
        }
        assert_eq!(parse_live("--min-cluster 100").unwrap().unwrap().min_cluster, 100.0);
    }

    #[test]
    fn live_help_unknown_flags_and_bad_scales() {
        assert!(parse_live("--peers 4 --help").unwrap().is_none());
        assert!(parse_live("--bogus").unwrap_err().contains("unknown flag"));
        assert!(parse_live("--peers").unwrap_err().contains("--peers"));
        assert!(parse_live("--peers 1").unwrap_err().contains("peers"));
    }

    proptest! {
        /// Any `live` argument vector parses to a run or a usage error —
        /// no panic — a run's scale is valid and its cluster floor a
        /// percentage, and a NaN or negative floor fails the parse
        /// wherever it stands.
        #[test]
        fn prop_parse_live_never_panics(
            picks in proptest::collection::vec(0usize..LIVE_TOKENS.len(), 0..12),
        ) {
            let args: Vec<String> = picks.iter().map(|&i| LIVE_TOKENS[i].to_string()).collect();
            if let Ok(Some(a)) = parse_live_args(&args) {
                prop_assert!(a.scale.validate().is_ok());
                prop_assert!((0.0..=100.0).contains(&a.min_cluster));
            }
            for v in ["nan", "-5"] {
                let bad = ["--min-cluster".to_string(), v.to_string()];
                let first: Vec<String> = bad.iter().chain(&args).cloned().collect();
                prop_assert!(parse_live_args(&first).is_err());
                let last: Vec<String> = args.iter().chain(&bad).cloned().collect();
                prop_assert!(!matches!(parse_live_args(&last), Ok(Some(_))));
            }
        }

        /// Any argument vector parses to a request or a usage error — no
        /// panic — a request never carries a zero count nor more threads
        /// than the ceiling, and a zero peer or seed count fails the parse
        /// wherever it stands.
        #[test]
        fn prop_parse_never_panics(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..12)) {
            let args: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
            if let Ok(Some(a)) = parse_artifact_args(&args) {
                prop_assert!(a.scale.peers > 0 && a.scale.seeds > 0 && a.scale.rounds > 0);
                prop_assert!(a.opts.jobs <= MAX_THREADS && a.opts.shards <= MAX_THREADS);
                prop_assert!(a.names.iter().all(|n| FIGURES.iter().any(|(name, _)| name == n)));
            }
            for flag in ["--peers", "--seeds"] {
                let bad = [flag.to_string(), "0".to_string()];
                let first: Vec<String> = bad.iter().chain(&args).cloned().collect();
                prop_assert!(parse_artifact_args(&first).is_err());
                let last: Vec<String> = args.iter().chain(&bad).cloned().collect();
                prop_assert!(!matches!(parse_artifact_args(&last), Ok(Some(_))));
            }
        }
    }
}
