//! The six workloads and the seven end-to-end metrics: names, reasons,
//! units, directions and regression bounds. `BENCHMARK.json` repeats
//! these; `--check` asserts the two agree.

use crate::json::Value;
use crate::sim::{Engine, SimSpec, TOY_PEERS};
use crate::{figures, sim, wire, ChildCtx};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A simulated population on one engine.
    Sim(SimSpec),
    /// The `repro` figure pipeline in-process.
    Figures,
    /// Real loopback UDP behind the NAT emulator.
    Wire,
}

/// One workload of the ledger.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Its name on the command line and in every file.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

const STEADY: SimSpec = SimSpec {
    engine: Engine::Nylon,
    peers: 20_000,
    shards: 0,
    warm_rounds: 24,
    rounds: 36,
    faults: None,
    kill: None,
    sparse_bootstrap: false,
    min_cluster_pct: 99.0,
    scale_checks: false,
};

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "nylon-steady-20k",
        why: "The paper's protocol at 20k peers, 70% NAT: routing, hole punching and RVP \
              relaying in a memory-bound regime the 200-peer micro-bench cannot see",
        kind: Kind::Sim(STEADY),
    },
    Workload {
        name: "baseline-steady-20k",
        why: "Same kernel, fabric, NAT boxes and healer merge with no routing or relaying: claim \
              target for sim/net/view work, no-change control for routing and RVP work",
        kind: Kind::Sim(SimSpec {
            engine: Engine::Baseline,
            rounds: 120,
            // A NAT-oblivious sampler loses peers to stale views as the NAT
            // share grows (Figure 2); its floor only catches a collapse.
            min_cluster_pct: 95.0,
            ..STEADY
        }),
    },
    Workload {
        name: "nylon-churn-faults-10k",
        why: "Rebinds, flapping, loss bursts and a 30% kill wave: route expiry and purge, map \
              deletes, punch retries and view healing instead of the steady install/lookup path",
        kind: Kind::Sim(SimSpec {
            peers: 10_000,
            warm_rounds: 10,
            rounds: 80,
            faults: Some("rebind,flap,loss-burst,harden"),
            kill: Some((40, 0.30)),
            min_cluster_pct: 95.0,
            ..STEADY
        }),
    },
    Workload {
        name: "figures-400",
        why: "What users run: fig9 + resilience through the repro pipeline, 174 short cells on \
              all four engines; per-cell build, executor, metric snapshots and rendering dominate",
        kind: Kind::Figures,
    },
    Workload {
        name: "scale-baseline-200k-s2",
        why: "The sharded kernel at 200k peers on 2 shards: barrier and outbox exchange, \
              replicated fabric, per-node footprint; peak RSS and set-up time are the headline",
        kind: Kind::Sim(SimSpec {
            engine: Engine::Baseline,
            peers: 200_000,
            shards: 2,
            warm_rounds: 0,
            rounds: 10,
            sparse_bootstrap: true,
            min_cluster_pct: 95.0,
            scale_checks: true,
            ..STEADY
        }),
    },
    Workload {
        name: "wire-loopback-8",
        why: "Closed loop of 64 frames over real loopback UDP behind the NAT emulator: codec, \
              syscalls and receive threads do all the work, the sim kernel none",
        kind: Kind::Wire,
    },
];

/// Looks a workload up by name. `aux/<engine>/<peers>/<shards>` names a
/// steady-state sweep point (trace-only scaling rows), not a workload.
pub fn find(name: &str) -> Option<Workload> {
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == name) {
        return Some(*w);
    }
    let mut parts = name.strip_prefix("aux/")?.split('/');
    let engine = match parts.next()? {
        "nylon" => Engine::Nylon,
        "baseline" => Engine::Baseline,
        _ => return None,
    };
    let peers: usize = parts.next()?.parse().ok()?;
    let shards: usize = parts.next()?.parse().ok()?;
    // Sweep points keep the steady workloads' warm-up and window so their
    // 20k rows are the workloads' own numbers.
    let rounds = if engine == Engine::Nylon { 36 } else { 120 };
    let spec = SimSpec { engine, peers, shards, rounds, min_cluster_pct: 0.0, ..STEADY };
    Some(Workload { name: "aux", why: "scaling sweep point", kind: Kind::Sim(spec) })
}

/// Runs the child side of a workload and returns its record.
pub fn run_child(ctx: &ChildCtx) -> Result<Value, String> {
    let workload =
        find(&ctx.workload).ok_or_else(|| format!("unknown workload '{}'", ctx.workload))?;
    let mut rec = match workload.kind {
        Kind::Sim(spec) => {
            let spec = if ctx.toy { SimSpec { peers: TOY_PEERS, ..spec } } else { spec };
            sim::run(ctx, &spec)
        }
        Kind::Figures => figures::run(ctx),
        Kind::Wire => wire::run(ctx),
    };
    rec.set("workload", ctx.workload.as_str())
        .set("seed", ctx.seed)
        .set("mode", ctx.mode.label())
        .set("peak_rss_mib", crate::host::peak_rss_mib());
    Ok(rec)
}

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the base median by which it may worsen before a change
    /// counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    // child spawn to first measured instruction: population, fault plan,
    // bootstrap, start (wire: sockets + emulator; figures: plans)
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // host wall clock of the fixed measured window, after warm-up
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // the child's VmHWM at exit
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.10 },
    // operations completed / attempted (1 - ops_failed_share): shuffles
    // answered, cells completed, frames delivered and verified
    EndToEnd { name: "ops_ok_share", unit: "ratio", better: Better::Higher, bound: 0.015 },
    // biggest usable weakly-connected cluster, % of alive peers, at window
    // end (Fig. 2/10 axis)
    EndToEnd { name: "sim_cluster_pct", unit: "%", better: Better::Higher, bound: 0.015 },
    // 100 - stale view references at window end (Fig. 3 axis, complemented
    // so it is never 0)
    EndToEnd { name: "sim_fresh_pct", unit: "%", better: Better::Higher, bound: 0.03 },
    // payload bytes sent per alive peer per round over the window (Fig. 7/8
    // axis)
    EndToEnd { name: "sim_bytes_per_peer_round", unit: "B", better: Better::Lower, bound: 0.01 },
];
