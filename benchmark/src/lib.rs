//! The performance ledger of the Nylon reproduction.
//!
//! One program, two binaries (`ledger`, and `ledger-traced` with a
//! counting allocator registered). The parent process parses the command
//! line, runs every workload in a **child process of its own** (so peak
//! RSS and set-up time belong to one workload), and turns the children's
//! records into the end-to-end metrics, the per-layer metrics, the result
//! file and the comparison table. See `benchmark/README.md`.
//!
//! Everything is measured from outside the program: wall clocks around
//! calls into public functions, and the counters the program already
//! exports through `PeerSampler::obs_report`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod cli;
pub mod compare;
pub mod counts;
pub mod figures;
pub mod host;
pub mod json;
pub mod layers;
pub mod ops;
pub mod seam;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Reads the counting allocator of the traced binary.
#[derive(Clone, Copy)]
pub struct AllocProbe {
    /// Allocations (and reallocations) since process start.
    pub allocations: fn() -> u64,
    /// Bytes requested since process start.
    pub bytes: fn() -> u64,
}

impl AllocProbe {
    /// `(allocations, bytes)` so far.
    pub fn read(&self) -> (u64, u64) {
        ((self.allocations)(), (self.bytes)())
    }

    /// `{allocs, bytes}` requested since an earlier [`AllocProbe::read`].
    pub fn since(&self, (allocs0, bytes0): (u64, u64)) -> json::Value {
        let (allocs, bytes) = self.read();
        let mut v = json::Value::obj();
        v.set("allocs", allocs - allocs0).set("bytes", bytes - bytes0);
        v
    }
}

impl std::fmt::Debug for AllocProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AllocProbe")
    }
}

/// When this process began: `main`'s first instruction, plus how long the
/// operating system took to get there from the parent's `spawn`.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    /// Taken first thing in `main`.
    pub main: Instant,
    /// Seconds between the parent's spawn call and `main` (0 when this
    /// process was not spawned by a ledger parent).
    pub spawn_to_main_s: f64,
}

impl Start {
    /// Call first thing in `main`.
    pub fn now() -> Start {
        Start { main: Instant::now(), spawn_to_main_s: 0.0 }
    }

    /// Accounts for exec and loader time, given the parent's wall clock at
    /// spawn (nanoseconds since the Unix epoch).
    pub fn spawned_at(mut self, unix_ns: u128) -> Start {
        let now = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let at_main = now.saturating_sub(self.main.elapsed().as_nanos());
        // A stepped system clock must not produce a negative or absurd
        // set-up time; a spawn never takes a minute.
        let gap = at_main.saturating_sub(unix_ns) as f64 / 1e9;
        self.spawn_to_main_s = if gap < 60.0 { gap } else { 0.0 };
        self
    }

    /// Seconds since the parent spawned this process.
    pub fn elapsed_s(&self) -> f64 {
        self.spawn_to_main_s + self.main.elapsed().as_secs_f64()
    }
}

/// What a child process is asked to do with its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The untraced end-to-end run.
    E2e,
    /// Set up, report `setup_s`, exit.
    Setup,
    /// The direct run again with lifecycle spans, allocation counts, the
    /// stats sink (figures) and the isolated operations.
    Traced,
    /// The seam-trace run over `SimTransport`.
    Seam,
}

impl Mode {
    /// The command-line spelling.
    pub fn label(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Setup => "setup",
            Mode::Traced => "traced",
            Mode::Seam => "seam",
        }
    }

    /// Parses [`Mode::label`].
    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::E2e, Mode::Setup, Mode::Traced, Mode::Seam].into_iter().find(|m| m.label() == s)
    }
}

/// Everything a child knows about its assignment.
#[derive(Debug)]
pub struct ChildCtx {
    /// Workload name (one of the six, or an `aux/…` sweep spec).
    pub workload: String,
    /// The generator's seed.
    pub seed: u64,
    /// Measurement budget for the time-based workload.
    pub seconds: f64,
    /// Shrunken sizes for `--check`.
    pub toy: bool,
    /// What to do.
    pub mode: Mode,
    /// When the process began.
    pub start: Start,
    /// The counting allocator, in the traced binary.
    pub alloc: Option<AllocProbe>,
    /// Where trace and stats files go.
    pub out_dir: PathBuf,
}

/// Entry point of both binaries; returns the process exit code.
pub fn run(alloc: Option<AllocProbe>) -> i32 {
    let start = Start::now();
    cli::main(start, alloc)
}
