//! Experiment harness for the Nylon reproduction.
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`scenario`] — populations: network size, NAT percentage, NAT-type
//!   mix ([`scenario::NatMix`]), deterministic class assignment.
//! * [`runner`] — one generic path over
//!   [`nylon_gossip::PeerSampler`] building and driving any engine
//!   (baseline, Nylon, static-RVP) plus the shared overlay/staleness
//!   metric extraction.
//! * [`experiment`] — the declarative, checkpointable executor: sweeps of
//!   `(point, seed)` cells on a bounded worker pool, JSONL checkpoints,
//!   `--resume`.
//! * [`output`] — result tables rendered as markdown or CSV.
//! * [`figures`] — one experiment plan per paper artifact (Figures 2–4,
//!   7–10, the Section 2 traversal table, the Section 5 correctness
//!   checks, and the ablations listed in README "Reproducing the paper").
//! * [`live`] — the `repro live` demo: the same engine on real loopback
//!   UDP sockets behind emulated NATs, compared against its simulated
//!   twin.
//! * [`stats_report`] — the `repro stats-report` summarizer over the
//!   JSONL a `--stats` run wrote through the [`nylon_obs`] sink.
//! * [`cli`] — the `repro` artifact command's flag parser.
//!
//! The `repro` binary exposes all of it:
//!
//! ```text
//! repro fig2 fig9 --peers 1000 --seeds 5 --jobs 8
//! repro all --full --checkpoint ckpt/     # paper scale, interruptible
//! repro all --full --checkpoint ckpt/ --resume
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiment;
pub mod figures;
pub mod live;
pub mod output;
pub mod runner;
pub mod scenario;
pub mod stats_report;

pub use experiment::{ExecOptions, Experiment, Results, Sweep};
pub use figures::{FigureScale, Plan};
pub use output::Table;
pub use scenario::{NatMix, Scenario};
