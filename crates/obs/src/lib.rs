//! Runtime telemetry for the Nylon reproduction.
//!
//! Log-bucketed [`Histogram`]s, the [`Report`] they and every other
//! reading fold into, and a process-global JSONL stats sink ([`install`]
//! / [`merge_report`] / [`final_snapshot`]). One build: what a layer
//! records costs the same whether or not a sink is installed, and that
//! cost is on the performance ledger. The protocols', fabric's, fault
//! plane's, kernel's and live path's counts are plain `u64`s: the counter
//! sets the figures read are each declared once with [`counters!`] (named
//! fields) or [`keyed_counters!`] (indexed by an enum) and reported
//! through [`Counters`].
//!
//! Two contracts the rest of the workspace leans on:
//!
//! 1. **Telemetry only observes.** No primitive draws randomness, takes a
//!    lock on a hot path, or reorders events; figure output is
//!    byte-identical with stats on or off at any shard count
//!    (`tests/shard_determinism.rs` and the CI CLI diff gate).
//! 2. **Histogram merge is exact and deterministic.** Buckets are pure
//!    functions of the recorded value, and merging is element-wise `u64`
//!    addition — commutative and order-independent, so per-shard
//!    histograms combine into the same snapshot regardless of shard count
//!    or completion order (proptested in `tests/obs_histogram.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buckets;
mod counters;
pub mod json;
mod metrics;
pub mod process;
mod report;
mod sink;
mod timer;

pub use counters::Counters;
pub use metrics::Histogram;
pub use report::{HistSnapshot, MetricValue, Report};
pub use sink::{final_snapshot, install, is_active, merge_report, periodic_snapshot};
pub use timer::{PhaseMark, PhaseTimer};

/// Schema identifier written into every snapshot line of the stats JSONL.
///
/// Bump when the line format or the meaning of standard metrics changes,
/// so `repro stats-report` can reject files it would misread.
pub const SCHEMA: &str = "nylon-obs/1";
