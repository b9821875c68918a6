//! Zero-overhead runtime telemetry for the Nylon reproduction.
//!
//! Three primitive kinds — monotonic [`Counter`]s, high-water [`Gauge`]s,
//! and log-bucketed [`Histogram`]s — plus a process-global JSONL stats
//! sink ([`install`] / [`merge_report`] / [`final_snapshot`]). Everything
//! hot-path is gated on the `enabled` cargo feature: with the feature off
//! the primitives are zero-sized types (const-asserted in `metrics.rs`)
//! whose methods are empty `#[inline]` stubs, so instrumented crates pay
//! nothing. The protocols', fabric's, fault plane's and live path's own
//! `u64` counter sets, which the figures read, are always compiled: each is
//! declared once with [`counters!`] (named fields) or [`keyed_counters!`]
//! (indexed by an enum) and reported
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
pub use metrics::{Counter, Gauge, Histogram};
pub use report::{HistSnapshot, MetricValue, Report};
pub use sink::{final_snapshot, install, is_active, merge_report, periodic_snapshot};
pub use timer::{PhaseMark, PhaseTimer};

/// `true` when the `enabled` cargo feature is compiled in.
///
/// A `const`, so `if nylon_obs::ENABLED { .. }` around measurement code
/// (e.g. `Instant` reads for barrier-stall timing) is dead-code-eliminated
/// in the disabled configuration.
pub const ENABLED: bool = cfg!(feature = "enabled");

/// Schema identifier written into every snapshot line of the stats JSONL.
///
/// Bump when the line format or the meaning of standard metrics changes,
/// so `repro stats-report` can reject files it would misread.
pub const SCHEMA: &str = "nylon-obs/1";
