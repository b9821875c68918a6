//! Overlay analysis for the Nylon reproduction.
//!
//! Pure, engine-agnostic measurement code behind every figure of the
//! paper's evaluation:
//!
//! * [`graph`] — connectivity: biggest weakly-connected cluster (Figures 2
//!   and 10), in-degree distributions.
//! * [`staleness`] — stale view references and the natted-reference ratio
//!   (Figures 3 and 4).
//! * [`randomness`] — statistics standing in for the diehard suite the
//!   paper cites: chi-square uniformity, index of dispersion, lag-1 serial
//!   correlation.
//! * [`stats`] — summary statistics shared by the harness.
//! * [`bandwidth`] — per-class bytes-per-second aggregation (Figures 7
//!   and 8).
//!
//! Everything here consumes plain data (edge lists, id streams, counters)
//! so it can be unit-tested without running a simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bandwidth;
pub mod graph;
pub mod randomness;
pub mod staleness;
pub mod stats;

pub use bandwidth::BandwidthReport;
pub use graph::{UndirectedCsr, WccScratch};
pub use staleness::StalenessReport;
pub use stats::Summary;
