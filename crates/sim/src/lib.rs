//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the bottom layer of the Nylon reproduction ("NAT-resilient
//! Gossip Peer Sampling", ICDCS 2009). The paper's evaluation is performed on
//! an event-driven simulator; this crate provides that substrate:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual millisecond clock.
//! * [`EventQueue`] — a priority queue of timestamped events with *stable*
//!   FIFO ordering among events scheduled for the same instant, which is what
//!   makes simulations bit-for-bit reproducible.
//! * [`SimRng`] — a seeded random number generator with cheap, collision-free
//!   stream forking so that independent components draw from independent but
//!   reproducible streams.
//! * [`Sim`] — the event loop driver tying the above together.
//!
//! # Example
//!
//! ```
//! use nylon_sim::{Sim, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Ping(u32),
//! }
//!
//! let mut sim = Sim::new(42);
//! sim.schedule_after(SimDuration::from_millis(50), Ev::Ping(1));
//! sim.schedule_after(SimDuration::from_millis(20), Ev::Ping(2));
//!
//! let mut order = Vec::new();
//! while let Some((_, ev)) = sim.step_before(SimTime::from_secs(1)) {
//!     order.push(ev);
//! }
//! assert_eq!(order, vec![Ev::Ping(2), Ev::Ping(1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fxhash;
mod queue;
mod rng;
mod shard;
mod sim;
mod time;

pub use fxhash::{FxHashMap, FxHashSet};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use shard::{ShardAssign, ShardPlan, ShardWorker, ShardedSim, Share};
pub use sim::Sim;
pub use time::{SimDuration, SimTime};
