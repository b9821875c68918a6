//! Nylon: NAT-resilient gossip peer sampling (ICDCS 2009).
//!
//! This crate is the paper's primary contribution: a fully decentralized
//! peer-sampling protocol in which *every* peer — natted or public — acts as
//! a rendez-vous point (RVP), spreading the NAT-traversal load evenly.
//!
//! Two observations drive the design (Section 4 of the paper):
//!
//! 1. a gossip peer only ever needs to reach the peers *in its view*, not
//!    the whole network; and
//! 2. it contacts just **one** of them per period — so holes can be punched
//!    *reactively*, right before a shuffle, instead of proactively for every
//!    view entry.
//!
//! When `n4` wants to shuffle with `n1`, it sends an `OPEN_HOLE` message to
//! the RVP that handed it `n1`'s reference; that RVP forwards it along the
//! chain built by previous shuffles (`n4 → n3 → n2 → n1`, Figure 5) until
//! `n1` answers with a `PONG` that punches the hole. Symmetric-NAT
//! combinations that cannot be punched are relayed end-to-end over the same
//! chains. Routing entries carry TTLs bounded by the lifetime of the
//! underlying NAT holes and vanish when they expire.
//!
//! # Crate layout
//!
//! * [`config`] — protocol parameters ([`NylonConfig`]).
//! * [`message`] — the wire protocol of Figure 6 ([`NylonMsg`]).
//! * [`routing`] — RVP chains with TTLs ([`routing::RoutingTable`]).
//! * [`engine`] — the protocol handlers ([`Nylon`]), hosted by the generic
//!   `nylon_gossip::Engine` as [`NylonEngine`].
//! * [`static_rvp`] — the "assign every natted peer a public RVP" strawman
//!   the paper argues against, used as an ablation baseline.
//!
//! # Example
//!
//! ```
//! use nylon::{NylonConfig, NylonEngine};
//! use nylon_net::{NatClass, NatType, NetConfig};
//!
//! // 70 % of peers behind NATs, as is typical on today's Internet.
//! let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), 1);
//! for _ in 0..15 {
//!     eng.add_peer(NatClass::Public);
//! }
//! for _ in 0..35 {
//!     eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
//! }
//! eng.bootstrap_random_public(8);
//! eng.start();
//! eng.run_rounds(30);
//!
//! // Natted peers are sampled like everyone else.
//! let p = eng.alive_peers().next().unwrap();
//! assert!(!eng.view_of(p).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod message;
pub mod routing;
pub mod sampler;
pub mod static_rvp;

pub use config::NylonConfig;
pub use engine::{Nylon, NylonEngine, NylonStats};
pub use message::{NylonMsg, WireEntry};
pub use static_rvp::{StaticRvp, StaticRvpConfig, StaticRvpEngine, StaticRvpStats};
