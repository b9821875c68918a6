//! Generic gossip peer sampling over the NAT-aware simulated network.
//!
//! This crate implements the configurable peer-sampling framework of
//! Jelasity et al. (ACM TOCS 2007) exactly as Section 3 of the Nylon paper
//! uses it: each peer keeps a *partial view* of node descriptors, fires a
//! shuffle every period, and the framework is parameterized along three
//! axes:
//!
//! * **Gossip target selection** — [`SelectionPolicy::Rand`] picks a uniform
//!   view entry, [`SelectionPolicy::Tail`] picks the oldest.
//! * **View propagation** — [`PropagationPolicy::Push`] sends one way,
//!   [`PropagationPolicy::PushPull`] exchanges views both ways.
//! * **View merging** — [`MergePolicy::Blind`] keeps random entries,
//!   [`MergePolicy::Healer`] keeps the youngest, [`MergePolicy::Swapper`]
//!   keeps what was received (dropping what was sent).
//!
//! The protocol in [`engine`] runs any of the six push/pull configurations
//! the paper evaluates on top of [`nylon_net::Network`], which is where the
//! NAT damage studied in Figures 2–4 of the paper comes from: the baseline
//! protocol addresses view entries directly and has no traversal machinery.
//! Like every protocol of the workspace it is two handlers hosted by the
//! one generic [`Engine`] of [`lockstep`], on the workers of [`host`].
//!
//! # Example
//!
//! ```
//! use nylon_gossip::{BaselineEngine, GossipConfig};
//! use nylon_net::{NatClass, NatType, NetConfig};
//! use nylon_sim::SimDuration;
//!
//! let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 42);
//! for _ in 0..20 {
//!     eng.add_peer(NatClass::Public);
//! }
//! for _ in 0..20 {
//!     eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
//! }
//! eng.bootstrap_random_public(8);
//! eng.start();
//! eng.run_rounds(30);
//! // All views are populated after 30 rounds.
//! let views_ok = eng.alive_peers().all(|p| !eng.view_of(p).is_empty());
//! assert!(views_ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod descriptor;
pub mod engine;
pub mod host;
pub mod lockstep;
pub mod peerswap;
pub mod policy;
pub mod sampler;
pub mod sharded;
pub mod view;

pub use descriptor::NodeDescriptor;
pub use engine::{Baseline, BaselineEngine, BaselineMsg, ShuffleStats};
pub use host::{sort_tick_batch, Host, Intro, NodeTable, Protocol};
pub use lockstep::{auto_workers, with_workers, Engine, Workers};
pub use peerswap::{PeerSwap, PeerSwapConfig, PeerSwapEngine, PeerSwapStats};
pub use policy::{GossipConfig, MergePolicy, PropagationPolicy, SelectionPolicy};
pub use sampler::{PeerSampler, SamplerConfig};
pub use sharded::{Sharded, ShardedConfig};
pub use view::{MergeScratch, PartialView};
