//! Packet-level simulated UDP network with NAT devices.
//!
//! The Nylon paper (ICDCS 2009) notes that "existing p2p simulators do not
//! take into account NATs" and therefore builds an event-driven simulator
//! that models them. This crate is that substrate, in Rust:
//!
//! * [`addr`] — IPs, ports, endpoints, peer identifiers.
//! * [`densemap`] — the one open-addressed map, packed and fitted, backing
//!   the hot tables (NAT state, pending maps, Nylon's routing table).
//! * [`nat`] — the four NAT types of Section 2 of the paper (Full Cone,
//!   Restricted Cone, Port Restricted Cone, Symmetric) and the
//!   public/natted peer classification.
//! * [`natbox`] — a NAT device state machine: address/port mapping,
//!   filtering rules, and hole (rule) expiry.
//! * [`traversal`] — the Section 2 decision table mapping (source NAT type,
//!   target NAT type) to the applicable traversal technique.
//! * [`network`] — the network fabric: egress/ingress NAT processing,
//!   latency, optional loss, per-peer byte accounting, drop bookkeeping.
//!
//! The fabric is payload-generic: protocols define their own message enums
//! and wire-size models. Sending produces an [`network::InFlight`] record
//! that the caller schedules on its own event loop; delivering it runs the
//! ingress NAT filter *at arrival time*, which is what makes stale holes and
//! expired mappings observable exactly as in a real deployment.
//!
//! # Example
//!
//! ```
//! use nylon_net::addr::PeerId;
//! use nylon_net::nat::{NatClass, NatType};
//! use nylon_net::network::{Delivery, NetConfig, Network};
//! use nylon_sim::SimTime;
//!
//! let mut net: Network<&'static str> = Network::new(NetConfig::default(), 7);
//! let alice = net.add_peer(NatClass::Public);
//! let bob = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
//!
//! // Bob (natted) can always initiate towards a public peer.
//! let t0 = SimTime::ZERO;
//! let f = net.send(t0, bob, net.identity_endpoint(alice), "hello", 16).unwrap();
//! match net.deliver(f.arrive_at, f) {
//!     Delivery::ToPeer { to, payload, .. } => {
//!         assert_eq!(to, alice);
//!         assert_eq!(payload, "hello");
//!     }
//!     Delivery::Dropped { reason, .. } => panic!("unexpected drop: {reason:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod densemap;
pub mod nat;
pub mod natbox;
pub mod network;
pub mod pool;
pub mod slab;
pub mod traversal;

pub use addr::{Endpoint, Ip, PeerId, Port};
pub use densemap::{DenseKey, DenseMap, Probe};
pub use nat::{NatClass, NatType};
pub use network::{
    private_endpoint, Delivery, DropCounters, DropReason, InFlight, NetConfig, Network, Outbound,
    TrafficStats,
};
pub use pool::BufferPool;
pub use slab::{Slab, SlabKey};
pub use traversal::ContactMethod;
