//! On-wire backend for the Nylon reproduction: the same protocol code that
//! runs inside the discrete-event simulator, running on real UDP sockets.
//!
//! The simulator validated the paper's claims; this crate makes the
//! simulation kernel *one of two* execution substrates:
//!
//! * [`codec`] — a versioned, length-prefixed wire format for the gossip
//!   messages and descriptors (which otherwise exist only as in-memory
//!   structs). Decoding is total: malformed input errors, never panics.
//! * [`Transport`] — who carries a datagram: [`SimTransport`] adapts the
//!   existing simulated fabric, [`UdpTransport`] drives real
//!   `std::net::UdpSocket`s on the driver thread: each frame goes from
//!   the sender's socket to the receiver's, and `poll` reads the receivers
//!   in send order (std only, no async runtime and no threads — the
//!   container vendors dependencies).
//! * [`NatEmulator`] — a user-space middlebox that filters and rewrites
//!   real loopback UDP frames with the *same*
//!   [`nylon_net::natbox::NatBox`] state machine the simulator uses, so
//!   FC/RC/PRC/SYM behaviour is exercised on-wire. It is a step of
//!   [`UdpTransport`]'s send path, so a live stack starts no thread,
//!   whatever the population.
//! * [`LiveRunner`] / [`LiveSampler`] — the event loop driving an
//!   unmodified engine over either transport. No protocol logic lives in
//!   this crate.
//!
//! # Example: Nylon over real loopback UDP behind emulated NATs
//!
//! ```no_run
//! use nylon::{NylonEngine, NylonMsg};
//! use nylon_net::{NatClass, NatType};
//! use nylon_sim::SimDuration;
//! use nylon_transport::{scaled_configs, udp_over_emulated_nat, LiveClock, LiveRunner};
//!
//! // The paper's timing constants scaled down (ratios preserved) so a
//! // demo converges in seconds of wall time.
//! let (cfg, net_cfg) = scaled_configs(150);
//!
//! let mut classes = vec![NatClass::Public; 8];
//! classes.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); 24]);
//!
//! let mut engine = NylonEngine::new(cfg, net_cfg.clone(), 7);
//! for c in &classes {
//!     engine.add_peer(*c);
//! }
//! engine.bootstrap_random_public(8);
//! engine.start();
//!
//! let clock = LiveClock::start_now();
//! let (transport, emulator) =
//!     udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock).unwrap();
//! let mut runner = LiveRunner::new(engine, transport, SimDuration::from_millis(15));
//! runner.run_rounds(30); // ~4.5 s of wall time
//! assert!(runner.engine().stats().punch_successes > 0);
//! drop(runner);
//! drop(emulator);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod codec;
pub mod live;
pub mod natemu;
pub mod transport;
pub mod udp;

pub use clock::LiveClock;
pub use codec::{CodecError, Frame, FrameHeader, WireMessage, WIRE_VERSION};
pub use live::{scaled_configs, udp_over_emulated_nat, LiveRunner, LiveSampler};
pub use natemu::NatEmulator;
pub use transport::{Arrival, SimTransport, Transport};
pub use udp::{bind_loopback, UdpTransport};
