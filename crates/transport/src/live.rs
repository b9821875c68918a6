//! Driving an unmodified sampling engine over an external [`Transport`].
//!
//! The engines own every line of protocol logic; this module only moves
//! bytes and time. [`LiveSampler`] is the thin seam the engines expose for
//! that (wire-tap mode: queued outbound datagrams, direct inbound
//! injection), and [`LiveRunner`] is the event loop: advance the engine's
//! virtual clock in ticks, flush what it wants to send into the transport,
//! feed it what the transport delivered. Over a [`crate::SimTransport`]
//! that loop replays the simulator; over a [`crate::UdpTransport`] plus
//! [`crate::NatEmulator`] the *identical engine code path* runs on real
//! loopback sockets behind emulated FC/RC/PRC/SYM NATs. Either way the
//! loop, the sockets and the middlebox all run on the caller's thread.

use nylon::NylonConfig;
use nylon_gossip::{Engine, PeerSampler, Protocol};
use nylon_net::{private_endpoint, Endpoint, NatClass, NetConfig, Outbound, PeerId};
use nylon_sim::{SimDuration, SimTime};

use crate::clock::LiveClock;
use crate::codec::WireMessage;
use crate::natemu::NatEmulator;
use crate::transport::Transport;
use crate::udp::{bind_loopback, UdpTransport};

/// A [`PeerSampler`] whose datagrams an external transport can carry.
///
/// The methods forward to the engine host's wire-tap seam; the one
/// implementation holds no protocol logic (that is the acceptance bar for
/// the transport layer: the engine code path is shared, nothing is
/// re-implemented here).
pub trait LiveSampler: PeerSampler {
    /// The engine's wire message type.
    type Payload: WireMessage + Send + 'static;

    /// Switches the engine to wire-tap mode (idempotent; call once before
    /// driving it).
    fn enable_wire_tap(&mut self);

    /// Drains the datagrams the engine queued since the last call.
    fn take_outbound(&mut self) -> Vec<Outbound<Self::Payload>>;

    /// Injects a datagram delivered by the transport.
    fn deliver_wire(&mut self, to: PeerId, from_ep: Endpoint, msg: Self::Payload);

    /// Advances the engine's virtual clock to `t`, firing due timers
    /// (shuffles, purges). No-op if `t` is not in the future.
    fn advance_to(&mut self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.run_for(t - now);
        }
    }
}

/// Every engine whose protocol speaks a codec-carried message runs live:
/// the wire-tap seam belongs to the shared host, not to a protocol.
impl<P: Protocol> LiveSampler for Engine<P>
where
    P::Msg: WireMessage,
{
    type Payload = P::Msg;

    fn enable_wire_tap(&mut self) {
        Engine::enable_wire_tap(self);
    }

    fn take_outbound(&mut self) -> Vec<Outbound<P::Msg>> {
        Engine::take_outbound(self)
    }

    fn deliver_wire(&mut self, to: PeerId, from_ep: Endpoint, msg: P::Msg) {
        Engine::deliver_wire(self, to, from_ep, msg);
    }
}

/// The live event loop: one engine, one transport, fixed-size time ticks.
///
/// Per tick: fire the engine's due timers, flush its outbound queue, then
/// deliver every arrival the transport surfaces up to the tick's instant
/// (flushing the responses each delivery triggers). Over a live transport
/// `poll` blocks until the wall clock catches up, which is what paces the
/// protocol in real time.
#[derive(Debug)]
pub struct LiveRunner<S: LiveSampler, T: Transport<S::Payload>> {
    engine: S,
    transport: T,
    tick: SimDuration,
}

impl<S: LiveSampler, T: Transport<S::Payload>> LiveRunner<S, T> {
    /// Wraps a built, bootstrapped and started engine. A tick of a tenth
    /// of the shuffle period keeps timer skew well under protocol scales.
    ///
    /// # Panics
    ///
    /// Panics on a zero `tick`.
    pub fn new(mut engine: S, transport: T, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        engine.enable_wire_tap();
        LiveRunner { engine, transport, tick }
    }

    /// The driven engine.
    pub fn engine(&self) -> &S {
        &self.engine
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Stops driving and returns the engine (for metrics extraction).
    pub fn into_engine(self) -> S {
        self.engine
    }

    /// Drives the system until the engine's virtual clock reaches
    /// `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.flush();
        let mut t = self.engine.now();
        while t < deadline {
            t = (t + self.tick).min(deadline);
            self.engine.advance_to(t);
            self.flush();
            while let Some(a) = self.transport.poll(t) {
                self.engine.deliver_wire(a.to, a.from_ep, a.payload);
                self.flush();
            }
        }
    }

    /// Drives the system for `n` shuffle periods.
    pub fn run_rounds(&mut self, n: u64) {
        let deadline = self.engine.now() + self.engine.shuffle_period() * n;
        self.run_until(deadline);
    }

    fn flush(&mut self) {
        let now = self.engine.now();
        for o in self.engine.take_outbound() {
            let src = private_endpoint(o.from);
            self.transport.send(now, o.from, src, o.dst, o.payload, o.payload_bytes);
        }
    }
}

/// The paper's protocol/fabric timing constants scaled to `period_ms`,
/// ratios preserved — the one place the live scaling lives, shared by the
/// `repro live` demo, the loopback tests and the doc examples:
///
/// * hole timeout = 18 shuffle periods (the paper's 90 s / 5 s);
/// * punch timeout = 2/5 of a period (2 s / 5 s), floored at 50 ms for
///   real-scheduling headroom;
/// * 1 ms fabric latency for the simulated twin (loopback is effectively
///   instant, and the NAT emulator forwards without added delay).
pub fn scaled_configs(period_ms: u64) -> (NylonConfig, NetConfig) {
    let net = NetConfig {
        latency: SimDuration::from_millis(1),
        hole_timeout: SimDuration::from_millis(period_ms * 18),
        ..NetConfig::default()
    };
    let cfg = NylonConfig {
        shuffle_period: SimDuration::from_millis(period_ms),
        punch_timeout: SimDuration::from_millis((period_ms * 2 / 5).max(50)),
        ..NylonConfig::default()
    };
    (cfg, net)
}

/// Builds the full live stack for a peer population: loopback sockets, the
/// NAT emulator's middlebox seeded with the same classes and NAT rule
/// lifetime, and the [`UdpTransport`] that runs every frame through it. The
/// stack starts no thread.
///
/// `classes` must be in peer-id order (the engine's `add_peer` order).
pub fn udp_over_emulated_nat<P: WireMessage>(
    classes: &[NatClass],
    net_cfg: &NetConfig,
    clock: LiveClock,
) -> std::io::Result<(UdpTransport<P>, NatEmulator)> {
    let emulator = NatEmulator::new(classes, net_cfg);
    let transport = UdpTransport::start(bind_loopback(classes.len())?, &emulator, clock)?;
    Ok((transport, emulator))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;
    use nylon::{NylonEngine, NylonMsg};
    use nylon_gossip::{BaselineMsg, PeerSwapConfig, PeerSwapEngine};
    use nylon_net::NatType;

    fn classes() -> Vec<NatClass> {
        let mut out = vec![NatClass::Public; 10];
        out.extend(vec![NatClass::Natted(NatType::RestrictedCone); 12]);
        out.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); 12]);
        out.extend(vec![NatClass::Natted(NatType::Symmetric); 6]);
        out
    }

    fn build_engine(classes: &[NatClass], seed: u64) -> NylonEngine {
        let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), seed);
        for c in classes {
            eng.add_peer(*c);
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng
    }

    /// The engine over a `SimTransport` exercises the whole live code path
    /// — wire-tap, flush, poll, deliver — without sockets or wall time.
    #[test]
    fn engine_over_sim_transport_converges() {
        let classes = classes();
        let engine = build_engine(&classes, 11);
        let transport: SimTransport<NylonMsg> =
            SimTransport::new(&classes, NetConfig::default(), 0xF0);
        let mut runner = LiveRunner::new(engine, transport, SimDuration::from_millis(500));
        runner.run_rounds(40);
        let eng = runner.into_engine();
        let s = eng.stats();
        assert!(s.requests_completed > 0, "shuffles must complete over the transport");
        assert!(s.punch_successes > 0, "hole punching must work over the transport");
        assert!(s.relayed_requests > 0, "SYM combinations must relay over the transport");
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(!eng.view_of(p).is_empty(), "empty view at {p}");
        }
    }

    /// PeerSwap speaks the baseline's wire message, so the blanket impl
    /// puts it on the live path with no code of its own.
    #[test]
    fn peerswap_over_sim_transport_converges() {
        let classes = vec![NatClass::Public; 30];
        let mut engine = PeerSwapEngine::new(PeerSwapConfig::default(), NetConfig::default(), 5);
        for c in &classes {
            engine.add_peer(*c);
        }
        engine.bootstrap_random_public(8);
        engine.start();
        let transport: SimTransport<BaselineMsg> =
            SimTransport::new(&classes, NetConfig::default(), 0xF0);
        let mut runner = LiveRunner::new(engine, transport, SimDuration::from_millis(500));
        runner.run_rounds(30);
        let eng = runner.into_engine();
        let s = eng.stats();
        assert!(s.swaps_initiated > 0);
        assert!(s.responses_received * 10 > s.swaps_initiated * 9, "swaps must commit: {s:?}");
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(eng.view_of(p).len() >= 12, "view of {p} failed to fill over the transport");
        }
    }

    #[test]
    fn runner_over_sim_transport_is_deterministic() {
        let run = |seed: u64| {
            let classes = classes();
            let engine = build_engine(&classes, seed);
            let transport: SimTransport<NylonMsg> =
                SimTransport::new(&classes, NetConfig::default(), 0xF0);
            let mut runner = LiveRunner::new(engine, transport, SimDuration::from_millis(500));
            runner.run_rounds(25);
            runner.into_engine().stats()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
