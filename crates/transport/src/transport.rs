//! The [`Transport`] abstraction: who carries a datagram from one peer to
//! another, and the adapter that carries it over the existing simulated
//! fabric.
//!
//! An engine in wire-tap mode emits [`nylon_net::Outbound`] records and
//! accepts deliveries via `deliver_wire`; a `Transport` is the substrate in
//! between. Two implementations exist:
//!
//! * [`SimTransport`] — the simulated fabric ([`nylon_net::Network`]) behind
//!   the trait: NAT egress/ingress, latency and loss exactly as in a
//!   classic in-simulator run, but pumped through the same generic
//!   [`crate::LiveRunner`] loop that drives real sockets. Deterministic and
//!   wall-clock-free, so tests of the live code path need no sockets.
//! * [`crate::UdpTransport`] — real `std::net::UdpSocket`s over loopback,
//!   with NAT behaviour supplied by the user-space
//!   [`crate::NatEmulator`] middlebox, which every frame passes on its way
//!   out of the sender's socket.

use nylon_net::{
    Delivery, Endpoint, InFlight, NatClass, NetConfig, Network, PeerId, Slab, SlabKey,
};
use nylon_sim::{EventQueue, SimTime};

/// A datagram delivered to a peer by a transport.
#[derive(Debug, Clone)]
pub struct Arrival<P> {
    /// Receiving peer.
    pub to: PeerId,
    /// Source endpoint as observed by the receiver (post-NAT).
    pub from_ep: Endpoint,
    /// Protocol payload.
    pub payload: P,
}

/// Carries datagrams between peers.
///
/// `poll` is the pacing point: simulated transports return everything due
/// by `deadline` without blocking, live transports block until the wall
/// clock reaches the deadline's instant. Either way, a `None` means "no
/// more arrivals at or before `deadline`".
pub trait Transport<P> {
    /// Hands a datagram to the carrier. `src` is the sender's private
    /// (virtual) endpoint; carriers with NAT on the path rewrite it.
    fn send(
        &mut self,
        now: SimTime,
        from: PeerId,
        src: Endpoint,
        dst: Endpoint,
        payload: P,
        payload_bytes: u32,
    );

    /// The next datagram arriving at or before `deadline`, or `None` once
    /// there is none.
    fn poll(&mut self, deadline: SimTime) -> Option<Arrival<P>>;
}

/// The simulated fabric as a [`Transport`]: NAT processing, latency and
/// loss come from an owned [`Network`], deliveries are replayed in arrival
/// order — through the shared [`nylon_sim::EventQueue`] timer wheel, the
/// same structure (and thus the same stable FIFO-per-instant ordering)
/// that paces a classic in-simulator run. This transport used to keep a
/// private `BinaryHeap` + sequence counter; that duplicate ordering logic
/// is gone.
///
/// The peer population must be added in the same order as the engine added
/// its peers, so both sides assign identical virtual endpoints (the
/// fabric's address plan is deterministic in insertion order).
#[derive(Debug)]
pub struct SimTransport<P> {
    net: Network<P>,
    /// The wheel carries 4-byte slab handles; the ~100 B flights park in
    /// `flights` until their arrival instant (same compaction as the
    /// engines' own event loops).
    queue: EventQueue<SlabKey>,
    flights: Slab<InFlight<P>>,
}

impl<P> SimTransport<P> {
    /// A fabric with the given peer classes (in engine order), fabric
    /// configuration and RNG seed.
    pub fn new(classes: &[NatClass], net_cfg: NetConfig, seed: u64) -> Self {
        let mut net = Network::new(net_cfg, seed);
        for class in classes {
            net.add_peer(*class);
        }
        SimTransport { net, queue: EventQueue::new(), flights: Slab::new() }
    }

    /// The underlying fabric (drop counters, NAT oracles).
    pub fn net(&self) -> &Network<P> {
        &self.net
    }
}

impl<P> Transport<P> for SimTransport<P> {
    fn send(
        &mut self,
        now: SimTime,
        from: PeerId,
        _src: Endpoint,
        dst: Endpoint,
        payload: P,
        payload_bytes: u32,
    ) {
        // The fabric computes the post-NAT source endpoint itself.
        if let Some(flight) = self.net.send(now, from, dst, payload, payload_bytes) {
            let at = flight.arrive_at;
            self.queue.schedule(at, self.flights.insert(flight));
        }
    }

    fn poll(&mut self, deadline: SimTime) -> Option<Arrival<P>> {
        while let Some((at, key)) = self.queue.pop_before(deadline) {
            let flight = self.flights.remove(key);
            match self.net.deliver(at, flight) {
                Delivery::ToPeer { to, from_ep, payload } => {
                    return Some(Arrival { to, from_ep, payload })
                }
                Delivery::Dropped { .. } => continue, // counted by the fabric
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{DropReason, NatType};
    use nylon_sim::SimDuration;

    #[test]
    fn sim_transport_replays_fabric_semantics() {
        // Public <-> PRC pair: natted may initiate, unsolicited is dropped.
        let classes = [NatClass::Public, NatClass::Natted(NatType::PortRestrictedCone)];
        let mut t: SimTransport<u32> = SimTransport::new(&classes, NetConfig::default(), 1);
        let (public, natted) = (PeerId(0), PeerId(1));
        let pub_ep = t.net().identity_endpoint(public);
        let nat_ep = t.net().identity_endpoint(natted);
        let private = nylon_net::private_endpoint(natted);

        // Unsolicited towards the natted peer: swallowed.
        t.send(SimTime::ZERO, public, nylon_net::private_endpoint(public), nat_ep, 1, 16);
        assert!(t.poll(SimTime::from_secs(1)).is_none());
        assert_eq!(t.net().drop_counters()[DropReason::NoMapping], 1);

        // Natted initiates: arrives after the fabric latency, not before.
        t.send(SimTime::from_secs(1), natted, private, pub_ep, 2, 16);
        assert!(t.poll(SimTime::from_secs(1)).is_none(), "latency must elapse first");
        let a = t.poll(SimTime::from_secs(2)).expect("due by now");
        assert_eq!((a.to, a.payload), (public, 2));

        // The reply flows back through the opened hole.
        t.send(SimTime::from_secs(2), public, pub_ep, a.from_ep, 3, 16);
        let back = t.poll(SimTime::from_secs(3)).expect("hole is open");
        assert_eq!((back.to, back.payload), (natted, 3));
    }

    #[test]
    fn arrivals_pop_in_time_order() {
        let classes = [NatClass::Public, NatClass::Public, NatClass::Public];
        let cfg =
            NetConfig { latency_jitter: SimDuration::from_millis(30), ..NetConfig::default() };
        let mut t: SimTransport<u32> = SimTransport::new(&classes, cfg, 7);
        let dst = t.net().identity_endpoint(PeerId(2));
        for i in 0..20u32 {
            let from = PeerId(i % 2);
            t.send(SimTime::ZERO, from, nylon_net::private_endpoint(from), dst, i, 8);
        }
        // Stepping the deadline forward must surface every datagram no
        // earlier than its sampled latency and all of them eventually.
        let mut n = 0;
        for tms in (0..=100).map(|k| k * 5) {
            while t.poll(SimTime::from_millis(tms)).is_some() {
                n += 1;
                assert!(tms >= 20, "jittered latency lower bound violated at t={tms}ms");
            }
        }
        assert_eq!(n, 20);
    }
}
