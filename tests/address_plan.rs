//! Differential test of the fabric's arithmetic address plan.
//!
//! `Network` resolves "who owns this address" by subtracting a base from
//! the IP. The reference here answers the same question the way the fabric
//! used to — two hash maps filled peer by peer — from nothing but what the
//! fabric reports about each peer. Over random populations (public, every
//! cone type, symmetric, port-forwarded, carrier-grade-stacked) the two
//! must agree on every owned endpoint and on addresses nobody owns.

use std::collections::HashMap;

use nylon_net::{
    private_endpoint, Delivery, DropReason, Endpoint, InFlight, Ip, NatClass, NatType, NetConfig,
    Network, PeerId, Port,
};
use nylon_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Owner {
    /// A public peer listening on exactly this endpoint.
    Public(PeerId, Endpoint),
    /// A NAT box (subscriber or carrier) with this peer behind it.
    Nat(PeerId),
}

/// The address plan as lookup tables.
#[derive(Default)]
struct Reference {
    ip_owner: HashMap<Ip, Owner>,
    peer_by_private: HashMap<Endpoint, PeerId>,
}

impl Reference {
    fn of(net: &Network<u32>) -> Self {
        let mut r = Reference::default();
        for p in (0..net.peer_count() as u32).map(PeerId) {
            r.peer_by_private.insert(private_endpoint(p), p);
            match net.nat_box_of(p) {
                None => {
                    let ep = net.identity_endpoint(p);
                    r.ip_owner.insert(ep.ip, Owner::Public(p, ep));
                }
                Some(inner) => {
                    r.ip_owner.insert(inner.public_ip(), Owner::Nat(p));
                    if let Some(outer) = net.outer_box_of(p) {
                        r.ip_owner.insert(outer.public_ip(), Owner::Nat(p));
                    }
                }
            }
        }
        r
    }

    fn addressee(&self, ep: Endpoint) -> Option<PeerId> {
        self.ip_owner.get(&ep.ip).map(|o| match o {
            Owner::Public(p, _) | Owner::Nat(p) => *p,
        })
    }
}

/// Delivers a datagram from public peer 0 addressed to `dst`.
fn deliver_to(net: &mut Network<u32>, now: SimTime, dst: Endpoint) -> Delivery<u32> {
    let src_ep = net.identity_endpoint(PeerId(0));
    let flight = InFlight {
        arrive_at: now,
        src_ep,
        dst_ep: dst,
        sender: PeerId(0),
        wire_bytes: 1,
        payload: 0,
    };
    net.deliver(now, flight)
}

fn nat_type(code: u8) -> NatType {
    NatType::ALL[code as usize % NatType::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn arithmetic_plan_matches_lookup_tables(
        // (class: 0 public, 1.. a NAT type; extra: 1 port-forwarded, 2
        // behind a carrier box of type `outer`; outer)
        population in proptest::collection::vec((0u8..5, 0u8..3, 0u8..4), 0..40),
        stray_ips in proptest::collection::vec(any::<u32>(), 0..24),
        stray_port in any::<u16>(),
    ) {
        let mut net: Network<u32> = Network::new(NetConfig::default(), 7);
        // Peer 0 is public (it sends the probes); peer 1 is symmetric
        // behind a cone carrier box and has already talked to someone else,
        // so the carrier holds one mapping per mapping of the box below it.
        net.add_peer(NatClass::Public);
        let deep = net.add_peer(NatClass::Natted(NatType::Symmetric));
        prop_assert!(net.stack_cgn(deep, NatType::PortRestrictedCone));
        let elsewhere = Endpoint::new(Ip(1), Port(1));
        prop_assert!(net.send(SimTime::ZERO, deep, elsewhere, 0, 8).is_some());
        for (class, extra, outer) in population {
            let class = match class {
                0 => NatClass::Public,
                t => NatClass::Natted(nat_type(t)),
            };
            let p = net.add_peer(class);
            match extra {
                1 => drop(net.enable_port_forwarding(p)),
                2 => drop(net.stack_cgn(p, nat_type(outer))),
                _ => {}
            }
        }
        let n = net.peer_count() as u32;
        let reference = Reference::of(&net);
        let public_base = net.identity_endpoint(PeerId(0)).ip.0;
        let nat_base = net.nat_box_of(deep).expect("natted").public_ip().0;
        let boxes = reference.ip_owner.values().filter(|o| matches!(o, Owner::Nat(_))).count() as u32;

        // Every natted peer opens a hole towards peer 0, which learns the
        // endpoint it was contacted from.
        let t0 = SimTime::ZERO;
        let to_zero = net.identity_endpoint(PeerId(0));
        let mut observed: Vec<(PeerId, Endpoint)> = Vec::new();
        for p in (1..n).map(PeerId) {
            if net.class_of(p).is_public() {
                continue;
            }
            let flight = net.send(t0, p, to_zero, 0, 8).expect("no loss configured");
            let at = flight.arrive_at;
            match net.deliver(at, flight) {
                Delivery::ToPeer { to, from_ep, .. } => {
                    prop_assert_eq!(to, PeerId(0));
                    observed.push((p, from_ep));
                }
                Delivery::Dropped { reason, .. } => prop_assert!(false, "{p} -> p0 dropped: {reason}"),
            }
        }
        let now = SimTime::from_millis(200);

        // Owned endpoints: identities, observed mappings, the raw box
        // addresses, and public addresses under a wrong port.
        let mut probes: Vec<Endpoint> = observed.iter().map(|(_, ep)| *ep).collect();
        for p in (0..n).map(PeerId) {
            let identity = net.identity_endpoint(p);
            probes.extend([identity, Endpoint::new(identity.ip, Port(stray_port))]);
            for nat in [net.nat_box_of(p), net.outer_box_of(p)].into_iter().flatten() {
                probes.push(Endpoint::new(nat.public_ip(), Port(stray_port)));
            }
            // Unowned: the public-range address of a natted peer, private
            // addresses (never routable from outside), and the first
            // indices past the end of either range.
            probes.push(Endpoint::new(Ip(public_base + p.0), identity.port));
            probes.push(private_endpoint(p));
            probes.push(Endpoint::new(Ip(public_base + n + p.0), to_zero.port));
            probes.push(Endpoint::new(Ip(nat_base + boxes + p.0), Port(stray_port)));
        }
        probes.extend(stray_ips.iter().map(|ip| Endpoint::new(Ip(*ip), to_zero.port)));
        probes.extend([0, u32::MAX, nat_base - 1].map(|ip| Endpoint::new(Ip(ip), to_zero.port)));

        for dst in probes {
            let expect = reference.ip_owner.get(&dst.ip).copied();
            prop_assert_eq!(net.addressee_of(dst), reference.addressee(dst), "addressee of {}", dst);
            // The read-only walk foretells delivery's verdict exactly.
            let foretold = net.ingress(now, dst, to_zero);
            let delivery = deliver_to(&mut net, now, dst);
            match &delivery {
                Delivery::ToPeer { to, .. } => prop_assert_eq!(foretold, Ok(*to), "{}", dst),
                Delivery::Dropped { reason, .. } => prop_assert_eq!(foretold, Err(*reason), "{}", dst),
            }
            match (delivery, expect) {
                (Delivery::Dropped { reason, .. }, None) => {
                    prop_assert_eq!(reason, DropReason::NoRoute, "unowned {}", dst)
                }
                (Delivery::Dropped { reason, .. }, Some(Owner::Public(_, ep))) => {
                    prop_assert!(ep != dst && reason == DropReason::NoRoute, "{dst}: {reason}")
                }
                (Delivery::ToPeer { to, .. }, Some(Owner::Public(p, ep))) => {
                    prop_assert!(to == p && ep == dst, "{dst} reached {to}")
                }
                // A box filters as it sees fit, but it is a route, and the
                // only peer it can hand a datagram to is its own.
                (Delivery::Dropped { reason, .. }, Some(Owner::Nat(_))) => {
                    prop_assert_ne!(reason, DropReason::NoRoute, "{} is a box", dst)
                }
                (Delivery::ToPeer { to, .. }, Some(Owner::Nat(p))) => {
                    prop_assert_eq!(to, p, "{} crossed to another box", dst)
                }
                (Delivery::ToPeer { to, .. }, None) => prop_assert!(false, "{dst} reached {to}"),
            }
        }

        // Replies through the holes: the whole chain (carrier box, then
        // subscriber box, then the private endpoint) resolves to the peer
        // that opened it, for the oracle and for delivery alike.
        for (p, ep) in observed {
            let chain_end = reference.peer_by_private[&private_endpoint(p)];
            prop_assert_eq!(reference.addressee(ep), Some(chain_end));
            // The walk admits the reply, and to `p` alone.
            prop_assert_eq!(net.ingress(now, ep, to_zero), Ok(p), "{} not admitted at {}", p, ep);
            match deliver_to(&mut net, now, ep) {
                Delivery::ToPeer { to, .. } => prop_assert_eq!(to, chain_end),
                Delivery::Dropped { reason, .. } => prop_assert!(false, "reply to {p} dropped: {reason}"),
            }
        }
    }
}
