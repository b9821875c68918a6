//! Packet-level verification of the Section 2.2 traversal table.
//!
//! These tests drive the raw [`nylon_net::Network`] through the message
//! sequences of the traversal techniques and assert which combinations
//! work — the physics that both the table and the Nylon pseudocode rely
//! on.

use nylon_net::{Delivery, DropReason, Endpoint, NatClass, NatType, NetConfig, Network, PeerId};
use nylon_sim::{SimDuration, SimTime};

type Net = Network<&'static str>;

struct Pair {
    net: Net,
    src: PeerId,
    dst: PeerId,
    t: SimTime,
}

impl Pair {
    fn new(src_class: NatClass, dst_class: NatClass) -> Pair {
        let mut net = Net::new(NetConfig::default(), 9);
        let src = net.add_peer(src_class);
        let dst = net.add_peer(dst_class);
        Pair { net, src, dst, t: SimTime::ZERO }
    }

    /// Sends from `from` to `to_ep` and delivers, advancing time by the
    /// sampled latency.
    fn exchange(
        &mut self,
        from: PeerId,
        to_ep: Endpoint,
        tag: &'static str,
    ) -> Delivery<&'static str> {
        let flight = self.net.send(self.t, from, to_ep, tag, 32).expect("no loss configured");
        self.t = flight.arrive_at;
        self.net.deliver(self.t, flight)
    }

    fn observed(&mut self, from: PeerId, to_ep: Endpoint) -> Option<Endpoint> {
        match self.exchange(from, to_ep, "probe") {
            Delivery::ToPeer { from_ep, .. } => Some(from_ep),
            Delivery::Dropped { .. } => None,
        }
    }
}

#[test]
fn any_source_reaches_public_directly() {
    for src_class in [
        NatClass::Public,
        NatClass::Natted(NatType::FullCone),
        NatClass::Natted(NatType::RestrictedCone),
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    ] {
        let mut pair = Pair::new(src_class, NatClass::Public);
        let dst_ep = pair.net.identity_endpoint(pair.dst);
        match pair.exchange(pair.src, dst_ep, "hello") {
            Delivery::ToPeer { to, .. } => assert_eq!(to, pair.dst),
            Delivery::Dropped { reason, .. } => {
                panic!("{src_class} -> public dropped: {reason}")
            }
        }
    }
}

#[test]
fn unsolicited_traffic_to_natted_never_arrives() {
    for dst_class in [
        NatType::FullCone,
        NatType::RestrictedCone,
        NatType::PortRestrictedCone,
        NatType::Symmetric,
    ] {
        let mut pair = Pair::new(NatClass::Public, NatClass::Natted(dst_class));
        let dst_ep = pair.net.identity_endpoint(pair.dst);
        match pair.exchange(pair.src, dst_ep, "knock") {
            Delivery::ToPeer { .. } => panic!("unsolicited reached {dst_class} target"),
            Delivery::Dropped { reason, .. } => assert_eq!(reason, DropReason::NoMapping),
        }
    }
}

/// Classic hole punching towards a cone NAT: after the target sends the
/// PONG, the initiator's next message is admitted.
#[test]
fn hole_punching_public_to_prc() {
    let mut pair = Pair::new(NatClass::Public, NatClass::Natted(NatType::PortRestrictedCone));
    let src_ep = pair.net.identity_endpoint(pair.src);
    // OPEN_HOLE travels out of band (via an RVP); the effect is that the
    // target sends a PONG to the initiator.
    let pong_src = pair.observed(pair.dst, src_ep).expect("PONG reaches a public peer");
    // The initiator answers to the endpoint the PONG came from.
    match pair.exchange(pair.src, pong_src, "request") {
        Delivery::ToPeer { to, .. } => assert_eq!(to, pair.dst),
        Delivery::Dropped { reason, .. } => panic!("post-punch request dropped: {reason}"),
    }
}

/// RC → SYM is "hole punching" in the table: the RC source PINGs the
/// target's box (opening an ip-level hole), and the PONG from the
/// symmetric NAT's *fresh port* still passes the RC filter (ip-only).
#[test]
fn rc_to_sym_hole_punching_works() {
    let mut pair =
        Pair::new(NatClass::Natted(NatType::RestrictedCone), NatClass::Natted(NatType::Symmetric));
    let dst_identity = pair.net.identity_endpoint(pair.dst);
    // 1. PING to the (unroutable) identity endpoint opens the source's
    //    own hole towards the target's box IP.
    assert!(pair.observed(pair.src, dst_identity).is_none(), "SYM identity is unreachable");
    // 2. The target (told via OPEN_HOLE) PONGs the source's stable
    //    endpoint, from a fresh symmetric mapping.
    let src_identity = pair.net.identity_endpoint(pair.src);
    let pong_src = pair.observed(pair.dst, src_identity).expect("PONG must pass RC ip filter");
    assert_eq!(pong_src.ip, dst_identity.ip, "PONG comes from the target's box");
    assert_ne!(pong_src, dst_identity, "symmetric mapping allocates a fresh port");
    // 3. The source replies to the fresh endpoint: the hole is punched.
    match pair.exchange(pair.src, pong_src, "request") {
        Delivery::ToPeer { to, .. } => assert_eq!(to, pair.dst),
        Delivery::Dropped { reason, .. } => panic!("RC->SYM punch failed: {reason}"),
    }
}

/// public → SYM is "hole punching" in the table Nylon runs (Section 2.2
/// relays): the PONG leaves the symmetric box from a fresh port towards
/// the public peer's one known endpoint, and the public peer's reply to
/// that port is the mapping's own destination, so it passes.
#[test]
fn public_to_sym_hole_punching_works() {
    let mut pair = Pair::new(NatClass::Public, NatClass::Natted(NatType::Symmetric));
    let dst_identity = pair.net.identity_endpoint(pair.dst);
    let src_identity = pair.net.identity_endpoint(pair.src);
    let pong_src = pair.observed(pair.dst, src_identity).expect("public peers are unfiltered");
    assert_ne!(pong_src, dst_identity, "symmetric mapping allocates a fresh port");
    match pair.exchange(pair.src, pong_src, "request") {
        Delivery::ToPeer { to, .. } => assert_eq!(to, pair.dst),
        Delivery::Dropped { reason, .. } => panic!("public->SYM punch failed: {reason}"),
    }
}

/// PRC → SYM is "relaying" in the table: the PONG from the fresh symmetric
/// port fails the PRC's exact-endpoint filter, so no hole can be punched.
#[test]
fn prc_to_sym_requires_relaying() {
    let mut pair = Pair::new(
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    );
    let dst_identity = pair.net.identity_endpoint(pair.dst);
    // PING opens the source hole towards the *identity* endpoint only.
    assert!(pair.observed(pair.src, dst_identity).is_none());
    // The PONG arrives from a fresh port: PRC filtering rejects it.
    let src_identity = pair.net.identity_endpoint(pair.src);
    match pair.exchange(pair.dst, src_identity, "pong") {
        Delivery::ToPeer { .. } => panic!("PRC must filter the fresh-port PONG"),
        Delivery::Dropped { reason, .. } => assert_eq!(reason, DropReason::Filtered),
    }
}

/// SYM → SYM: neither side can predict the other's port; both directions
/// drop. Only relaying works.
#[test]
fn sym_to_sym_requires_relaying() {
    let mut pair =
        Pair::new(NatClass::Natted(NatType::Symmetric), NatClass::Natted(NatType::Symmetric));
    let dst_identity = pair.net.identity_endpoint(pair.dst);
    let src_identity = pair.net.identity_endpoint(pair.src);
    assert!(pair.observed(pair.src, dst_identity).is_none());
    assert!(pair.observed(pair.dst, src_identity).is_none());
}

/// Full cone behaves like a public peer once any outbound traffic keeps
/// the mapping alive.
#[test]
fn full_cone_acts_public_while_active() {
    let mut pair = Pair::new(NatClass::Public, NatClass::Natted(NatType::FullCone));
    // The FC peer talks to anyone (here: the public peer), creating its
    // mapping.
    let src_ep = pair.net.identity_endpoint(pair.src);
    let fc_mapped = pair.observed(pair.dst, src_ep).expect("FC -> public works");
    // Now *any* host can reach it at the mapped endpoint.
    match pair.exchange(pair.src, fc_mapped, "unsolicited-ish") {
        Delivery::ToPeer { to, .. } => assert_eq!(to, pair.dst),
        Delivery::Dropped { reason, .. } => panic!("FC should forward: {reason}"),
    }
}

/// Holes are not eternal: a punched hole closes after the hole timeout.
#[test]
fn punched_holes_expire() {
    let mut pair = Pair::new(NatClass::Public, NatClass::Natted(NatType::RestrictedCone));
    let src_ep = pair.net.identity_endpoint(pair.src);
    let pong_src = pair.observed(pair.dst, src_ep).expect("PONG");
    // Within the timeout: fine.
    match pair.exchange(pair.src, pong_src, "in-time") {
        Delivery::ToPeer { .. } => {}
        Delivery::Dropped { reason, .. } => panic!("should be open: {reason}"),
    }
    // Wait out the hole timeout.
    pair.t += SimDuration::from_secs(91);
    match pair.exchange(pair.src, pong_src, "too-late") {
        Delivery::ToPeer { .. } => panic!("hole must have expired"),
        Delivery::Dropped { reason, .. } => assert_eq!(reason, DropReason::NoMapping),
    }
}
