//! The Nylon wire protocol (Figure 6 message set) and its size model.

use nylon_gossip::NodeDescriptor;
use nylon_net::PeerId;
use nylon_sim::SimDuration;

/// A view entry as shipped on the wire: descriptor plus the sender's
/// remaining routing TTL towards it.
///
/// The paper: "TTLs are exchanged by peers together with their views" — the
/// receiver caps them by its own first-hop TTL (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEntry {
    /// The descriptor.
    pub descriptor: NodeDescriptor,
    /// Sender's remaining routing TTL towards the descriptor's peer
    /// (meaningless, and zero, for public peers — they need no route).
    pub ttl: SimDuration,
    /// Sender's estimated chain length towards the descriptor's peer
    /// (1 = direct hole; the receiver's chain is one hop longer).
    pub hops: u8,
}

impl WireEntry {
    /// Wraps a descriptor with its routing TTL and chain-length estimate.
    pub fn new(descriptor: NodeDescriptor, ttl: SimDuration, hops: u8) -> Self {
        WireEntry { descriptor, ttl, hops }
    }
}

/// Nylon protocol messages.
///
/// `via` is the peer the datagram physically came from last (source or
/// relay); `hops` counts forwarding steps for the Figure 9 chain-length
/// metric.
#[derive(Debug, Clone)]
pub enum NylonMsg {
    /// Shuffle request (Figure 6 line 4/7: `⟨REQUEST, view, self, target⟩`).
    Request {
        /// The initiating peer's descriptor.
        src: NodeDescriptor,
        /// Final destination (relays forward until `dest == self`).
        dest: PeerId,
        /// Immediate sender of this datagram.
        via: PeerId,
        /// Relay hops traversed so far.
        hops: u8,
        /// The initiator's view (with TTLs), plus its fresh self-descriptor.
        entries: Vec<WireEntry>,
    },
    /// Shuffle response (Figure 6 line 22/24: `⟨RESPONSE, view, src⟩`).
    Response {
        /// The responding peer.
        from: PeerId,
        /// Final destination (the shuffle initiator).
        dest: PeerId,
        /// Immediate sender of this datagram.
        via: PeerId,
        /// Relay hops traversed so far.
        hops: u8,
        /// The responder's view (with TTLs), plus its fresh self-descriptor.
        entries: Vec<WireEntry>,
    },
    /// Reactive hole-punch trigger, forwarded along the RVP chain
    /// (Figure 6 line 10: `⟨OPEN_HOLE, self, target⟩`).
    OpenHole {
        /// The peer wanting to punch a hole.
        src: NodeDescriptor,
        /// The peer that should answer with a PONG.
        dest: PeerId,
        /// Immediate sender of this datagram.
        via: PeerId,
        /// Relay hops traversed so far (the Figure 9 "number of RVPs").
        hops: u8,
    },
    /// Outbound-hole opener sent directly to the gossip target (Figure 6
    /// line 12).
    Ping {
        /// The pinging peer.
        from: PeerId,
    },
    /// Hole-punch acknowledgement (Figure 6 lines 38/43).
    Pong {
        /// The ponging peer.
        from: PeerId,
    },
}

/// Wire-size model, mirroring a compact binary encoding: bytes per shipped
/// view entry, 13 bytes of descriptor (id 4, endpoint 6, class 1, age 2)
/// plus a 2-byte TTL and a 1-byte chain-length estimate.
pub const ENTRY_BYTES: u32 = 16;
/// Fixed protocol header per message.
pub const HEADER_BYTES: u32 = 8;
/// Addressing overhead of a routed message (src descriptor, dest, via,
/// hops).
pub const ROUTING_BYTES: u32 = 12;

impl NylonMsg {
    /// Payload bytes of the message under the wire-size model above.
    pub fn payload_bytes(&self) -> u32 {
        match self {
            NylonMsg::Request { entries, .. } | NylonMsg::Response { entries, .. } => {
                HEADER_BYTES + ROUTING_BYTES + ENTRY_BYTES * entries.len() as u32
            }
            NylonMsg::OpenHole { .. } => HEADER_BYTES + ROUTING_BYTES,
            NylonMsg::Ping { .. } | NylonMsg::Pong { .. } => HEADER_BYTES,
        }
    }

    /// The peer this datagram came from last: the source or relay of a
    /// routed message, the sender of a PING or PONG.
    pub fn last_hop(&self) -> PeerId {
        match self {
            NylonMsg::Request { via, .. }
            | NylonMsg::Response { via, .. }
            | NylonMsg::OpenHole { via, .. } => *via,
            NylonMsg::Ping { from } | NylonMsg::Pong { from } => *from,
        }
    }

    /// The final destination of a routed message and the relay hops it
    /// has travelled so far; `None` for PING and PONG, which go one hop.
    pub fn route(&self) -> Option<(PeerId, u8)> {
        match self {
            NylonMsg::Request { dest, hops, .. }
            | NylonMsg::Response { dest, hops, .. }
            | NylonMsg::OpenHole { dest, hops, .. } => Some((*dest, *hops)),
            NylonMsg::Ping { .. } | NylonMsg::Pong { .. } => None,
        }
    }

    /// The message as `relay` forwards it one hop further: `relay` becomes
    /// the last hop and the hop count grows by one. PING and PONG are
    /// never forwarded and come back unchanged.
    pub fn onward(mut self, relay: PeerId) -> Self {
        match &mut self {
            NylonMsg::Request { via, hops, .. }
            | NylonMsg::Response { via, hops, .. }
            | NylonMsg::OpenHole { via, hops, .. } => {
                *via = relay;
                *hops = hops.saturating_add(1);
            }
            NylonMsg::Ping { .. } | NylonMsg::Pong { .. } => {}
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{Endpoint, Ip, NatClass, Port};

    fn desc(id: u32) -> NodeDescriptor {
        NodeDescriptor::new(PeerId(id), Endpoint::new(Ip(id), Port(9000)), NatClass::Public)
    }

    fn entries(n: usize) -> Vec<WireEntry> {
        (0..n as u32).map(|i| WireEntry::new(desc(i), SimDuration::from_secs(30), 1)).collect()
    }

    #[test]
    fn request_size_scales_with_entries() {
        let mk = |n| NylonMsg::Request {
            src: desc(1),
            dest: PeerId(2),
            via: PeerId(1),
            hops: 0,
            entries: entries(n),
        };
        assert_eq!(mk(0).payload_bytes(), 20);
        assert_eq!(mk(16).payload_bytes(), 20 + 16 * 16);
    }

    #[test]
    fn control_messages_are_small() {
        let oh = NylonMsg::OpenHole { src: desc(1), dest: PeerId(2), via: PeerId(1), hops: 0 };
        let ping = NylonMsg::Ping { from: PeerId(1) };
        let pong = NylonMsg::Pong { from: PeerId(1) };
        assert_eq!(oh.payload_bytes(), 20);
        assert_eq!(ping.payload_bytes(), 8);
        assert_eq!(pong.payload_bytes(), 8);
    }

    #[test]
    fn routed_messages_travel_onward_and_hop_messages_do_not() {
        let oh = NylonMsg::OpenHole { src: desc(1), dest: PeerId(2), via: PeerId(1), hops: 0 };
        assert_eq!((oh.last_hop(), oh.route()), (PeerId(1), Some((PeerId(2), 0))));
        let oh = oh.onward(PeerId(7)).onward(PeerId(8));
        assert_eq!((oh.last_hop(), oh.route()), (PeerId(8), Some((PeerId(2), 2))));
        let resp = NylonMsg::Response {
            from: PeerId(3),
            dest: PeerId(4),
            via: PeerId(5),
            hops: u8::MAX,
            entries: entries(1),
        };
        assert_eq!(resp.onward(PeerId(6)).route(), Some((PeerId(4), u8::MAX)), "hops saturate");
        for msg in [NylonMsg::Ping { from: PeerId(1) }, NylonMsg::Pong { from: PeerId(1) }] {
            assert_eq!((msg.last_hop(), msg.route()), (PeerId(1), None));
            assert_eq!(msg.onward(PeerId(9)).last_hop(), PeerId(1));
        }
    }
}
