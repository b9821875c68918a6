//! The user-space NAT emulator: a step of [`crate::UdpTransport`]'s send
//! path that filters and rewrites real loopback UDP frames with the *same*
//! [`nylon_net::natbox::NatBox`] state machine the simulator uses.
//!
//! Topology of a live run: every node binds a loopback socket (its
//! "private" interface) and addresses peers by their **virtual** endpoints
//! — the synthetic address plan of the simulated fabric, carried in the
//! frame header ([`crate::codec`]). Before a frame leaves its sender's
//! socket, the middlebox plays the internet-plus-NAT-devices role:
//!
//! 1. the sending peer is the one whose socket the transport sends from;
//! 2. egress NAT processing maps its private virtual endpoint to a public
//!    one (opening/refreshing holes on its NAT box);
//! 3. the destination virtual endpoint is resolved and ingress filtering
//!    runs on the target's box — `FC`/`RC`/`PRC`/`SYM` behaviour exactly
//!    as on the simulated fabric, because it *is* the fabric's code:
//!    the emulator drives a payload-opaque [`nylon_net::Network`] over real
//!    frames;
//! 4. admitted frames get their source endpoint rewritten to the post-NAT
//!    one (the user-space analogue of IP-header rewriting), and the
//!    transport sends them from the sender's socket straight to the
//!    destination peer's. Rejected frames are never sent, like a NAT drops
//!    unsolicited traffic.
//!
//! The middlebox has no thread and no socket: the transport and the
//! [`NatEmulator`] handle share its state on the driver thread.

use std::cell::RefCell;
use std::rc::Rc;

use nylon_net::natbox::PURGE_EVERY;
use nylon_net::{Delivery, DropCounters, NatClass, NetConfig, PeerId};
use nylon_obs::Counters;
use nylon_sim::{SimDuration, SimTime};

use crate::codec;

/// Payload-opaque fabric: the emulator routes bytes, not messages.
type EmuNet = nylon_net::Network<()>;

nylon_obs::keyed_counters! {
    /// What the middlebox counts besides the fabric's drops, under the
    /// `emulator` telemetry layer.
    pub(crate) enum Emu {
        /// Frames sent on to the destination socket, source endpoint
        /// rewritten.
        Forwarded = "forwarded" => "forwarded",
        /// Frames whose header did not parse.
        Malformed = "malformed frame" => "malformed",
        /// Datagrams a node socket received from a socket outside the
        /// stack, skipped unread.
        OutsideSenders = "sender outside the stack" => "outside_senders",
    }
    /// [`Emu`] counts.
    pub(crate) struct EmuCounts;
}

/// The NAT state of a live stack, shared by its transport and its
/// [`NatEmulator`] handle.
#[derive(Debug)]
pub(crate) struct Middlebox {
    net: EmuNet,
    pub(crate) counts: EmuCounts,
    last_purge: SimTime,
}

impl Middlebox {
    /// Runs a frame `from` sent at `now` through its egress NAT and the
    /// receiver's ingress filter. Returns the receiving peer, the frame's
    /// source rewritten to the post-NAT endpoint, or `None` for a frame the
    /// fabric dropped (counted by reason) or whose header did not parse.
    pub(crate) fn admit(&mut self, now: SimTime, from: PeerId, frame: &mut [u8]) -> Option<PeerId> {
        let Ok(header) = codec::peek_header(frame) else {
            self.counts.bump(Emu::Malformed);
            return None;
        };
        if now.saturating_since(self.last_purge) >= PURGE_EVERY {
            self.net.purge_expired_nat_state(now);
            self.last_purge = now;
        }
        // Egress NAT (mapping + hole refresh) then immediate ingress
        // filtering — the wire itself adds the latency.
        let flight = self.net.send(now, from, header.dst, (), frame.len() as u32)?;
        match self.net.deliver(flight.arrive_at, flight) {
            Delivery::ToPeer { to, from_ep, .. } => {
                if codec::rewrite_src(frame, from_ep).is_err() {
                    self.counts.bump(Emu::Malformed);
                    return None;
                }
                Some(to)
            }
            Delivery::Dropped { .. } => None, // counted by the fabric, like a real NAT: silence
        }
    }

    /// Frames the fabric dropped or found malformed: every frame `admit`
    /// refused.
    pub(crate) fn refused(&self) -> u64 {
        self.net.drop_counters().total() + self.counts[Emu::Malformed]
    }
}

/// The handle to a live stack's NAT state: counters, drops and the
/// on-wire fault replays. Dropping it leaves the transport working.
#[derive(Debug)]
pub struct NatEmulator {
    middlebox: Rc<RefCell<Middlebox>>,
}

impl NatEmulator {
    /// The middlebox for a peer population.
    ///
    /// `classes` must list the peers in id order (the same order the engine
    /// added them, so both sides agree on the virtual address plan).
    /// Latency, jitter and loss of `net_cfg` are ignored — the real wire
    /// supplies those — but the NAT `hole_timeout` is honoured against the
    /// instants the transport passes in.
    pub fn new(classes: &[NatClass], net_cfg: &NetConfig) -> NatEmulator {
        let cfg = NetConfig {
            latency: SimDuration::ZERO,
            latency_jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            ..net_cfg.clone()
        };
        let mut net = EmuNet::new(cfg, 0);
        for class in classes {
            net.add_peer(*class);
        }
        let middlebox = Middlebox { net, counts: EmuCounts::default(), last_purge: SimTime::ZERO };
        NatEmulator { middlebox: Rc::new(RefCell::new(middlebox)) }
    }

    /// The state this handle shares with a transport.
    pub(crate) fn middlebox(&self) -> Rc<RefCell<Middlebox>> {
        Rc::clone(&self.middlebox)
    }

    /// Frames forwarded end-to-end so far.
    pub fn forwarded(&self) -> u64 {
        self.middlebox.borrow().counts[Emu::Forwarded]
    }

    /// Frames discarded because their header did not parse.
    pub fn malformed(&self) -> u64 {
        self.middlebox.borrow().counts[Emu::Malformed]
    }

    /// Drop counters of the emulated fabric, indexed by
    /// [`DropReason`](nylon_net::DropReason) — the on-wire NAT behaviour,
    /// observable.
    pub fn drop_counters(&self) -> DropCounters {
        self.middlebox.borrow().net.drop_counters()
    }

    /// Replays a mapping-rebind fault on the wire: the peer's NAT box
    /// forgets every mapping and hole and renumbers its public side, so
    /// live traffic towards the old observed endpoints blackholes until
    /// the overlay re-punches — exactly the `rebind` event of a
    /// `nylon-faults` plan, applied to real packets. Returns `false` for
    /// public peers (nothing to rebind).
    pub fn rebind_nat(&self, peer: PeerId) -> bool {
        self.middlebox.borrow_mut().net.rebind_nat(peer)
    }

    /// Stacks a carrier-grade NAT of `nat_type` onto a natted peer's path
    /// (the `cgn` topology fault of a `nylon-faults` plan, on-wire). Call
    /// before traffic flows — CGN egress rewrites apply to new mappings.
    /// Returns `false` for public peers.
    pub fn stack_cgn(&self, peer: PeerId, nat_type: nylon_net::NatType) -> bool {
        self.middlebox.borrow_mut().net.stack_cgn(peer, nat_type)
    }

    /// Reports middlebox activity under the `emulator` telemetry layer:
    /// frames forwarded (source endpoints rewritten), malformed frames,
    /// datagrams from outside the stack, and the fabric's ingress verdicts
    /// by drop cause, every cause.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        let middlebox = self.middlebox.borrow();
        middlebox.counts.report(out, "emulator");
        middlebox.net.drop_counters().report(out, "emulator");
    }
}
