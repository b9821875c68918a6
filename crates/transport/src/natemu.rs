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
//!
//! A run's fault plan acts on the wire the way an engine's host applies it
//! to the simulated fabric: [`NatEmulator::install_fault_plan`] stacks the
//! carrier-grade boxes and enables hairpinning up front, and each frame
//! first applies the events due at its send instant — rebinds, crashes and
//! revives, loss-burst and partition windows.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use nylon_gossip::{FaultPlan, FaultRuntime, FaultStats};
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
    /// `Some` once a fault plan is installed.
    faults: Option<FaultRuntime>,
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
        if let Some(rt) = &mut self.faults {
            rt.apply_due(now, &mut self.net);
        }
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

/// The handle to a live stack's NAT state: counters, drops and the fault
/// plan. Dropping it leaves the transport working.
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
        let middlebox = Middlebox {
            net,
            faults: None,
            counts: EmuCounts::default(),
            last_purge: SimTime::ZERO,
        };
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

    /// Installs a compiled fault plan on the wire: applies its topology
    /// faults now, before traffic flows, and its timed events as frames
    /// pass, each at the first frame sent at or after its instant.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already installed.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        let mut middlebox = self.middlebox.borrow_mut();
        assert!(middlebox.faults.is_none(), "fault plan already installed");
        plan.apply_topology(&mut middlebox.net);
        middlebox.faults = Some(FaultRuntime::new(Arc::new(plan), true));
    }

    /// Counters of the faults applied on the wire so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.middlebox.borrow().faults.as_ref().map(FaultRuntime::stats).unwrap_or_default()
    }

    /// Peers the installed plan put behind a carrier-grade box.
    pub fn cgn_stacked(&self) -> u64 {
        self.middlebox.borrow().faults.as_ref().map_or(0, |rt| rt.plan().cgn.len() as u64)
    }

    /// Reports middlebox activity under the `emulator` telemetry layer:
    /// frames forwarded (source endpoints rewritten), malformed frames,
    /// datagrams from outside the stack, the fabric's ingress verdicts by
    /// drop cause, every cause, and the faults applied on the wire — apart
    /// from the engine's own `faults` rows.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        let middlebox = self.middlebox.borrow();
        middlebox.counts.report(out, "emulator");
        middlebox.net.drop_counters().report(out, "emulator");
        if let Some(rt) = &middlebox.faults {
            rt.obs_report(out, "emulator");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LiveClock;
    use crate::live::udp_over_emulated_nat;
    use crate::transport::Transport;
    use crate::udp::UdpTransport;
    use nylon::NylonMsg;
    use nylon_gossip::{FaultEvent, FaultKind};
    use nylon_net::{private_endpoint, DropReason, Endpoint, NatType};

    /// Gap between the plan's events: each phase's frames go out right
    /// after its event and long before the next.
    const GAP: SimDuration = SimDuration::from_millis(100);

    /// A frame through the live stack and the same frame through a
    /// reference `Network` driven like an engine's host drives its fabric
    /// (due faults applied at the send instant, then send and deliver):
    /// the receiver and the source it sees, or `None` for a refusal.
    struct Pair {
        clock: LiveClock,
        transport: UdpTransport<NylonMsg>,
        net: EmuNet,
        faults: FaultRuntime,
    }

    impl Pair {
        fn send(&mut self, from: PeerId, dst: Endpoint) -> Option<(PeerId, Endpoint)> {
            let now = self.clock.now_sim();
            self.faults.apply_due(now, &mut self.net);
            let want = self.net.send(now, from, dst, (), 8).and_then(|f| {
                match self.net.deliver(f.arrive_at, f) {
                    Delivery::ToPeer { to, from_ep, .. } => Some((to, from_ep)),
                    Delivery::Dropped { .. } => None,
                }
            });
            let ping = NylonMsg::Ping { from };
            self.transport.send(now, from, private_endpoint(from), dst, ping, 8);
            let got = self.transport.poll(now).map(|a| (a.to, a.from_ep));
            assert!(self.transport.poll(now).is_none(), "one frame, at most one arrival");
            assert_eq!(got, want, "{from} -> {dst:?} at {now:?}");
            got
        }

        /// Sleeps to the instant of the plan's `k`-th event.
        fn phase(&self, start: SimTime, k: u64) {
            if let Some(wait) = self.clock.wall_until(start + GAP * k) {
                std::thread::sleep(wait);
            }
        }
    }

    /// Every kind of fault in one hand-built plan, frames sent through the
    /// live stack between its events: `admit` passes or refuses each one
    /// exactly as the fabric does under the same plan, rewrites sources
    /// through the carrier box and the rebound box alike, counts each
    /// refusal under its drop reason, and loses track of none.
    #[test]
    fn the_plan_acts_on_the_wire_as_on_the_fabric() {
        // 0, 1, 4 public; 2 behind a carrier box; 3 with hairpinning on;
        // 5 with it off, and rebound.
        let prc = NatClass::Natted(NatType::PortRestrictedCone);
        let classes = [NatClass::Public, NatClass::Public, prc, prc, NatClass::Public, prc];
        let net_cfg = NetConfig::default();
        let clock = LiveClock::start_now();
        let (transport, emulator) =
            udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock.clone()).unwrap();
        let start = clock.now_sim();
        let forever = start + SimDuration::from_secs(3600);
        let at = |k: u64, kind| FaultEvent { at: start + GAP * k, kind };
        let plan = FaultPlan {
            harden: false,
            cgn: vec![(PeerId(2), NatType::PortRestrictedCone)],
            hairpin: vec![PeerId(3)],
            events: vec![
                at(1, FaultKind::Partition { until: forever, cut: 1 }),
                at(2, FaultKind::Crash(PeerId(4))),
                at(3, FaultKind::Revive(PeerId(4))),
                at(4, FaultKind::Rebind(PeerId(5))),
                at(5, FaultKind::LossBurst { until: forever, prob_ppm: 1_000_000, salt: 7 }),
            ],
        };
        emulator.install_fault_plan(plan.clone());
        let mut net = EmuNet::new(emulator.middlebox.borrow().net.config().clone(), 0);
        for class in classes {
            net.add_peer(class);
        }
        plan.apply_topology(&mut net);
        let faults = FaultRuntime::new(Arc::new(plan), true);
        let mut pair = Pair { clock, transport, net, faults };
        let id = |pair: &Pair, p: u32| pair.net.identity_endpoint(PeerId(p));
        let (p1, p4) = (id(&pair, 1), id(&pair, 4));

        // Before any event: through the carrier box and back, the boxes'
        // filters, hairpinning on and off.
        let (_, seen2) = pair.send(PeerId(2), p1).expect("a carrier box lets its peer out");
        assert_eq!(seen2, id(&pair, 2), "seen at the identity the carrier box gave it");
        assert!(pair.send(PeerId(1), seen2).is_some(), "the reply finds the hole");
        assert!(pair.send(PeerId(0), seen2).is_none(), "unsolicited: filtered");
        let (_, seen5) = pair.send(PeerId(5), p1).expect("a natted peer gets out");
        let p3 = id(&pair, 3);
        assert!(pair.send(PeerId(3), p3).is_some(), "hairpinning on loops back");
        let p5 = id(&pair, 5);
        assert!(pair.send(PeerId(5), p5).is_none(), "hairpinning off drops");
        assert!(pair.send(PeerId(0), p1).is_some());

        pair.phase(start, 1); // peer 0 cut off from the rest
        assert!(pair.send(PeerId(0), p1).is_none(), "partitioned");
        assert!(pair.send(PeerId(1), p4).is_some(), "both on one side");
        pair.phase(start, 2); // peer 4 crashed
        assert!(pair.send(PeerId(1), p4).is_none(), "target dead");
        assert!(pair.send(PeerId(4), p1).is_none(), "source dead");
        pair.phase(start, 3); // peer 4 revived
        assert!(pair.send(PeerId(1), p4).is_some(), "revived");
        assert!(pair.send(PeerId(1), seen5).is_some(), "the hole is still open");
        pair.phase(start, 4); // peer 5's box rebound
        assert!(pair.send(PeerId(1), seen5).is_none(), "the rebind closed the hole");
        let (_, reseen5) = pair.send(PeerId(5), p1).expect("a rebound peer gets out");
        assert_ne!(reseen5, seen5, "under a new mapping");
        pair.phase(start, 5); // every frame lost
        assert!(pair.send(PeerId(1), p4).is_none(), "loss burst");

        let drops = emulator.drop_counters();
        assert_eq!(drops, pair.net.drop_counters());
        for reason in [
            DropReason::Filtered,
            DropReason::HairpinBlocked,
            DropReason::Partitioned,
            DropReason::TargetDead,
            DropReason::SourceDead,
            DropReason::NoMapping,
            DropReason::FaultLoss,
        ] {
            assert_eq!(drops[reason], 1, "{reason:?}");
        }
        let mut out = nylon_obs::Report::new();
        emulator.obs_report(&mut out);
        let counter = |name| match out.get("emulator", name) {
            Some(nylon_obs::MetricValue::Counter(n)) => *n,
            other => panic!("emulator/{name}: {other:?}"),
        };
        for name in ["drop_partitioned", "drop_fault_loss", "rebinds", "crashes", "revives"] {
            assert_eq!(counter(name), 1, "emulator/{name}");
        }
        assert_eq!((counter("cgn_stacked"), counter("hairpin_enabled")), (1, 1));
        assert_eq!(emulator.fault_stats(), pair.faults.stats());
        assert_eq!(emulator.cgn_stacked(), 1);
        assert_eq!(pair.transport.unaccounted(), 0);
    }
}
