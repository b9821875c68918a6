//! The simulated network fabric: NAT egress/ingress, latency, loss,
//! accounting.
//!
//! The address plan is arithmetic on creation order, so resolving an
//! address needs no lookup table: public peer `i` listens on
//! `PUBLIC_PEER_IP_BASE + i`, NAT box `b` (subscriber or carrier-grade)
//! owns `NAT_IP_BASE + b`, and peer `i` binds the private endpoint
//! `Ip::PRIVATE_BASE + i` ([`private_endpoint`]). Subtracting the base and
//! checking the index against what exists answers "who owns this IP" for
//! delivery, routing to a worker ([`Network::addressee_of`]) and the
//! carrier-grade chain walk alike.

use std::fmt;

use nylon_obs::Counters;
use nylon_sim::{Share, SimDuration, SimRng, SimTime};

use crate::addr::{Endpoint, Ip, PeerId, Port};
use crate::nat::{NatClass, NatType};
use crate::natbox::{NatBox, NatReject};

/// Fabric configuration, defaulting to the paper's experimental settings.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way message latency (paper: 50 ms). Engines advance in ticks of
    /// the shortest latency a datagram can see and refuse a fabric where
    /// that is under 1 ms; a bare [`Network`] takes any value.
    pub latency: SimDuration,
    /// Uniform latency jitter, applied as ± `jitter` around [`NetConfig::latency`].
    pub latency_jitter: SimDuration,
    /// Probability that a datagram is lost in transit (paper: 0).
    pub loss_probability: f64,
    /// Lifetime of NAT mappings/filter rules after the last activity
    /// (paper: 90 s, "a typical vendor value").
    pub hole_timeout: SimDuration,
}

/// Per-datagram overhead added to every payload (IP + UDP headers).
const HEADER_BYTES: u32 = 28;

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_millis(50),
            latency_jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            hole_timeout: SimDuration::from_secs(90),
        }
    }
}

nylon_obs::counters! {
    /// Per-peer traffic counters (cumulative).
    pub struct TrafficStats {
        /// Bytes sent, including per-datagram header overhead.
        bytes_sent,
        /// Bytes received, including per-datagram header overhead.
        bytes_received,
        /// Datagrams sent.
        msgs_sent = "datagrams_sent",
        /// Datagrams received.
        msgs_received = "datagrams_received",
    }
}

impl TrafficStats {
    /// Total bytes in both directions.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Counter-wise difference `self - earlier`; saturates at zero.
    pub fn since(&self, earlier: &TrafficStats) -> TrafficStats {
        TrafficStats {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            msgs_received: self.msgs_received.saturating_sub(earlier.msgs_received),
        }
    }
}

/// Why a datagram never reached a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random in-transit loss.
    Loss,
    /// The destination endpoint's IP is not assigned to anyone.
    NoRoute,
    /// The destination peer (or the host behind the NAT) is dead.
    TargetDead,
    /// The sender is dead (engines should not let this happen).
    SourceDead,
    /// The NAT had no live mapping at the destination port.
    NoMapping,
    /// The NAT filtering rule rejected the source.
    Filtered,
    /// A hairpin (NAT loopback) packet hit a box with hairpinning off.
    HairpinBlocked,
    /// Dropped by an injected loss-burst window (fault plane).
    FaultLoss,
    /// Dropped by an injected partition window (fault plane).
    Partitioned,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Loss => "in-transit loss",
            DropReason::NoRoute => "no route to endpoint",
            DropReason::TargetDead => "target dead",
            DropReason::SourceDead => "source dead",
            DropReason::NoMapping => "no NAT mapping",
            DropReason::Filtered => "filtered by NAT",
            DropReason::HairpinBlocked => "hairpin not supported",
            DropReason::FaultLoss => "injected loss burst",
            DropReason::Partitioned => "injected partition",
        };
        f.write_str(s)
    }
}

nylon_obs::counters! {
    /// Cumulative drop counters by cause.
    pub struct DropCounters {
        /// Datagrams lost in transit.
        loss = "drop_loss",
        /// Datagrams to unassigned endpoints.
        no_route = "drop_no_route",
        /// Datagrams to dead peers.
        target_dead = "drop_target_dead",
        /// Datagrams from dead peers.
        source_dead = "drop_source_dead",
        /// Datagrams hitting an expired/absent NAT mapping.
        no_mapping = "drop_no_mapping",
        /// Datagrams rejected by NAT filtering rules.
        filtered = "drop_filtered",
        /// Hairpin packets dropped by non-hairpinning boxes.
        hairpin_blocked = "drop_hairpin_blocked",
        /// Datagrams dropped by injected loss-burst windows.
        fault_loss = "drop_fault_loss",
        /// Datagrams dropped by injected partition windows.
        partitioned = "drop_partitioned",
    }
}

impl DropCounters {
    fn bump(&mut self, reason: DropReason) {
        match reason {
            DropReason::Loss => self.loss += 1,
            DropReason::NoRoute => self.no_route += 1,
            DropReason::TargetDead => self.target_dead += 1,
            DropReason::SourceDead => self.source_dead += 1,
            DropReason::NoMapping => self.no_mapping += 1,
            DropReason::Filtered => self.filtered += 1,
            DropReason::HairpinBlocked => self.hairpin_blocked += 1,
            DropReason::FaultLoss => self.fault_loss += 1,
            DropReason::Partitioned => self.partitioned += 1,
        }
    }
}

/// A datagram travelling through the fabric.
///
/// Produced by [`Network::send`] *after* egress NAT processing; the caller
/// schedules it on its event loop and hands it back to [`Network::deliver`]
/// at `arrive_at`, when ingress processing (NAT filtering at the
/// destination) happens.
#[derive(Debug, Clone)]
pub struct InFlight<P> {
    /// Arrival instant (send time + sampled latency).
    pub arrive_at: SimTime,
    /// Public source endpoint after egress NAT translation.
    pub src_ep: Endpoint,
    /// Destination endpoint the sender addressed.
    pub dst_ep: Endpoint,
    /// Sender peer (for diagnostics; the wire carries only endpoints).
    pub sender: PeerId,
    /// Total bytes on the wire (payload + headers).
    pub wire_bytes: u32,
    /// Protocol payload.
    pub payload: P,
}

/// Outcome of delivering an [`InFlight`] datagram.
#[derive(Debug, Clone)]
pub enum Delivery<P> {
    /// The datagram reached a peer.
    ToPeer {
        /// Receiving peer.
        to: PeerId,
        /// Source endpoint as observed by the receiver (post-NAT); replies
        /// to this endpoint travel back through the sender's NAT hole.
        from_ep: Endpoint,
        /// Protocol payload.
        payload: P,
    },
    /// The datagram was dropped.
    Dropped {
        /// Why it was dropped.
        reason: DropReason,
        /// The payload, returned for diagnostics.
        payload: P,
    },
}

/// A peer as every worker sees it: the replicated part of the address plan.
#[derive(Debug, Clone, Copy)]
struct PeerSlot {
    class: NatClass,
    alive: bool,
    /// A UPnP forwarding pins the peer's identity: no carrier box may be
    /// stacked in front of it.
    forwarded: bool,
    /// The fault plane stacked a carrier-grade box in front of the peer's
    /// own.
    carrier: bool,
}

/// What only the worker owning a peer holds about it.
#[derive(Debug, Clone, Copy)]
struct LocalPeer {
    /// The endpoint the peer advertises (see [`Network::identity_endpoint`]).
    identity: Endpoint,
    /// The peer's NAT box in [`Network::boxes`]; [`NO_BOX`] for a public
    /// peer.
    inner: u32,
    /// The carrier-grade (outer) box in front of `inner`, if the fault plane
    /// stacked one: egress is rewritten at both levels, ingress unwinds the
    /// chain.
    outer: u32,
    stats: TrafficStats,
}

/// A NAT box of the address plan: the peer behind it and, on that peer's
/// worker, where the box is stored.
#[derive(Debug, Clone, Copy)]
struct BoxSlot {
    owner: PeerId,
    /// Index into [`Network::boxes`]; [`NO_BOX`] on every other worker.
    local: u32,
}

/// "No box here": a public peer's, or one stored on another worker.
const NO_BOX: u32 = u32::MAX;

/// Active fault-plane windows (loss bursts, partitions). Allocated only
/// when a fault is injected, so the clean path pays one `Option` check.
#[derive(Debug, Clone, Copy, Default)]
struct FaultOverlay {
    /// End of the loss-burst window (exclusive).
    burst_until: SimTime,
    /// Burst drop probability in parts-per-million.
    burst_ppm: u32,
    /// Salt for the per-datagram drop hash.
    burst_salt: u64,
    /// End of the partition window (exclusive).
    part_until: SimTime,
    /// Peers with id < cut cannot exchange with peers with id >= cut.
    part_cut: u32,
}

/// Deterministic per-datagram drop decision for loss bursts: a pure hash
/// of (sender, destination, instant, salt), so any shard layout — and a
/// resumed run — samples the identical drop set without consuming RNG
/// state.
fn fault_hash(sender: PeerId, dst: Endpoint, now: SimTime, salt: u64) -> u64 {
    let mut x = salt
        ^ (u64::from(sender.0) << 32)
        ^ u64::from(dst.ip.0)
        ^ (u64::from(dst.port.0) << 16)
        ^ now.as_millis().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Who a public IP of the address plan belongs to.
#[derive(Debug, Clone, Copy)]
enum IpOwner {
    PublicPeer(PeerId),
    Nat(usize),
}

/// Base of the synthetic public address space for public peers.
const PUBLIC_PEER_IP_BASE: u32 = 0x0100_0000;
/// Base of the synthetic public address space for NAT boxes.
const NAT_IP_BASE: u32 = 0x4000_0000;
/// Port public peers listen on.
const PUBLIC_PEER_PORT: u16 = 9000;
/// Private port every peer binds.
const PRIVATE_PORT: u16 = 5000;

/// The private endpoint assigned to a peer by the fabric's address plan.
///
/// The plan is deterministic in the peer id, so live transports (which
/// carry these virtual endpoints in their frames) and the simulated fabric
/// agree on it without coordination.
pub const fn private_endpoint(peer: PeerId) -> Endpoint {
    Endpoint::new(Ip(Ip::PRIVATE_BASE + peer.0), Port(PRIVATE_PORT))
}

/// A datagram an engine wants on the wire, captured by the engines'
/// wire-tap mode instead of being routed through the simulated fabric.
///
/// A live transport ships the payload to `dst` and lets whatever sits on
/// the path (a real network, or the user-space NAT emulator) decide
/// delivery and source-address rewriting.
#[derive(Debug, Clone)]
pub struct Outbound<P> {
    /// Sending peer.
    pub from: PeerId,
    /// Destination (virtual) endpoint the sender addressed.
    pub dst: Endpoint,
    /// Modeled payload size in bytes (excluding per-datagram headers).
    pub payload_bytes: u32,
    /// Protocol payload.
    pub payload: P,
}

/// The simulated network: peers, NAT boxes, latency, loss and accounting.
///
/// Payload-generic: `P` is the protocol message type. See the crate-level
/// example for basic usage.
///
/// One network is one worker's fabric ([`Network::for_worker`]). Every
/// worker holds the address plan of the whole population — each peer's
/// class and liveness, whether it forwards a port or sits behind a carrier
/// box, and the peer behind each box — which is what routing a datagram
/// to its addressee's worker and applying a fault to anyone need. NAT
/// boxes, identity endpoints, traffic counters and loss/jitter streams
/// exist only on the worker owning the peer: every operation touching
/// them runs there. [`Network::new`] owns everyone.
#[derive(Debug)]
pub struct Network<P> {
    cfg: NetConfig,
    share: Share,
    peers: Vec<PeerSlot>,
    box_plan: Vec<BoxSlot>,
    /// The boxes of owned peers, in creation order.
    boxes: Vec<NatBox>,
    /// Owned peers, by slot.
    local: Vec<LocalPeer>,
    drops: DropCounters,
    rng: SimRng,
    /// Per-peer loss/jitter streams of owned peers, by slot, allocated only
    /// when the config calls for them. Per-peer (rather than one shared
    /// network stream) so a peer's draws depend only on its own send
    /// history — the property that lets a sharded run sample loss and
    /// jitter on the sender's worker without caring how sends from
    /// *different* peers interleave.
    peer_rng: Vec<SimRng>,
    alive_count: usize,
    /// Active fault windows; `None` on the clean path.
    fault_overlay: Option<FaultOverlay>,
    /// Distribution of per-datagram wire sizes, recorded at every send
    /// (zero-sized no-op unless the telemetry feature is on).
    wire_hist: nylon_obs::Histogram,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P> Network<P> {
    /// Creates an empty network owning every peer, with the given
    /// configuration and RNG seed (used for latency jitter and loss
    /// sampling).
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        Network::for_worker(cfg, seed, Share::whole())
    }

    /// Creates one worker's empty fabric: the address plan of every peer
    /// added from now on, the rest only for the peers `share` owns.
    pub fn for_worker(cfg: NetConfig, seed: u64, share: Share) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.loss_probability),
            "loss probability must be within [0, 1]"
        );
        Network {
            cfg,
            share,
            peers: Vec::new(),
            box_plan: Vec::new(),
            boxes: Vec::new(),
            local: Vec::new(),
            drops: DropCounters::default(),
            rng: SimRng::new(seed).fork(0x6E65_7477), // "netw"
            peer_rng: Vec::new(),
            alive_count: 0,
            fault_overlay: None,
            wire_hist: nylon_obs::Histogram::new(),
            _payload: std::marker::PhantomData,
        }
    }

    /// Reports net-layer telemetry into `out`: traffic totals across the
    /// owned peers, the wire-size distribution, every drop counter, and
    /// the NAT session footprint. Read-only over existing state — stats
    /// on/off cannot change a run.
    ///
    /// `net/nat_sessions` is the number of sessions the boxes hold and
    /// `net/nat_session_slots` the map slots allocated for them (see
    /// [`NatBox::session_footprint`]) — the `routing/entries` versus
    /// `routing/slots` pair, for the fabric. Like those they are
    /// sum-merged gauges: a multi-worker run reports its total.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        let mut traffic = TrafficStats::default();
        for l in &self.local {
            traffic.merge(&l.stats);
        }
        traffic.report(out, "net");
        out.gauge("net", "alive_peers", self.alive_count as u64);
        let (mut sessions, mut slots) = (0u64, 0u64);
        for b in &self.boxes {
            let (held, allocated) = b.session_footprint();
            sessions += held as u64;
            slots += allocated as u64;
        }
        out.gauge_sum("net", "nat_sessions", sessions);
        out.gauge_sum("net", "nat_session_slots", slots);
        let snap = self.wire_hist.snapshot();
        if snap.count > 0 {
            out.histogram("net", "wire_bytes", snap);
        }
        self.drops.report(out, "net");
        out.counter("net", "drops_total", self.drops.total());
    }

    /// The fabric configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The peers this fabric stores state for.
    pub fn share(&self) -> &Share {
        &self.share
    }

    /// Whether this fabric holds `peer`'s NAT boxes, identity and traffic.
    pub fn owns(&self, peer: PeerId) -> bool {
        self.share.owns(peer.0)
    }

    /// Adds a peer of the given class and returns its id. Natted peers get
    /// a dedicated NAT box; cone peers get their stable public endpoint
    /// reserved immediately.
    pub fn add_peer(&mut self, class: NatClass) -> PeerId {
        let id = PeerId(self.peers.len() as u32);
        let slot = self.share.admit(id.0);
        let inner = match class {
            NatClass::Public => NO_BOX,
            NatClass::Natted(t) => self.push_box(id, t, slot.is_some()),
        };
        if let Some(slot) = slot {
            debug_assert_eq!(slot, self.local.len(), "owned peers arrive in id order");
            let identity = match class {
                NatClass::Public => public_identity(id),
                NatClass::Natted(_) => {
                    let nat = &mut self.boxes[inner as usize];
                    let ip = nat.public_ip();
                    nat.stable_public_endpoint(private_endpoint(id))
                        .unwrap_or(Endpoint::new(ip, Port::UNKNOWN))
                }
            };
            self.local.push(LocalPeer {
                identity,
                inner,
                outer: NO_BOX,
                stats: TrafficStats::default(),
            });
            if self.cfg.loss_probability > 0.0 || self.cfg.latency_jitter > SimDuration::ZERO {
                self.peer_rng.push(self.rng.fork(0x7065_6572_0000_0000 | u64::from(id.0)));
                // "peer"
            }
        }
        self.peers.push(PeerSlot { class, alive: true, forwarded: false, carrier: false });
        self.alive_count += 1;
        id
    }

    /// Appends a box with `owner` behind it to the address plan — stored
    /// here when `owned` — and returns where it is stored.
    fn push_box(&mut self, owner: PeerId, nat_type: NatType, owned: bool) -> u32 {
        let ip = Ip(NAT_IP_BASE + self.box_plan.len() as u32);
        let local = if owned {
            self.boxes.push(NatBox::new(ip, nat_type, self.cfg.hole_timeout));
            (self.boxes.len() - 1) as u32
        } else {
            NO_BOX
        };
        self.box_plan.push(BoxSlot { owner, local });
        local
    }

    /// The owned-peer state of `peer`.
    fn local_of(&self, peer: PeerId) -> &LocalPeer {
        &self.local[self.share.slot(peer.0)]
    }

    /// Where box `global` of the address plan is stored on this worker.
    fn box_at(&self, global: usize) -> usize {
        let local = self.box_plan[global].local;
        debug_assert!(local != NO_BOX, "box {global} belongs to another worker");
        local as usize
    }

    /// The owner of a public IP under the address plan: a public peer or
    /// a NAT box. `None` for addresses the plan has not handed out —
    /// including the would-be public address of a natted peer.
    fn owner_of_ip(&self, ip: Ip) -> Option<IpOwner> {
        if let Some(b) = ip.0.checked_sub(NAT_IP_BASE) {
            return ((b as usize) < self.box_plan.len()).then_some(IpOwner::Nat(b as usize));
        }
        let id = ip.0.checked_sub(PUBLIC_PEER_IP_BASE)?;
        let slot = self.peers.get(id as usize)?;
        slot.class.is_public().then_some(IpOwner::PublicPeer(PeerId(id)))
    }

    /// The peer bound to `private`, if it is a peer's private endpoint
    /// (and not, say, the public side of a subscriber box as a carrier box
    /// sees it).
    fn peer_at_private(&self, private: Endpoint) -> Option<PeerId> {
        let id = private.ip.0.checked_sub(Ip::PRIVATE_BASE)?;
        (private.port == Port(PRIVATE_PORT) && (id as usize) < self.peers.len())
            .then_some(PeerId(id))
    }

    /// Total number of peers ever added (dead peers keep their slot).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of currently alive peers.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// `true` if `peer` is alive.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.peers[peer.index()].alive
    }

    /// The peer's NAT classification.
    pub fn class_of(&self, peer: PeerId) -> NatClass {
        self.peers[peer.index()].class
    }

    /// The endpoint a peer advertises: its public address for public peers,
    /// the stable NAT mapping for cone-natted peers, and an
    /// unknown-port sentinel for symmetric-natted peers (whose public port
    /// is destination-dependent). A natted peer's is known on its own
    /// worker only: rebinds and carrier boxes move it.
    pub fn identity_endpoint(&self, peer: PeerId) -> Endpoint {
        match self.class_of(peer) {
            NatClass::Public => public_identity(peer),
            NatClass::Natted(_) => self.local_of(peer).identity,
        }
    }

    /// Iterator over all currently alive peers.
    pub fn alive_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peers.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| PeerId(i as u32))
    }

    /// Kills a peer (fail-stop: no goodbye messages, NAT box stops
    /// forwarding). Idempotent.
    pub fn kill_peer(&mut self, peer: PeerId) {
        let slot = &mut self.peers[peer.index()];
        if slot.alive {
            slot.alive = false;
            self.alive_count -= 1;
        }
    }

    /// Brings a killed peer back (fault-plane flapping). The peer returns
    /// with its NAT boxes in whatever state they were left — holes may have
    /// expired while it was down. Returns `false` if it was already alive.
    pub fn revive_peer(&mut self, peer: PeerId) -> bool {
        let slot = &mut self.peers[peer.index()];
        if slot.alive {
            return false;
        }
        slot.alive = true;
        self.alive_count += 1;
        true
    }

    /// Sends `payload` from owned `peer` to `dst_ep`, performing egress NAT
    /// processing and sampling latency/loss.
    ///
    /// Returns the in-flight datagram to schedule, or `None` if the
    /// datagram will never arrive (lost in transit, or sent by a dead
    /// peer). Bytes sent are accounted in both cases — the datagram did
    /// leave the host.
    pub fn send(
        &mut self,
        now: SimTime,
        peer: PeerId,
        dst_ep: Endpoint,
        payload: P,
        payload_bytes: u32,
    ) -> Option<InFlight<P>> {
        if !self.peers[peer.index()].alive {
            self.drops.bump(DropReason::SourceDead);
            return None;
        }
        let wire_bytes = payload_bytes + HEADER_BYTES;
        let src_ep = self.open_toward(now, peer, dst_ep);
        let slot = self.share.slot(peer.0);
        let st = &mut self.local[slot].stats;
        st.bytes_sent += wire_bytes as u64;
        st.msgs_sent += 1;
        self.wire_hist.record(wire_bytes as u64);

        if let Some(ov) = self.fault_overlay {
            // Fault windows drop in the core: the datagram left the host
            // (bytes accounted, NAT holes opened), like random loss below.
            if now < ov.part_until && ov.part_cut > 0 {
                if let Some(dst) = self.addressee_of(dst_ep) {
                    if (peer.0 < ov.part_cut) != (dst.0 < ov.part_cut) {
                        self.drops.bump(DropReason::Partitioned);
                        return None;
                    }
                }
            }
            if now < ov.burst_until
                && ov.burst_ppm > 0
                && fault_hash(peer, dst_ep, now, ov.burst_salt) % 1_000_000
                    < u64::from(ov.burst_ppm)
            {
                self.drops.bump(DropReason::FaultLoss);
                return None;
            }
        }
        if self.cfg.loss_probability > 0.0 && self.peer_rng[slot].chance(self.cfg.loss_probability)
        {
            self.drops.bump(DropReason::Loss);
            return None;
        }
        let jitter = self.cfg.latency_jitter.as_millis();
        let latency_ms = if jitter == 0 {
            self.cfg.latency.as_millis()
        } else {
            let base = self.cfg.latency.as_millis();
            let sampled = self.peer_rng[slot].gen_range(0..=2 * jitter);
            (base + sampled).saturating_sub(jitter).max(1)
        };
        Some(InFlight {
            arrive_at: now + SimDuration::from_millis(latency_ms),
            src_ep,
            dst_ep,
            sender: peer,
            wire_bytes,
            payload,
        })
    }

    /// Delivers an in-flight datagram: ingress NAT filtering runs *now*,
    /// against the NAT state at arrival time. Called on the worker owning
    /// the addressee (see [`addressee_of`](Self::addressee_of)).
    pub fn deliver(&mut self, now: SimTime, flight: InFlight<P>) -> Delivery<P> {
        let InFlight { dst_ep, src_ep, wire_bytes, payload, .. } = flight;
        let owner = match self.owner_of_ip(dst_ep.ip) {
            Some(o) => o,
            None => {
                self.drops.bump(DropReason::NoRoute);
                return Delivery::Dropped { reason: DropReason::NoRoute, payload };
            }
        };
        let to = match owner {
            IpOwner::PublicPeer(pid) => {
                if dst_ep.port != Port(PUBLIC_PEER_PORT) {
                    self.drops.bump(DropReason::NoRoute);
                    return Delivery::Dropped { reason: DropReason::NoRoute, payload };
                }
                pid
            }
            IpOwner::Nat(first) => {
                let mut b = self.box_at(first);
                // The sender sits behind the very box it is addressing:
                // hairpin (NAT loopback), which most boxes drop outright.
                if src_ep.ip == dst_ep.ip && !self.boxes[b].hairpin_enabled() {
                    self.drops.bump(DropReason::HairpinBlocked);
                    return Delivery::Dropped { reason: DropReason::HairpinBlocked, payload };
                }
                let mut port = dst_ep.port;
                loop {
                    let reason = match self.boxes[b].on_inbound(now, port, src_ep) {
                        Ok(private) => match self.peer_at_private(private) {
                            Some(pid) => break pid,
                            // Not a peer: the next hop of a carrier-grade
                            // chain (the subscriber box behind this one).
                            None => match self.owner_of_ip(private.ip) {
                                Some(IpOwner::Nat(next)) if self.box_at(next) != b => {
                                    b = self.box_at(next);
                                    port = private.port;
                                    continue;
                                }
                                _ => DropReason::NoRoute,
                            },
                        },
                        Err(NatReject::NoMapping) => DropReason::NoMapping,
                        Err(NatReject::Filtered) => DropReason::Filtered,
                        Err(NatReject::HairpinBlocked) => DropReason::HairpinBlocked,
                    };
                    self.drops.bump(reason);
                    return Delivery::Dropped { reason, payload };
                }
            }
        };
        if !self.peers[to.index()].alive {
            self.drops.bump(DropReason::TargetDead);
            return Delivery::Dropped { reason: DropReason::TargetDead, payload };
        }
        let slot = self.share.slot(to.0);
        let st = &mut self.local[slot].stats;
        st.bytes_received += wire_bytes as u64;
        st.msgs_received += 1;
        Delivery::ToPeer { to, from_ep: src_ep, payload }
    }

    /// Read-only reachability oracle for the staleness metric of Section 3:
    /// would a datagram sent *now* by `holder` to `target` at the advertised
    /// endpoint `target_ep` be forwarded to `target`?
    ///
    /// No NAT state is created or refreshed — this is an observer, not a
    /// participant.
    pub fn reachable(
        &self,
        now: SimTime,
        holder: PeerId,
        target: PeerId,
        target_ep: Endpoint,
    ) -> bool {
        match self.egress_src_preview(now, holder, target_ep) {
            None => false,
            Some(src_ep) => self.ingress_would_admit(now, target, target_ep, src_ep),
        }
    }

    /// Egress half of [`reachable`](Self::reachable): the source endpoint a
    /// datagram from `holder` to `target_ep` would carry after egress NAT
    /// translation, or `None` if `holder` is dead. Read-only.
    ///
    /// Split out (with [`ingress_would_admit`](Self::ingress_would_admit))
    /// so a sharded run can evaluate each half on the worker that owns the
    /// NAT state for that side.
    pub fn egress_src_preview(
        &self,
        now: SimTime,
        holder: PeerId,
        target_ep: Endpoint,
    ) -> Option<Endpoint> {
        self.is_alive(holder).then(|| self.source_toward(now, holder, target_ep))
    }

    /// The source endpoint a datagram from owned `peer` to `dst_ep` would
    /// leave with right now, through both NAT levels — whether or not the
    /// peer is alive. Creates and refreshes nothing.
    pub fn source_toward(&self, now: SimTime, peer: PeerId, dst_ep: Endpoint) -> Endpoint {
        let l = self.local_of(peer);
        if l.inner == NO_BOX {
            return l.identity;
        }
        let nat = &self.boxes[l.inner as usize];
        let mid = nat.egress_preview(now, private_endpoint(peer), dst_ep).0;
        match l.outer {
            NO_BOX => mid,
            outer => self.boxes[outer as usize].egress_preview(now, mid, dst_ep).0,
        }
    }

    /// Runs full egress translation for owned `peer` towards `dst_ep` — the
    /// subscriber box, then the carrier box if one is stacked — creating or
    /// refreshing mappings as an outbound datagram does, and returns the
    /// wire source endpoint.
    pub fn open_toward(&mut self, now: SimTime, peer: PeerId, dst_ep: Endpoint) -> Endpoint {
        let l = *self.local_of(peer);
        if l.inner == NO_BOX {
            return l.identity;
        }
        let mid = self.boxes[l.inner as usize].on_outbound(now, private_endpoint(peer), dst_ep);
        match l.outer {
            NO_BOX => mid,
            outer => self.boxes[outer as usize].on_outbound(now, mid, dst_ep),
        }
    }

    /// Ingress half of [`reachable`](Self::reachable): would a datagram
    /// from `src_ep` addressed to `target_ep` be forwarded to a live, owned
    /// `target`? Read-only.
    pub fn ingress_would_admit(
        &self,
        now: SimTime,
        target: PeerId,
        target_ep: Endpoint,
        src_ep: Endpoint,
    ) -> bool {
        if !self.is_alive(target) {
            return false;
        }
        let l = self.local_of(target);
        if l.inner == NO_BOX {
            return target_ep == l.identity;
        }
        let mut b = if l.outer == NO_BOX { l.inner } else { l.outer } as usize;
        if target_ep.ip != self.boxes[b].public_ip() {
            return false;
        }
        let mut port = target_ep.port;
        loop {
            match self.boxes[b].peek_inbound(now, port, src_ep) {
                None => return false,
                Some(ep) if ep == private_endpoint(target) => return true,
                Some(ep) => match self.owner_of_ip(ep.ip) {
                    Some(IpOwner::Nat(next)) if self.box_at(next) != b => {
                        b = self.box_at(next);
                        port = ep.port;
                    }
                    _ => return false,
                },
            }
        }
    }

    /// The peer a datagram addressed to `dst_ep` is *bound for*, ignoring
    /// NAT filtering and liveness: the public peer owning the address, or
    /// the (single) peer behind the NAT box owning it. `None` if no peer
    /// owns the address.
    ///
    /// This is a pure function of the address plan (which grows
    /// append-only with `add_peer`), so every worker of a sharded run
    /// resolves the same destination — it is how cross-worker datagrams
    /// are routed to the worker holding the ingress NAT state.
    pub fn addressee_of(&self, dst_ep: Endpoint) -> Option<PeerId> {
        match self.owner_of_ip(dst_ep.ip)? {
            IpOwner::PublicPeer(pid) => Some(pid),
            IpOwner::Nat(b) => Some(self.box_plan[b].owner),
        }
    }

    /// Enables a permanent UPnP/NAT-PMP port forwarding for a natted peer
    /// and updates its identity endpoint to the forwarded one. The peer
    /// then behaves like a public peer for inbound traffic. No-op (and
    /// `None`) for public peers; `None` too on a worker not owning the
    /// peer, which only notes the forwarding in its address plan.
    pub fn enable_port_forwarding(&mut self, peer: PeerId) -> Option<Endpoint> {
        let slot = &mut self.peers[peer.index()];
        if slot.class.is_public() {
            return None;
        }
        slot.forwarded = true;
        if !self.owns(peer) {
            return None;
        }
        let s = self.share.slot(peer.0);
        let ep =
            self.boxes[self.local[s].inner as usize].enable_port_forwarding(private_endpoint(peer));
        self.local[s].identity = ep;
        Some(ep)
    }

    /// Pre-opens a NAT hole so that `holder` can contact `target` without
    /// traversal, returning the endpoint `holder` should use; both peers
    /// must be owned (a multi-worker engine runs the three steps below on
    /// the two workers instead).
    ///
    /// This models an out-of-band join handshake (the paper bootstraps
    /// views with *public* peers; this helper exists for the degenerate
    /// 100 %-NAT population where no public peer is available). For a
    /// public `target` it is a no-op returning the identity endpoint. For a
    /// natted `target`, an outbound session from the target towards the
    /// holder's predicted source endpoint is installed; note that pairs
    /// whose filtering is port-exact on both sides (e.g. a symmetric holder
    /// towards a port-restricted target) cannot be pre-opened this way and
    /// will still require relaying — exactly as in a real deployment.
    pub fn open_bootstrap_hole(
        &mut self,
        now: SimTime,
        holder: PeerId,
        target: PeerId,
    ) -> Option<Endpoint> {
        let target_identity = self.identity_endpoint(target);
        if self.class_of(target).is_public() {
            return Some(target_identity);
        }
        // The holder's predicted source as the target sees it, the
        // target's session towards it, then the holder's own session
        // towards the target so replies pass its filter.
        let holder_src = self.source_toward(now, holder, target_identity);
        let target_ep = self.open_toward(now, target, holder_src);
        self.open_toward(now, holder, target_ep);
        Some(target_ep)
    }

    /// Traffic counters for one owned peer.
    ///
    /// # Panics
    ///
    /// Panics if this worker does not own `peer`.
    pub fn stats_of(&self, peer: PeerId) -> TrafficStats {
        assert!(self.owns(peer), "{peer}'s traffic is counted on its own worker");
        self.local_of(peer).stats
    }

    /// Accounts one sent datagram of `payload_bytes` for owned `peer`
    /// without routing it through the fabric. Used by the engines'
    /// wire-tap mode, where a live transport carries the datagram but this
    /// registry still owns the per-peer traffic counters.
    pub fn note_sent(&mut self, peer: PeerId, payload_bytes: u32) {
        let wire = u64::from(payload_bytes + HEADER_BYTES);
        let slot = self.share.slot(peer.0);
        let st = &mut self.local[slot].stats;
        st.bytes_sent += wire;
        st.msgs_sent += 1;
    }

    /// Accounts one received datagram of `payload_bytes` for owned `peer`
    /// without routing it through the fabric (wire-tap mode counterpart of
    /// [`Network::note_sent`]).
    pub fn note_received(&mut self, peer: PeerId, payload_bytes: u32) {
        let wire = u64::from(payload_bytes + HEADER_BYTES);
        let slot = self.share.slot(peer.0);
        let st = &mut self.local[slot].stats;
        st.bytes_received += wire;
        st.msgs_received += 1;
    }

    /// Drop counters by cause.
    pub fn drop_counters(&self) -> DropCounters {
        self.drops
    }

    /// Drops expired NAT sessions to bound memory; call periodically.
    pub fn purge_expired_nat_state(&mut self, now: SimTime) {
        for b in &mut self.boxes {
            b.purge_expired(now);
        }
    }

    /// Direct access to a peer's NAT box, if natted and owned here (for
    /// tests and probes).
    pub fn nat_box_of(&self, peer: PeerId) -> Option<&NatBox> {
        let l = self.owns(peer).then(|| self.local_of(peer))?;
        (l.inner != NO_BOX).then(|| &self.boxes[l.inner as usize])
    }

    /// Direct access to a peer's carrier-grade (outer) NAT box, if the
    /// fault plane stacked one and the peer is owned here (for tests and
    /// probes).
    pub fn outer_box_of(&self, peer: PeerId) -> Option<&NatBox> {
        let l = self.owns(peer).then(|| self.local_of(peer))?;
        (l.outer != NO_BOX).then(|| &self.boxes[l.outer as usize])
    }

    /// Re-resolves an owned natted peer's advertised identity endpoint from
    /// the current state of its NAT chain (after a rebind or a newly
    /// stacked carrier box).
    fn refresh_identity(&mut self, peer: PeerId) {
        let slot = self.share.slot(peer.0);
        let l = self.local[slot];
        if l.inner == NO_BOX {
            return;
        }
        let inner_stable =
            self.boxes[l.inner as usize].stable_public_endpoint(private_endpoint(peer));
        let inner_ip = self.boxes[l.inner as usize].public_ip();
        let identity = match (inner_stable, l.outer) {
            (Some(ep), NO_BOX) => ep,
            (None, NO_BOX) => Endpoint::new(inner_ip, Port::UNKNOWN),
            (inner, outer) => {
                let carrier = &mut self.boxes[outer as usize];
                let unknown = Endpoint::new(carrier.public_ip(), Port::UNKNOWN);
                inner.and_then(|mid| carrier.stable_public_endpoint(mid)).unwrap_or(unknown)
            }
        };
        self.local[slot].identity = identity;
    }

    /// Mobile-style mid-session rebinding of a peer's whole NAT chain: every
    /// box between the peer and the internet loses its dynamic state (see
    /// [`NatBox::rebind`]) and the advertised identity endpoint is
    /// re-resolved — except UPnP-forwarded identities, which the forwarding
    /// protocol pins across the rebind. Returns `false` for public peers;
    /// a worker not owning the peer has nothing to rebind.
    pub fn rebind_nat(&mut self, peer: PeerId) -> bool {
        if self.class_of(peer).is_public() {
            return false;
        }
        if !self.owns(peer) {
            return true;
        }
        let l = *self.local_of(peer);
        self.boxes[l.inner as usize].rebind();
        if l.outer != NO_BOX {
            self.boxes[l.outer as usize].rebind();
        }
        let pinned =
            l.outer == NO_BOX && self.boxes[l.inner as usize].is_forwarded(l.identity.port);
        if !pinned {
            self.refresh_identity(peer);
        }
        true
    }

    /// Enables or disables hairpinning on every box of a natted peer's
    /// chain. Returns `false` for public peers.
    pub fn set_hairpin(&mut self, peer: PeerId, enabled: bool) -> bool {
        if self.class_of(peer).is_public() {
            return false;
        }
        if self.owns(peer) {
            let l = *self.local_of(peer);
            for b in [l.inner, l.outer].into_iter().filter(|b| *b != NO_BOX) {
                self.boxes[b as usize].set_hairpin(enabled);
            }
        }
        true
    }

    /// Stacks a carrier-grade NAT box of `nat_type` in front of a natted
    /// peer's own box and re-resolves its identity endpoint. The carrier box
    /// gets its own public IP, so the address plan (and with it
    /// [`addressee_of`](Self::addressee_of)) stays a pure append-only
    /// function. No-op (returning `false`) for public peers, peers already
    /// behind a carrier, and peers whose identity is UPnP-forwarded (a
    /// carrier in front would silently break the forwarding).
    pub fn stack_cgn(&mut self, peer: PeerId, nat_type: crate::nat::NatType) -> bool {
        let slot = self.peers[peer.index()];
        if slot.class.is_public() || slot.carrier || slot.forwarded {
            return false;
        }
        let owned = self.owns(peer);
        let outer = self.push_box(peer, nat_type, owned);
        self.peers[peer.index()].carrier = true;
        if owned {
            let s = self.share.slot(peer.0);
            self.local[s].outer = outer;
            self.refresh_identity(peer);
        }
        true
    }

    /// Opens a loss-burst window: until `until`, every datagram is dropped
    /// with `probability`, decided by a pure per-datagram hash (no RNG state
    /// consumed, so shard layout and resume cannot change the drop set).
    pub fn inject_loss_burst(&mut self, until: SimTime, probability: f64, salt: u64) {
        assert!((0.0..=1.0).contains(&probability), "burst probability must be within [0, 1]");
        let ov = self.fault_overlay.get_or_insert_with(FaultOverlay::default);
        ov.burst_until = until;
        ov.burst_ppm = (probability * 1_000_000.0) as u32;
        ov.burst_salt = salt;
    }

    /// Opens a partition window: until `until`, peers with id below `cut`
    /// cannot exchange datagrams with peers at or above it.
    pub fn inject_partition(&mut self, until: SimTime, cut: u32) {
        let ov = self.fault_overlay.get_or_insert_with(FaultOverlay::default);
        ov.part_until = until;
        ov.part_cut = cut;
    }
}

/// The endpoint public peer `peer` listens on, by the address plan.
fn public_identity(peer: PeerId) -> Endpoint {
    Endpoint::new(Ip(PUBLIC_PEER_IP_BASE + peer.0), Port(PUBLIC_PEER_PORT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::NatType;

    type Net = Network<u32>;

    fn send_and_deliver(
        net: &mut Net,
        now: SimTime,
        from: PeerId,
        to_ep: Endpoint,
        tag: u32,
    ) -> Delivery<u32> {
        let f = net.send(now, from, to_ep, tag, 100).expect("not lost");
        let at = f.arrive_at;
        net.deliver(at, f)
    }

    fn expect_peer(d: Delivery<u32>) -> (PeerId, Endpoint, u32) {
        match d {
            Delivery::ToPeer { to, from_ep, payload } => (to, from_ep, payload),
            Delivery::Dropped { reason, .. } => panic!("unexpected drop: {reason}"),
        }
    }

    fn expect_drop(d: Delivery<u32>) -> DropReason {
        match d {
            Delivery::ToPeer { to, .. } => panic!("unexpectedly delivered to {to}"),
            Delivery::Dropped { reason, .. } => reason,
        }
    }

    #[test]
    fn public_to_public_direct() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let d = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, SimTime::ZERO, a, ep, 7)
        };
        let (to, from_ep, payload) = expect_peer(d);
        assert_eq!(to, b);
        assert_eq!(from_ep, net.identity_endpoint(a));
        assert_eq!(payload, 7);
    }

    #[test]
    fn latency_is_applied() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let f = net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).unwrap();
        assert_eq!(f.arrive_at, SimTime::from_millis(50));
    }

    #[test]
    fn natted_reply_flows_through_hole() {
        let mut net = Net::new(NetConfig::default(), 1);
        let pub_peer = net.add_peer(NatClass::Public);
        let nat_peer = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        // Natted initiates: opens a hole.
        let d = {
            let ep = net.identity_endpoint(pub_peer);
            send_and_deliver(&mut net, SimTime::ZERO, nat_peer, ep, 1)
        };
        let (to, observed, _) = expect_peer(d);
        assert_eq!(to, pub_peer);
        // Public replies to the observed source endpoint: admitted.
        let d = send_and_deliver(&mut net, SimTime::from_millis(50), pub_peer, observed, 2);
        let (to, _, payload) = expect_peer(d);
        assert_eq!(to, nat_peer);
        assert_eq!(payload, 2);
    }

    #[test]
    fn unsolicited_to_natted_is_dropped() {
        let mut net = Net::new(NetConfig::default(), 1);
        let pub_peer = net.add_peer(NatClass::Public);
        let nat_peer = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let d = {
            let ep = net.identity_endpoint(nat_peer);
            send_and_deliver(&mut net, SimTime::ZERO, pub_peer, ep, 1)
        };
        assert_eq!(expect_drop(d), DropReason::NoMapping);
    }

    #[test]
    fn filtered_when_wrong_source() {
        let mut net = Net::new(NetConfig::default(), 1);
        let p1 = net.add_peer(NatClass::Public);
        let p2 = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        // n talks to p1 only.
        let _ = {
            let ep = net.identity_endpoint(p1);
            send_and_deliver(&mut net, SimTime::ZERO, n, ep, 1)
        };
        // p2 tries n's stable endpoint: the mapping exists but p2 is filtered.
        let d = {
            let ep = net.identity_endpoint(n);
            send_and_deliver(&mut net, SimTime::from_millis(100), p2, ep, 2)
        };
        assert_eq!(expect_drop(d), DropReason::Filtered);
    }

    #[test]
    fn hole_expires_after_timeout() {
        let mut net = Net::new(NetConfig::default(), 1);
        let pub_peer = net.add_peer(NatClass::Public);
        let nat_peer = net.add_peer(NatClass::Natted(NatType::RestrictedCone));
        let d = {
            let ep = net.identity_endpoint(pub_peer);
            send_and_deliver(&mut net, SimTime::ZERO, nat_peer, ep, 1)
        };
        let (_, observed, _) = expect_peer(d);
        // 91 s later the rule is gone.
        let late = SimTime::from_secs(91);
        let d = send_and_deliver(&mut net, late, pub_peer, observed, 2);
        assert_eq!(expect_drop(d), DropReason::NoMapping);
    }

    #[test]
    fn symmetric_identity_is_unknown_port() {
        let mut net = Net::new(NetConfig::default(), 1);
        let s = net.add_peer(NatClass::Natted(NatType::Symmetric));
        assert!(net.identity_endpoint(s).has_unknown_port());
        let p = net.add_peer(NatClass::Public);
        let d = {
            let ep = net.identity_endpoint(s);
            send_and_deliver(&mut net, SimTime::ZERO, p, ep, 1)
        };
        assert_eq!(expect_drop(d), DropReason::NoMapping);
    }

    #[test]
    fn symmetric_reply_to_observed_endpoint_works() {
        let mut net = Net::new(NetConfig::default(), 1);
        let s = net.add_peer(NatClass::Natted(NatType::Symmetric));
        let p = net.add_peer(NatClass::Public);
        let d = {
            let ep = net.identity_endpoint(p);
            send_and_deliver(&mut net, SimTime::ZERO, s, ep, 1)
        };
        let (_, observed, _) = expect_peer(d);
        assert_eq!(observed.ip, net.nat_box_of(s).unwrap().public_ip());
        let d = send_and_deliver(&mut net, SimTime::from_millis(60), p, observed, 2);
        let (to, _, _) = expect_peer(d);
        assert_eq!(to, s);
    }

    #[test]
    fn dead_target_drops() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        net.kill_peer(b);
        let d = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, SimTime::ZERO, a, ep, 1)
        };
        assert_eq!(expect_drop(d), DropReason::TargetDead);
        assert_eq!(net.alive_count(), 1);
        assert!(!net.is_alive(b));
    }

    #[test]
    fn dead_source_cannot_send() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        net.kill_peer(a);
        assert!(net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).is_none());
        assert_eq!(net.drop_counters().source_dead, 1);
    }

    #[test]
    fn no_route_for_unassigned_ip() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let bogus = Endpoint::new(Ip(0x7F00_0001), Port(9000));
        let d = send_and_deliver(&mut net, SimTime::ZERO, a, bogus, 1);
        assert_eq!(expect_drop(d), DropReason::NoRoute);
    }

    #[test]
    fn wrong_port_on_public_peer_is_no_route() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let wrong = Endpoint::new(net.identity_endpoint(b).ip, Port(1234));
        let d = send_and_deliver(&mut net, SimTime::ZERO, a, wrong, 1);
        assert_eq!(expect_drop(d), DropReason::NoRoute);
    }

    #[test]
    fn byte_accounting_includes_headers() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let _ = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, SimTime::ZERO, a, ep, 1)
        };
        assert_eq!(net.stats_of(a).bytes_sent, 128); // 100 + 28 header
        assert_eq!(net.stats_of(a).msgs_sent, 1);
        assert_eq!(net.stats_of(b).bytes_received, 128);
        assert_eq!(net.stats_of(b).msgs_received, 1);
        let diff = net.stats_of(b).since(&TrafficStats::default());
        assert_eq!(diff.bytes_total(), 128);
    }

    #[test]
    fn loss_is_sampled_and_counted() {
        let cfg = NetConfig { loss_probability: 1.0, ..NetConfig::default() };
        let mut net = Net::new(cfg, 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        assert!(net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).is_none());
        assert_eq!(net.drop_counters().loss, 1);
        // Bytes sent are still accounted.
        assert_eq!(net.stats_of(a).msgs_sent, 1);
    }

    #[test]
    fn jitter_bounds_latency() {
        let cfg =
            NetConfig { latency_jitter: SimDuration::from_millis(20), ..NetConfig::default() };
        let mut net = Net::new(cfg, 42);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        for _ in 0..200 {
            let f = net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).unwrap();
            let ms = f.arrive_at.as_millis();
            assert!((30..=70).contains(&ms), "latency {ms}ms out of bounds");
        }
    }

    #[test]
    fn reachable_oracle_matches_reality() {
        let mut net = Net::new(NetConfig::default(), 1);
        let pub_peer = net.add_peer(NatClass::Public);
        let nat_peer = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let nat_ep = net.identity_endpoint(nat_peer);
        // Before any traffic: unreachable.
        assert!(!net.reachable(SimTime::ZERO, pub_peer, nat_peer, nat_ep));
        // Open the hole.
        let _ = {
            let ep = net.identity_endpoint(pub_peer);
            send_and_deliver(&mut net, SimTime::ZERO, nat_peer, ep, 1)
        };
        let t = SimTime::from_millis(100);
        assert!(net.reachable(t, pub_peer, nat_peer, nat_ep));
        // The oracle does not refresh: rule expires on schedule.
        let late = SimTime::from_secs(120);
        assert!(!net.reachable(late, pub_peer, nat_peer, nat_ep));
        // Public target is always reachable at the right endpoint.
        assert!(net.reachable(t, nat_peer, pub_peer, net.identity_endpoint(pub_peer)));
    }

    #[test]
    fn reachable_false_for_dead_parties() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let b_ep = net.identity_endpoint(b);
        net.kill_peer(b);
        assert!(!net.reachable(SimTime::ZERO, a, b, b_ep));
    }

    #[test]
    fn purge_keeps_behaviour() {
        let mut net = Net::new(NetConfig::default(), 1);
        let p = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::RestrictedCone));
        let _ = {
            let ep = net.identity_endpoint(p);
            send_and_deliver(&mut net, SimTime::ZERO, n, ep, 1)
        };
        net.purge_expired_nat_state(SimTime::from_secs(10));
        // Rule was live, must survive purge.
        assert!(net.reachable(SimTime::from_secs(10), p, n, net.identity_endpoint(n)));
        net.purge_expired_nat_state(SimTime::from_secs(200));
        assert!(!net.reachable(SimTime::from_secs(200), p, n, net.identity_endpoint(n)));
    }

    #[test]
    fn alive_peers_iterates_live_only() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let c = net.add_peer(NatClass::Public);
        net.kill_peer(b);
        let alive: Vec<PeerId> = net.alive_peers().collect();
        assert_eq!(alive, vec![a, c]);
        assert_eq!(net.peer_count(), 3);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let cfg = NetConfig { loss_probability: 1.5, ..NetConfig::default() };
        let _ = Net::new(cfg, 1);
    }

    #[test]
    fn bootstrap_hole_public_target_is_noop() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let b = net.add_peer(NatClass::Public);
        let ep = net.open_bootstrap_hole(SimTime::ZERO, a, b).unwrap();
        assert_eq!(ep, net.identity_endpoint(b));
    }

    #[test]
    fn bootstrap_hole_lets_holder_in() {
        let mut net = Net::new(NetConfig::default(), 1);
        let holder = net.add_peer(NatClass::Natted(NatType::RestrictedCone));
        let target = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let target_ep = net.open_bootstrap_hole(SimTime::ZERO, holder, target).unwrap();
        // The holder can now initiate towards the natted target.
        let d = {
            let ep = target_ep;
            send_and_deliver(&mut net, SimTime::from_millis(10), holder, ep, 5)
        };
        let (to, _, _) = expect_peer(d);
        assert_eq!(to, target);
    }

    #[test]
    fn bootstrap_hole_does_not_open_for_third_parties() {
        let mut net = Net::new(NetConfig::default(), 1);
        let holder = net.add_peer(NatClass::Public);
        let target = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let outsider = net.add_peer(NatClass::Public);
        let target_ep = net.open_bootstrap_hole(SimTime::ZERO, holder, target).unwrap();
        let d = {
            let ep = target_ep;
            send_and_deliver(&mut net, SimTime::from_millis(10), outsider, ep, 5)
        };
        assert_eq!(expect_drop(d), DropReason::Filtered, "hole is holder-specific");
    }

    #[test]
    fn identity_endpoints_are_unique() {
        let mut net = Net::new(NetConfig::default(), 1);
        let mut eps = std::collections::HashSet::new();
        for i in 0..50u32 {
            let class = if i % 2 == 0 {
                NatClass::Public
            } else {
                NatClass::Natted(NatType::RestrictedCone)
            };
            let p = net.add_peer(class);
            assert!(eps.insert(net.identity_endpoint(p)), "duplicate identity endpoint");
        }
    }

    #[test]
    fn drop_counters_tally_with_observed_drops() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let n_ep = net.identity_endpoint(n);
        for i in 0..5u32 {
            let d = {
                let ep = n_ep;
                send_and_deliver(&mut net, SimTime::from_millis(i as u64 * 10), a, ep, i)
            };
            assert_eq!(expect_drop(d), DropReason::NoMapping);
        }
        assert_eq!(net.drop_counters().no_mapping, 5);
        assert_eq!(net.drop_counters().total(), 5);
    }

    #[test]
    fn upnp_peer_reachable_unsolicited() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::Symmetric));
        let fwd = net.enable_port_forwarding(n).expect("natted peer");
        assert_eq!(net.identity_endpoint(n), fwd, "identity must advertise the forwarding");
        let d = {
            let ep = fwd;
            send_and_deliver(&mut net, SimTime::ZERO, a, ep, 9)
        };
        let (to, _, payload) = expect_peer(d);
        assert_eq!((to, payload), (n, 9));
        // Oracle agrees.
        assert!(net.reachable(SimTime::from_secs(300), a, n, fwd));
        // Public peers: no-op.
        assert!(net.enable_port_forwarding(a).is_none());
    }

    #[test]
    fn kill_is_idempotent() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        net.kill_peer(a);
        net.kill_peer(a);
        assert_eq!(net.alive_count(), 0);
    }

    #[test]
    fn private_endpoint_plan_matches_fabric() {
        let mut net = Net::new(NetConfig::default(), 1);
        for i in 0..8u32 {
            let class =
                if i % 2 == 0 { NatClass::Public } else { NatClass::Natted(NatType::Symmetric) };
            let p = net.add_peer(class);
            assert_eq!(net.peer_at_private(private_endpoint(p)), Some(p));
        }
    }

    #[test]
    fn note_counters_match_fabric_accounting() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        net.note_sent(a, 100);
        net.note_received(b, 100);
        // Same totals the fabric's own send/deliver path accounts.
        assert_eq!(net.stats_of(a).bytes_sent, 128);
        assert_eq!(net.stats_of(a).msgs_sent, 1);
        assert_eq!(net.stats_of(b).bytes_received, 128);
        assert_eq!(net.stats_of(b).msgs_received, 1);
    }

    #[test]
    fn revive_restores_liveness() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        net.kill_peer(b);
        assert!(net.revive_peer(b));
        assert!(!net.revive_peer(b), "revive must be idempotent");
        assert!(!net.revive_peer(a), "reviving a live peer is a no-op");
        assert_eq!(net.alive_count(), 2);
        let d = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, SimTime::ZERO, a, ep, 3)
        };
        let (to, _, payload) = expect_peer(d);
        assert_eq!((to, payload), (b, 3));
    }

    #[test]
    fn rebind_nat_moves_identity_and_expires_old_endpoint() {
        let mut net = Net::new(NetConfig::default(), 1);
        let p = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let old = net.identity_endpoint(n);
        // Open a hole so the public peer can reach the old endpoint.
        let _ = {
            let ep = net.identity_endpoint(p);
            send_and_deliver(&mut net, SimTime::ZERO, n, ep, 1)
        };
        assert!(net.reachable(SimTime::from_millis(100), p, n, old));
        assert!(net.rebind_nat(n));
        let new = net.identity_endpoint(n);
        assert_eq!(new.ip, old.ip);
        assert_ne!(new.port, old.port, "rebind must re-port the identity");
        // The old endpoint is a blackhole now; a fresh outbound re-punches.
        let t = SimTime::from_millis(200);
        assert!(!net.reachable(t, p, n, old));
        assert!(!net.reachable(t, p, n, new), "no session yet after rebind");
        let _ = {
            let ep = net.identity_endpoint(p);
            send_and_deliver(&mut net, t, n, ep, 2)
        };
        assert!(net.reachable(SimTime::from_millis(300), p, n, new));
        // Public peers have nothing to rebind.
        assert!(!net.rebind_nat(p));
    }

    #[test]
    fn rebind_nat_keeps_upnp_identity() {
        let mut net = Net::new(NetConfig::default(), 1);
        let p = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::Symmetric));
        let fwd = net.enable_port_forwarding(n).unwrap();
        assert!(net.rebind_nat(n));
        assert_eq!(net.identity_endpoint(n), fwd, "forwarded identity is pinned");
        let d = send_and_deliver(&mut net, SimTime::ZERO, p, fwd, 4);
        let (to, _, _) = expect_peer(d);
        assert_eq!(to, n);
    }

    #[test]
    fn stacked_cgn_end_to_end() {
        let mut net = Net::new(NetConfig::default(), 1);
        let p = net.add_peer(NatClass::Public);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let inner_identity = net.identity_endpoint(n);
        assert!(net.stack_cgn(n, NatType::PortRestrictedCone));
        let identity = net.identity_endpoint(n);
        assert_ne!(identity.ip, inner_identity.ip, "identity must move to the carrier");
        assert_eq!(net.outer_box_of(n).unwrap().public_ip(), identity.ip);
        assert_eq!(net.addressee_of(identity), Some(n), "carrier box routes to its subscriber");
        // Outbound is rewritten at both levels: the wire source is the
        // carrier's.
        let d = {
            let ep = net.identity_endpoint(p);
            send_and_deliver(&mut net, SimTime::ZERO, n, ep, 1)
        };
        let (to, observed, _) = expect_peer(d);
        assert_eq!(to, p);
        assert_eq!(observed.ip, identity.ip);
        // The reply unwinds the chain back to the subscriber...
        let d = send_and_deliver(&mut net, SimTime::from_millis(60), p, observed, 2);
        let (to, _, payload) = expect_peer(d);
        assert_eq!((to, payload), (n, 2));
        // ...the oracle agrees with reality...
        assert!(net.reachable(SimTime::from_millis(100), p, n, observed));
        // ...and a stranger is filtered at the carrier already.
        let stranger = net.add_peer(NatClass::Public);
        let d = send_and_deliver(&mut net, SimTime::from_millis(120), stranger, observed, 3);
        assert_eq!(expect_drop(d), DropReason::Filtered);
        // One carrier level is modeled; public peers have no box to front.
        assert!(!net.stack_cgn(n, NatType::PortRestrictedCone));
        assert!(!net.stack_cgn(p, NatType::PortRestrictedCone));
    }

    #[test]
    fn stack_cgn_skips_upnp_forwarded_identity() {
        let mut net = Net::new(NetConfig::default(), 1);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let fwd = net.enable_port_forwarding(n).unwrap();
        assert!(!net.stack_cgn(n, NatType::PortRestrictedCone));
        assert_eq!(net.identity_endpoint(n), fwd);
    }

    #[test]
    fn hairpin_gated_at_the_box() {
        let mut net = Net::new(NetConfig::default(), 1);
        let n = net.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        let own = net.identity_endpoint(n);
        // Self-addressed traffic loops via the box: dropped by default.
        let d = send_and_deliver(&mut net, SimTime::ZERO, n, own, 1);
        assert_eq!(expect_drop(d), DropReason::HairpinBlocked);
        assert_eq!(net.drop_counters().hairpin_blocked, 1);
        // With hairpinning on, the packet is translated back in.
        assert!(net.set_hairpin(n, true));
        let d = send_and_deliver(&mut net, SimTime::from_millis(60), n, own, 2);
        let (to, _, payload) = expect_peer(d);
        assert_eq!((to, payload), (n, 2));
        // Filtering still applies: a source on the box's own IP that `n`
        // never talked to (another host behind it) is rejected by the
        // port-restricted rule even over hairpin.
        let mut f = net.send(SimTime::from_millis(120), n, own, 3, 100).expect("not lost");
        f.src_ep.port = Port(f.src_ep.port.0 + 1);
        assert_eq!(expect_drop(net.deliver(f.arrive_at, f)), DropReason::Filtered);
    }

    #[test]
    fn partition_window_cuts_cross_groups_only() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        let c = net.add_peer(NatClass::Public);
        net.inject_partition(SimTime::from_secs(10), 1);
        // Cross-cut traffic is dropped at send time.
        assert!(net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).is_none());
        assert_eq!(net.drop_counters().partitioned, 1);
        // Same-side traffic flows.
        let d = {
            let ep = net.identity_endpoint(c);
            send_and_deliver(&mut net, SimTime::ZERO, b, ep, 2)
        };
        expect_peer(d);
        // The window heals on schedule.
        let after = SimTime::from_secs(10);
        let d = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, after, a, ep, 3)
        };
        expect_peer(d);
    }

    #[test]
    fn loss_burst_window_drops_then_heals() {
        let mut net = Net::new(NetConfig::default(), 1);
        let a = net.add_peer(NatClass::Public);
        let b = net.add_peer(NatClass::Public);
        net.inject_loss_burst(SimTime::from_secs(5), 1.0, 0xDEAD);
        assert!(net.send(SimTime::ZERO, a, net.identity_endpoint(b), 1, 10).is_none());
        assert_eq!(net.drop_counters().fault_loss, 1);
        // Bytes still accounted: the datagram left the host.
        assert_eq!(net.stats_of(a).msgs_sent, 1);
        let d = {
            let ep = net.identity_endpoint(b);
            send_and_deliver(&mut net, SimTime::from_secs(5), a, ep, 2)
        };
        expect_peer(d);
    }

    #[test]
    fn separate_networks_are_independent() {
        let mk = |seed: u64| {
            let cfg =
                NetConfig { latency_jitter: SimDuration::from_millis(20), ..NetConfig::default() };
            let mut net = Net::new(cfg, seed);
            let a = net.add_peer(NatClass::Public);
            let b = net.add_peer(NatClass::Public);
            let b_ep = net.identity_endpoint(b);
            (0..20)
                .map(|i| {
                    net.send(SimTime::from_millis(i), a, b_ep, 0, 8)
                        .map(|f| f.arrive_at.as_millis())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(5), mk(5), "same seed, same jitter stream");
        assert_ne!(mk(5), mk(6), "different seed, different jitter stream");
    }
}
