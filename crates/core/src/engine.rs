//! The Nylon engine: reactive hole punching over chains of rendez-vous
//! peers, per Figure 6 of the paper.
//!
//! Each peer runs the (push/pull, rand, healer) shuffle of the generic
//! framework, extended with:
//!
//! * a [`crate::routing::RoutingTable`] mapping natted peers
//!   to the RVP that provided them, with chain TTLs (Figure 5);
//! * reactive hole punching: `OPEN_HOLE` forwarded along the RVP chain plus
//!   a direct `PING`, answered by a `PONG` that triggers the actual
//!   `REQUEST` (Figure 6 lines 8–12 and 35–46);
//! * relaying of whole shuffles for the symmetric-NAT combinations where no
//!   hole can be punched (lines 5–7 and 20–22).

use nylon_faults::FaultPlan;
use nylon_gossip::{
    Engine, Host, Intro, MergePolicy, MergeScratch, NodeDescriptor, NodeTable, PartialView,
    Protocol, SelectionPolicy,
};
use nylon_net::{BufferPool, DenseMap, Endpoint, NatClass, NatType, NetConfig, PeerId};
use nylon_obs::Counters;
use nylon_sim::{Share, SimDuration, SimRng, SimTime};

use crate::config::NylonConfig;
use crate::message::{NylonMsg, WireEntry};
use crate::routing::{RouteWork, RoutingTable};

nylon_obs::counters! {
    /// Aggregate Nylon protocol counters.
    pub struct NylonStats {
        /// Shuffle rounds where a target was selected.
        shuffles_initiated,
        /// Rounds skipped for lack of view entries.
        empty_view_rounds,
        /// Shuffles sent directly (public target or live hole).
        direct_requests,
        /// Shuffles relayed end-to-end (symmetric combinations).
        relayed_requests,
        /// Hole punches initiated (OPEN_HOLE sent).
        hole_punches,
        /// Hole punches that completed (PONG received, REQUEST sent).
        punch_successes,
        /// Hole punches abandoned after the punch timeout.
        punch_timeouts,
        /// Rounds lost because a natted target had no live route; the stale
        /// entry is dropped from the view.
        routes_missing,
        /// Messages forwarded on behalf of other peers (RVP duty).
        forwards = "rvp_forwards",
        /// Forwarding attempts without a live route.
        forward_failures = "rvp_forward_failures",
        /// REQUESTs that reached their final destination.
        requests_completed,
        /// RESPONSEs that reached the shuffle initiator.
        responses_completed,
        /// PONGs sent.
        pongs_sent,
        /// Sum of RVP-chain lengths observed at destinations (Figure 9).
        chain_hops_sum,
        /// Number of chain-length samples.
        chain_samples,
        /// Routing-table entries installed from shuffle payloads (Figure 6
        /// `update_routing_table()` upserts).
        routes_installed,
        /// Routing-table entries compacted away after their TTL expired — the
        /// cost center PR 5's profiling named.
        route_ttl_expiries,
        /// Hardened mode: punches re-sent after a timeout (bounded exponential
        /// backoff) instead of being abandoned.
        punch_retries,
        /// Hardened mode: punches that completed on a retry attempt.
        punch_retry_wins,
        /// Hardened mode: observed-endpoint mismatches (a mid-session NAT
        /// rebind) answered with an immediate re-punch PING.
        stale_repunches,
    }
}

impl NylonStats {
    fn record_chain(&mut self, hops: u8) {
        self.chain_hops_sum += hops as u64;
        self.chain_samples += 1;
    }

    /// Mean RVP-chain length towards natted destinations (Figure 9's
    /// y-axis), or `None` if no chain was observed.
    pub fn mean_chain_len(&self) -> Option<f64> {
        if self.chain_samples == 0 {
            None
        } else {
            Some(self.chain_hops_sum as f64 / self.chain_samples as f64)
        }
    }
}

/// State of one outstanding hole punch.
#[derive(Debug, Clone, Copy, Default)]
struct Punch {
    /// When the punch is considered failed.
    deadline: SimTime,
    /// Retries already spent — stays 0 outside hardened mode.
    attempts: u8,
    /// The target's advertised endpoint, kept for retry PINGs.
    addr: Endpoint,
}

/// The ids shipped in one outstanding shuffle, for the swapper merge.
#[derive(Debug, Default)]
struct SentIds {
    /// Past this instant no RESPONSE can arrive (see
    /// [`Nylon::reply_horizon`]) and the round-start sweep drops the entry.
    expires: SimTime,
    ids: Vec<PeerId>,
}

#[derive(Debug)]
struct Node {
    view: PartialView,
    /// Routes *and* observed contact endpoints: the endpoint a direct
    /// route's hole was observed from lives inside the route entry, so a
    /// receive touches one map instead of two.
    routing: RoutingTable,
    /// Outstanding hole punches by target.
    pending_punch: DenseMap<PeerId, Punch>,
    /// Outstanding shuffles by target. More than one can be open at once
    /// (a punch that completes a round late sends its REQUEST next to the
    /// current round's), so unlike the baseline's this is a map — aged out
    /// at round start, because most unanswered requests are never retried.
    pending_sent: DenseMap<PeerId, SentIds>,
    rng: SimRng,
}

/// Hardened mode: total punch tries (initial + retries) before giving up.
const PUNCH_MAX_ATTEMPTS: u32 = 3;

/// Maximum chain-resolution depth when looking up a directly reachable
/// first hop (cycle guard; chains in the paper average < 4).
const MAX_CHAIN_DEPTH: usize = 32;

/// Messages that have been forwarded this many times are dropped
/// (anti-loop backstop; honest chains are far shorter).
const MAX_FORWARD_HOPS: u8 = 12;

/// Takes the punches whose deadline has passed out of `pending`, in target
/// order: their retries draw jitter from the node's stream and send in
/// this order, which must not depend on where the map keeps them.
fn take_expired(pending: &mut DenseMap<PeerId, Punch>, now: SimTime) -> Vec<(PeerId, Punch)> {
    let mut expired = Vec::new();
    pending.retain(|t, punch| {
        let live = punch.deadline > now;
        if !live {
            expired.push((*t, *punch));
        }
        live
    });
    expired.sort_unstable_by_key(|&(t, _)| t);
    expired
}

/// The fabric as the Nylon handlers see it.
type NylonHost = Host<NylonMsg>;

/// The Nylon protocol of Figure 6: the generic shuffle plus routing
/// tables, reactive hole punching and relaying.
#[derive(Debug)]
pub struct Nylon {
    cfg: NylonConfig,
    /// `HOLE_TIMEOUT` of Figure 6: the fabric's NAT rule lifetime, the
    /// TTL every direct route starts from.
    hole_timeout: SimDuration,
    nodes: NodeTable<Node>,
    stats: NylonStats,
    /// Recycled wire-entry buffers: every REQUEST/RESPONSE view travels in
    /// a pooled `Vec<WireEntry>` that returns here once the message is
    /// consumed, so steady-state shuffling allocates nothing (see
    /// `nylon_net::pool`).
    entry_pool: BufferPool<WireEntry>,
    /// Recycled id buffers for the shipped-id lists of the swapper merge.
    id_pool: BufferPool<PeerId>,
    /// Reused scratch for the descriptor projection of a merge.
    scratch_descs: Vec<NodeDescriptor>,
    /// The workspace every merge of this worker runs in.
    merge_scratch: MergeScratch,
    /// Longest a RESPONSE can trail its REQUEST: both may be relayed
    /// [`MAX_FORWARD_HOPS`] times, and every transmission takes at most the
    /// fabric's latency plus jitter.
    reply_horizon: SimDuration,
    /// Graceful-degradation switch, cached off the installed fault plan:
    /// punch retries, stale-mapping re-punch.
    harden: bool,
}

/// The Nylon protocol engine: [`Nylon`] on the shared [`Engine`] host, so
/// the experiment harness can drive it and the baseline interchangeably.
///
/// ```
/// use nylon::{NylonConfig, NylonEngine};
/// use nylon_net::{NatClass, NatType, NetConfig};
///
/// let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), 7);
/// for _ in 0..10 {
///     eng.add_peer(NatClass::Public);
/// }
/// for _ in 0..30 {
///     eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
/// }
/// eng.bootstrap_random_public(8);
/// eng.start();
/// eng.run_rounds(30);
/// assert!(eng.stats().punch_successes > 0, "holes must get punched");
/// ```
pub type NylonEngine = Engine<Nylon>;

impl Nylon {
    /// The routing table of a peer.
    pub fn routing_of(&self, peer: PeerId) -> &RoutingTable {
        &self.nodes[peer].routing
    }

    /// The view as shipped on the wire towards `to`: fresh self-descriptor
    /// first, each natted entry annotated with the sender's remaining
    /// routing TTL.
    ///
    /// Split horizon: entries whose route points *through the receiver*
    /// ship a zero TTL. Without this, two peers that hand each other the
    /// same reference end up with mutually recursive RVP chains (the
    /// distance-vector count-to-infinity problem), and OPEN_HOLE messages
    /// bounce between them instead of reaching the destination.
    fn wire_view(&mut self, host: &NylonHost, peer: PeerId, to: PeerId) -> Vec<WireEntry> {
        let mut out = self.entry_pool.acquire();
        let node = &self.nodes[peer];
        out.reserve(node.view.len() + 1);
        out.push(WireEntry::new(host.descriptor_of(peer), self.hole_timeout, 0));
        for d in node.view.iter() {
            let (ttl, hops) = if d.class.is_public() {
                (SimDuration::ZERO, 0)
            } else {
                match node.routing.entry_of(d.id) {
                    Some(e) if e.rvp == to && d.id != to => (SimDuration::ZERO, 0),
                    Some(e) => (e.ttl, e.hops),
                    None => (SimDuration::ZERO, 0),
                }
            };
            out.push(WireEntry::new(*d, ttl, hops));
        }
        out
    }

    /// A pooled id buffer holding the descriptor ids of `entries` (the
    /// shipped-id list the swapper merge consults).
    fn sent_ids(pool: &mut BufferPool<PeerId>, entries: &[WireEntry]) -> Vec<PeerId> {
        let mut v = pool.acquire();
        v.extend(entries.iter().map(|e| e.descriptor.id));
        v
    }

    /// Records the ids shipped to `target` at `now`, recycling any buffer
    /// left from an earlier, unanswered exchange with the same target.
    fn note_pending_sent(&mut self, now: SimTime, p: PeerId, target: PeerId, ids: Vec<PeerId>) {
        let sent = SentIds { expires: now + self.reply_horizon, ids };
        if let Some(old) = self.nodes[p].pending_sent.insert(target, sent) {
            self.id_pool.release(old.ids);
        }
    }

    /// The endpoint `me` should use to reach `peer` directly: public
    /// identity, else the last observed endpoint, else the advertised
    /// fallback.
    fn contact_ep(
        &self,
        host: &NylonHost,
        me: PeerId,
        peer: PeerId,
        fallback: Option<Endpoint>,
    ) -> Option<Endpoint> {
        if host.net.class_of(peer).is_public() {
            return Some(host.net.identity_endpoint(peer));
        }
        self.nodes[me].routing.contact_of(peer).or(fallback)
    }

    /// Sends a routed message towards `dest` via the first directly
    /// reachable hop of `from`'s RVP chain. Returns `false` (sending
    /// nothing, recycling the message's buffers) if the chain is broken.
    fn route_and_send(
        &mut self,
        host: &mut NylonHost,
        from: PeerId,
        dest: PeerId,
        msg: NylonMsg,
    ) -> bool {
        let hop = {
            let node = &self.nodes[from];
            node.routing.resolve_first_hop(dest, MAX_CHAIN_DEPTH)
        };
        let ep = hop.and_then(|hop| self.contact_ep(host, from, hop, None));
        match ep {
            Some(ep) => {
                host.send_msg(self, from, ep, msg);
                true
            }
            None => {
                self.recycle(msg);
                false
            }
        }
    }

    /// Forwards `msg` one hop along the chain towards `dest` on behalf of
    /// its endpoints (RVP duty), unless it already travelled `hops` hops
    /// too many.
    fn forward(
        &mut self,
        host: &mut NylonHost,
        via: PeerId,
        dest: PeerId,
        hops: u8,
        msg: NylonMsg,
    ) {
        if hops >= MAX_FORWARD_HOPS {
            self.stats.forward_failures += 1;
            self.recycle(msg);
        } else if self.route_and_send(host, via, dest, msg) {
            self.stats.forwards += 1;
        } else {
            self.stats.forward_failures += 1;
        }
    }

    /// Marks `via` as directly reachable: refresh the direct route and
    /// remember the observed endpoint (every `on receive` in Figure 6
    /// starts with `update_next_RVP(p, p, HOLE_TIMEOUT)`).
    ///
    /// Hardened mode adds stale-mapping detection: if the observed
    /// endpoint *moved* (a mid-session NAT rebind re-ported the peer), the
    /// old hole is gone — answer with an immediate PING to the fresh
    /// endpoint so our own NAT opens an egress session towards it, instead
    /// of silently blackholing until TTL death.
    fn touch(&mut self, host: &mut NylonHost, me: PeerId, via: PeerId, observed: Endpoint) {
        if self.harden {
            let prior = self.nodes[me].routing.contact_of(via);
            if prior.is_some_and(|c| c != observed) {
                self.stats.stale_repunches += 1;
                host.send_msg(self, me, observed, NylonMsg::Ping { from: me });
            }
        }
        self.nodes[me].routing.touch_direct(via, self.hole_timeout, observed);
    }

    /// Hardened punch-timeout handling: re-send the OPEN_HOLE + PING pair
    /// with bounded exponential backoff and deterministic jitter from the
    /// node's own RNG stream, up to [`PUNCH_MAX_ATTEMPTS`] total tries.
    fn retry_punch(&mut self, host: &mut NylonHost, p: PeerId, t: PeerId, mut punch: Punch) {
        if u32::from(punch.attempts) + 1 >= PUNCH_MAX_ATTEMPTS {
            self.stats.punch_timeouts += 1;
            return;
        }
        let msg = NylonMsg::OpenHole { src: host.descriptor_of(p), dest: t, via: p, hops: 0 };
        if !self.route_and_send(host, p, t, msg) {
            // The chain died too; nothing left to retry through.
            self.stats.punch_timeouts += 1;
            return;
        }
        punch.attempts += 1;
        self.stats.punch_retries += 1;
        if !host.net.class_of(p).is_public() {
            host.send_msg(self, p, punch.addr, NylonMsg::Ping { from: p });
        }
        let backoff = self.cfg.punch_timeout * (1u64 << punch.attempts.min(6));
        let jitter = {
            let node = &mut self.nodes[p];
            SimDuration::from_millis(
                node.rng.gen_range(0..self.cfg.punch_timeout.as_millis().max(2)),
            )
        };
        punch.deadline = host.now() + backoff + jitter;
        self.nodes[p].pending_punch.insert(t, punch);
    }

    /// A shuffle REQUEST from `p` towards `dest`, shipping `entries`.
    fn request(host: &NylonHost, p: PeerId, dest: PeerId, entries: Vec<WireEntry>) -> NylonMsg {
        NylonMsg::Request { src: host.descriptor_of(p), dest, via: p, hops: 0, entries }
    }

    /// Figure 6, lines 3–12: direct send, relaying, or reactive hole
    /// punching depending on the NAT combination.
    fn initiate(&mut self, host: &mut NylonHost, p: PeerId, target: NodeDescriptor) {
        let t = target.id;
        let self_class = host.net.class_of(p);
        let direct = target.class.is_public() || self.nodes[p].routing.is_direct(t);
        if direct {
            let entries = self.wire_view(host, p, t);
            let sent = Self::sent_ids(&mut self.id_pool, &entries);
            self.note_pending_sent(host.now(), p, t, sent);
            let ep = self
                .contact_ep(host, p, t, Some(target.addr))
                .expect("fallback endpoint always present");
            host.send_msg(self, p, ep, Self::request(host, p, t, entries));
            self.stats.direct_requests += 1;
            return;
        }
        let relaying = (target.class.is_symmetric()
            && self_class == NatClass::Natted(NatType::PortRestrictedCone))
            || self_class.is_symmetric();
        if relaying {
            // Lines 5–7: ship the whole shuffle through the RVP chain.
            let entries = self.wire_view(host, p, t);
            let sent = Self::sent_ids(&mut self.id_pool, &entries);
            let msg = Self::request(host, p, t, entries);
            if self.route_and_send(host, p, t, msg) {
                self.note_pending_sent(host.now(), p, t, sent);
                self.stats.relayed_requests += 1;
            } else {
                self.id_pool.release(sent);
                self.drop_unroutable(p, t);
            }
        } else {
            // Lines 8–12: reactive hole punching.
            let msg = NylonMsg::OpenHole { src: host.descriptor_of(p), dest: t, via: p, hops: 0 };
            if self.route_and_send(host, p, t, msg) {
                self.stats.hole_punches += 1;
                let deadline = host.now() + self.cfg.punch_timeout;
                self.nodes[p]
                    .pending_punch
                    .insert(t, Punch { deadline, attempts: 0, addr: target.addr });
                if !self_class.is_public() {
                    // Open our own hole towards the target (line 11–12); for
                    // symmetric targets the advertised endpoint is a
                    // sentinel the PING cannot reach, but the egress session
                    // it creates is what lets the PONG back in.
                    host.send_msg(self, p, target.addr, NylonMsg::Ping { from: p });
                }
            } else {
                self.drop_unroutable(p, t);
            }
        }
    }

    /// A natted view entry with no live route is unusable: drop it (the
    /// paper keeps views stale-free; Section 5 "no stale references").
    fn drop_unroutable(&mut self, p: PeerId, target: PeerId) {
        self.stats.routes_missing += 1;
        self.nodes[p].view.remove(target);
    }

    /// A relayed message from `origin` reached `me` over `hops` hops with
    /// `via` as last hop: learn the reverse chain towards `origin`, as
    /// long-lived as the observed path.
    fn learn_reverse_chain(&mut self, me: PeerId, origin: PeerId, via: PeerId, hops: u8) {
        let routing = &mut self.nodes[me].routing;
        let via_ttl = routing.ttl_of(via).unwrap_or(SimDuration::ZERO);
        routing.update_next_rvp(origin, via, via_ttl, hops.saturating_add(1));
    }

    /// Figure 6 lines 25–26 / 33–34: merge the received view and install
    /// chain routes with the partner as RVP.
    fn merge_shuffle(
        &mut self,
        me: PeerId,
        partner: PeerId,
        entries: &[WireEntry],
        sent: &[PeerId],
    ) {
        // Reused scratch for the descriptor projection; routes install
        // straight off the wire entries. Neither path allocates in steady
        // state.
        let mut descriptors = std::mem::take(&mut self.scratch_descs);
        descriptors.clear();
        descriptors.extend(entries.iter().map(|e| e.descriptor));
        let node = &mut self.nodes[me];
        node.view.merge_and_truncate_with(
            &descriptors,
            sent,
            MergePolicy::Healer,
            &mut node.rng,
            &mut self.merge_scratch,
        );
        self.stats.routes_installed += node.routing.install_from_shuffle(
            partner,
            entries
                .iter()
                .filter(|e| e.descriptor.class.is_natted())
                .map(|e| (e.descriptor.id, e.ttl, e.hops)),
        );
        self.scratch_descs = descriptors;
    }
}

impl Protocol for Nylon {
    type Config = NylonConfig;
    type Msg = NylonMsg;
    type Stats = NylonStats;

    const NODE_RNG_LABEL: u64 = 0x4E79_6C6F_0000_0000;
    const NET_SEED_SALT: u64 = 0x4E59_4C4F_4E00_0002;
    const JOIN_OPENS_HOLES: bool = true;

    /// `HOLE_TIMEOUT` is the fabric's NAT rule lifetime.
    fn new(cfg: NylonConfig, net_cfg: &NetConfig, share: Share) -> Self {
        let reply_horizon =
            (net_cfg.latency + net_cfg.latency_jitter) * (2 * (u64::from(MAX_FORWARD_HOPS) + 1));
        Nylon {
            cfg,
            hole_timeout: net_cfg.hole_timeout,
            nodes: NodeTable::new(share),
            stats: NylonStats::default(),
            entry_pool: BufferPool::new(),
            id_pool: BufferPool::new(),
            scratch_descs: Vec::new(),
            merge_scratch: MergeScratch::default(),
            reply_horizon,
            harden: false,
        }
    }

    fn shuffle_period(&self) -> SimDuration {
        self.cfg.shuffle_period
    }

    fn stats(&self) -> NylonStats {
        self.stats
    }

    fn add_node(&mut self, id: PeerId, rng: SimRng) {
        self.nodes.push(
            id,
            Node {
                view: PartialView::new(id, self.cfg.view_size),
                routing: RoutingTable::new(id),
                pending_punch: DenseMap::new(),
                pending_sent: DenseMap::new(),
                rng,
            },
        );
    }

    fn view_of(&self, peer: PeerId) -> &PartialView {
        &self.nodes[peer].view
    }

    fn view_of_mut(&mut self, peer: PeerId) -> &mut PartialView {
        &mut self.nodes[peer].view
    }

    fn rng_of(&mut self, peer: PeerId) -> &mut SimRng {
        &mut self.nodes[peer].rng
    }

    /// The join handshake: the contact enters the view — with a direct
    /// route through the hole pre-opened towards it, when the join opened
    /// one (see [`nylon_net::Network::open_bootstrap_hole`]; a population
    /// without public peers bootstraps this way).
    fn join_contact(&mut self, _host: &mut NylonHost, p: PeerId, contact: &Intro) {
        let node = &mut self.nodes[p];
        node.view.insert(contact.descriptor);
        if let Some(ep) = contact.hole {
            node.routing.touch_direct(contact.descriptor.id, self.hole_timeout, ep);
        }
    }

    /// Figure 6, lines 1–14.
    fn on_round(&mut self, host: &mut NylonHost, p: PeerId) {
        let now = host.now();
        // Expire abandoned hole punches (skip the bucket walk when no
        // punch is outstanding — the common case for public peers).
        let node = &mut self.nodes[p];
        if !node.pending_punch.is_empty() {
            if self.harden {
                for (t, punch) in take_expired(&mut node.pending_punch, now) {
                    self.retry_punch(host, p, t, punch);
                }
            } else {
                let before = node.pending_punch.len();
                node.pending_punch.retain(|_, punch| punch.deadline > now);
                self.stats.punch_timeouts += (before - node.pending_punch.len()) as u64;
            }
        }
        // Forget shuffles whose RESPONSE can no longer arrive.
        let node = &mut self.nodes[p];
        if !node.pending_sent.is_empty() {
            let id_pool = &mut self.id_pool;
            node.pending_sent.retain(|_, sent| {
                let open = sent.expires > now;
                if !open {
                    id_pool.release(std::mem::take(&mut sent.ids));
                }
                open
            });
        }
        let target = {
            let node = &mut self.nodes[p];
            node.view.select_target(SelectionPolicy::Rand, &mut node.rng)
        };
        match target {
            None => self.stats.empty_view_rounds += 1,
            Some(target) => {
                host.log_sample(p, target.id);
                self.stats.shuffles_initiated += 1;
                self.initiate(host, p, target);
            }
        }
        let node = &mut self.nodes[p];
        node.view.increase_age();
        self.stats.route_ttl_expiries += node.routing.decrease_ttls(self.cfg.shuffle_period);
    }

    /// Figure 6's `on receive`.
    fn on_msg(&mut self, host: &mut NylonHost, to: PeerId, from_ep: Endpoint, msg: NylonMsg) {
        match msg {
            NylonMsg::Request { src, dest, via, hops, entries } => {
                self.touch(host, to, via, from_ep);
                if dest != to {
                    // Lines 17–19: forward along the chain.
                    let hops_next = hops.saturating_add(1);
                    let msg = NylonMsg::Request { src, dest, via: to, hops: hops_next, entries };
                    return self.forward(host, to, dest, hops, msg);
                }
                self.stats.requests_completed += 1;
                let relayed = via != src.id;
                if relayed {
                    self.stats.record_chain(hops);
                    self.learn_reverse_chain(to, src.id, via, hops);
                }
                // Lines 20–24: answer.
                let to_class = host.net.class_of(to);
                let resp_entries = self.wire_view(host, to, src.id);
                let resp_sent = Self::sent_ids(&mut self.id_pool, &resp_entries);
                let resp = NylonMsg::Response {
                    from: to,
                    dest: src.id,
                    via: to,
                    hops: 0,
                    entries: resp_entries,
                };
                if !relayed {
                    // The hole to the initiator is open: answer through it.
                    host.send_msg(self, to, from_ep, resp);
                } else {
                    let relay_resp = (src.class.is_symmetric() && !to_class.is_public())
                        || (to_class.is_symmetric() && !src.class.is_public());
                    let sent_ok = if relay_resp {
                        self.route_and_send(host, to, src.id, resp)
                    } else {
                        // Defensive fallback; per the traversal analysis a
                        // relayed request implies the relay_resp condition.
                        host.send_msg(self, to, src.addr, resp);
                        true
                    };
                    if !sent_ok {
                        self.stats.forward_failures += 1;
                    }
                }
                // Lines 25–26: merge and learn routes.
                self.merge_shuffle(to, src.id, &entries, &resp_sent);
                self.id_pool.release(resp_sent);
                self.entry_pool.release(entries);
            }
            NylonMsg::Response { from, dest, via, hops, entries } => {
                self.touch(host, to, via, from_ep);
                if dest != to {
                    // Lines 29–31 (forwarding the *received* payload; the
                    // paper's line 31 has a typo shipping the relay's own
                    // view).
                    let hops_next = hops.saturating_add(1);
                    let msg = NylonMsg::Response { from, dest, via: to, hops: hops_next, entries };
                    return self.forward(host, to, dest, hops, msg);
                }
                self.stats.responses_completed += 1;
                if via != from {
                    self.learn_reverse_chain(to, from, via, hops);
                }
                let sent = self.nodes[to].pending_sent.remove(&from).unwrap_or_default();
                self.merge_shuffle(to, from, &entries, &sent.ids);
                self.id_pool.release(sent.ids);
                self.entry_pool.release(entries);
            }
            NylonMsg::OpenHole { src, dest, via, hops } => {
                self.touch(host, to, via, from_ep);
                if dest != to {
                    // Line 40: forward along the chain.
                    let msg =
                        NylonMsg::OpenHole { src, dest, via: to, hops: hops.saturating_add(1) };
                    return self.forward(host, to, dest, hops, msg);
                }
                // Lines 37–38: we are the punch target; PONG opens our hole
                // towards the initiator. Chain length sample for Figure 9.
                self.stats.record_chain(hops);
                self.stats.pongs_sent += 1;
                host.send_msg(self, to, src.addr, NylonMsg::Pong { from: to });
            }
            NylonMsg::Ping { from } => {
                // Lines 41–43.
                self.touch(host, to, from, from_ep);
                self.stats.pongs_sent += 1;
                host.send_msg(self, to, from_ep, NylonMsg::Pong { from: to });
            }
            NylonMsg::Pong { from } => {
                // Lines 44–46, restricted to punches we actually have
                // pending: a PING/OPEN_HOLE pair can produce two PONGs and
                // the unconditional REQUEST of the pseudocode would then
                // shuffle twice in one round.
                self.touch(host, to, from, from_ep);
                if let Some(punch) = self.nodes[to].pending_punch.remove(&from) {
                    self.stats.punch_successes += 1;
                    if punch.attempts > 0 {
                        self.stats.punch_retry_wins += 1;
                    }
                    let entries = self.wire_view(host, to, from);
                    let sent = Self::sent_ids(&mut self.id_pool, &entries);
                    self.note_pending_sent(host.now(), to, from, sent);
                    host.send_msg(self, to, from_ep, Self::request(host, to, from, entries));
                }
            }
        }
    }

    fn payload_bytes(&self, msg: &NylonMsg) -> u32 {
        msg.payload_bytes()
    }

    fn recycle(&mut self, msg: NylonMsg) {
        match msg {
            NylonMsg::Request { entries, .. } | NylonMsg::Response { entries, .. } => {
                self.entry_pool.release(entries)
            }
            NylonMsg::OpenHole { .. } | NylonMsg::Ping { .. } | NylonMsg::Pong { .. } => {}
        }
    }

    /// An entry is usable when the target is alive and either public or
    /// reachable through a live *route* (direct hole or RVP chain):
    /// reachability through relays is the protocol's whole point, so the
    /// oracle asks the routing table, not the raw NAT state.
    fn edge_usable(
        &self,
        host: &NylonHost,
        _target_host: &NylonHost,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        d.id.index() < host.net.peer_count()
            && host.net.is_alive(d.id)
            && (d.class.is_public() || self.routing_of(holder).next_rvp(d.id).is_some())
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.entry_pool.obs_report(out);
        self.id_pool.obs_report(out);
        let s = &self.stats;
        s.report(out, "engine.nylon");
        let pending: usize = self.nodes.iter().map(|n| n.pending_sent.len()).sum();
        out.gauge_sum("engine.nylon", "pending_exchanges", pending as u64);
        // Routing storage health: snapshot-time walk over every node's
        // table (read-only — the hot path carries no histogram state).
        let mut probe = nylon_obs::Histogram::new();
        let (mut entries, mut capacity, mut reclaimed_early) = (0u64, 0u64, 0u64);
        let mut work = RouteWork::default();
        for node in &self.nodes {
            let (len, cap) = node.routing.probe_stats(&mut probe);
            entries += len;
            capacity += cap;
            reclaimed_early += node.routing.reclaimed_early();
            let w = node.routing.work();
            work.sweeps += w.sweeps;
            work.sweep_slots += w.sweep_slots;
            work.rebuilds += w.rebuilds;
            work.rebuild_slots += w.rebuild_slots;
        }
        out.counter("routing", "installs", s.routes_installed);
        out.counter("routing", "ttl_expiries", s.route_ttl_expiries);
        out.counter("routing", "reclaimed_early", reclaimed_early);
        out.counter("routing", "sweeps", work.sweeps);
        out.counter("routing", "sweep_slots", work.sweep_slots);
        out.counter("routing", "rebuilds", work.rebuilds);
        out.counter("routing", "rebuild_slots", work.rebuild_slots);
        out.gauge_sum("routing", "entries", entries);
        out.gauge_sum("routing", "slots", capacity);
        out.gauge_sum("routing", "slot_bytes", capacity * RoutingTable::SLOT_BYTES as u64);
        let snap = probe.snapshot();
        if snap.count > 0 {
            out.histogram("routing", "probe_len", snap);
        }
    }

    /// A peer killed for good never reads its routing table or pending
    /// maps again: free them on the spot instead of carrying them to the
    /// end of the run (the view stays: dead peers keep their last view).
    fn on_kill(&mut self, peer: PeerId) {
        let node = &mut self.nodes[peer];
        node.routing.release();
        node.pending_punch = DenseMap::new();
        for (_, sent) in std::mem::take(&mut node.pending_sent).iter_mut() {
            self.id_pool.release(std::mem::take(&mut sent.ids));
        }
    }

    /// The routing clock runs through an outage: the NAT holes behind a
    /// down peer's routes close on schedule, so the routes must lapse on
    /// schedule too. Purges on a dead peer's table are not protocol events
    /// and stay out of the counters.
    fn on_idle_round(&mut self, peer: PeerId) {
        self.nodes[peer].routing.decrease_ttls(self.cfg.shuffle_period);
    }

    fn on_fault_plan(&mut self, plan: &FaultPlan) {
        self.harden = plan.harden;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The population, not yet bootstrapped or started.
    fn mixed_population(
        publics: usize,
        rc: usize,
        prc: usize,
        sym: usize,
        seed: u64,
    ) -> NylonEngine {
        let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), seed);
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..rc {
            eng.add_peer(NatClass::Natted(NatType::RestrictedCone));
        }
        for _ in 0..prc {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        for _ in 0..sym {
            eng.add_peer(NatClass::Natted(NatType::Symmetric));
        }
        eng
    }

    fn mixed_engine(publics: usize, rc: usize, prc: usize, sym: usize, seed: u64) -> NylonEngine {
        let mut eng = mixed_population(publics, rc, prc, sym, seed);
        eng.bootstrap_random_public(8);
        eng.start();
        eng
    }

    #[test]
    fn views_fill_and_shuffles_complete() {
        let mut eng = mixed_engine(10, 20, 15, 5, 1);
        eng.run_rounds(40);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(!eng.view_of(p).is_empty(), "empty view at {p}");
        }
        let s = eng.stats();
        assert!(s.requests_completed > 0);
        assert!(s.responses_completed > 0);
        assert!(s.hole_punches > 0, "natted targets must trigger punches");
        assert!(s.punch_successes > 0);
    }

    #[test]
    fn natted_peers_get_sampled() {
        let mut eng = mixed_engine(10, 20, 15, 5, 2);
        eng.run_rounds(60);
        let natted_refs: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.view_of(*p).iter().filter(|d| d.class.is_natted()).count())
            .sum();
        let total_refs: usize =
            eng.alive_peers().collect::<Vec<_>>().iter().map(|p| eng.view_of(*p).len()).sum();
        // 80 % of peers are natted; their share of references must be
        // substantial (the whole point of Nylon vs Figure 4's baseline).
        let ratio = natted_refs as f64 / total_refs as f64;
        assert!(ratio > 0.5, "natted reference ratio {ratio:.2} too low");
    }

    #[test]
    fn chains_are_short() {
        let mut eng = mixed_engine(5, 25, 15, 5, 3);
        eng.run_rounds(60);
        let mean = eng.stats().mean_chain_len().expect("chains must be observed");
        assert!(mean >= 1.0, "chain length below 1: {mean}");
        assert!(mean < 6.0, "chains unexpectedly long: {mean}");
    }

    #[test]
    fn relaying_used_for_symmetric_combinations() {
        // Lots of SYM peers force relayed shuffles.
        let mut eng = mixed_engine(5, 0, 10, 25, 4);
        eng.run_rounds(50);
        assert!(eng.stats().relayed_requests > 0, "SYM initiators must relay");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut eng = mixed_engine(10, 15, 10, 5, seed);
            eng.run_rounds(30);
            (eng.stats(), eng.net().drop_counters())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn survives_total_churn_of_half_the_network() {
        let mut eng = mixed_engine(10, 20, 15, 5, 5);
        eng.run_rounds(30);
        let alive: Vec<PeerId> = eng.alive_peers().collect();
        eng.kill_peers(&alive[..25]);
        eng.run_rounds(30);
        // Survivors keep shuffling successfully.
        let before = eng.stats().requests_completed;
        eng.run_rounds(10);
        assert!(eng.stats().requests_completed > before, "gossip stalled after churn");
    }

    #[test]
    fn killed_peers_release_their_storage() {
        // No fault plan, so no Revive: a kill wave must free the victims'
        // tables and pending maps, and leave the run byte-for-byte what it
        // was (the victims never read them again). The reference run
        // installs an empty fault plan, under which kills stay revocable
        // and nothing is released.
        let run = |release: bool| {
            let mut eng = mixed_population(10, 20, 15, 5, 5);
            if !release {
                let classes: Vec<NatClass> =
                    (0..50).map(|i| eng.net().class_of(PeerId(i))).collect();
                let cfg = nylon_faults::FaultConfig::default();
                eng.install_fault_plan(FaultPlan::compile(&cfg, 5, &classes));
            }
            eng.bootstrap_random_public(8);
            eng.start();
            eng.run_rounds(30);
            let victims: Vec<PeerId> = eng.alive_peers().take(25).collect();
            eng.kill_peers(&victims);
            for v in victims.iter().filter(|_| release) {
                let node = &eng.protocol().nodes[*v];
                assert_eq!(node.routing.probe_stats(&mut nylon_obs::Histogram::new()), (0, 0));
                assert_eq!(node.pending_punch.capacity() + node.pending_sent.capacity(), 0);
                assert!(!node.view.is_empty(), "dead peers keep their last view");
            }
            eng.run_rounds(30);
            let views: Vec<Vec<PeerId>> = (0..50).map(|i| eng.view_of(PeerId(i)).ids()).collect();
            (eng.stats(), eng.net().drop_counters(), views)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn revived_peer_resumes_with_its_routes_aged_by_the_outage() {
        use nylon_faults::{FaultEvent, FaultKind};
        // Everyone crashes after 20 rounds, so nothing refreshes anything;
        // one natted peer comes back once every hole has timed out.
        let cfg = NylonConfig::default();
        let (victim, down) = (PeerId(20), SimTime::ZERO + cfg.shuffle_period * 20);
        let up = down + NetConfig::default().hole_timeout + cfg.shuffle_period;
        let mut events: Vec<FaultEvent> =
            (0..50).map(|i| FaultEvent { at: down, kind: FaultKind::Crash(PeerId(i)) }).collect();
        events.push(FaultEvent { at: up, kind: FaultKind::Revive(victim) });
        let mut eng = mixed_population(10, 20, 15, 5, 7);
        eng.install_fault_plan(FaultPlan { events, ..FaultPlan::default() });
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_for(down - SimTime::ZERO);
        assert!(eng.protocol().routing_of(victim).len() > 10, "no routes to lose");
        eng.run_for(up - down + SimDuration::from_millis(1));
        assert!(eng.net().is_alive(victim));
        let live: Vec<PeerId> = eng.protocol().routing_of(victim).iter().map(|(d, _)| d).collect();
        assert!(live.is_empty(), "routes outlived a {:?} outage: {live:?}", up - down);
    }

    #[test]
    fn hundred_percent_nat_bootstrap_works() {
        let mut eng = NylonEngine::new(NylonConfig::default(), NetConfig::default(), 6);
        for _ in 0..25 {
            eng.add_peer(NatClass::Natted(NatType::RestrictedCone));
        }
        for _ in 0..20 {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        for _ in 0..5 {
            eng.add_peer(NatClass::Natted(NatType::Symmetric));
        }
        eng.bootstrap_random_public(8); // falls back to pre-opened holes
        eng.start();
        eng.run_rounds(40);
        assert!(eng.stats().requests_completed > 0, "no shuffle completed at 100% NAT");
        let nonempty = eng.alive_peers().filter(|p| !eng.view_of(*p).is_empty()).count();
        assert_eq!(nonempty, 50);
    }

    #[test]
    fn join_after_start_gets_integrated() {
        let mut eng = mixed_engine(10, 15, 10, 5, 7);
        eng.run_rounds(15);
        let contact = eng.alive_peers().next().unwrap();
        let newbie =
            eng.add_peer_with_bootstrap(NatClass::Natted(NatType::PortRestrictedCone), &[contact]);
        eng.run_rounds(30);
        assert!(!eng.view_of(newbie).is_empty());
        let known = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .filter(|p| eng.view_of(**p).contains(newbie))
            .count();
        assert!(known > 0, "joining natted peer never advertised");
    }

    #[test]
    fn routing_tables_stay_bounded() {
        let mut eng = mixed_engine(10, 20, 15, 5, 8);
        eng.run_rounds(80);
        // TTL purging bounds the table: at most hole_timeout/period rounds
        // of view-size insertions.
        let bound = (90 / 5 + 1) * (15 + 1) * 2;
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let len = eng.protocol().routing_of(p).len();
            assert!(len <= bound, "routing table of {p} grew to {len}");
        }
    }

    #[test]
    fn pure_public_population_never_punches() {
        let mut eng = mixed_engine(30, 0, 0, 0, 11);
        eng.run_rounds(20);
        let s = eng.stats();
        assert_eq!(s.hole_punches, 0);
        assert_eq!(s.relayed_requests, 0);
        assert!(s.direct_requests > 0);
    }

    #[test]
    fn direct_routes_live_as_long_as_the_fabric_holes() {
        let hole = SimDuration::from_secs(30);
        let net_cfg = NetConfig { hole_timeout: hole, ..NetConfig::default() };
        let mut eng = NylonEngine::new(NylonConfig::default(), net_cfg, 1);
        for _ in 0..10 {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..30 {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(20);
        let mut direct = 0;
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let routing = eng.protocol().routing_of(p);
            for (dest, e) in routing.iter().filter(|(d, _)| routing.is_direct(*d)) {
                assert!(e.ttl <= hole, "{p}'s direct route to {dest} lives {:?}", e.ttl);
                direct += 1;
            }
        }
        assert!(direct > 0, "no direct route to check");
    }

    #[test]
    fn punches_toward_dead_targets_time_out() {
        let mut eng = mixed_engine(10, 25, 10, 5, 21);
        eng.run_rounds(20);
        // Kill all natted peers: pending punches towards them can never
        // complete, and the punch-timeout path must reclaim them.
        let victims: Vec<PeerId> =
            eng.alive_peers().filter(|p| eng.net().class_of(*p).is_natted()).collect();
        eng.kill_peers(&victims);
        eng.run_rounds(20);
        let s = eng.stats();
        assert!(s.punch_timeouts > 0, "dead targets must produce punch timeouts");
        // No pending state leaks: punches either succeeded or timed out.
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(
                eng.protocol().nodes[p].pending_punch.len() <= 1,
                "pending punches not reclaimed at {p}"
            );
        }
    }

    #[test]
    fn expired_punches_retry_in_target_order() {
        // The same outstanding punches, filled in two orders, so colliding
        // targets sit in different slots: the retries come out the same.
        let punch = |i: u32| Punch {
            deadline: SimTime::from_millis(if i % 3 == 0 { 9_000 } else { u64::from(i) }),
            attempts: 0,
            addr: Endpoint::default(),
        };
        let now = SimTime::from_millis(5_000);
        let retried = |order: &mut dyn Iterator<Item = u32>| {
            let mut pending = DenseMap::new();
            for i in order {
                pending.insert(PeerId(i), punch(i));
            }
            let expired = take_expired(&mut pending, now);
            let kept: Vec<PeerId> =
                (1..=48).map(PeerId).filter(|t| pending.contains_key(t)).collect();
            (expired.iter().map(|&(t, p)| (t, p.deadline)).collect::<Vec<_>>(), kept)
        };
        let (forward, backward) = (retried(&mut (1..=48)), retried(&mut (1..=48).rev()));
        assert_eq!(forward, backward);
        let targets: Vec<PeerId> = forward.0.iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, (1..=48).filter(|i| i % 3 != 0).map(PeerId).collect::<Vec<_>>());
        assert_eq!(forward.1, (1..=48).filter(|i| i % 3 == 0).map(PeerId).collect::<Vec<_>>());
    }

    #[test]
    fn unroutable_targets_are_dropped_from_views() {
        let mut eng = mixed_engine(10, 25, 10, 5, 23);
        eng.run_rounds(30);
        // Killing most of the network leaves survivors with natted view
        // entries whose routes expire; shuffling towards them must drop
        // the entries and count the lost rounds.
        let alive: Vec<PeerId> = eng.alive_peers().collect();
        eng.kill_peers(&alive[..40]);
        eng.run_rounds(40);
        assert!(
            eng.stats().routes_missing > 0,
            "route expiry must surface as dropped view entries"
        );
        assert!(eng.stats().requests_completed > 0);
    }

    #[test]
    fn sample_log_records_only_when_enabled() {
        let mut eng = mixed_engine(10, 10, 5, 0, 25);
        eng.run_rounds(5);
        assert!(eng.sample_log().is_none());
        eng.enable_sample_log();
        eng.run_rounds(5);
        let len = eng.sample_log().map(|l| l.len()).unwrap_or(0);
        assert!(len > 0, "enabled log must record selections");
        // Logged ids are valid peers.
        for id in eng.sample_log().unwrap() {
            assert!((id as usize) < eng.net().peer_count());
        }
    }

    #[test]
    fn relays_forward_for_third_parties() {
        // With many SYM peers, relayed REQUESTs traverse intermediate
        // peers, which must account forwards.
        let mut eng = mixed_engine(6, 0, 0, 34, 27);
        eng.run_rounds(50);
        let s = eng.stats();
        assert!(s.forwards > 0, "RVP duty must be exercised");
        assert!(s.relayed_requests > 0);
    }

    #[test]
    fn views_never_contain_dead_entries_forever() {
        let mut eng = mixed_engine(10, 20, 10, 0, 29);
        eng.run_rounds(30);
        let victims: Vec<PeerId> = eng.alive_peers().take(20).collect();
        eng.kill_peers(&victims);
        // Healer aging pushes dead entries out within ~view_size rounds of
        // fresh inflow.
        eng.run_rounds(60);
        let dead_refs: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.view_of(*p).iter().filter(|d| !eng.net().is_alive(d.id)).count())
            .sum();
        let total_refs: usize =
            eng.alive_peers().collect::<Vec<_>>().iter().map(|p| eng.view_of(*p).len()).sum();
        let ratio = dead_refs as f64 / total_refs.max(1) as f64;
        assert!(ratio < 0.2, "dead references linger: {ratio:.2}");
    }

    #[test]
    fn no_message_storms() {
        // The per-peer message rate must stay within a small constant of
        // the shuffle rate: 1 request + 1 response + punch traffic + relay
        // duty. A routing loop would blow this up.
        let mut eng = mixed_engine(10, 20, 15, 5, 31);
        eng.run_rounds(60);
        let alive = eng.alive_peers().count() as f64;
        let msgs: u64 = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.net().stats_of(*p).msgs_sent)
            .sum();
        let per_peer_per_round = msgs as f64 / alive / 60.0;
        assert!(
            per_peer_per_round < 8.0,
            "message amplification too high: {per_peer_per_round:.1} msgs/peer/round"
        );
    }
}
