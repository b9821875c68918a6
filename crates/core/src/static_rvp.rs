//! The "static public RVP" strawman of Section 4, as an ablation baseline.
//!
//! The paper considers — and rejects — the straightforward fix for NATs:
//! bind every natted peer to one *public* rendez-vous peer that relays all
//! its shuffles. The scheme works, but (i) "the extra load induced by the
//! presence of NATs is supported by the public peers", and (ii) a public
//! peer's failure invalidates every reference to the natted peers bound to
//! it.
//!
//! This module implements that scheme so the load-distribution claim can be
//! measured (ablation `abl-rvp`, README "Reproducing the paper"): compare
//! [`nylon_net::Network::stats_of`] by NAT class against Nylon's Figure 8.
//!
//! Design notes: descriptors travel annotated with the peer's current RVP;
//! natted peers refresh their hole to their RVP with a PING every shuffle
//! period (proactive keep-alive, unlike Nylon's reactive punching) and
//! re-bind to a fresh public peer if their RVP dies.

use nylon_faults::FaultPlan;
use nylon_gossip::{
    Engine, Host, Intro, MergePolicy, MergeScratch, NodeDescriptor, NodeTable, PartialView,
    Protocol, SamplerConfig, SelectionPolicy,
};
use nylon_net::{BufferPool, DenseMap, Endpoint, NetConfig, PeerId};
use nylon_obs::Counters;
use nylon_sim::{FxHashSet, Share, SimDuration, SimRng};

use crate::message::{ENTRY_BYTES, HEADER_BYTES, ROUTING_BYTES};

/// A descriptor annotated with the peer's RVP binding (`None` for public
/// peers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundDescriptor {
    /// The peer descriptor.
    pub descriptor: NodeDescriptor,
    /// The public peer relaying for it, if natted.
    pub rvp: Option<PeerId>,
}

/// Wire messages of the static-RVP scheme.
#[derive(Debug, Clone)]
pub enum StaticRvpMsg {
    /// A shuffle request, possibly relayed by the target's RVP.
    Request {
        /// Initiator (with its RVP, so the response can be routed back).
        src: BoundDescriptor,
        /// Final destination.
        dest: PeerId,
        /// Shipped view.
        entries: Vec<BoundDescriptor>,
    },
    /// A shuffle response, possibly relayed by the initiator's RVP.
    Response {
        /// Responder.
        from: PeerId,
        /// Final destination (the initiator).
        dest: PeerId,
        /// Shipped view.
        entries: Vec<BoundDescriptor>,
    },
    /// Keep-alive from a natted peer to its RVP.
    Ping {
        /// The natted client.
        from: PeerId,
    },
}

nylon_obs::counters! {
    /// Counters for the static-RVP scheme.
    pub struct StaticRvpStats {
        /// Shuffle rounds with a selected target.
        shuffles_initiated,
        /// Rounds skipped for lack of view entries.
        empty_view_rounds,
        /// Messages relayed by public RVPs.
        relays = "rvp_relays",
        /// Relay attempts towards unknown/dead clients.
        relay_failures = "rvp_relay_failures",
        /// Keep-alive PINGs sent.
        pings_sent,
        /// REQUESTs that reached their destination.
        requests_completed,
        /// RESPONSEs that reached the initiator.
        responses_completed,
        /// Natted peers that re-bound after their RVP died.
        rebinds,
        /// Hardened mode: proactive re-binds after repeated relay silence,
        /// before the TTL ever declares the RVP dead.
        failovers = "rvp_failovers",
    }
}

#[derive(Debug)]
struct Node {
    view: PartialView,
    /// RVP binding for natted peers.
    rvp: Option<PeerId>,
    /// For public peers: observed endpoints of natted clients bound to us.
    clients: DenseMap<PeerId, Endpoint>,
    /// The one outstanding shuffle: the target plus the ids shipped to it.
    /// A new round abandons it — the same as remembering every unanswered
    /// request as long as a reply (at most four relay hops) takes less
    /// than one shuffle period.
    pending: Option<(PeerId, Vec<PeerId>)>,
    rng: SimRng,
    /// RVP annotations learned alongside view entries.
    bindings: DenseMap<PeerId, Option<PeerId>>,
    /// Hardened mode: shuffle rounds since the last RESPONSE made it back.
    silent_rounds: u8,
}

/// Hardened mode: after this many consecutive shuffle rounds with no
/// RESPONSE arriving, a natted peer assumes its relay path is dead (stale
/// hole, silently crashed RVP) and re-registers with a different RVP.
const FAILOVER_SILENT_ROUNDS: u8 = 3;

/// Configuration of the static-RVP scheme. Its shuffles are always the
/// paper's (push/pull, rand, healer), so only the view size and the period
/// are settable.
#[derive(Debug, Clone)]
pub struct StaticRvpConfig {
    /// Maximum number of view entries.
    pub view_size: usize,
    /// Interval between two shuffles initiated by a peer.
    pub shuffle_period: SimDuration,
}

impl Default for StaticRvpConfig {
    fn default() -> Self {
        StaticRvpConfig { view_size: 15, shuffle_period: SimDuration::from_secs(5) }
    }
}

impl SamplerConfig for StaticRvpConfig {
    type Sampler = StaticRvpEngine;

    fn set_view_size(&mut self, view_size: usize) {
        self.view_size = view_size;
    }
}

/// The fabric as the static-RVP handlers see it.
type RvpHost = Host<StaticRvpMsg>;

/// The static-RVP strawman; see the module docs.
#[derive(Debug)]
pub struct StaticRvp {
    cfg: StaticRvpConfig,
    nodes: NodeTable<Node>,
    stats: StaticRvpStats,
    /// Recycled wire-view buffers (see `nylon_net::pool`): steady-state
    /// shuffling allocates nothing.
    entry_pool: BufferPool<BoundDescriptor>,
    /// Recycled id buffers for the shipped-id lists.
    id_pool: BufferPool<PeerId>,
    /// Reused scratch for the descriptor projection of a merge.
    scratch_descs: Vec<NodeDescriptor>,
    /// The workspace every merge of this worker runs in.
    merge_scratch: MergeScratch,
    /// Reused scratch for the binding-cache keep set (merge truncation).
    scratch_keep: FxHashSet<PeerId>,
    /// Graceful-degradation mode from the fault plan: silence-based RVP
    /// failover instead of waiting for TTL death.
    harden: bool,
}

/// Engine for the static-RVP strawman: [`StaticRvp`] on the shared
/// [`Engine`] host.
pub type StaticRvpEngine = Engine<StaticRvp>;

impl StaticRvp {
    fn self_descriptor(&self, host: &RvpHost, peer: PeerId) -> BoundDescriptor {
        BoundDescriptor { descriptor: host.descriptor_of(peer), rvp: self.nodes[peer].rvp }
    }

    fn wire_view(&mut self, host: &RvpHost, peer: PeerId) -> Vec<BoundDescriptor> {
        let mut out = self.entry_pool.acquire();
        let node = &self.nodes[peer];
        out.reserve(node.view.len() + 1);
        out.push(self.self_descriptor(host, peer));
        for d in node.view.iter() {
            let rvp = node.bindings.get(&d.id).copied().flatten();
            out.push(BoundDescriptor { descriptor: *d, rvp });
        }
        out
    }

    /// A pooled id buffer holding the descriptor ids of `entries`.
    fn sent_ids(&mut self, entries: &[BoundDescriptor]) -> Vec<PeerId> {
        let mut sent = self.id_pool.acquire();
        sent.extend(entries.iter().map(|e| e.descriptor.id));
        sent
    }

    /// Keep-alive / re-bind: a natted peer pings its RVP every period.
    /// Returns `false` when no RVP is available and the round is lost.
    fn keep_alive(&mut self, host: &mut RvpHost, p: PeerId) -> bool {
        let rvp_dead = self.nodes[p].rvp.is_none_or(|r| !host.net.is_alive(r));
        if rvp_dead {
            let publics = host.alive_publics();
            let node = &mut self.nodes[p];
            let Some(rvp) = node.rng.pick(&publics) else { return false };
            node.rvp = Some(*rvp);
            node.silent_rounds = 0;
            self.stats.rebinds += 1;
        } else if self.harden && self.nodes[p].silent_rounds >= FAILOVER_SILENT_ROUNDS {
            // Silence-based failover: the RVP looks alive by TTL but no
            // RESPONSE has made it back for several rounds — its relay
            // state (our hole, its client table) may be stale. Re-register
            // with a different live RVP from the view rather than
            // blackholing until the TTL catches up.
            let cur = self.nodes[p].rvp;
            let mut candidates: Vec<PeerId> = self.nodes[p]
                .view
                .iter()
                .filter(|d| d.class.is_public())
                .map(|d| d.id)
                .filter(|q| Some(*q) != cur && host.net.is_alive(*q))
                .collect();
            if candidates.is_empty() {
                candidates = host.alive_publics();
                candidates.retain(|q| Some(*q) != cur);
            }
            let node = &mut self.nodes[p];
            if let Some(rvp) = node.rng.pick(&candidates) {
                node.rvp = Some(*rvp);
                self.stats.failovers += 1;
            }
            node.silent_rounds = 0;
        }
        let node = &mut self.nodes[p];
        if self.harden {
            node.silent_rounds = node.silent_rounds.saturating_add(1);
        }
        let rvp_ep = host.net.identity_endpoint(node.rvp.expect("just bound"));
        self.stats.pings_sent += 1;
        host.send_msg(self, p, rvp_ep, StaticRvpMsg::Ping { from: p });
        true
    }

    /// RVP duty: forward `msg` through the hole of client `dest`.
    fn relay(&mut self, host: &mut RvpHost, rvp: PeerId, dest: PeerId, msg: StaticRvpMsg) {
        match self.nodes[rvp].clients.get(&dest).copied() {
            Some(client_ep) => {
                self.stats.relays += 1;
                host.send_msg(self, rvp, client_ep, msg);
            }
            None => {
                self.stats.relay_failures += 1;
                self.recycle(msg);
            }
        }
    }

    fn merge(&mut self, me: PeerId, entries: &[BoundDescriptor], sent: &[PeerId]) {
        let mut descriptors = std::mem::take(&mut self.scratch_descs);
        let mut keep = std::mem::take(&mut self.scratch_keep);
        descriptors.clear();
        descriptors.extend(entries.iter().map(|e| e.descriptor));
        let node = &mut self.nodes[me];
        for e in entries {
            if e.descriptor.id != me {
                node.bindings.insert(e.descriptor.id, e.rvp);
            }
        }
        node.view.merge_and_truncate_with(
            &descriptors,
            sent,
            MergePolicy::Healer,
            &mut node.rng,
            &mut self.merge_scratch,
        );
        // Bound the binding cache: keep only bindings for current view
        // entries plus a small slack of recently seen peers.
        if node.bindings.len() > 8 * node.view.capacity() {
            keep.clear();
            keep.extend(node.view.ids());
            node.bindings.retain(|id, _| keep.contains(id));
        }
        self.scratch_descs = descriptors;
        self.scratch_keep = keep;
    }
}

impl Protocol for StaticRvp {
    type Config = StaticRvpConfig;
    type Msg = StaticRvpMsg;
    type Stats = StaticRvpStats;

    const NODE_RNG_LABEL: u64 = 0x5374_5276_0000_0000;
    const NET_SEED_SALT: u64 = 0x4E59_4C4F_4E00_0003;
    /// The scheme binds natted peers to public RVPs, so it needs some.
    const BOOTSTRAPS_WITHOUT_PUBLICS: bool = false;

    fn new(cfg: StaticRvpConfig, _net_cfg: &NetConfig, share: Share) -> Self {
        StaticRvp {
            cfg,
            nodes: NodeTable::new(share),
            stats: StaticRvpStats::default(),
            entry_pool: BufferPool::new(),
            id_pool: BufferPool::new(),
            scratch_descs: Vec::new(),
            merge_scratch: MergeScratch::default(),
            scratch_keep: FxHashSet::default(),
            harden: false,
        }
    }

    fn shuffle_period(&self) -> SimDuration {
        self.cfg.shuffle_period
    }

    fn stats(&self) -> StaticRvpStats {
        self.stats
    }

    fn add_node(&mut self, id: PeerId, rng: SimRng) {
        self.nodes.push(
            id,
            Node {
                view: PartialView::new(id, self.cfg.view_size),
                rvp: None,
                clients: DenseMap::new(),
                pending: None,
                rng,
                bindings: DenseMap::new(),
                silent_rounds: 0,
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

    /// The contact enters the view along with its RVP binding.
    fn join_contact(&mut self, _host: &mut RvpHost, p: PeerId, contact: &Intro) {
        let node = &mut self.nodes[p];
        node.view.insert(contact.descriptor);
        node.bindings.insert(contact.descriptor.id, contact.relay);
    }

    fn relay_of(&self, peer: PeerId) -> Option<PeerId> {
        self.nodes[peer].rvp
    }

    /// Binds every natted peer about to start to a uniformly random public
    /// RVP.
    ///
    /// # Panics
    ///
    /// Panics if a natted peer needs an RVP and no public peer is alive.
    fn on_start(&mut self, host: &RvpHost, peers: &[PeerId]) {
        let publics = host.alive_publics();
        for p in peers.iter().filter(|p| host.net.class_of(**p).is_natted()) {
            let node = &mut self.nodes[*p];
            node.rvp = Some(*node.rng.pick(&publics).expect("no public peers to act as RVPs"));
        }
    }

    fn on_round(&mut self, host: &mut RvpHost, p: PeerId) {
        if let Some((_, unanswered)) = self.nodes[p].pending.take() {
            self.id_pool.release(unanswered);
        }
        if host.net.class_of(p).is_natted() && !self.keep_alive(host, p) {
            return;
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
                let entries = self.wire_view(host, p);
                let sent = self.sent_ids(&entries);
                self.nodes[p].pending = Some((target.id, sent));
                let msg = StaticRvpMsg::Request {
                    src: self.self_descriptor(host, p),
                    dest: target.id,
                    entries,
                };
                // Natted targets are reached via their RVP.
                let hop = if target.class.is_public() {
                    Some(target.id)
                } else {
                    let rvp = self.nodes[p].bindings.get(&target.id).copied().flatten();
                    rvp.filter(|r| host.net.is_alive(*r))
                };
                match hop {
                    Some(hop) => host.send_msg(self, p, host.net.identity_endpoint(hop), msg),
                    None => {
                        // Binding unknown or RVP dead: the reference is
                        // unusable (the failure mode the paper points
                        // out). Drop it.
                        self.nodes[p].view.remove(target.id);
                        self.recycle(msg);
                    }
                }
            }
        }
        self.nodes[p].view.increase_age();
    }

    fn on_msg(&mut self, host: &mut RvpHost, to: PeerId, from_ep: Endpoint, msg: StaticRvpMsg) {
        match msg {
            StaticRvpMsg::Ping { from } => {
                // RVP duty: remember the client's hole endpoint.
                self.nodes[to].clients.insert(from, from_ep);
            }
            // We are the addressee's RVP.
            StaticRvpMsg::Request { dest, .. } | StaticRvpMsg::Response { dest, .. }
                if dest != to =>
            {
                self.relay(host, to, dest, msg)
            }
            StaticRvpMsg::Request { src, entries, .. } => {
                self.stats.requests_completed += 1;
                let resp_entries = self.wire_view(host, to);
                let resp_sent = self.sent_ids(&resp_entries);
                let resp = StaticRvpMsg::Response {
                    from: to,
                    dest: src.descriptor.id,
                    entries: resp_entries,
                };
                let hop = if src.descriptor.class.is_public() {
                    Some(src.descriptor.id)
                } else {
                    src.rvp.filter(|r| host.net.is_alive(*r))
                };
                match hop {
                    Some(hop) => host.send_msg(self, to, host.net.identity_endpoint(hop), resp),
                    // No way back to the initiator: the response is never
                    // sent (the paper's failure mode); recycle it.
                    None => self.recycle(resp),
                }
                self.merge(to, &entries, &resp_sent);
                self.id_pool.release(resp_sent);
                self.entry_pool.release(entries);
            }
            StaticRvpMsg::Response { from, entries, .. } => {
                self.stats.responses_completed += 1;
                self.nodes[to].silent_rounds = 0;
                let answered = self.nodes[to].pending.take_if(|(t, _)| *t == from);
                let sent = answered.map(|(_, sent)| sent).unwrap_or_default();
                self.merge(to, &entries, &sent);
                self.id_pool.release(sent);
                self.entry_pool.release(entries);
            }
        }
    }

    fn payload_bytes(&self, msg: &StaticRvpMsg) -> u32 {
        // Same size model as Nylon: an annotated entry costs a Nylon wire
        // entry, a shuffle header plus addressing; PING is header-only.
        match msg {
            StaticRvpMsg::Request { entries, .. } | StaticRvpMsg::Response { entries, .. } => {
                HEADER_BYTES + ROUTING_BYTES + ENTRY_BYTES * entries.len() as u32
            }
            StaticRvpMsg::Ping { .. } => HEADER_BYTES,
        }
    }

    fn recycle(&mut self, msg: StaticRvpMsg) {
        match msg {
            StaticRvpMsg::Request { entries, .. } | StaticRvpMsg::Response { entries, .. } => {
                self.entry_pool.release(entries)
            }
            StaticRvpMsg::Ping { .. } => {}
        }
    }

    /// Whether `holder` could shuffle over this view entry right now: the
    /// target is alive and either public or relayable through an RVP the
    /// holder knows about (and which is itself still alive).
    fn edge_usable(
        &self,
        host: &RvpHost,
        _target_host: &RvpHost,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        if d.id.index() >= host.net.peer_count() || !host.net.is_alive(d.id) {
            return false;
        }
        if d.class.is_public() {
            return true;
        }
        match self.nodes[holder].bindings.get(&d.id) {
            Some(Some(rvp)) => host.net.is_alive(*rvp),
            _ => false,
        }
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.entry_pool.obs_report(out);
        self.id_pool.obs_report(out);
        self.stats.report(out, "engine.static_rvp");
        let pending = self.nodes.iter().filter(|n| n.pending.is_some()).count();
        out.gauge_sum("engine.static_rvp", "pending_exchanges", pending as u64);
    }

    fn on_fault_plan(&mut self, plan: &FaultPlan) {
        self.harden = plan.harden;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{NatClass, NatType};
    use nylon_sim::SimTime;

    fn engine(publics: usize, natted: usize, seed: u64) -> StaticRvpEngine {
        let mut eng = StaticRvpEngine::new(StaticRvpConfig::default(), NetConfig::default(), seed);
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..natted {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng
    }

    #[test]
    fn shuffles_complete_through_rvps() {
        let mut eng = engine(10, 40, 1);
        eng.run_rounds(40);
        let s = eng.stats();
        assert!(s.requests_completed > 0);
        assert!(s.responses_completed > 0);
        assert!(s.relays > 0, "natted targets require RVP relaying");
        assert!(s.pings_sent > 0);
    }

    #[test]
    fn public_peers_carry_disproportionate_load() {
        let mut eng = engine(10, 40, 2);
        eng.run_rounds(60);
        let (mut pub_bytes, mut pub_n, mut nat_bytes, mut nat_n) = (0u64, 0u64, 0u64, 0u64);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let b = eng.net().stats_of(p).bytes_total();
            if eng.net().class_of(p).is_public() {
                pub_bytes += b;
                pub_n += 1;
            } else {
                nat_bytes += b;
                nat_n += 1;
            }
        }
        let pub_avg = pub_bytes as f64 / pub_n as f64;
        let nat_avg = nat_bytes as f64 / nat_n as f64;
        // The paper's complaint: "public peers contribute much more to the
        // protocol than natted peers".
        assert!(
            pub_avg > 1.5 * nat_avg,
            "expected public overload, got public {pub_avg:.0} vs natted {nat_avg:.0}"
        );
    }

    #[test]
    fn rvp_death_invalidates_then_rebinds() {
        let mut eng = engine(5, 30, 3);
        eng.run_rounds(20);
        // Kill all public peers but one.
        let publics: Vec<PeerId> =
            eng.alive_peers().filter(|p| eng.net().class_of(*p).is_public()).collect();
        eng.kill_peers(&publics[1..]);
        eng.run_rounds(20);
        assert!(eng.stats().rebinds > 0, "orphaned clients must re-bind");
        // Gossip continues through the surviving RVP.
        let before = eng.stats().requests_completed;
        eng.run_rounds(10);
        assert!(eng.stats().requests_completed > before);
    }

    #[test]
    fn join_after_start_gets_integrated() {
        let mut eng = engine(10, 20, 11);
        eng.run_rounds(10);
        let contact = eng.alive_peers().next().unwrap();
        let newbie =
            eng.add_peer_with_bootstrap(NatClass::Natted(NatType::PortRestrictedCone), &[contact]);
        let rvp = eng.protocol().nodes[newbie].rvp.expect("a natted joiner binds an RVP");
        assert!(eng.net().class_of(rvp).is_public());
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
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut eng = engine(8, 24, seed);
            eng.run_rounds(25);
            eng.stats()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn natted_views_fill_via_relays() {
        let mut eng = engine(10, 40, 5);
        eng.run_rounds(40);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(!eng.view_of(p).is_empty(), "empty view at {p}");
        }
        // Natted peers participate in sampling (they appear in views).
        let natted_refs: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.view_of(*p).iter().filter(|d| d.class.is_natted()).count())
            .sum();
        assert!(natted_refs > 0, "natted peers missing from all views");
    }

    #[test]
    fn bindings_cache_stays_bounded() {
        let mut eng = engine(10, 40, 9);
        eng.run_rounds(60);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            let n = eng.protocol().nodes[p].bindings.len();
            assert!(n <= 8 * 15 + 16, "bindings cache of {p} grew to {n}");
        }
    }

    #[test]
    fn relay_failures_counted_for_unknown_clients() {
        // A fresh RVP that never heard a PING cannot relay.
        let mut eng = engine(2, 10, 13);
        eng.run_rounds(3);
        // Some relays may fail early before PINGs register clients; after
        // warm-up they succeed. Either way the counters are consistent.
        let s = eng.stats();
        assert!(s.relays + s.relay_failures > 0);
    }

    /// A partition leaves RVPs alive by TTL but silently unreachable — the
    /// exact blackhole silence-based failover exists for.
    fn faulted_engine(harden: bool, seed: u64) -> StaticRvpEngine {
        let mut eng = StaticRvpEngine::new(StaticRvpConfig::default(), NetConfig::default(), seed);
        for _ in 0..8 {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..32 {
            eng.add_peer(NatClass::Natted(NatType::PortRestrictedCone));
        }
        let cfg = nylon_faults::FaultConfig {
            partition_at: SimTime::from_secs(30),
            partition_len: SimDuration::from_secs(30),
            partition_cut_fraction: 0.5,
            harden,
            ..nylon_faults::FaultConfig::default()
        };
        let classes: Vec<NatClass> = (0..40).map(|i| eng.net().class_of(PeerId(i))).collect();
        eng.install_fault_plan(FaultPlan::compile(&cfg, seed, &classes));
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_for(SimDuration::from_secs(90));
        eng
    }

    #[test]
    fn hardened_engine_fails_over_after_relay_silence() {
        let eng = faulted_engine(true, 17);
        assert_eq!(eng.fault_stats().partitions, 1, "the partition window must fire");
        assert!(eng.stats().failovers > 0, "relay silence must trigger RVP failover");
    }

    #[test]
    fn unhardened_engine_never_fails_over() {
        let eng = faulted_engine(false, 17);
        assert_eq!(eng.fault_stats().partitions, 1);
        assert_eq!(eng.stats().failovers, 0, "failover is hardened-mode only");
    }

    #[test]
    #[should_panic(expected = "at least one public peer")]
    fn requires_public_peers() {
        let mut eng = StaticRvpEngine::new(StaticRvpConfig::default(), NetConfig::default(), 1);
        eng.add_peer(NatClass::Natted(NatType::RestrictedCone));
        eng.bootstrap_random_public(4);
    }
}
