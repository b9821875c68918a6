//! Event-driven engine running the generic (NAT-oblivious) protocol.
//!
//! This is the baseline of Section 3 of the paper: peers address view
//! entries directly, with no traversal machinery. Under NATs, requests to
//! unreachable entries silently vanish — which is exactly the degradation
//! Figures 2–4 quantify.

use nylon_net::{BufferPool, Endpoint, NetConfig, PeerId};
use nylon_obs::Counters;
use nylon_sim::{Share, SimDuration, SimRng};

use crate::descriptor::NodeDescriptor;
use crate::host::{directly_reachable, Host, NodeTable, Protocol};
use crate::policy::{GossipConfig, PropagationPolicy};
use crate::view::{MergeScratch, PartialView};
use crate::Engine;

/// Wire messages of the generic protocol (Figure 1 of the paper).
#[derive(Debug, Clone)]
pub enum BaselineMsg {
    /// Shuffle request carrying the initiator's view (plus fresh self
    /// descriptor).
    Request {
        /// Initiating peer.
        from: PeerId,
        /// Shipped descriptors.
        entries: Vec<NodeDescriptor>,
    },
    /// Shuffle response carrying the target's view (push/pull only).
    Response {
        /// Responding peer.
        from: PeerId,
        /// Shipped descriptors.
        entries: Vec<NodeDescriptor>,
    },
}

impl BaselineMsg {
    /// The shipped descriptors, whichever way the message travels.
    pub(crate) fn into_entries(self) -> Vec<NodeDescriptor> {
        match self {
            BaselineMsg::Request { entries, .. } | BaselineMsg::Response { entries, .. } => entries,
        }
    }

    /// Payload bytes on the wire: a fixed protocol header plus one
    /// descriptor (id + endpoint + NAT class + age) per shipped entry. The
    /// baseline and PeerSwap share this model.
    pub fn payload_bytes(&self) -> u32 {
        match self {
            BaselineMsg::Request { entries, .. } | BaselineMsg::Response { entries, .. } => {
                HEADER_BYTES + ENTRY_BYTES * entries.len() as u32
            }
        }
    }
}

/// Wire-size model: bytes per shipped descriptor.
const ENTRY_BYTES: u32 = 14;
/// Wire-size model: fixed per-message protocol header bytes.
const HEADER_BYTES: u32 = 8;

nylon_obs::counters! {
    /// Aggregate protocol counters.
    pub struct ShuffleStats {
        /// Shuffle rounds in which a target was selected and a request sent.
        initiated = "shuffles_initiated",
        /// Rounds skipped because the view was empty.
        empty_view_rounds,
        /// Requests that reached their target.
        requests_received,
        /// Responses that reached the initiator.
        responses_received,
    }
}

#[derive(Debug)]
struct Node {
    view: PartialView,
    rng: SimRng,
    /// The one exchange the active thread of Figure 1 is waiting on: the
    /// target plus the ids shipped to it, for the swapper merge.
    pending: Option<(PeerId, Vec<PeerId>)>,
}

/// The generic (NAT-oblivious) protocol of Figure 1, parameterized by a
/// [`GossipConfig`].
///
/// Bootstrap is the host's default. With no public peer at all it falls
/// back to uniformly chosen arbitrary peers, whose NATs make many of these
/// entries immediately unusable — that is the point of the 100 % NAT data
/// point.
///
/// A node holds at most one outstanding exchange: starting a round
/// abandons the previous one, so per-node state stays bounded however many
/// requests NATs swallow. This equals remembering every unanswered request
/// as long as a reply takes less than one shuffle period (100 ms against
/// 5 s at the paper's settings); a later reply still merges, only without
/// its shipped-id list.
#[derive(Debug)]
pub struct Baseline {
    cfg: GossipConfig,
    nodes: NodeTable<Node>,
    stats: ShuffleStats,
    /// Recycled descriptor buffers for shuffle payloads: in steady state
    /// no exchange allocates (see `nylon_net::pool`).
    payload_pool: BufferPool<NodeDescriptor>,
    /// Recycled id buffers for the shipped-id lists of the swapper merge.
    id_pool: BufferPool<PeerId>,
    /// The workspace every merge of this worker runs in.
    merge_scratch: MergeScratch,
}

/// The baseline peer-sampling engine; see [`Engine`] for the lifecycle.
pub type BaselineEngine = Engine<Baseline>;

impl Protocol for Baseline {
    type Config = GossipConfig;
    type Msg = BaselineMsg;
    type Stats = ShuffleStats;

    const NODE_RNG_LABEL: u64 = 0x6E6F_6465_0000_0000;
    const NET_SEED_SALT: u64 = 0x4E59_4C4F_4E00_0001;

    fn new(cfg: GossipConfig, _net_cfg: &NetConfig, share: Share) -> Self {
        Baseline {
            cfg,
            nodes: NodeTable::new(share),
            stats: ShuffleStats::default(),
            payload_pool: BufferPool::new(),
            id_pool: BufferPool::new(),
            merge_scratch: MergeScratch::default(),
        }
    }

    fn shuffle_period(&self) -> SimDuration {
        self.cfg.shuffle_period
    }

    fn stats(&self) -> ShuffleStats {
        self.stats
    }

    fn add_node(&mut self, id: PeerId, rng: SimRng) {
        self.nodes
            .push(id, Node { view: PartialView::new(id, self.cfg.view_size), rng, pending: None });
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

    /// Figure 1, lines 1–7: select target, ship view, age entries.
    fn on_round(&mut self, host: &mut Host<BaselineMsg>, p: PeerId) {
        let self_d = host.descriptor_of(p);
        if let Some((_, unanswered)) = self.nodes[p].pending.take() {
            self.id_pool.release(unanswered);
        }
        let target = {
            let node = &mut self.nodes[p];
            node.view.select_target(self.cfg.selection, &mut node.rng)
        };
        match target {
            None => self.stats.empty_view_rounds += 1,
            Some(target) => {
                host.log_sample(p, target.id);
                let mut payload = self.payload_pool.acquire();
                self.nodes[p].view.write_shuffle_payload(self_d, &mut payload);
                let mut sent_ids = self.id_pool.acquire();
                sent_ids.extend(payload.iter().map(|d| d.id));
                self.nodes[p].pending = Some((target.id, sent_ids));
                let msg = BaselineMsg::Request { from: p, entries: payload };
                host.send_msg(self, p, target.addr, msg);
                self.stats.initiated += 1;
            }
        }
        self.nodes[p].view.increase_age();
    }

    fn on_msg(
        &mut self,
        host: &mut Host<BaselineMsg>,
        to: PeerId,
        from_ep: Endpoint,
        msg: BaselineMsg,
    ) {
        match msg {
            // Figure 1, lines 8–12: answer (push/pull), then merge.
            BaselineMsg::Request { entries, .. } => {
                self.stats.requests_received += 1;
                let self_d = host.descriptor_of(to);
                let mut sent_ids = self.id_pool.acquire();
                if self.cfg.propagation == PropagationPolicy::PushPull {
                    let mut payload = self.payload_pool.acquire();
                    self.nodes[to].view.write_shuffle_payload(self_d, &mut payload);
                    sent_ids.extend(payload.iter().map(|d| d.id));
                    let msg = BaselineMsg::Response { from: to, entries: payload };
                    // Reply to the *observed* source endpoint: travels back
                    // through whatever hole the request opened.
                    host.send_msg(self, to, from_ep, msg);
                }
                let node = &mut self.nodes[to];
                node.view.merge_and_truncate_with(
                    &entries,
                    &sent_ids,
                    self.cfg.merge,
                    &mut node.rng,
                    &mut self.merge_scratch,
                );
                self.id_pool.release(sent_ids);
                self.payload_pool.release(entries);
            }
            // Figure 1, lines 4–6: initiator merges the pulled view.
            BaselineMsg::Response { from, entries } => {
                self.stats.responses_received += 1;
                let node = &mut self.nodes[to];
                let answered = node.pending.take_if(|(target, _)| *target == from);
                let sent = answered.map(|(_, sent)| sent).unwrap_or_default();
                node.view.merge_and_truncate_with(
                    &entries,
                    &sent,
                    self.cfg.merge,
                    &mut node.rng,
                    &mut self.merge_scratch,
                );
                self.id_pool.release(sent);
                self.payload_pool.release(entries);
            }
        }
    }

    fn payload_bytes(&self, msg: &BaselineMsg) -> u32 {
        msg.payload_bytes()
    }

    fn recycle(&mut self, msg: BaselineMsg) {
        self.payload_pool.release(msg.into_entries());
    }

    /// The baseline has no traversal machinery: an entry is usable only if
    /// the raw NAT state admits a packet from the holder right now.
    fn edge_usable(
        &self,
        holder_host: &Host<BaselineMsg>,
        target_host: &Host<BaselineMsg>,
        holder: PeerId,
        d: &NodeDescriptor,
    ) -> bool {
        directly_reachable(holder_host, target_host, holder, d)
    }

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.payload_pool.obs_report(out);
        self.id_pool.obs_report(out);
        self.stats.report(out, "engine.baseline");
        let pending = self.nodes.iter().filter(|n| n.pending.is_some()).count();
        out.gauge_sum("engine.baseline", "pending_exchanges", pending as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MergePolicy, SelectionPolicy};
    use nylon_net::{NatClass, NatType};

    fn engine_with(publics: usize, natted: usize, nat: NatType, seed: u64) -> BaselineEngine {
        let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), seed);
        for _ in 0..publics {
            eng.add_peer(NatClass::Public);
        }
        for _ in 0..natted {
            eng.add_peer(NatClass::Natted(nat));
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng
    }

    #[test]
    fn message_bytes_model() {
        let d = NodeDescriptor::new(
            PeerId(1),
            Endpoint::new(nylon_net::Ip(1), nylon_net::Port(9000)),
            NatClass::Public,
        );
        let request = BaselineMsg::Request { from: PeerId(1), entries: Vec::new() };
        assert_eq!(request.payload_bytes(), 8);
        let response = BaselineMsg::Response { from: PeerId(1), entries: vec![d; 16] };
        assert_eq!(response.payload_bytes(), 8 + 16 * 14);
    }

    #[test]
    fn all_public_views_fill_up() {
        let mut eng = engine_with(40, 0, NatType::PortRestrictedCone, 1);
        eng.run_rounds(30);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert_eq!(eng.view_of(p).len(), eng.config().view_size, "view of {p} not full");
        }
        let s = eng.stats();
        assert!(s.initiated > 0);
        assert!(s.responses_received > 0, "push/pull must produce responses");
    }

    #[test]
    fn push_mode_has_no_responses() {
        let cfg = GossipConfig { propagation: PropagationPolicy::Push, ..GossipConfig::default() };
        let mut eng = BaselineEngine::new(cfg, NetConfig::default(), 3);
        for _ in 0..30 {
            eng.add_peer(NatClass::Public);
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(20);
        assert_eq!(eng.stats().responses_received, 0);
        assert!(eng.stats().requests_received > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut eng = engine_with(20, 20, NatType::PortRestrictedCone, seed);
            eng.run_rounds(25);
            let mut ids: Vec<Vec<u32>> = Vec::new();
            for p in eng.alive_peers().collect::<Vec<_>>() {
                let mut v: Vec<u32> = eng.view_of(p).ids().iter().map(|q| q.0).collect();
                v.sort_unstable();
                ids.push(v);
            }
            ids
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn natted_peers_participate() {
        let mut eng = engine_with(20, 20, NatType::RestrictedCone, 7);
        eng.run_rounds(40);
        // Natted peers spread into views via shuffles.
        let natted_refs: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.view_of(*p).iter().filter(|d| d.class.is_natted()).count())
            .sum();
        assert!(natted_refs > 0, "natted peers never entered any view");
    }

    #[test]
    fn dead_peers_stop_shuffling() {
        let mut eng = engine_with(20, 0, NatType::PortRestrictedCone, 5);
        eng.run_rounds(5);
        let initiated_before = eng.stats().initiated;
        let all: Vec<PeerId> = eng.alive_peers().collect();
        eng.kill_peers(&all);
        eng.run_rounds(10);
        // At most the already-scheduled round per peer fires (and is skipped
        // since the peer is dead), so `initiated` may grow by zero only.
        assert_eq!(eng.stats().initiated, initiated_before);
        assert_eq!(eng.alive_peers().count(), 0);
    }

    #[test]
    fn join_after_start_gets_integrated() {
        let mut eng = engine_with(20, 0, NatType::PortRestrictedCone, 9);
        eng.run_rounds(10);
        let seed_peer = eng.alive_peers().next().unwrap();
        let newbie = eng.add_peer_with_bootstrap(NatClass::Public, &[seed_peer]);
        eng.run_rounds(20);
        assert!(!eng.view_of(newbie).is_empty());
        // Someone knows the newbie.
        let known: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .filter(|p| eng.view_of(**p).contains(newbie))
            .count();
        assert!(known > 0, "joining peer never advertised");
    }

    #[test]
    fn tail_selection_and_swapper_run() {
        let cfg = GossipConfig {
            selection: SelectionPolicy::Tail,
            merge: MergePolicy::Swapper,
            ..GossipConfig::default()
        };
        let mut eng = BaselineEngine::new(cfg, NetConfig::default(), 11);
        for _ in 0..30 {
            eng.add_peer(NatClass::Public);
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng.run_rounds(25);
        assert!(eng.stats().responses_received > 0);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(!eng.view_of(p).is_empty());
        }
    }

    #[test]
    fn traffic_is_accounted() {
        let mut eng = engine_with(10, 0, NatType::PortRestrictedCone, 13);
        eng.run_rounds(10);
        let total: u64 = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .map(|p| eng.net().stats_of(*p).bytes_total())
            .sum();
        assert!(total > 0);
    }

    #[test]
    fn staleness_emerges_from_nat_filters() {
        // With many PRC peers, some requests die at NAT boxes: completion
        // drops below initiation.
        let mut eng = engine_with(8, 32, NatType::PortRestrictedCone, 15);
        eng.run_rounds(50);
        let s = eng.stats();
        assert!(
            s.requests_received < s.initiated,
            "NATs must drop some requests: {} received of {}",
            s.requests_received,
            s.initiated
        );
        let drops = eng.net().drop_counters();
        assert!(drops.no_mapping + drops.filtered > 0, "drops must be NAT-caused: {drops:?}");
    }

    #[test]
    fn sample_log_capture() {
        let mut eng = engine_with(20, 0, NatType::PortRestrictedCone, 17);
        eng.enable_sample_log();
        eng.run_rounds(10);
        let log = eng.sample_log().expect("enabled");
        assert!(!log.is_empty());
        assert!(log.iter().all(|id| (*id as usize) < eng.net().peer_count()));
    }

    #[test]
    fn empty_view_rounds_are_counted() {
        // A peer bootstrapped with no contacts skips rounds.
        let mut eng = BaselineEngine::new(GossipConfig::default(), NetConfig::default(), 19);
        eng.add_peer(NatClass::Public);
        eng.add_peer(NatClass::Public);
        // No bootstrap: views empty.
        eng.start();
        eng.run_rounds(5);
        assert!(eng.stats().empty_view_rounds > 0);
        assert_eq!(eng.stats().initiated, 0);
    }

    #[test]
    fn full_cone_population_behaves_like_public() {
        let mut fc = engine_with(5, 35, NatType::FullCone, 23);
        fc.run_rounds(40);
        let fc_failures = {
            let d = fc.net().drop_counters();
            d.no_mapping + d.filtered
        };
        let mut prc = engine_with(5, 35, NatType::PortRestrictedCone, 23);
        prc.run_rounds(40);
        let prc_failures = {
            let d = prc.net().drop_counters();
            d.no_mapping + d.filtered
        };
        assert!(
            fc_failures * 10 < prc_failures.max(1),
            "FC ({fc_failures}) must drop far less than PRC ({prc_failures})"
        );
    }

    #[test]
    fn killed_peers_views_freeze() {
        let mut eng = engine_with(20, 0, NatType::PortRestrictedCone, 27);
        eng.run_rounds(10);
        let victim = eng.alive_peers().next().unwrap();
        let before: Vec<PeerId> = eng.view_of(victim).ids();
        eng.kill_peers(&[victim]);
        eng.run_rounds(20);
        assert_eq!(eng.view_of(victim).ids(), before, "dead peer's view must not change");
    }
}
