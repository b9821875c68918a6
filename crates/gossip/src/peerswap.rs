//! PeerSwap: a swap-based peer sampler with randomness guarantees.
//!
//! The third protocol family next to the baseline and Nylon, modeled on
//! "PeerSwap: A Peer-Sampler with Randomness Guarantees" (which builds on
//! Cyclon-style exchanges): instead of merging whole overlapping view
//! copies like the baseline's healer/swapper policies, a peer periodically
//! *swaps a batch* with one uniformly chosen partner — it sheds the
//! partner's own entry, ships copies of a random batch plus a fresh
//! self-descriptor, and each side replaces the entries it shipped with the
//! ones it received. Entries circulate instead of multiplying, so the
//! global descriptor population evolves like a card shuffle, which is
//! where the randomness argument of the paper comes from and what the
//! `randomness` figure measures head-to-head against the other engines.
//!
//! Losses double as failure detection, exactly like Cyclon: the initiator
//! sheds the partner's entry when it starts a swap, and if no response
//! ever arrives (dead partner, or a NAT silently eating the request — the
//! damage this repo studies), that entry stays gone. A view thus purges
//! references it cannot exercise at a bounded cost of one entry per
//! silent round, while committed exchanges keep refilling it.
//!
//! The protocol runs on the shared [`Engine`] host like the others and
//! reuses [`BaselineMsg`] as its wire message (a swap request/response is
//! structurally a shuffle request/response), so the transport crate's
//! versioned codec carries PeerSwap traffic unmodified.

use nylon_net::{BufferPool, Endpoint, NetConfig, PeerId};
use nylon_obs::Counters;
use nylon_sim::{Share, SimDuration, SimRng};

use crate::descriptor::NodeDescriptor;
use crate::engine::BaselineMsg;
use crate::host::{Host, NodeTable, Protocol};
use crate::policy::SelectionPolicy;
use crate::view::PartialView;
use crate::Engine;

/// Configuration of the PeerSwap protocol.
#[derive(Debug, Clone)]
pub struct PeerSwapConfig {
    /// Maximum number of view entries.
    pub view_size: usize,
    /// Interval between two swaps initiated by a peer.
    pub shuffle_period: SimDuration,
}

impl Default for PeerSwapConfig {
    fn default() -> Self {
        PeerSwapConfig { view_size: 15, shuffle_period: SimDuration::from_secs(5) }
    }
}

/// Descriptors shipped per swap message: the initiator ships its fresh
/// self-descriptor plus copies of `SWAP_LEN - 1` random entries; the
/// partner answers with copies of up to `SWAP_LEN` of its own.
const SWAP_LEN: usize = 8;

impl crate::sampler::SamplerConfig for PeerSwapConfig {
    type Sampler = PeerSwapEngine;

    fn set_view_size(&mut self, view_size: usize) {
        self.view_size = view_size;
    }
}

nylon_obs::counters! {
    /// Aggregate PeerSwap counters.
    pub struct PeerSwapStats {
        /// Swaps initiated (a partner was selected and a request sent).
        swaps_initiated,
        /// Rounds skipped because the view was empty.
        empty_view_rounds,
        /// Swap requests that reached their partner.
        requests_received,
        /// Swap responses that reached the initiator (committed swaps).
        responses_received,
        /// Swaps whose response never arrived within one period (NAT drops,
        /// dead partners); the shed partner entry stays gone — Cyclon-style
        /// failure detection.
        swaps_unanswered,
    }
}

#[derive(Debug)]
struct Node {
    view: PartialView,
    rng: SimRng,
    /// The one outstanding swap: the partner plus the ids whose copies were
    /// shipped (these get replaced by the response's entries on commit).
    pending: Option<(PeerId, Vec<PeerId>)>,
}

/// The PeerSwap protocol; see the module docs.
#[derive(Debug)]
pub struct PeerSwap {
    cfg: PeerSwapConfig,
    nodes: NodeTable<Node>,
    stats: PeerSwapStats,
    payload_pool: BufferPool<NodeDescriptor>,
    id_pool: BufferPool<PeerId>,
}

/// The PeerSwap engine; see [`Engine`] for the lifecycle.
pub type PeerSwapEngine = Engine<PeerSwap>;

/// Copies `want` distinct random view entries of `node` into `out`,
/// recording their ids in `sent` (the replacement candidates when the
/// counterpart batch arrives). Chosen slots are tracked in a 128-bit
/// mask; [`PeerSwap::new`] bounds the view size accordingly.
fn sample_copies(
    node: &mut Node,
    want: usize,
    out: &mut Vec<NodeDescriptor>,
    sent: &mut Vec<PeerId>,
) {
    let len = node.view.len();
    let want = want.min(len);
    let mut chosen: u128 = 0;
    for _ in 0..want {
        let d = loop {
            let idx = node.rng.pick_index(len).expect("len > 0 since want <= len");
            if chosen & (1 << idx) == 0 {
                chosen |= 1 << idx;
                break node.view.as_slice()[idx];
            }
        };
        out.push(d);
        sent.push(d.id);
    }
}

impl PeerSwap {
    /// Adopts a received batch into `peer`'s view: refresh duplicates,
    /// fill empty slots, then *replace* entries whose copies were shipped
    /// in the other direction (`sent`). Entries that fit nowhere are
    /// dropped — the view never grows past capacity and never evicts
    /// entries that were not part of the exchange.
    fn adopt(&mut self, peer: PeerId, received: &[NodeDescriptor], sent: &mut Vec<PeerId>) {
        let node = &mut self.nodes[peer];
        for d in received {
            if d.id == peer {
                continue; // a peer never holds its own descriptor
            }
            if node.view.get(d.id).is_some() || node.view.len() < node.view.capacity() {
                node.view.insert(*d);
                continue;
            }
            while let Some(s) = sent.pop() {
                if node.view.remove(s).is_some() {
                    node.view.insert(*d);
                    break;
                }
            }
        }
    }
}

impl Protocol for PeerSwap {
    type Config = PeerSwapConfig;
    type Msg = BaselineMsg;
    type Stats = PeerSwapStats;

    const NODE_RNG_LABEL: u64 = 0x6E6F_6465_0000_0000;
    const NET_SEED_SALT: u64 = 0x4E59_4C4F_4E00_0001;

    /// # Panics
    ///
    /// Panics on a view size above 128 (the batch sampler tracks chosen
    /// slots in a 128-bit mask, like the healer merge's id-membership
    /// masks).
    fn new(cfg: PeerSwapConfig, _net_cfg: &NetConfig, share: Share) -> Self {
        assert!(cfg.view_size <= 128, "PeerSwap supports view sizes up to 128");
        PeerSwap {
            cfg,
            nodes: NodeTable::new(share),
            stats: PeerSwapStats::default(),
            payload_pool: BufferPool::new(),
            id_pool: BufferPool::new(),
        }
    }

    fn shuffle_period(&self) -> SimDuration {
        self.cfg.shuffle_period
    }

    fn stats(&self) -> PeerSwapStats {
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

    /// One initiated swap: shed the partner's entry (it will be refilled by
    /// the response — or stay gone if the partner is unreachable), ship a
    /// fresh self-descriptor plus copies of a random batch.
    fn on_round(&mut self, host: &mut Host<BaselineMsg>, p: PeerId) {
        let self_d = host.descriptor_of(p);
        // An unanswered previous swap is Cyclon-style failure detection:
        // the shed partner entry stays gone, nothing to roll back.
        if let Some((_, sent)) = self.nodes[p].pending.take() {
            self.stats.swaps_unanswered += 1;
            self.id_pool.release(sent);
        }
        let target = {
            let node = &mut self.nodes[p];
            node.view.select_target(SelectionPolicy::Rand, &mut node.rng)
        };
        match target {
            None => self.stats.empty_view_rounds += 1,
            Some(t) => {
                host.log_sample(p, t.id);
                let mut payload = self.payload_pool.acquire();
                let mut sent = self.id_pool.acquire();
                // The fresh self-descriptor fills the slot the partner's
                // entry vacates on their side.
                payload.push(self_d);
                {
                    let node = &mut self.nodes[p];
                    node.view.remove(t.id).expect("selected partner is in the view");
                    sample_copies(node, SWAP_LEN - 1, &mut payload, &mut sent);
                    node.pending = Some((t.id, sent));
                }
                host.send_msg(self, p, t.addr, BaselineMsg::Request { from: p, entries: payload });
                self.stats.swaps_initiated += 1;
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
            // The partner's side of a swap: answer with copies of an
            // equally sized batch, then replace those entries with the
            // received ones.
            BaselineMsg::Request { entries, .. } => {
                self.stats.requests_received += 1;
                let mut reply = self.payload_pool.acquire();
                let mut sent = self.id_pool.acquire();
                sample_copies(&mut self.nodes[to], entries.len(), &mut reply, &mut sent);
                // Reply to the observed source endpoint: travels back
                // through whatever hole the request opened.
                host.send_msg(
                    self,
                    to,
                    from_ep,
                    BaselineMsg::Response { from: to, entries: reply },
                );
                self.adopt(to, &entries, &mut sent);
                self.id_pool.release(sent);
                self.payload_pool.release(entries);
            }
            // The initiator's side: the swap committed — replace the
            // shipped copies with what the partner gave up.
            BaselineMsg::Response { from, entries } => {
                self.stats.responses_received += 1;
                let pending = {
                    let node = &mut self.nodes[to];
                    match node.pending.take() {
                        Some((partner, sent)) if partner == from => Some(sent),
                        other => {
                            // A response from an already written-off swap:
                            // keep any newer pending state intact and adopt
                            // without replacement rights.
                            node.pending = other;
                            None
                        }
                    }
                };
                let mut sent = pending.unwrap_or_else(|| self.id_pool.acquire());
                self.adopt(to, &entries, &mut sent);
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

    fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.payload_pool.obs_report(out);
        self.id_pool.obs_report(out);
        self.stats.report(out, "engine.peerswap");
        let pending = self.nodes.iter().filter(|n| n.pending.is_some()).count();
        out.gauge_sum("engine.peerswap", "pending_exchanges", pending as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{NatClass, NatType};

    fn engine_with(publics: usize, natted: usize, nat: NatType, seed: u64) -> PeerSwapEngine {
        let mut eng = PeerSwapEngine::new(PeerSwapConfig::default(), NetConfig::default(), seed);
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
    fn all_public_swaps_complete() {
        let mut eng = engine_with(40, 0, NatType::PortRestrictedCone, 1);
        eng.run_rounds(30);
        let s = eng.stats();
        assert!(s.swaps_initiated > 0);
        assert!(s.responses_received > 0, "swaps must complete on an all-public fabric");
        assert_eq!(s.swaps_unanswered, 0, "no NATs, no lost responses, every swap answered");
        let mut total = 0usize;
        let alive: Vec<PeerId> = eng.alive_peers().collect();
        for p in &alive {
            let v = eng.view_of(*p);
            assert!(!v.is_empty(), "view of {p} drained");
            assert!(v.len() <= eng.config().view_size);
            total += v.len();
        }
        // Committed exchanges preserve view mass (fill-then-replace), so
        // views grow from the 8-entry bootstrap toward capacity.
        assert!(
            total >= alive.len() * 12,
            "views failed to fill: mean {:.1} of {}",
            total as f64 / alive.len() as f64,
            eng.config().view_size
        );
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
            (eng.stats(), ids)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn nat_drops_shed_entries_without_draining_views() {
        // PRC-heavy population: swap requests toward natted entries die at
        // NAT boxes. The shed target entry stays gone (failure detection),
        // but committed exchanges with reachable peers keep refilling the
        // views — nobody ends up empty.
        let mut eng = engine_with(8, 32, NatType::PortRestrictedCone, 7);
        eng.run_rounds(50);
        let s = eng.stats();
        assert!(s.swaps_unanswered > 0, "NAT drops must surface as unanswered swaps: {s:?}");
        assert!(s.responses_received < s.swaps_initiated, "some responses must be lost: {s:?}");
        let empty = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .filter(|p| eng.view_of(**p).is_empty())
            .count();
        assert_eq!(empty, 0, "views must not drain empty under NAT loss");
    }

    #[test]
    fn dead_peers_stop_swapping() {
        let mut eng = engine_with(20, 0, NatType::PortRestrictedCone, 5);
        eng.run_rounds(5);
        let initiated_before = eng.stats().swaps_initiated;
        let all: Vec<PeerId> = eng.alive_peers().collect();
        eng.kill_peers(&all);
        eng.run_rounds(10);
        assert_eq!(eng.stats().swaps_initiated, initiated_before);
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
        let known: usize = eng
            .alive_peers()
            .collect::<Vec<_>>()
            .iter()
            .filter(|p| eng.view_of(**p).contains(newbie))
            .count();
        assert!(known > 0, "joining peer never spread");
    }

    #[test]
    fn sample_log_records_uniform_partner_choices() {
        let mut eng = engine_with(30, 0, NatType::PortRestrictedCone, 17);
        eng.enable_sample_log();
        eng.run_rounds(20);
        let log = eng.sample_log().expect("enabled");
        assert!(!log.is_empty());
        assert!(log.iter().all(|id| (*id as usize) < eng.net().peer_count()));
    }

    #[test]
    fn committed_swaps_replace_the_shipped_batch() {
        // Exchanged batches *replace* the copies each side shipped: views
        // never exceed capacity and entries that were no part of the
        // exchange are never evicted, so almost every swap commits on an
        // all-public fabric.
        let mut eng = engine_with(30, 0, NatType::PortRestrictedCone, 23);
        eng.run_rounds(40);
        for p in eng.alive_peers().collect::<Vec<_>>() {
            assert!(eng.view_of(p).len() <= eng.config().view_size);
        }
        let s = eng.stats();
        assert!(s.responses_received * 10 > s.swaps_initiated * 9, "all-public swaps must commit");
    }

    #[test]
    fn shard_count_and_map_do_not_change_the_run() {
        use crate::lockstep::{with_workers, Workers};
        use nylon_sim::{ShardAssign, ShardPlan};

        let run = |shards: usize, assign| {
            let mut eng = with_workers(Workers::Plan(ShardPlan::new(shards, assign)), || {
                PeerSwapEngine::new(PeerSwapConfig::default(), NetConfig::default(), 7)
            });
            for i in 0..60u32 {
                let class = if i % 10 < 3 {
                    NatClass::Public
                } else {
                    NatClass::Natted(NatType::PortRestrictedCone)
                };
                eng.add_peer(class);
            }
            eng.bootstrap_random_public(8);
            eng.start();
            eng.run_rounds(8);
            let views: Vec<Vec<u32>> = (0..eng.peer_count() as u32)
                .map(|i| {
                    let mut ids: Vec<u32> = eng.view_of(PeerId(i)).iter().map(|d| d.id.0).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            (eng.stats(), views)
        };
        let reference = run(1, ShardAssign::RoundRobin);
        assert!(reference.0.swaps_initiated > 300, "run too small to be meaningful");
        for shards in [2usize, 4] {
            for assign in [ShardAssign::RoundRobin, ShardAssign::AllOnOne, ShardAssign::Random(3)] {
                assert_eq!(
                    run(shards, assign),
                    reference,
                    "sharded PeerSwap run diverged at shards={shards} assign={assign:?}"
                );
            }
        }
    }
}
