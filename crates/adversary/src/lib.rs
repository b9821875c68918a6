//! Byzantine attack harness for the peer-sampling engines.
//!
//! The Nylon paper evaluates its sampler against crashes and NATs only;
//! this crate adds the adversarial axis. An [`Attack`] recruits a fraction
//! of an [`Engine`]'s population as Byzantine and drives the engine:
//! before every round, [`Attack::run_rounds`] rewrites each attacker's
//! view by the rule of its [`AttackKind`]. Because every engine draws its
//! shuffle payloads from the view, controlling an attacker's view controls
//! exactly what it advertises next — the protocols need no knowledge that
//! attacks exist, and the same pass drives the baseline, Nylon, the
//! static-RVP strawman and PeerSwap.
//!
//! The pass runs between rounds, from the caller, rather than inside a
//! protocol: a natted victim's advertised endpoint is known only on the
//! worker that owns it, so an attacker's protocol on another worker could
//! not build the victims' descriptors.
//!
//! The attack taxonomy follows SecureCyclon's threat model, plus
//! NAT-aware variants this repo is uniquely positioned to study:
//!
//! * **shuffle lying** — advertise forged descriptors with bogus
//!   addresses, polluting honest views with dead weight;
//! * **self promotion** — advertise only the colluding attacker set,
//!   capturing honest in-degree;
//! * **eclipse** — flood a victim set's neighborhoods with attacker
//!   descriptors to cut the victims off from the honest overlay;
//! * **NAT eclipse** — the eclipse variant that pads with *unreachable*
//!   forged entries instead of more attackers, exploiting the fact that a
//!   NAT-oblivious protocol cannot tell an unreachable entry from a live
//!   one.
//!
//! Determinism: attacker recruitment and every attack draw come from
//! `SimRng` streams forked off the scenario seed, independent from the
//! engine's own streams, so adversarial runs replay byte-identically at
//! any worker count (the rewrites happen between rounds, at identical
//! virtual times, from worker-independent state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;

pub use attack::{forged_descriptor, AttackCtx, AttackKind};

use nylon_gossip::{Engine, NodeDescriptor, Protocol};
use nylon_net::PeerId;
use nylon_obs::Counters;
use nylon_sim::SimRng;

nylon_obs::counters! {
    /// What the corruption pass did, under the `adversary` telemetry layer.
    struct AttackStats {
        /// Attacker views rewritten, one per alive attacker per round.
        views_rewritten,
        /// Descriptors the rewrites put into attacker views.
        descriptors_injected,
    }
}

/// A Byzantine minority of one engine's population and the pass that
/// corrupts its views.
///
/// Recruit it over a started engine with [`recruit`](Self::recruit), then
/// advance the engine through [`run_rounds`](Self::run_rounds) instead of
/// [`Engine::run_rounds`]. Dropped with a stats sink installed, it merges
/// its counters into the sink's `adversary` layer.
#[derive(Debug)]
pub struct Attack {
    kind: AttackKind,
    /// Sorted.
    attackers: Vec<PeerId>,
    /// One persistent stream per attacker, in `attackers` order.
    rngs: Vec<SimRng>,
    /// Sorted.
    victims: Vec<PeerId>,
    stats: AttackStats,
}

impl Attack {
    /// Recruits `fraction` of `eng`'s alive peers as attackers — among
    /// the public peers, the strongest placement since everyone can reach
    /// them, or among all peers when none is public — and `victims` honest
    /// peers as eclipse victims, all from a stream forked off `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn recruit<P: Protocol>(
        eng: &Engine<P>,
        seed: u64,
        kind: AttackKind,
        fraction: f64,
        victims: usize,
    ) -> Attack {
        assert!((0.0..=1.0).contains(&fraction), "attacker fraction must be in [0, 1]");
        let mut rng = SimRng::new(seed).fork(0x6164_7665_7273_6172);
        let alive: Vec<PeerId> = eng.alive_peers().collect();
        let publics: Vec<PeerId> =
            alive.iter().copied().filter(|p| eng.class_of(*p).is_public()).collect();
        let pool = if publics.is_empty() { &alive } else { &publics };
        let want = ((alive.len() as f64) * fraction).round() as usize;
        let mut attackers = rng.sample_without_replacement(pool, want.min(pool.len()));
        attackers.sort_unstable();
        let rngs = attackers.iter().map(|a| rng.fork(0x6174_6B00_0000_0000 | a.0 as u64)).collect();
        let honest: Vec<PeerId> =
            alive.iter().copied().filter(|p| attackers.binary_search(p).is_err()).collect();
        let mut victims = rng.sample_without_replacement(&honest, victims.min(honest.len()));
        victims.sort_unstable();
        Attack { kind, attackers, rngs, victims, stats: AttackStats::default() }
    }

    /// The recruited attackers, in id order.
    pub fn attackers(&self) -> &[PeerId] {
        &self.attackers
    }

    /// The designated victims, in id order.
    pub fn victims(&self) -> &[PeerId] {
        &self.victims
    }

    /// Whether `peer` is one of the attackers.
    pub fn is_attacker(&self, peer: PeerId) -> bool {
        self.attackers.binary_search(&peer).is_ok()
    }

    /// Runs `n` rounds of `eng`, rewriting every alive attacker's view
    /// before each — the discrete-round analogue of attackers
    /// continuously re-poisoning their own state.
    pub fn run_rounds<P: Protocol>(&mut self, eng: &mut Engine<P>, n: u64) {
        for _ in 0..n {
            self.corrupt_views(eng);
            eng.run_rounds(1);
        }
    }

    /// One corruption pass over the alive attackers.
    fn corrupt_views<P: Protocol>(&mut self, eng: &mut Engine<P>) {
        if self.attackers.is_empty() {
            return;
        }
        let fresh = |peers: &[PeerId]| -> Vec<NodeDescriptor> {
            peers.iter().filter(|p| eng.is_alive(**p)).map(|p| eng.descriptor_of(*p)).collect()
        };
        let (attackers, victims) = (fresh(&self.attackers), fresh(&self.victims));
        let n_peers = eng.peer_count();
        for (a, rng) in self.attackers.iter().zip(&mut self.rngs) {
            if !eng.is_alive(*a) {
                continue;
            }
            let view = eng.view_of_mut(*a);
            let mut ctx =
                AttackCtx { view, attackers: &attackers, victims: &victims, rng, n_peers };
            self.stats.descriptors_injected += u64::from(self.kind.corrupt(&mut ctx));
            self.stats.views_rewritten += 1;
        }
    }
}

impl Drop for Attack {
    fn drop(&mut self) {
        if !nylon_obs::is_active() || std::thread::panicking() {
            return;
        }
        let mut out = nylon_obs::Report::new();
        out.counter("adversary", "attackers", self.attackers.len() as u64);
        out.counter("adversary", "victims", self.victims.len() as u64);
        self.stats.report(&mut out, "adversary");
        nylon_obs::merge_report(&out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_gossip::{BaselineEngine, GossipConfig, PeerSwapConfig, PeerSwapEngine};
    use nylon_net::{NatClass, NatType, NetConfig};

    /// 40 peers, 30 % public, bootstrapped and started.
    fn engine<P: Protocol>(cfg: P::Config, seed: u64) -> Engine<P> {
        let mut eng = Engine::new(cfg, NetConfig::default(), seed);
        for i in 0..40u32 {
            let class = if i % 10 < 3 {
                NatClass::Public
            } else {
                NatClass::Natted(NatType::PortRestrictedCone)
            };
            eng.add_peer(class);
        }
        eng.bootstrap_random_public(8);
        eng.start();
        eng
    }

    /// Every alive peer's view, as ids.
    fn views<P: Protocol>(eng: &Engine<P>) -> Vec<Vec<PeerId>> {
        eng.alive_peers().map(|p| eng.view_of(p).ids()).collect()
    }

    /// Attacker-held entries among honest views, and all honest entries.
    fn attacker_in_degree<P: Protocol>(eng: &Engine<P>, attack: &Attack) -> (usize, usize) {
        let honest = eng.alive_peers().filter(|p| !attack.is_attacker(*p));
        let entries: Vec<PeerId> = honest.flat_map(|p| eng.view_of(p).ids()).collect();
        let captured = entries.iter().filter(|d| attack.is_attacker(**d)).count();
        (captured, entries.len())
    }

    #[test]
    fn recruitment_respects_fraction_and_placement() {
        let eng: BaselineEngine = engine(GossipConfig::default(), 5);
        let attack = Attack::recruit(&eng, 5, AttackKind::SelfPromotion, 0.2, 4);
        assert_eq!(attack.attackers().len(), 8, "20% of 40 peers");
        for a in attack.attackers() {
            assert!(eng.class_of(*a).is_public(), "attackers are placed on public peers");
        }
        assert_eq!(attack.victims().len(), 4);
        for v in attack.victims() {
            assert!(!attack.is_attacker(*v), "victims are honest peers");
        }
    }

    #[test]
    fn zero_fraction_is_an_honest_run() {
        let mut honest: BaselineEngine = engine(GossipConfig::default(), 5);
        honest.run_rounds(15);
        let mut eng: BaselineEngine = engine(GossipConfig::default(), 5);
        let mut attack = Attack::recruit(&eng, 5, AttackKind::SelfPromotion, 0.0, 0);
        attack.run_rounds(&mut eng, 15);
        assert!(attack.attackers().is_empty());
        assert_eq!(views(&eng), views(&honest), "an attack at fraction 0 must not perturb the run");
    }

    #[test]
    fn self_promotion_captures_in_degree_on_the_baseline() {
        let mut eng: BaselineEngine = engine(GossipConfig::default(), 11);
        let mut attack = Attack::recruit(&eng, 11, AttackKind::SelfPromotion, 0.2, 0);
        attack.run_rounds(&mut eng, 30);
        let (captured, total) = attacker_in_degree(&eng, &attack);
        let share = captured as f64 / total as f64;
        // 20% of peers capture far more than their fair share of honest
        // view entries.
        assert!(share > 0.4, "capture share {share:.2} too low for 20% attackers");
    }

    #[test]
    fn self_promotion_also_works_on_peerswap() {
        let mut eng: PeerSwapEngine = engine(PeerSwapConfig::default(), 11);
        let mut attack = Attack::recruit(&eng, 11, AttackKind::SelfPromotion, 0.2, 0);
        attack.run_rounds(&mut eng, 30);
        let (captured, total) = attacker_in_degree(&eng, &attack);
        let share = captured as f64 / total as f64;
        assert!(share > 0.3, "capture share {share:.2} too low for 20% attackers");
    }

    #[test]
    fn attacks_are_deterministic_given_seed() {
        let fingerprint = |seed: u64| {
            let mut eng: BaselineEngine = engine(GossipConfig::default(), seed);
            let mut attack = Attack::recruit(&eng, seed, AttackKind::Eclipse, 0.25, 4);
            attack.run_rounds(&mut eng, 20);
            (attack.attackers().to_vec(), attack.victims().to_vec(), views(&eng))
        };
        assert_eq!(fingerprint(9), fingerprint(9));
        assert_ne!(fingerprint(9), fingerprint(10));
    }

    #[test]
    #[should_panic(expected = "attacker fraction must be in [0, 1]")]
    fn recruit_rejects_a_fraction_above_one() {
        let eng: BaselineEngine = engine(GossipConfig::default(), 1);
        Attack::recruit(&eng, 1, AttackKind::ShuffleLying, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "attacker fraction must be in [0, 1]")]
    fn recruit_rejects_a_nan_fraction() {
        let eng: BaselineEngine = engine(GossipConfig::default(), 1);
        Attack::recruit(&eng, 1, AttackKind::ShuffleLying, f64::NAN, 0);
    }
}
