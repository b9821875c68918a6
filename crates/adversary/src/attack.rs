//! The four attacks: view-rewrite rules for Byzantine peers.

use nylon_gossip::{NodeDescriptor, PartialView};
use nylon_net::{Endpoint, Ip, NatClass, NatType, PeerId, Port};
use nylon_sim::SimRng;

/// Everything an attack may read or rewrite when it corrupts one
/// attacker's view before a round.
#[derive(Debug)]
pub struct AttackCtx<'a> {
    /// The attacker's view (rewriting it controls the next shuffle
    /// payload; see [`nylon_gossip::Engine::view_of_mut`]).
    pub view: &'a mut PartialView,
    /// Fresh self-descriptors of the whole colluding attacker set.
    pub attackers: &'a [NodeDescriptor],
    /// Fresh descriptors of the alive victim set (empty unless the
    /// scenario designates victims).
    pub victims: &'a [NodeDescriptor],
    /// This attacker's persistent random stream (forked per attacker, so
    /// attacks stay deterministic under any execution layout).
    pub rng: &'a mut SimRng,
    /// Total population size (forged ids are drawn below this).
    pub n_peers: usize,
}

/// A plausible-looking but useless descriptor: a real peer id (so honest
/// dedup logic accepts it) behind a bogus address, claiming to sit behind
/// a symmetric NAT.
///
/// The class claim matters: a forged *public* descriptor would make
/// Nylon's class-based usability oracle count the edge as usable without
/// consulting any state, overstating the attack. Claiming
/// symmetric-natted forces every engine's oracle through its real
/// machinery (raw reachability for baseline/PeerSwap, routing state for
/// Nylon), which correctly reports the entry as dead weight.
pub fn forged_descriptor(rng: &mut SimRng, n_peers: usize) -> NodeDescriptor {
    let id = rng.gen_range(0..n_peers as u32);
    let addr = Endpoint::new(Ip(0xADBA_D000 ^ id), Port(9));
    NodeDescriptor::new(PeerId(id), addr, NatClass::Natted(NatType::Symmetric))
}

/// The four attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Shuffle lying: keep a sliver of real entries (so the attacker still
    /// initiates exchanges toward honest peers), fill the rest of the view
    /// with forged descriptors. The age-0 forgeries also displace the real
    /// copies in honest views through younger-wins dedup.
    ShuffleLying,
    /// Self promotion: advertise nothing but the colluding attacker set,
    /// capturing honest in-degree round over round as honest pulls adopt
    /// the advertised entries.
    SelfPromotion,
    /// Targeted eclipse: attackers aim their exchanges at the victim set
    /// (half the view) while advertising only colluders (the other half),
    /// so victims' views fill with attackers and the honest overlay loses
    /// them.
    Eclipse,
    /// NAT-aware eclipse: like [`Eclipse`](Self::Eclipse), but the payload
    /// half is forged *unreachable* entries rather than colluders. A
    /// NAT-oblivious protocol cannot tell these from live natted peers, so
    /// the victims' views silt up with dead weight even when the attacker
    /// set is small — the unreachable-entry pollution channel unique to
    /// NATted overlays.
    NatEclipse,
}

impl AttackKind {
    /// Every attack.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::ShuffleLying,
        AttackKind::SelfPromotion,
        AttackKind::Eclipse,
        AttackKind::NatEclipse,
    ];

    /// The stable name (figure labels and the CLI).
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::ShuffleLying => "shuffle-lying",
            AttackKind::SelfPromotion => "self-promotion",
            AttackKind::Eclipse => "eclipse",
            AttackKind::NatEclipse => "nat-eclipse",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<AttackKind> {
        Self::ALL.into_iter().find(|k| k.label() == name)
    }

    /// Rewrites one attacker's view. Returns how many attacker or forged
    /// descriptors were injected (kept real entries don't count), so the
    /// attack can account for its volume in telemetry.
    pub fn corrupt(self, ctx: &mut AttackCtx<'_>) -> u32 {
        match self {
            AttackKind::ShuffleLying => {
                let keep = ctx.view.capacity() / 3;
                while ctx.view.len() > keep {
                    let oldest = ctx.view.iter().max_by_key(|d| d.age).expect("non-empty").id;
                    ctx.view.remove(oldest);
                }
                // Forged ids collide (with the view and each other) and
                // collisions dedup away, so fill under an attempt bound
                // rather than a count.
                let kept = ctx.view.len();
                let mut tries = 4 * ctx.view.capacity();
                while ctx.view.len() < ctx.view.capacity() && tries > 0 {
                    ctx.view.insert(forged_descriptor(ctx.rng, ctx.n_peers));
                    tries -= 1;
                }
                (ctx.view.len() - kept) as u32
            }
            AttackKind::SelfPromotion => {
                ctx.view.retain(|_| false);
                for d in ctx.attackers {
                    ctx.view.insert(*d);
                }
                ctx.view.len() as u32
            }
            AttackKind::Eclipse => {
                ctx.view.retain(|_| false);
                let half = ctx.view.capacity() / 2;
                for d in ctx.victims.iter().take(half) {
                    ctx.view.insert(*d);
                }
                let targets = ctx.view.len();
                let mut i = 0;
                while ctx.view.len() < ctx.view.capacity() && i < ctx.attackers.len() {
                    ctx.view.insert(ctx.attackers[i]);
                    i += 1;
                }
                (ctx.view.len() - targets) as u32
            }
            AttackKind::NatEclipse => {
                ctx.view.retain(|_| false);
                let half = ctx.view.capacity() / 2;
                for d in ctx.victims.iter().take(half) {
                    ctx.view.insert(*d);
                }
                let targets = ctx.view.len();
                let mut tries = 4 * ctx.view.capacity();
                while ctx.view.len() < ctx.view.capacity() && tries > 0 {
                    ctx.view.insert(forged_descriptor(ctx.rng, ctx.n_peers));
                    tries -= 1;
                }
                (ctx.view.len() - targets) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture() -> (PartialView, Vec<NodeDescriptor>, Vec<NodeDescriptor>, SimRng) {
        let owner = PeerId(0);
        let mut view = PartialView::new(owner, 12);
        for i in 1..=8u32 {
            let mut d =
                NodeDescriptor::new(PeerId(i), Endpoint::new(Ip(i), Port(1000)), NatClass::Public);
            for _ in 0..i {
                d = d.aged();
            }
            view.insert(d);
        }
        let attackers: Vec<NodeDescriptor> = (90..93u32)
            .map(|i| {
                NodeDescriptor::new(PeerId(i), Endpoint::new(Ip(i), Port(2000)), NatClass::Public)
            })
            .collect();
        let victims: Vec<NodeDescriptor> = (50..60u32)
            .map(|i| {
                NodeDescriptor::new(PeerId(i), Endpoint::new(Ip(i), Port(3000)), NatClass::Public)
            })
            .collect();
        (view, attackers, victims, SimRng::new(7))
    }

    fn corrupt(kind: AttackKind) -> PartialView {
        let (mut view, attackers, victims, mut rng) = ctx_fixture();
        let mut ctx = AttackCtx {
            view: &mut view,
            attackers: &attackers,
            victims: &victims,
            rng: &mut rng,
            n_peers: 100,
        };
        kind.corrupt(&mut ctx);
        view
    }

    #[test]
    fn forged_descriptors_are_plausible_but_symmetric_natted() {
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            let d = forged_descriptor(&mut rng, 64);
            assert!(d.id.0 < 64, "forged id must be a real peer id");
            assert_eq!(d.class, NatClass::Natted(NatType::Symmetric));
            assert_eq!(d.age, 0, "forgeries are advertised fresh");
        }
    }

    #[test]
    fn shuffle_lying_keeps_a_sliver_and_fills_with_forgeries() {
        let view = corrupt(AttackKind::ShuffleLying);
        assert_eq!(view.len(), view.capacity());
        let forged =
            view.iter().filter(|d| d.class == NatClass::Natted(NatType::Symmetric)).count();
        assert!(
            forged >= view.capacity() - view.capacity() / 3,
            "view must be mostly forged, got {forged} of {}",
            view.len()
        );
    }

    #[test]
    fn self_promotion_advertises_only_colluders() {
        let view = corrupt(AttackKind::SelfPromotion);
        assert_eq!(view.len(), 3);
        assert!(view.iter().all(|d| (90..93).contains(&d.id.0)));
    }

    #[test]
    fn eclipse_splits_view_between_victims_and_colluders() {
        let view = corrupt(AttackKind::Eclipse);
        let victims = view.iter().filter(|d| (50..60).contains(&d.id.0)).count();
        let colluders = view.iter().filter(|d| (90..93).contains(&d.id.0)).count();
        assert_eq!(victims, 6, "half the capacity goes to victims");
        assert_eq!(colluders, 3, "the rest is colluders (all 3 available)");
    }

    #[test]
    fn nat_eclipse_pads_with_unreachable_forgeries() {
        let view = corrupt(AttackKind::NatEclipse);
        assert_eq!(view.len(), view.capacity());
        let victims = view
            .iter()
            .filter(|d| (50..60).contains(&d.id.0) && d.class == NatClass::Public)
            .count();
        let forged =
            view.iter().filter(|d| d.class == NatClass::Natted(NatType::Symmetric)).count();
        assert_eq!(victims, 6);
        assert_eq!(victims + forged, view.len());
    }

    #[test]
    fn kind_roundtrips_through_labels() {
        for kind in AttackKind::ALL {
            assert_eq!(AttackKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(AttackKind::parse("nope"), None);
    }
}
