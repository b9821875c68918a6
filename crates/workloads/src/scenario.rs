//! Population scenarios: who is public, who is behind which NAT.

use nylon_net::{NatClass, NatType};
use nylon_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Distribution of NAT types among *natted* peers.
///
/// The paper's evaluation uses 50 % RC, 40 % PRC, 10 % SYM ("we evaluated
/// other distributions and got comparable results"); Section 3's baseline
/// study uses PRC only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NatMix {
    /// Fraction of full-cone NATs.
    pub fc: f64,
    /// Fraction of restricted-cone NATs.
    pub rc: f64,
    /// Fraction of port-restricted-cone NATs.
    pub prc: f64,
    /// Fraction of symmetric NATs.
    pub sym: f64,
}

impl NatMix {
    /// The paper's evaluation mix: 50 % RC, 40 % PRC, 10 % SYM.
    pub const fn paper_default() -> Self {
        NatMix { fc: 0.0, rc: 0.5, prc: 0.4, sym: 0.1 }
    }

    /// PRC only, as in the Section 3 baseline study.
    pub const fn prc_only() -> Self {
        NatMix { fc: 0.0, rc: 0.0, prc: 1.0, sym: 0.0 }
    }

    /// Sum of the fractions (need not be 1; assignment normalizes).
    pub fn total(&self) -> f64 {
        self.fc + self.rc + self.prc + self.sym
    }

    /// Apportions `count` natted peers to NAT types by largest remainder,
    /// so counts are exact and deterministic.
    ///
    /// # Panics
    ///
    /// Panics if all fractions are zero (and `count > 0`) or any is
    /// negative.
    pub fn assign(&self, count: usize) -> Vec<NatType> {
        assert!(
            self.fc >= 0.0 && self.rc >= 0.0 && self.prc >= 0.0 && self.sym >= 0.0,
            "mix fractions must be non-negative"
        );
        if count == 0 {
            return Vec::new();
        }
        let total = self.total();
        assert!(total > 0.0, "mix fractions must not all be zero");
        let shares = [
            (NatType::FullCone, self.fc / total),
            (NatType::RestrictedCone, self.rc / total),
            (NatType::PortRestrictedCone, self.prc / total),
            (NatType::Symmetric, self.sym / total),
        ];
        let mut counts: Vec<(NatType, usize, f64)> = shares
            .iter()
            .map(|(t, f)| {
                let exact = f * count as f64;
                (*t, exact.floor() as usize, exact - exact.floor())
            })
            .collect();
        let assigned: usize = counts.iter().map(|(_, c, _)| c).sum();
        // Largest remainders get the leftover units.
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|a, b| {
            counts[*b].2.partial_cmp(&counts[*a].2).expect("remainders are finite")
        });
        let n_types = counts.len();
        for i in 0..(count - assigned) {
            counts[by_remainder[i % n_types]].1 += 1;
        }
        let mut out = Vec::with_capacity(count);
        for (t, c, _) in counts {
            out.extend(std::iter::repeat_n(t, c));
        }
        out
    }
}

impl Default for NatMix {
    fn default() -> Self {
        NatMix::paper_default()
    }
}

/// A population scenario: one concrete simulated network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Total number of peers (paper: 10,000).
    pub peers: usize,
    /// Percentage of peers behind NATs, in `[0, 100]`.
    pub nat_pct: f64,
    /// NAT-type distribution among natted peers.
    pub mix: NatMix,
    /// View size (paper: 15 or 27).
    pub view_size: usize,
    /// Bootstrap view entries per peer.
    pub bootstrap_contacts: usize,
    /// Fraction of natted peers with UPnP/NAT-PMP port forwarding enabled
    /// (paper: 0 — it discusses these protocols only as rejected related
    /// work).
    pub upnp_adoption: f64,
    /// Fault plan to compile and install (`None` for a clean run — the
    /// builder takes the exact pre-fault-plane code path). The spec's
    /// events are compiled against this scenario's classes and seed at
    /// default intensities; sweeps needing custom intensities go through
    /// [`crate::runner::build_with_faults`] instead.
    pub faults: Option<nylon_faults::FaultSpec>,
    /// Seed driving the run.
    pub seed: u64,
}

impl Scenario {
    /// A scenario at the paper's defaults (view 15, mixed NATs, 8
    /// bootstrap contacts).
    pub fn new(peers: usize, nat_pct: f64, seed: u64) -> Self {
        Scenario {
            peers,
            nat_pct,
            mix: NatMix::paper_default(),
            view_size: 15,
            bootstrap_contacts: 8,
            upnp_adoption: 0.0,
            faults: None,
            seed,
        }
    }

    /// Checks the scenario's fields for consistency, returning a message
    /// naming the offending field instead of letting nonsense values
    /// (negative NAT percentages, empty views, adoption fractions above 1)
    /// silently skew a simulation downstream.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers == 0 {
            return Err("peers must be nonzero".to_string());
        }
        if !self.nat_pct.is_finite() || !(0.0..=100.0).contains(&self.nat_pct) {
            return Err(format!("nat_pct must be within [0, 100], got {}", self.nat_pct));
        }
        if !self.upnp_adoption.is_finite() || !(0.0..=1.0).contains(&self.upnp_adoption) {
            return Err(format!("upnp_adoption must be within [0, 1], got {}", self.upnp_adoption));
        }
        if self.view_size == 0 {
            return Err("view_size must be nonzero".to_string());
        }
        if self.bootstrap_contacts == 0 {
            return Err("bootstrap_contacts must be nonzero (views would start empty)".to_string());
        }
        Ok(())
    }

    /// Number of natted peers implied by `nat_pct` (rounded to nearest).
    pub fn natted_count(&self) -> usize {
        ((self.nat_pct / 100.0) * self.peers as f64).round() as usize
    }

    /// The NAT class of every peer, in peer-id order: exact counts per the
    /// percentage and mix, positions shuffled deterministically from the
    /// scenario seed.
    ///
    /// # Panics
    ///
    /// Panics if `nat_pct` is outside `[0, 100]`.
    pub fn classes(&self) -> Vec<NatClass> {
        assert!((0.0..=100.0).contains(&self.nat_pct), "nat_pct must be within [0, 100]");
        let natted = self.natted_count().min(self.peers);
        let mut classes: Vec<NatClass> = Vec::with_capacity(self.peers);
        classes.extend(std::iter::repeat_n(NatClass::Public, self.peers - natted));
        classes.extend(self.mix.assign(natted).into_iter().map(NatClass::Natted));
        let mut rng = SimRng::new(self.seed).fork(0x63_6C61_7373_6573); // "classes"
        rng.shuffle(&mut classes);
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_mix_is_normalized() {
        let m = NatMix::paper_default();
        assert!((m.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assign_exact_counts() {
        let types = NatMix::paper_default().assign(100);
        assert_eq!(types.len(), 100);
        let rc = types.iter().filter(|t| **t == NatType::RestrictedCone).count();
        let prc = types.iter().filter(|t| **t == NatType::PortRestrictedCone).count();
        let sym = types.iter().filter(|t| **t == NatType::Symmetric).count();
        assert_eq!((rc, prc, sym), (50, 40, 10));
    }

    #[test]
    fn assign_handles_rounding() {
        // 7 peers at 50/40/10: floors are 3/2/0, remainders fill to 7.
        let types = NatMix::paper_default().assign(7);
        assert_eq!(types.len(), 7);
    }

    #[test]
    fn assign_zero_count() {
        assert!(NatMix::paper_default().assign(0).is_empty());
    }

    #[test]
    fn prc_only_mix() {
        let types = NatMix::prc_only().assign(10);
        assert!(types.iter().all(|t| *t == NatType::PortRestrictedCone));
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn empty_mix_panics() {
        NatMix { fc: 0.0, rc: 0.0, prc: 0.0, sym: 0.0 }.assign(5);
    }

    #[test]
    fn scenario_class_counts() {
        let s = Scenario::new(200, 70.0, 1);
        let classes = s.classes();
        assert_eq!(classes.len(), 200);
        let natted = classes.iter().filter(|c| c.is_natted()).count();
        assert_eq!(natted, 140);
    }

    #[test]
    fn scenario_classes_deterministic() {
        let s = Scenario::new(100, 50.0, 7);
        assert_eq!(s.classes(), s.classes());
        let s2 = Scenario { seed: 8, ..s.clone() };
        assert_ne!(s.classes(), s2.classes(), "different seeds must shuffle differently");
    }

    #[test]
    fn scenario_extremes() {
        let all_pub = Scenario::new(50, 0.0, 1);
        assert!(all_pub.classes().iter().all(|c| c.is_public()));
        let all_nat = Scenario::new(50, 100.0, 1);
        assert!(all_nat.classes().iter().all(|c| c.is_natted()));
    }

    #[test]
    fn validate_accepts_defaults() {
        assert_eq!(Scenario::new(100, 70.0, 1).validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let base = Scenario::new(100, 70.0, 1);
        let cases: [(Scenario, &str); 5] = [
            (Scenario { peers: 0, ..base.clone() }, "peers"),
            (Scenario { nat_pct: 120.0, ..base.clone() }, "nat_pct"),
            (Scenario { nat_pct: f64::NAN, ..base.clone() }, "nat_pct"),
            (Scenario { upnp_adoption: 1.5, ..base.clone() }, "upnp_adoption"),
            (Scenario { view_size: 0, ..base.clone() }, "view_size"),
        ];
        for (scn, field) in cases {
            let err = scn.validate().expect_err("invalid scenario must be rejected");
            assert!(err.contains(field), "error '{err}' does not name {field}");
        }
        let no_contacts = Scenario { bootstrap_contacts: 0, ..base };
        assert!(no_contacts.validate().is_err());
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let s = Scenario::new(100, 70.0, 3);
        assert!(format!("{s:?}").contains("nat_pct"));
    }

    proptest! {
        /// Assignment always returns exactly `count` types, for any
        /// normalizable mix.
        #[test]
        fn prop_assign_exact(
            count in 0usize..500,
            fc in 0.0f64..1.0,
            rc in 0.0f64..1.0,
            prc in 0.0f64..1.0,
            sym in 0.01f64..1.0,
        ) {
            let m = NatMix { fc, rc, prc, sym };
            prop_assert_eq!(m.assign(count).len(), count);
        }

        /// Class counts always match the percentage.
        #[test]
        fn prop_scenario_counts(peers in 1usize..300, pct in 0.0f64..100.0, seed in any::<u64>()) {
            let s = Scenario::new(peers, pct, seed);
            let classes = s.classes();
            prop_assert_eq!(classes.len(), peers);
            let natted = classes.iter().filter(|c| c.is_natted()).count();
            prop_assert_eq!(natted, s.natted_count().min(peers));
        }
    }
}
