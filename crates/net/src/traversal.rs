//! NAT traversal techniques and the Section 2.2 decision table.
//!
//! The paper summarizes which traversal technique applies for each
//! combination of source and target NAT type (source in rows, target in
//! columns):
//!
//! | src \ dst | public | RC | PRC | SYM |
//! |---|---|---|---|---|
//! | public | direct | hole punching | hole punching | relay |
//! | RC | direct | hole punching | hole punching | hole punching |
//! | PRC | direct | hole punching | hole punching | relaying |
//! | SYM | direct | mod. hole punching | relaying | relaying |
//!
//! Full-cone NATs are omitted from the table because, as the paper notes,
//! "peers behind FC NATs behave similarly to public peers as long as they
//! frequently send or receive messages"; [`contact_method`] treats them
//! accordingly (FC target is directly addressable while its mapping is kept
//! alive, FC source behaves as an unfiltered source).

use std::fmt;

use crate::nat::{NatClass, NatType};

/// The technique required to establish a message exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContactMethod {
    /// The target is directly addressable; just send.
    Direct,
    /// Classic hole punching: PING to the target, OPEN_HOLE via a
    /// rendez-vous peer, PONG back from the target.
    HolePunching,
    /// Hole punching where the PONG must travel back through the
    /// rendez-vous peer because the source's public endpoint is not
    /// predictable (source behind a symmetric NAT; footnote 2 of the paper).
    ModifiedHolePunching,
    /// No hole can be punched; every message must be relayed by the
    /// rendez-vous peer.
    Relaying,
}

impl ContactMethod {
    /// `true` if messages flow through a relay for the whole exchange.
    pub const fn is_relayed(self) -> bool {
        matches!(self, ContactMethod::Relaying)
    }

    /// `true` if some form of hole punching establishes a direct flow.
    pub const fn is_hole_punching(self) -> bool {
        matches!(self, ContactMethod::HolePunching | ContactMethod::ModifiedHolePunching)
    }
}

impl fmt::Display for ContactMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ContactMethod::Direct => "direct",
            ContactMethod::HolePunching => "hole punching",
            ContactMethod::ModifiedHolePunching => "mod. hole punching",
            ContactMethod::Relaying => "relaying",
        };
        f.write_str(s)
    }
}

/// The Section 2.2 decision table: technique to contact `dst` from `src`.
///
/// Full-cone endpoints are folded onto the `public` row/column, per the
/// paper's observation that active FC peers behave like public ones.
///
/// ```
/// use nylon_net::nat::{NatClass, NatType};
/// use nylon_net::traversal::{contact_method, ContactMethod};
///
/// let sym = NatClass::Natted(NatType::Symmetric);
/// let prc = NatClass::Natted(NatType::PortRestrictedCone);
/// assert_eq!(contact_method(prc, sym), ContactMethod::Relaying);
/// assert_eq!(contact_method(sym, NatClass::Public), ContactMethod::Direct);
/// ```
pub fn contact_method(src: NatClass, dst: NatClass) -> ContactMethod {
    use ContactMethod::*;
    use NatType::*;

    // Effective row/column classes: FC folds onto public.
    let eff = |c: NatClass| -> Option<NatType> {
        match c {
            NatClass::Public | NatClass::Natted(FullCone) => None,
            NatClass::Natted(t) => Some(t),
        }
    };

    match (eff(src), eff(dst)) {
        // Column "public" (and FC): always direct.
        (_, None) => Direct,
        // FC rows/columns were folded onto `None` above; these patterns are
        // unreachable but keep the match exhaustive.
        (Some(FullCone), _) | (_, Some(FullCone)) => unreachable!("FC folded onto public"),
        // Row "public".
        (None, Some(RestrictedCone | PortRestrictedCone)) => HolePunching,
        (None, Some(Symmetric)) => Relaying,
        // Row "RC".
        (Some(RestrictedCone), Some(_)) => HolePunching,
        // Row "PRC".
        (Some(PortRestrictedCone), Some(Symmetric)) => Relaying,
        (Some(PortRestrictedCone), Some(_)) => HolePunching,
        // Row "SYM".
        (Some(Symmetric), Some(RestrictedCone)) => ModifiedHolePunching,
        (Some(Symmetric), Some(_)) => Relaying,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUB: NatClass = NatClass::Public;
    const FC: NatClass = NatClass::Natted(NatType::FullCone);
    const RC: NatClass = NatClass::Natted(NatType::RestrictedCone);
    const PRC: NatClass = NatClass::Natted(NatType::PortRestrictedCone);
    const SYM: NatClass = NatClass::Natted(NatType::Symmetric);

    /// The exact table printed in Section 2.2 of the paper.
    #[test]
    fn matches_paper_table() {
        use ContactMethod::*;
        let expected = [
            (PUB, [Direct, HolePunching, HolePunching, Relaying]),
            (RC, [Direct, HolePunching, HolePunching, HolePunching]),
            (PRC, [Direct, HolePunching, HolePunching, Relaying]),
            (SYM, [Direct, ModifiedHolePunching, Relaying, Relaying]),
        ];
        let cols = [PUB, RC, PRC, SYM];
        for (src, row) in expected {
            for (dst, want) in cols.iter().zip(row) {
                assert_eq!(
                    contact_method(src, *dst),
                    want,
                    "src={} dst={}",
                    src.label(),
                    dst.label()
                );
            }
        }
    }

    #[test]
    fn full_cone_folds_onto_public() {
        for other in [PUB, FC, RC, PRC, SYM] {
            assert_eq!(contact_method(FC, other), contact_method(PUB, other));
            assert_eq!(contact_method(other, FC), contact_method(other, PUB));
        }
    }

    #[test]
    fn predicates() {
        assert!(ContactMethod::Relaying.is_relayed());
        assert!(!ContactMethod::Direct.is_relayed());
        assert!(ContactMethod::HolePunching.is_hole_punching());
        assert!(ContactMethod::ModifiedHolePunching.is_hole_punching());
        assert!(!ContactMethod::Relaying.is_hole_punching());
    }

    #[test]
    fn display_labels() {
        assert_eq!(ContactMethod::Direct.to_string(), "direct");
        assert_eq!(ContactMethod::ModifiedHolePunching.to_string(), "mod. hole punching");
    }
}
