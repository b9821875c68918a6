//! NAT traversal techniques and the rule that picks one per (source,
//! target) pair.
//!
//! [`contact_method`] is the one rule: the Nylon engine's `initiate`
//! dispatches on it and `repro table1` prints it (source in rows, target in
//! columns):
//!
//! | src \ dst | public | FC | RC | PRC | SYM |
//! |---|---|---|---|---|---|
//! | public | direct | hole punching | hole punching | hole punching | hole punching |
//! | FC | direct | hole punching | hole punching | hole punching | hole punching |
//! | RC | direct | hole punching | hole punching | hole punching | hole punching |
//! | PRC | direct | hole punching | hole punching | hole punching | relaying |
//! | SYM | direct | relaying | relaying | relaying | relaying |
//!
//! It departs from the paper's Section 2.2 table in two cells:
//!
//! * public → SYM: the paper relays, Nylon punches. The symmetric box maps
//!   its PONG towards the public peer's one known endpoint, and that
//!   mapping lets the exchange run direct (`tests/traversal_matrix.rs`
//!   drives this at packet level).
//! * SYM → RC: the paper uses modified hole punching, where the PONG
//!   returns along the rendez-vous chain (its footnote 2). Nylon has no
//!   such path and relays.
//!
//! The paper leaves full-cone (FC) NATs out of its table. Here an FC peer is
//! natted like an RC one: traffic reaches it only while an outbound mapping
//! is alive, which its contacts cannot know, so Nylon punches towards it.

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
    /// No hole can be punched; every message must be relayed by the
    /// rendez-vous peer.
    Relaying,
}

impl fmt::Display for ContactMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ContactMethod::Direct => "direct",
            ContactMethod::HolePunching => "hole punching",
            ContactMethod::Relaying => "relaying",
        };
        f.write_str(s)
    }
}

/// The technique to contact `dst` from `src` (see the module table).
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
    use NatType::{PortRestrictedCone, Symmetric};
    match (src, dst) {
        (_, NatClass::Public) => ContactMethod::Direct,
        (NatClass::Natted(Symmetric), _) => ContactMethod::Relaying,
        (NatClass::Natted(PortRestrictedCone), NatClass::Natted(Symmetric)) => {
            ContactMethod::Relaying
        }
        _ => ContactMethod::HolePunching,
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

    /// The table printed in Section 2.2 of the paper, which
    /// [`contact_method`] follows except in its two departures; those two
    /// cells and the FC row and column, which the paper leaves out, are
    /// pinned to what the engine does.
    #[test]
    fn matches_paper_table() {
        use ContactMethod::*;
        let paper = [
            (PUB, ["direct", "hole punching", "hole punching", "relaying"]),
            (RC, ["direct", "hole punching", "hole punching", "hole punching"]),
            (PRC, ["direct", "hole punching", "hole punching", "relaying"]),
            (SYM, ["direct", "mod. hole punching", "relaying", "relaying"]),
        ];
        let departures = [((PUB, SYM), HolePunching), ((SYM, RC), Relaying)];
        let cols = [PUB, RC, PRC, SYM];
        for (src, row) in paper {
            for (dst, cell) in cols.into_iter().zip(row) {
                let got = contact_method(src, dst);
                match departures.iter().find(|(pair, _)| *pair == (src, dst)) {
                    Some(&(_, engine)) => assert_eq!(got, engine, "{src} -> {dst}"),
                    None => assert_eq!(got.to_string(), cell, "{src} -> {dst}"),
                }
            }
        }
        for other in [PUB, FC, RC, PRC, SYM] {
            let from_fc = if other == PUB { Direct } else { HolePunching };
            assert_eq!(contact_method(FC, other), from_fc, "FC -> {other}");
            let to_fc = if other == SYM { Relaying } else { HolePunching };
            assert_eq!(contact_method(other, FC), to_fc, "{other} -> FC");
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(ContactMethod::Direct.to_string(), "direct");
        assert_eq!(ContactMethod::HolePunching.to_string(), "hole punching");
        assert_eq!(ContactMethod::Relaying.to_string(), "relaying");
    }
}
