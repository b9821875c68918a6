//! NAT device types and peer classification.
//!
//! Section 2 of the paper describes four NAT behaviours, distinguished by
//! how they *map* private endpoints to public ones and which inbound
//! packets they *filter*:
//!
//! | Type | Mapping | Filtering |
//! |---|---|---|
//! | Full Cone (FC) | endpoint-independent | none (forward all) |
//! | Restricted Cone (RC) | endpoint-independent | source IP must have been contacted |
//! | Port Restricted Cone (PRC) | endpoint-independent | source IP *and port* must have been contacted |
//! | Symmetric (SYM) | per-destination port | source IP and port of that destination only |

use std::fmt;

/// The behaviour of a NAT device, per Section 2.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NatType {
    /// Full cone: endpoint-independent mapping, no inbound filtering while
    /// the mapping is alive.
    FullCone,
    /// Restricted cone: endpoint-independent mapping, inbound allowed only
    /// from IP addresses previously contacted.
    RestrictedCone,
    /// Port restricted cone: endpoint-independent mapping, inbound allowed
    /// only from exact endpoints previously contacted.
    PortRestrictedCone,
    /// Symmetric: a fresh public port per destination, inbound allowed only
    /// from the exact destination of that mapping.
    Symmetric,
}

impl NatType {
    /// All four types, in the paper's presentation order.
    pub const ALL: [NatType; 4] = [
        NatType::FullCone,
        NatType::RestrictedCone,
        NatType::PortRestrictedCone,
        NatType::Symmetric,
    ];

    /// `true` if the mapping is endpoint-independent (same public port for
    /// every destination): FC, RC and PRC.
    pub const fn is_cone(self) -> bool {
        !matches!(self, NatType::Symmetric)
    }

    /// Short uppercase label as used in the paper ("FC", "RC", "PRC",
    /// "SYM").
    pub const fn label(self) -> &'static str {
        match self {
            NatType::FullCone => "FC",
            NatType::RestrictedCone => "RC",
            NatType::PortRestrictedCone => "PRC",
            NatType::Symmetric => "SYM",
        }
    }
}

impl fmt::Display for NatType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a peer is publicly reachable or sits behind a NAT device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NatClass {
    /// A peer with a public, unfiltered address.
    Public,
    /// A peer behind a NAT of the given type.
    Natted(NatType),
}

impl NatClass {
    /// `true` for publicly reachable peers.
    pub const fn is_public(self) -> bool {
        matches!(self, NatClass::Public)
    }

    /// `true` for peers behind any NAT.
    pub const fn is_natted(self) -> bool {
        !self.is_public()
    }

    /// The NAT type, if natted.
    pub const fn nat_type(self) -> Option<NatType> {
        match self {
            NatClass::Public => None,
            NatClass::Natted(t) => Some(t),
        }
    }

    /// Short label ("public", "FC", "RC", "PRC", "SYM").
    pub const fn label(self) -> &'static str {
        match self {
            NatClass::Public => "public",
            NatClass::Natted(t) => t.label(),
        }
    }
}

impl fmt::Display for NatClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<NatType> for NatClass {
    fn from(t: NatType) -> NatClass {
        NatClass::Natted(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_classification() {
        assert!(NatType::FullCone.is_cone());
        assert!(NatType::RestrictedCone.is_cone());
        assert!(NatType::PortRestrictedCone.is_cone());
        assert!(!NatType::Symmetric.is_cone());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = NatType::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["FC", "RC", "PRC", "SYM"]);
        assert_eq!(NatClass::Public.label(), "public");
        assert_eq!(NatClass::Natted(NatType::Symmetric).to_string(), "SYM");
    }

    #[test]
    fn class_predicates() {
        let pub_ = NatClass::Public;
        let sym = NatClass::Natted(NatType::Symmetric);
        let rc = NatClass::Natted(NatType::RestrictedCone);
        assert!(pub_.is_public() && !pub_.is_natted());
        assert!(sym.is_natted() && rc.is_natted());
        assert_eq!(pub_.nat_type(), None);
        assert_eq!(rc.nat_type(), Some(NatType::RestrictedCone));
    }

    #[test]
    fn from_nat_type() {
        let c: NatClass = NatType::FullCone.into();
        assert_eq!(c, NatClass::Natted(NatType::FullCone));
    }
}
