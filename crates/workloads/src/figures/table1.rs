//! The NAT traversal rule Nylon runs, as a table over the paper's four
//! classes.
//!
//! Each cell is [`contact_method`], the rule `Nylon::initiate` dispatches
//! on. Two cells depart from the paper's Section 2.2 table: public → SYM
//! prints "hole punching" (the paper relays) and SYM → RC prints "relaying"
//! (the paper uses modified hole punching, which Nylon lacks). The paper
//! leaves full-cone peers out and so does this table; Nylon punches towards
//! them (see `nylon_net::traversal`).

use nylon_net::traversal::contact_method;
use nylon_net::{NatClass, NatType};

use crate::output::Table;

use super::{FigureScale, Plan};

/// The traversal table's plan: no simulation, one table.
pub fn plan(_: &FigureScale) -> Plan {
    Plan::new(Vec::new(), |_, _| vec![generate()])
}

/// Generates the traversal table (rows: source NAT type, columns: target
/// NAT type).
pub fn generate() -> Table {
    let classes = [
        NatClass::Public,
        NatClass::Natted(NatType::RestrictedCone),
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    ];
    let mut columns = vec!["src \\ dst".to_string()];
    columns.extend(classes.iter().map(|c| c.label().to_string()));
    let title = "NAT traversal technique per (source, target) as Nylon runs it; \
                 Section 2.2 differs at public → SYM and SYM → RC";
    let mut table = Table::new(title, columns);
    for src in classes {
        let mut row = vec![src.label().to_string()];
        for dst in classes {
            row.push(contact_method(src, dst).to_string());
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_layout() {
        let t = generate();
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.rows.len(), 4);
        // Spot-check the distinctive cells, the two departures included.
        assert_eq!(t.rows[0][4], "hole punching", "public -> SYM");
        assert_eq!(t.rows[1][4], "hole punching", "RC -> SYM");
        assert_eq!(t.rows[2][4], "relaying", "PRC -> SYM");
        assert_eq!(t.rows[3][2], "relaying", "SYM -> RC");
        assert!(t.rows.iter().all(|r| r[1] == "direct"), "public targets are direct");
    }
}
