//! The Section 2.2 NAT traversal decision table.

use nylon_net::traversal::contact_method;
use nylon_net::{NatClass, NatType};

use crate::output::Table;

use super::{FigureScale, Plan};

/// The traversal table's plan: no simulation, one table.
pub fn plan(_: &FigureScale) -> Plan {
    Plan::new(Vec::new(), |_, _| vec![generate()])
}

/// Generates the traversal table exactly as printed in the paper (rows:
/// source NAT type, columns: target NAT type).
pub fn generate() -> Table {
    let classes = [
        NatClass::Public,
        NatClass::Natted(NatType::RestrictedCone),
        NatClass::Natted(NatType::PortRestrictedCone),
        NatClass::Natted(NatType::Symmetric),
    ];
    let mut columns = vec!["src \\ dst".to_string()];
    columns.extend(classes.iter().map(|c| c.label().to_string()));
    let mut table =
        Table::new("Section 2.2 — NAT traversal technique per (source, target)", columns);
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
        // Spot-check the distinctive cells.
        assert_eq!(t.rows[0][4], "relaying", "public -> SYM");
        assert_eq!(t.rows[1][4], "hole punching", "RC -> SYM");
        assert_eq!(t.rows[3][2], "mod. hole punching", "SYM -> RC");
        assert!(t.rows.iter().all(|r| r[1] == "direct"), "public targets are direct");
    }
}
