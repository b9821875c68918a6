//! Every figure generator produces a well-formed table at tiny scale.

use nylon_workloads::figures::{generate, FigureScale, FIGURES};

fn tiny() -> FigureScale {
    FigureScale {
        peers: 50,
        seeds: 1,
        rounds: 15,
        full_churn_horizons: false,
        base_seed: 1,
        ..FigureScale::default()
    }
}

#[test]
fn every_figure_generates() {
    let scale = tiny();
    for (name, _) in FIGURES {
        let tables = generate(name, &scale)
            .unwrap_or_else(|| panic!("registry lists unknown figure {name}"));
        assert!(!tables.is_empty(), "{name} produced no tables");
        for t in &tables {
            assert!(!t.title.is_empty(), "{name}: empty title");
            assert!(!t.columns.is_empty(), "{name}: no columns");
            assert!(!t.rows.is_empty(), "{name}: no rows");
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{name}: ragged row");
            }
            // Both renderings stay consistent.
            let md = t.to_markdown();
            let csv = t.to_csv();
            assert_eq!(md.lines().count(), t.rows.len() + 2, "{name}: markdown shape");
            assert_eq!(csv.lines().count(), t.rows.len() + 1, "{name}: csv shape");
        }
    }
}

#[test]
fn fig2_has_all_configurations() {
    let tables = generate("fig2", &tiny()).unwrap();
    let t = &tables[0];
    assert_eq!(t.rows.len(), 12, "6 configs x 2 view sizes");
    let labels: Vec<&String> = t.rows.iter().map(|r| &r[1]).collect();
    assert!(labels.contains(&&"push/pull,rand,healer".to_string()));
    assert!(labels.contains(&&"push/pull,tail,swapper".to_string()));
}

#[test]
fn fig10_covers_grid() {
    let tables = generate("fig10", &tiny()).unwrap();
    let t = &tables[0];
    assert_eq!(t.rows.len(), 5, "five departure percentages");
    assert_eq!(t.columns.len(), 6, "label + five NAT percentages");
}

#[test]
fn ablation_has_three_tables() {
    let tables = generate("ablation", &tiny()).unwrap();
    assert_eq!(tables.len(), 3);
}
