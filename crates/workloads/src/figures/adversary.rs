//! Adversarial artifacts: the randomness head-to-head and the Byzantine
//! attack figures (in-degree capture, eclipse/partition resistance).
//!
//! These go beyond the paper — its evaluation covers crashes and NATs
//! only — and lean on [`nylon_adversary`]: a configurable fraction of the
//! population turns Byzantine and rewrites its views between rounds, so
//! every engine faces the same attacks through the same pass.
//!
//! * `randomness` — an honest head-to-head of all four engines: how
//!   uniform are the usable-overlay in-degrees, with and without NATs?
//!   Reported as the dispersion index (variance-to-mean; iid-uniform ≈ 1,
//!   temporally-correlated gossip sits above 1 — what matters is the
//!   engine-to-engine and NAT-to-NAT-free comparison) and the chi-square
//!   p-value of [`nylon_metrics::randomness`].
//! * `capture` — in-degree capture vs attacker fraction under
//!   self-promoting attackers (override with `--attack`): what share of
//!   honest view entries do the attackers hold, against the uniform share
//!   an unbiased sampler would give them?
//! * `eclipse` — partition resistance for a victim set under the targeted
//!   eclipse, in two variants: colluder-padded at 0 % NAT, and the
//!   NAT-aware variant padding with forged unreachable entries at 60 %
//!   NAT (pollution a NAT-oblivious protocol cannot detect).

use nylon_adversary::{Attack, AttackKind};
use nylon_gossip::{Engine, PeerSampler, Protocol};
use nylon_metrics::randomness::{chi_square_uniform, dispersion_index};

use crate::output::{fmt_f, Table};
use crate::runner::{biggest_cluster_pct, build, usable_in_degrees};
use crate::scenario::Scenario;

use super::common::{dispatch_engine, finite_means, mean_finite, mean_sd_finite, point_seeds};
use super::{EngineKind, FigureScale, Grid, Plan};

/// NAT percentages for the randomness head-to-head: a NAT-free control
/// and a NATted population where staleness can bias sampling.
const RANDOMNESS_NAT_PCTS: [f64; 2] = [0.0, 60.0];

/// Attacker fractions on the capture figure's x-axis.
const CAPTURE_FRACTIONS: [f64; 4] = [0.05, 0.10, 0.20, 0.30];

/// NAT percentage for the capture figure: NATted enough to matter, below
/// every engine's partition threshold so capture is not confounded.
const CAPTURE_NAT_PCT: f64 = 30.0;

/// Attacker fractions for the eclipse figure.
const ECLIPSE_FRACTIONS: [f64; 2] = [0.10, 0.25];

/// The eclipse variants: `(attack, NAT %)`. The colluder-padded eclipse
/// runs NAT-free; the NAT-aware variant needs a NATted population for its
/// forged-unreachable-entry channel to be plausible cover.
const ECLIPSE_VARIANTS: [(AttackKind, f64); 2] =
    [(AttackKind::Eclipse, 0.0), (AttackKind::NatEclipse, 60.0)];

/// Eclipse victim count for a population size: 5 %, at least one.
fn victim_count(peers: usize) -> usize {
    (peers / 20).max(1)
}

/// Usable-overlay in-degree uniformity for one engine at one NAT
/// percentage: `[dispersion index, chi-square p-value]`.
fn randomness_sample(scale: &FigureScale, kind: EngineKind, nat_pct: f64, seed: u64) -> Vec<f64> {
    fn measure<S: PeerSampler>(mut eng: S, rounds: u64) -> Vec<f64> {
        eng.run_rounds(rounds);
        let counts: Vec<u64> = usable_in_degrees(&eng).into_iter().map(u64::from).collect();
        vec![
            dispersion_index(&counts).unwrap_or(f64::NAN),
            chi_square_uniform(&counts).map(|c| c.p_value).unwrap_or(f64::NAN),
        ]
    }
    let scn = Scenario::new(scale.peers, nat_pct, seed);
    dispatch_engine!(kind, |cfg| measure(build(&scn, cfg), scale.rounds))
}

/// Attacked-run metrics shared by the capture and eclipse cells:
/// `[attacker share of honest view entries (%), biggest cluster (%),
/// victim view pollution (%)]`.
fn attacked_sample(
    scale: &FigureScale,
    kind: EngineKind,
    attack: AttackKind,
    nat_pct: f64,
    fraction: f64,
    victims: usize,
    seed: u64,
) -> Vec<f64> {
    fn measure<P: Protocol>(mut eng: Engine<P>, mut attack: Attack, rounds: u64) -> Vec<f64> {
        attack.run_rounds(&mut eng, rounds);
        let cluster = biggest_cluster_pct(&eng);
        let mut entries = 0u64;
        let mut captured = 0u64;
        for p in eng.alive_peers() {
            if attack.is_attacker(p) {
                continue;
            }
            for d in eng.view_of(p).iter() {
                entries += 1;
                if attack.is_attacker(d.id) {
                    captured += 1;
                }
            }
        }
        let capture =
            if entries == 0 { f64::NAN } else { 100.0 * captured as f64 / entries as f64 };
        // Victim view pollution: the share of a victim's entries that are
        // attacker-held or unusable — the eclipse's grip on the victims.
        let mut v_entries = 0u64;
        let mut v_polluted = 0u64;
        for &v in attack.victims() {
            if !eng.is_alive(v) {
                continue;
            }
            for d in eng.view_of(v).iter() {
                v_entries += 1;
                if attack.is_attacker(d.id) || !eng.edge_usable(v, d) {
                    v_polluted += 1;
                }
            }
        }
        let pollution =
            if v_entries == 0 { f64::NAN } else { 100.0 * v_polluted as f64 / v_entries as f64 };
        vec![capture, cluster, pollution]
    }
    let scn = Scenario::new(scale.peers, nat_pct, seed);
    dispatch_engine!(kind, |cfg| {
        let eng = build(&scn, cfg);
        let adversary = Attack::recruit(&eng, seed, attack, fraction, victims);
        measure(eng, adversary, scale.rounds)
    })
}

/// The `randomness` plan: one row per engine, a point per NAT percentage.
pub fn plan_randomness(scale: &FigureScale) -> Plan {
    let mut grid = Grid::new("randomness");
    for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
        grid.row([kind.label().to_string()]);
        for (i, pct) in RANDOMNESS_NAT_PCTS.into_iter().enumerate() {
            let salt = 0x0AD0_0000 ^ ((k as u64) << 8) ^ (i as u64);
            let scale = scale.clone();
            let key = format!("{}/{pct:.0}", kind.label());
            grid.point(key, point_seeds(&scale, salt), move |seed| {
                randomness_sample(&scale, kind, pct, seed)
            });
        }
    }
    Plan::new(vec![grid], |results, rows| {
        let mut columns = vec!["engine".to_string()];
        for pct in RANDOMNESS_NAT_PCTS {
            columns.push(format!("dispersion @{pct:.0}% NAT"));
            columns.push(format!("chi2 p @{pct:.0}% NAT"));
        }
        let table = Table::new(
            "Randomness head-to-head — usable-overlay in-degree uniformity (dispersion: iid uniform = 1, lower is better)",
            columns,
        );
        vec![rows[0].render(results, table, |points| {
            points.iter().flat_map(|p| finite_means(p, &[2, 3])).collect()
        })]
    })
}

/// The `capture` plan: one row per engine, a point per attacker fraction,
/// under the self-promotion attack (or the [`FigureScale::attack`]
/// override).
pub fn plan_capture(scale: &FigureScale) -> Plan {
    let attack = scale.attack.unwrap_or(AttackKind::SelfPromotion);
    let mut grid = Grid::new("capture");
    for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
        grid.row([kind.label().to_string()]);
        for (i, fraction) in CAPTURE_FRACTIONS.into_iter().enumerate() {
            let salt = 0x0CA0_0000 ^ ((k as u64) << 8) ^ (i as u64);
            let scale = scale.clone();
            let key = format!("{}/{:.0}", kind.label(), fraction * 100.0);
            grid.point(key, point_seeds(&scale, salt), move |seed| {
                attacked_sample(&scale, kind, attack, CAPTURE_NAT_PCT, fraction, 0, seed)
            });
        }
    }
    Plan::new(vec![grid], move |results, rows| {
        let mut columns = vec!["engine".to_string()];
        columns.extend(CAPTURE_FRACTIONS.iter().map(|f| format!("{:.0}% attackers", f * 100.0)));
        let mut capture = Table::new(
            &format!(
                "In-degree capture vs attacker fraction — {} attackers, {CAPTURE_NAT_PCT:.0}% NAT (attacker share of honest view entries, %)",
                attack.label()
            ),
            columns.clone(),
        );
        let mut uniform = vec!["uniform share".to_string()];
        uniform.extend(CAPTURE_FRACTIONS.iter().map(|f| fmt_f(f * 100.0, 1)));
        capture.push_row(uniform);
        let cluster = Table::new(
            &format!(
                "Biggest cluster under {} attackers, {CAPTURE_NAT_PCT:.0}% NAT (% of alive peers)",
                attack.label()
            ),
            columns,
        );
        [(capture, 0), (cluster, 1)]
            .map(|(table, col)| {
                rows[0].render(results, table, |points| {
                    points.iter().map(|p| fmt_f(mean_finite(p, col), 1)).collect()
                })
            })
            .into()
    })
}

/// The `eclipse` plan: one row per engine and eclipse variant
/// (colluder-padded NAT-free, forged-entry-padded at 60 % NAT), a point
/// per attacker fraction, with 5 % of the population designated victims.
pub fn plan_eclipse(scale: &FigureScale) -> Plan {
    let victims = victim_count(scale.peers);
    let mut grid = Grid::new("eclipse");
    for (k, kind) in EngineKind::ALL.into_iter().enumerate() {
        for (v, (attack, nat_pct)) in ECLIPSE_VARIANTS.into_iter().enumerate() {
            grid.row([kind.label().to_string(), format!("{} @{nat_pct:.0}% NAT", attack.label())]);
            for (i, fraction) in ECLIPSE_FRACTIONS.into_iter().enumerate() {
                let salt = 0x0EC0_0000 ^ ((k as u64) << 12) ^ ((v as u64) << 8) ^ (i as u64);
                let scale = scale.clone();
                let key = format!("{}/{}/{:.0}", kind.label(), attack.label(), fraction * 100.0);
                grid.point(key, point_seeds(&scale, salt), move |seed| {
                    attacked_sample(&scale, kind, attack, nat_pct, fraction, victims, seed)
                });
            }
        }
    }
    Plan::new(vec![grid], |results, rows| {
        let mut columns = vec!["engine".to_string(), "variant".to_string()];
        columns.extend(ECLIPSE_FRACTIONS.iter().map(|f| format!("{:.0}% attackers", f * 100.0)));
        [
            (1, "Partition resistance under eclipse — biggest cluster (% of alive peers)"),
            (2, "Victim view pollution under eclipse (% of victim entries attacker-held or unusable)"),
        ]
        .map(|(col, title)| {
            rows[0].render(results, Table::new(title, columns.clone()), |points| {
                points.iter().map(|p| mean_sd_finite(p, col)).collect()
            })
        })
        .into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::generate;

    fn tiny() -> FigureScale {
        FigureScale { peers: 32, seeds: 1, rounds: 8, ..FigureScale::default() }
    }

    #[test]
    fn randomness_covers_every_engine() {
        let tables = generate("randomness", &tiny()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), EngineKind::ALL.len());
        for (kind, row) in EngineKind::ALL.into_iter().zip(&tables[0].rows) {
            assert_eq!(row[0], kind.label());
            assert_ne!(row[1], "-", "dispersion must be finite for {}", kind.label());
        }
    }

    #[test]
    fn capture_renders_share_and_cluster_tables() {
        let tables = generate("capture", &tiny()).unwrap();
        assert_eq!(tables.len(), 2);
        // Uniform-share reference row plus one row per engine.
        assert_eq!(tables[0].rows.len(), 1 + EngineKind::ALL.len());
        assert_eq!(tables[1].rows.len(), EngineKind::ALL.len());
        assert_eq!(tables[0].rows[0][0], "uniform share");
    }

    #[test]
    fn capture_honors_the_attack_override() {
        let scale = FigureScale { attack: Some(AttackKind::ShuffleLying), ..tiny() };
        let tables = generate("capture", &scale).unwrap();
        assert!(tables[0].title.contains("shuffle-lying"));
    }

    #[test]
    fn eclipse_renders_both_variants_per_engine() {
        let tables = generate("eclipse", &tiny()).unwrap();
        assert_eq!(tables.len(), 2);
        for table in &tables {
            assert_eq!(table.rows.len(), EngineKind::ALL.len() * ECLIPSE_VARIANTS.len());
        }
        // The NAT-aware variant is present and labeled.
        assert!(tables[0].rows.iter().any(|r| r[1].contains("nat-eclipse")));
    }

    #[test]
    fn adversarial_cells_are_deterministic() {
        let scale = tiny();
        let one = generate("eclipse", &scale).unwrap();
        let two = generate("eclipse", &scale).unwrap();
        let flat =
            |tables: &[Table]| tables.iter().map(|t| t.to_csv()).collect::<Vec<_>>().join("\n");
        assert_eq!(flat(&one), flat(&two));
    }
}
