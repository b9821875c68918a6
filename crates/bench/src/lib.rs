//! Shared helpers for the Criterion benches.
//!
//! Each paper artifact (table or figure) has a bench target that runs its
//! generator end-to-end at *micro scale* — small enough to iterate under
//! Criterion, large enough to exercise every code path the full
//! reproduction uses. The full-scale numbers come from the `repro` binary
//! (`cargo run --release -p nylon-workloads --bin repro -- all`), not from
//! `cargo bench`; benches track the cost of regenerating each artifact and
//! guard against performance regressions in the simulator.

pub mod counting_alloc;

use nylon_workloads::figures::FigureScale;

/// The micro scale used by the figure benches.
pub fn micro_scale() -> FigureScale {
    FigureScale {
        peers: 40,
        seeds: 1,
        rounds: 12,
        full_churn_horizons: false,
        base_seed: 7,
        shards: 0,
        ..FigureScale::default()
    }
}

/// A slightly larger scale for benches whose artifact needs longer
/// horizons to be meaningful (churn).
pub fn small_scale() -> FigureScale {
    FigureScale {
        peers: 60,
        seeds: 1,
        rounds: 20,
        full_churn_horizons: false,
        base_seed: 7,
        shards: 0,
        ..FigureScale::default()
    }
}

/// Standard Criterion tuning for the figure benches: few samples, short
/// windows — each iteration is a whole multi-run experiment.
#[macro_export]
macro_rules! figure_bench {
    ($name:ident, $figure:literal, $scale:expr) => {
        fn $name(c: &mut criterion::Criterion) {
            let scale = $scale;
            c.bench_function(concat!("repro_", $figure), |b| {
                b.iter(|| {
                    let tables = nylon_workloads::figures::generate($figure, &scale)
                        .expect("known figure name");
                    criterion::black_box(tables)
                })
            });
        }
        criterion::criterion_group! {
            name = benches;
            config = criterion::Criterion::default()
                .sample_size(10)
                .warm_up_time(std::time::Duration::from_millis(500))
                .measurement_time(std::time::Duration::from_secs(5));
            targets = $name
        }
        criterion::criterion_main!(benches);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_small() {
        assert!(micro_scale().peers <= 64);
        assert!(small_scale().peers <= 128);
        assert_eq!(micro_scale().seeds, 1);
    }
}
