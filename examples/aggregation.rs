//! A second application on top of peer sampling: gossip-based averaging
//! (push-pull anti-entropy aggregation, Jelasity et al., TOCS 2005 — cited
//! as [10] by the Nylon paper).
//!
//! Every peer holds a local value; each round it picks a partner *from its
//! peer-sampling view* and both set their values to the pair's average.
//! Symmetric pairwise averaging conserves the global mean by
//! construction; what the sampling quality controls is the *convergence
//! speed* — how fast the estimate spread (standard deviation across
//! peers) decays. Under NATs the baseline's usable links are few and
//! concentrated on public peers, so mixing slows by an order of
//! magnitude; Nylon's links mix like a NAT-free random overlay.
//!
//! Run with: `cargo run --release --example aggregation`

use nylon::NylonConfig;
use nylon_gossip::GossipConfig;
use nylon_net::PeerId;
use nylon_workloads::runner::build;
use nylon_workloads::{NatMix, Scenario};

const PEERS: usize = 300;
const NAT_PCT: f64 = 80.0;
const AGG_ROUNDS: usize = 30;

fn main() {
    let scn = Scenario { mix: NatMix::prc_only(), ..Scenario::new(PEERS, NAT_PCT, 33) };
    println!(
        "{PEERS} peers, {NAT_PCT:.0}% PRC NATs — averaging a value held only by natted peers\n"
    );

    // Local values: natted peers hold 100, public peers hold 0. The true
    // mean is therefore 100 * nat_fraction = 80. A sampling service that
    // under-represents natted peers under-estimates the mean.
    let mut base = build(&scn, GossipConfig::default());
    base.run_rounds(80);
    let mut nyl = build(&scn, NylonConfig::default());
    nyl.run_rounds(80);

    let initial = |p: PeerId, is_natted: bool| -> f64 {
        let _ = p;
        if is_natted {
            100.0
        } else {
            0.0
        }
    };
    let mut base_vals: Vec<f64> = (0..PEERS)
        .map(|i| {
            let p = PeerId(i as u32);
            initial(p, base.class_of(p).is_natted())
        })
        .collect();
    let mut nyl_vals = base_vals.clone();
    let true_mean = base_vals.iter().sum::<f64>() / PEERS as f64;
    println!("true mean: {true_mean:.2}\n");
    println!("{:>6} | {:>20} | {:>20}", "round", "baseline mean±std", "nylon mean±std");
    println!("{}", "-".repeat(54));

    for round in 0..=AGG_ROUNDS {
        if round % 5 == 0 {
            let (bm, bs) = mean_std(&base_vals);
            let (nm, ns) = mean_std(&nyl_vals);
            println!("{round:>6} | {bm:>12.2} ±{bs:>6.2} | {nm:>12.2} ±{ns:>6.2}");
        }
        // One synchronous aggregation round over *usable* links.
        aggregate_round(&mut base_vals, |p| {
            base.view_of(p).iter().filter(|d| base.edge_usable(p, d)).map(|d| d.id).next()
        });
        aggregate_round(&mut nyl_vals, |p| {
            nyl.view_of(p)
                .iter()
                .filter(|d| {
                    d.class.is_public() || nyl.protocol().routing_of(p).next_rvp(d.id).is_some()
                })
                .map(|d| d.id)
                .next()
        });
        // Let the sampling layer keep shuffling underneath.
        base.run_rounds(1);
        nyl.run_rounds(1);
    }

    let (_, bs) = mean_std(&base_vals);
    let (nm, ns) = mean_std(&nyl_vals);
    println!(
        "\nReading: both estimates stay at the true mean ({true_mean:.1}) — symmetric\n\
         averaging conserves it — but the *spread* tells the story: Nylon's\n\
         overlay mixes like a random graph (final std {ns:.4}) while the\n\
         baseline's NAT-crippled links mix an order of magnitude slower\n\
         (final std {bs:.4}, estimate at any single peer still off by that\n\
         much). Downstream protocols pay for sampling bias with convergence\n\
         time; {nm:.1} only certifies the lucky global average."
    );
}

/// One push-pull averaging round: every peer pairs with the first usable
/// view entry and both take the average.
fn aggregate_round(values: &mut [f64], partner_of: impl Fn(PeerId) -> Option<PeerId>) {
    for i in 0..values.len() {
        let p = PeerId(i as u32);
        if let Some(q) = partner_of(p) {
            let avg = (values[i] + values[q.index()]) / 2.0;
            values[i] = avg;
            values[q.index()] = avg;
        }
    }
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}
