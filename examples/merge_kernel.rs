//! Prices the healer merge (`PartialView::merge_and_truncate_with`, the
//! paper's Figure 1 `merge_and_truncate`) in isolation, so a change to it
//! can be judged without a whole simulation.
//!
//! Views of 15 and 27 entries each merge a shuffle of one more
//! descriptor, as in the engines: the partner's fresh self-descriptor
//! plus its view. Two working sets: 20 000 views, cold in cache as in a
//! 20 000-peer run, and 64 views that stay hot. Every merge is preceded
//! by the view's once-a-period `increase_age`, as in the engines, which
//! keeps the ages at a steady spread; the timings include it.
//!
//! Prints the median nanoseconds per merge over seven passes, with the
//! fastest and slowest pass, and a digest of the final views (equal on
//! any build that merges identically).
//!
//! Run with: `cargo run --release --example merge_kernel`

use std::hint::black_box;
use std::time::Instant;

use nylon_gossip::{MergePolicy, MergeScratch, NodeDescriptor, PartialView};
use nylon_net::{Endpoint, Ip, NatClass, PeerId, Port};
use nylon_sim::SimRng;

/// Peers the view entries are drawn from.
const POPULATION: u32 = 100_000;
/// Merges per timed pass, whatever the working set.
const MERGES: usize = 200_000;
const PASSES: usize = 7;

fn main() {
    println!(
        "healer merge, ns per merge (median of {PASSES} passes of {MERGES} merges, [min-max])"
    );
    println!("{:>5} | {:>26} | {:>26}", "view", "cold: 20 000 views", "hot: 64 views");
    println!("{}", "-".repeat(64));
    for view_size in [15, 27] {
        let cold = time_merges(view_size, 20_000);
        let hot = time_merges(view_size, 64);
        println!("{view_size:>5} | {cold:>26} | {hot:>26}");
    }
}

/// `views` random views of `view_size` and as many shuffles to merge
/// into them, merged round-robin for `PASSES` timed passes.
fn time_merges(view_size: usize, views: usize) -> String {
    let mut rng = SimRng::new(view_size as u64 * 1_000_003 + views as u64);
    let mut population: Vec<PartialView> = (0..views)
        .map(|_| {
            let owner = rng.gen_range(0..POPULATION);
            let mut view = PartialView::new(PeerId(owner), view_size);
            while view.len() < view_size {
                view.insert(descriptor(rng.gen_range(0..POPULATION), rng.gen_range(0..12)));
            }
            view
        })
        .collect();
    let shuffles: Vec<Vec<NodeDescriptor>> = population
        .iter()
        .map(|view| {
            let mut payload = Vec::new();
            view.write_shuffle_payload(descriptor(view.owner().0, 0), &mut payload);
            payload
        })
        .collect();
    let mut scratch = MergeScratch::default();
    let mut per_pass = Vec::with_capacity(PASSES);
    let mut next = 0usize;
    for _ in 0..=PASSES {
        let start = Instant::now();
        for _ in 0..MERGES {
            let v = next % views;
            // A different partner's shuffle each time round the views.
            let partner = (v + 1 + next / views * 7_919) % views;
            next += 1;
            let view = &mut population[v];
            view.increase_age();
            view.merge_and_truncate_with(
                &shuffles[partner],
                &[],
                MergePolicy::Healer,
                &mut rng,
                &mut scratch,
            );
            black_box(view.len());
        }
        per_pass.push(start.elapsed().as_nanos() as f64 / MERGES as f64);
    }
    // The first pass warms the caches and the scratch: not counted.
    per_pass.remove(0);
    per_pass.sort_by(f64::total_cmp);
    let digest = population
        .iter()
        .flat_map(|view| view.iter())
        .fold(0u64, |h, d| h.rotate_left(5) ^ u64::from(d.id.0) ^ (u64::from(d.age) << 32));
    format!(
        "{:.0} [{:.0}-{:.0}] #{:04x}",
        per_pass[PASSES / 2],
        per_pass[0],
        per_pass[PASSES - 1],
        digest & 0xFFFF
    )
}

fn descriptor(id: u32, age: u16) -> NodeDescriptor {
    let mut d = NodeDescriptor::new(
        PeerId(id),
        Endpoint::new(Ip(0x0100_0000 + id), Port(9000)),
        NatClass::Public,
    );
    d.age = age;
    d
}
