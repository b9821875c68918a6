//! Stale-reference analysis (Figures 3 and 4 of the paper).
//!
//! A view entry is *stale* when the holder cannot currently communicate
//! with the referenced peer — its NAT has no mapping or filters the holder
//! out (Section 3). The reachability decision is delegated to an oracle
//! closure so this module stays engine-agnostic; the production oracle is
//! the engine's [`nylon_gossip::Protocol::edge_usable`], the per-edge test
//! `nylon-workloads` reaches through `runner::usable_edges`.

use nylon_gossip::NodeDescriptor;
use nylon_net::PeerId;

/// Aggregated staleness metrics over a snapshot of views.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StalenessReport {
    /// Mean over peers of the per-view percentage of stale references
    /// (Figure 3's y-axis), in `[0, 100]`.
    pub stale_pct: f64,
    /// Mean over peers of the per-view percentage of *non-stale* references
    /// that point at natted peers (Figure 4's y-axis), in `[0, 100]`.
    pub natted_nonstale_pct: f64,
    /// Total references examined.
    pub total_refs: usize,
    /// Total references found stale.
    pub stale_refs: usize,
    /// Number of views examined (views with no entries are skipped).
    pub views: usize,
}

impl StalenessReport {
    /// Computes staleness over `(holder, view)` snapshots.
    ///
    /// `reachable(holder, descriptor)` must answer whether a datagram sent
    /// now by `holder` to the descriptor's endpoint would reach the peer —
    /// without mutating any NAT state.
    ///
    /// Per-view percentages are averaged over views (the paper's "average
    /// percentage of stale references in peer views"), not pooled.
    pub fn compute<'a, F>(
        views: impl IntoIterator<Item = (PeerId, &'a [NodeDescriptor])>,
        mut reachable: F,
    ) -> StalenessReport
    where
        F: FnMut(PeerId, &NodeDescriptor) -> bool,
    {
        let mut stale_pct_sum = 0.0;
        let mut natted_pct_sum = 0.0;
        let mut natted_pct_views = 0usize;
        let mut report = StalenessReport::default();
        for (holder, view) in views {
            if view.is_empty() {
                continue;
            }
            report.views += 1;
            let mut stale = 0usize;
            let mut fresh = 0usize;
            let mut fresh_natted = 0usize;
            for d in view {
                report.total_refs += 1;
                if reachable(holder, d) {
                    fresh += 1;
                    if d.class.is_natted() {
                        fresh_natted += 1;
                    }
                } else {
                    stale += 1;
                    report.stale_refs += 1;
                }
            }
            stale_pct_sum += 100.0 * stale as f64 / view.len() as f64;
            if fresh > 0 {
                natted_pct_sum += 100.0 * fresh_natted as f64 / fresh as f64;
                natted_pct_views += 1;
            }
        }
        if report.views > 0 {
            report.stale_pct = stale_pct_sum / report.views as f64;
        }
        if natted_pct_views > 0 {
            report.natted_nonstale_pct = natted_pct_sum / natted_pct_views as f64;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{Endpoint, Ip, NatClass, NatType, Port};

    fn desc(id: u32, natted: bool) -> NodeDescriptor {
        let class =
            if natted { NatClass::Natted(NatType::PortRestrictedCone) } else { NatClass::Public };
        NodeDescriptor::new(PeerId(id), Endpoint::new(Ip(id), Port(9000)), class)
    }

    #[test]
    fn empty_snapshot() {
        let r = StalenessReport::compute(std::iter::empty(), |_, _| true);
        assert_eq!(r, StalenessReport::default());
    }

    #[test]
    fn all_reachable_no_staleness() {
        let v1 = vec![desc(1, false), desc(2, true)];
        let snapshot = vec![(PeerId(0), v1.as_slice())];
        let r = StalenessReport::compute(snapshot, |_, _| true);
        assert_eq!(r.stale_pct, 0.0);
        assert_eq!(r.stale_refs, 0);
        assert_eq!(r.total_refs, 2);
        assert!((r.natted_nonstale_pct - 50.0).abs() < 1e-12);
    }

    #[test]
    fn natted_entries_stale() {
        // Natted entries unreachable: 50% stale, and 0% of non-stale refs
        // are natted — the Figure 3/4 baseline pathology.
        let v1 = vec![desc(1, false), desc(2, true)];
        let v2 = vec![desc(3, false), desc(4, true)];
        let snapshot = vec![(PeerId(0), v1.as_slice()), (PeerId(9), v2.as_slice())];
        let r = StalenessReport::compute(snapshot, |_, d| !d.class.is_natted());
        assert!((r.stale_pct - 50.0).abs() < 1e-12);
        assert_eq!(r.natted_nonstale_pct, 0.0);
        assert_eq!(r.stale_refs, 2);
        assert_eq!(r.views, 2);
    }

    #[test]
    fn per_view_averaging_not_pooling() {
        // View A: 1 of 1 stale (100%); view B: 0 of 3 stale (0%).
        // Average of percentages = 50%; pooled would be 25%.
        let va = vec![desc(1, false)];
        let vb = vec![desc(2, false), desc(3, false), desc(4, false)];
        let snapshot = vec![(PeerId(8), va.as_slice()), (PeerId(9), vb.as_slice())];
        let r = StalenessReport::compute(snapshot, |_, d| d.id != PeerId(1));
        assert!((r.stale_pct - 50.0).abs() < 1e-12, "got {}", r.stale_pct);
    }

    #[test]
    fn empty_views_are_skipped() {
        let va: Vec<NodeDescriptor> = vec![];
        let vb = vec![desc(1, true)];
        let snapshot = vec![(PeerId(8), va.as_slice()), (PeerId(9), vb.as_slice())];
        let r = StalenessReport::compute(snapshot, |_, _| true);
        assert_eq!(r.views, 1);
        assert!((r.natted_nonstale_pct - 100.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_sees_holder() {
        // Holder-dependent reachability: p0 reaches everyone, p1 no one.
        let v = vec![desc(5, true)];
        let snapshot = vec![(PeerId(0), v.as_slice()), (PeerId(1), v.as_slice())];
        let r = StalenessReport::compute(snapshot, |h, _| h == PeerId(0));
        assert!((r.stale_pct - 50.0).abs() < 1e-12);
    }
}
