//! The three policy axes of the generic protocol, and its configuration.

use std::fmt;

use nylon_sim::SimDuration;

/// How the gossip target is selected from the view (Section 3 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionPolicy {
    /// Uniformly random view entry.
    #[default]
    Rand,
    /// The entry with the highest age.
    Tail,
}

impl SelectionPolicy {
    /// The label used in the paper's plots ("rand" / "tail").
    pub const fn label(self) -> &'static str {
        match self {
            SelectionPolicy::Rand => "rand",
            SelectionPolicy::Tail => "tail",
        }
    }
}

/// How views propagate during a shuffle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PropagationPolicy {
    /// Only the initiator ships its view.
    Push,
    /// Initiator and target exchange views (the paper's default: push mode
    /// "consistently exhibits significantly worse performances").
    #[default]
    PushPull,
}

impl PropagationPolicy {
    /// The label used in the paper's plots ("push" / "push/pull").
    pub const fn label(self) -> &'static str {
        match self {
            PropagationPolicy::Push => "push",
            PropagationPolicy::PushPull => "push/pull",
        }
    }
}

/// How a merged view is truncated back to capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergePolicy {
    /// Drop uniformly random entries.
    Blind,
    /// Keep the youngest entries (drop the oldest first).
    #[default]
    Healer,
    /// Drop the entries that were just sent to the partner first.
    Swapper,
}

impl MergePolicy {
    /// The label used in the paper's plots ("blind" / "healer" /
    /// "swapper").
    pub const fn label(self) -> &'static str {
        match self {
            MergePolicy::Blind => "blind",
            MergePolicy::Healer => "healer",
            MergePolicy::Swapper => "swapper",
        }
    }
}

/// Configuration of the generic peer-sampling protocol.
///
/// Defaults follow the paper's experimental setup: view size 15, shuffle
/// period 5 s, (push/pull, rand, healer).
#[derive(Debug, Clone)]
pub struct GossipConfig {
    /// Maximum number of view entries (paper: 15 or 27).
    pub view_size: usize,
    /// Interval between two shuffles initiated by a peer (paper: 5 s).
    pub shuffle_period: SimDuration,
    /// Gossip target selection policy.
    pub selection: SelectionPolicy,
    /// View propagation policy.
    pub propagation: PropagationPolicy,
    /// View merging policy.
    pub merge: MergePolicy,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            view_size: 15,
            shuffle_period: SimDuration::from_secs(5),
            selection: SelectionPolicy::Rand,
            propagation: PropagationPolicy::PushPull,
            merge: MergePolicy::Healer,
        }
    }
}

impl GossipConfig {
    /// Config labelled as in the paper's legends, e.g.
    /// `push/pull,rand,healer`.
    pub fn label(&self) -> String {
        format!("{},{},{}", self.propagation.label(), self.selection.label(), self.merge.label())
    }

    /// The six push/pull configurations evaluated in Section 3 of the
    /// paper, in legend order.
    pub fn paper_configurations(view_size: usize) -> Vec<GossipConfig> {
        let mut out = Vec::new();
        for selection in [SelectionPolicy::Rand, SelectionPolicy::Tail] {
            for merge in [MergePolicy::Healer, MergePolicy::Blind, MergePolicy::Swapper] {
                out.push(GossipConfig { view_size, selection, merge, ..GossipConfig::default() });
            }
        }
        out
    }
}

impl fmt::Display for GossipConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (view={})", self.label(), self.view_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = GossipConfig::default();
        assert_eq!(c.view_size, 15);
        assert_eq!(c.shuffle_period, SimDuration::from_secs(5));
        assert_eq!(c.label(), "push/pull,rand,healer");
    }

    #[test]
    fn six_paper_configurations() {
        let cfgs = GossipConfig::paper_configurations(27);
        assert_eq!(cfgs.len(), 6);
        let labels: Vec<String> = cfgs.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"push/pull,rand,healer".to_string()));
        assert!(labels.contains(&"push/pull,tail,swapper".to_string()));
        assert!(cfgs.iter().all(|c| c.view_size == 27));
        // All distinct.
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6);
    }

    #[test]
    fn display_includes_view_size() {
        let c = GossipConfig { view_size: 27, ..GossipConfig::default() };
        assert_eq!(c.to_string(), "push/pull,rand,healer (view=27)");
    }
}
