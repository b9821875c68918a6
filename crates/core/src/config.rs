//! Nylon protocol configuration.

use nylon_gossip::{MergePolicy, SelectionPolicy};
use nylon_sim::SimDuration;

use crate::message::WireSizeModel;

/// Configuration of the Nylon protocol.
///
/// Defaults follow the paper's evaluation: (push/pull, rand, healer), view
/// size 15, shuffle period 5 s, hole timeout 90 s.
#[derive(Debug, Clone)]
pub struct NylonConfig {
    /// Maximum number of view entries (paper: 15 or 27).
    pub view_size: usize,
    /// Interval between shuffles initiated by one peer (paper: 5 s).
    pub shuffle_period: SimDuration,
    /// Value used for `HOLE_TIMEOUT` when installing direct routes
    /// (Figure 6); must match the NAT boxes' rule lifetime (paper: 90 s).
    pub hole_timeout: SimDuration,
    /// How long an initiated hole punch waits for the PONG before the
    /// shuffle round is abandoned.
    pub punch_timeout: SimDuration,
    /// View merging policy (the paper's Nylon uses healer).
    pub merge: MergePolicy,
    /// Gossip target selection (the paper's Nylon uses rand).
    pub selection: SelectionPolicy,
    /// Wire-size model for bandwidth accounting.
    pub wire: WireSizeModel,
    /// Maximum chain-resolution depth when looking up a directly reachable
    /// first hop (cycle guard; chains in the paper average < 4).
    pub max_chain_depth: usize,
    /// Messages that have been forwarded this many times are dropped
    /// (anti-loop backstop; honest chains are far shorter).
    pub max_forward_hops: u8,
}

impl Default for NylonConfig {
    fn default() -> Self {
        NylonConfig {
            view_size: 15,
            shuffle_period: SimDuration::from_secs(5),
            hole_timeout: SimDuration::from_secs(90),
            punch_timeout: SimDuration::from_secs(2),
            merge: MergePolicy::Healer,
            selection: SelectionPolicy::Rand,
            wire: WireSizeModel::default(),
            max_chain_depth: 32,
            max_forward_hops: 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NylonConfig::default();
        assert_eq!(c.view_size, 15);
        assert_eq!(c.shuffle_period, SimDuration::from_secs(5));
        assert_eq!(c.hole_timeout, SimDuration::from_secs(90));
        assert_eq!(c.merge, MergePolicy::Healer);
        assert_eq!(c.selection, SelectionPolicy::Rand);
    }
}
