//! Nylon protocol configuration.

use nylon_sim::SimDuration;

/// Configuration of the Nylon protocol.
///
/// Defaults follow the paper's evaluation: view size 15, shuffle period
/// 5 s. The rest of the paper's single configuration is not a field:
///
/// * the merge and selection policies are always healer and rand — the
///   paper evaluates Nylon as (push/pull, rand, healer) only;
/// * `HOLE_TIMEOUT` (Figure 6) is the NAT boxes' rule lifetime, so the
///   engine reads it from the fabric's [`nylon_net::NetConfig`] when it is
///   built and the two cannot disagree.
#[derive(Debug, Clone)]
pub struct NylonConfig {
    /// Maximum number of view entries (paper: 15 or 27).
    pub view_size: usize,
    /// Interval between shuffles initiated by one peer (paper: 5 s).
    pub shuffle_period: SimDuration,
    /// How long an initiated hole punch waits for the PONG before the
    /// shuffle round is abandoned.
    pub punch_timeout: SimDuration,
}

impl Default for NylonConfig {
    fn default() -> Self {
        NylonConfig {
            view_size: 15,
            shuffle_period: SimDuration::from_secs(5),
            punch_timeout: SimDuration::from_secs(2),
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
    }
}
