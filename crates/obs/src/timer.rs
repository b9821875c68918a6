//! Wall-clock phase timing for executors and drivers.
//!
//! Phase timing feeds user-facing progress lines, which must exist
//! whether or not the stats sink is active. One [`PhaseTimer`] per run is the intended shape — every
//! worker measures its cells as offsets from the same epoch, so all
//! reported durations share one clock instead of one `Instant` per
//! worker.

use std::time::{Duration, Instant};

/// A run-wide wall-clock epoch. Cheap to copy into worker threads.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer {
    epoch: Instant,
}

impl PhaseTimer {
    /// Starts the run clock.
    pub fn start() -> Self {
        PhaseTimer { epoch: Instant::now() }
    }

    /// Wall time since the epoch.
    pub fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Marks the start of one phase (a cell, a figure, a warmup window).
    pub fn mark(&self) -> PhaseMark {
        PhaseMark { offset: self.elapsed() }
    }
}

/// The start of one phase, as an offset from the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct PhaseMark {
    offset: Duration,
}

impl PhaseMark {
    /// Wall time since this mark, measured on the shared run clock.
    pub fn elapsed(&self, timer: &PhaseTimer) -> Duration {
        timer.elapsed().saturating_sub(self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_measure_against_the_shared_epoch() {
        let timer = PhaseTimer::start();
        let mark = timer.mark();
        std::thread::sleep(Duration::from_millis(5));
        let phase = mark.elapsed(&timer);
        let total = timer.elapsed();
        assert!(phase >= Duration::from_millis(4), "phase too short: {phase:?}");
        assert!(total >= phase, "run elapsed must bound any phase");
    }
}
