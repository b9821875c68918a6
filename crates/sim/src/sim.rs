//! The simulation driver: clock + event queue + RNG.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation over events of type `E`.
///
/// The driver owns the virtual clock, the event queue, and the root RNG.
/// Event handlers receive `&mut Sim<E>` so they can schedule follow-up
/// events, draw randomness, and read the clock.
///
/// # Example
///
/// ```
/// use nylon_sim::{Sim, SimDuration, SimTime};
///
/// // A self-rescheduling tick.
/// let mut sim = Sim::new(1);
/// sim.schedule_after(SimDuration::from_secs(1), ());
/// let mut ticks = 0;
/// sim.run_until(SimTime::from_secs(5), |sim, ()| {
///     ticks += 1;
///     sim.schedule_after(SimDuration::from_secs(1), ());
/// });
/// assert_eq!(ticks, 5);
/// assert_eq!(sim.now(), SimTime::from_secs(5));
/// ```
#[derive(Debug)]
pub struct Sim<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    processed: u64,
}

impl<E> Sim<E> {
    /// Creates a simulation at time zero with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim { now: SimTime::ZERO, queue: EventQueue::new(), rng: SimRng::new(seed), processed: 0 }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The root random number generator.
    ///
    /// Components that need an independent stream should call
    /// [`SimRng::fork`] on this once and keep the fork.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Reports kernel-layer telemetry (events popped, queue depth
    /// high-water, the bytes of the queue's buffers, per-level timer-wheel
    /// occupancy) into `out`.
    ///
    /// Report-time only: reads existing state, never perturbs the queue
    /// or the RNG, so a run with stats on replays byte-identically.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        out.counter("kernel", "events_processed", self.processed);
        out.gauge_sum("kernel", "pending_events", self.queue.len() as u64);
        out.gauge_sum("kernel", "wheel_slot_bytes", self.queue.slot_bytes() as u64);
        out.gauge("kernel", "queue_depth_hwm", self.queue.depth_hwm());
        for (level, n) in self.queue.level_sizes().into_iter().enumerate() {
            out.gauge_sum("kernel", &format!("wheel_l{level}_events"), n as u64);
        }
        out.gauge_sum("kernel", "overflow_buckets", self.queue.overflow_len() as u64);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`): delivering an event
    /// before the current instant would break causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule event in the past ({at} < {})", self.now);
        self.queue.schedule(at, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// The firing time of the next pending event, if any.
    ///
    /// Lets an owning engine drive the loop manually (peek → step →
    /// handle) when closures over `run_until` would fight the borrow
    /// checker.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advances the clock to `to` without processing events.
    ///
    /// # Panics
    ///
    /// Panics if an event is pending before `to`: skipping over it would
    /// break causality. Idempotent if `to` is in the past.
    pub fn advance_to(&mut self, to: SimTime) {
        if let Some(at) = self.queue.peek_time() {
            assert!(at > to, "cannot advance past a pending event at {at}");
        }
        if to > self.now {
            self.now = to;
        }
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// Returns `None` when the queue is empty; the clock then stays put.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue yielded an event from the past");
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }

    /// Pops the next event *if* it fires at or before `deadline`, advancing
    /// the clock to its firing time; `None` leaves the event queued and the
    /// clock untouched.
    ///
    /// The driver-loop primitive: `peek_time` + `step` scans the event
    /// queue twice per event, this scans once.
    pub fn step_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop_before(deadline)?;
        debug_assert!(at >= self.now, "event queue yielded an event from the past");
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }

    /// Runs `handler` on every event up to and including `deadline`, then
    /// advances the clock to `deadline`.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Sim<E>, E),
    {
        let start = self.processed;
        while let Some((_, ev)) = self.step_before(deadline) {
            handler(self, ev);
        }
        if deadline > self.now && deadline != SimTime::MAX {
            self.now = deadline;
        }
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Sim<u8> = Sim::new(0);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.schedule_at(SimTime::from_millis(5), 2);
        let (t1, e1) = sim.step().unwrap();
        assert_eq!((t1, e1), (SimTime::from_millis(5), 2));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        let (t2, e2) = sim.step().unwrap();
        assert_eq!((t2, e2), (SimTime::from_millis(10), 1));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert!(sim.step().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<u8> = Sim::new(0);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.step();
        sim.schedule_at(SimTime::from_millis(5), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<u32> = Sim::new(0);
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), i as u32);
        }
        let mut seen = Vec::new();
        let n = sim.run_until(SimTime::from_secs(4), |_, e| seen.push(e));
        assert_eq!(n, 5); // t = 0,1,2,3,4 inclusive
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.pending_events(), 5);
    }

    #[test]
    fn run_until_advances_clock_when_idle() {
        let mut sim: Sim<()> = Sim::new(0);
        sim.run_until(SimTime::from_secs(30), |_, _| {});
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut sim: Sim<u32> = Sim::new(0);
        sim.schedule_after(SimDuration::from_millis(1), 0);
        let mut count = 0;
        sim.run_until(SimTime::from_millis(100), |sim, depth| {
            count += 1;
            if depth < 4 {
                sim.schedule_after(SimDuration::from_millis(1), depth + 1);
            }
        });
        assert_eq!(count, 5);
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn identical_seeds_produce_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim: Sim<u8> = Sim::new(seed);
            let mut out = Vec::new();
            sim.schedule_after(SimDuration::from_millis(1), 0);
            sim.run_until(SimTime::from_secs(1), |sim, _| {
                let jitter = sim.rng().gen_range(1u64..20);
                out.push(jitter);
                if out.len() < 100 {
                    sim.schedule_after(SimDuration::from_millis(jitter), 0);
                }
            });
            out
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
