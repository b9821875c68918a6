//! The simulation driver: clock + event queue + RNG.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation over events of type `E`.
///
/// The driver owns the virtual clock, the event queue, and the root RNG.
/// Its owner runs the loop: [`Sim::step_before`] pops each event due by a
/// deadline, and [`Sim::advance_to`] then moves the clock to the deadline.
///
/// # Example
///
/// ```
/// use nylon_sim::{Sim, SimDuration, SimTime};
///
/// // A self-rescheduling tick.
/// let mut sim = Sim::new(1);
/// sim.schedule_after(SimDuration::from_secs(1), ());
/// let deadline = SimTime::from_secs(5);
/// let mut ticks = 0;
/// while let Some((_, ())) = sim.step_before(deadline) {
///     ticks += 1;
///     sim.schedule_after(SimDuration::from_secs(1), ());
/// }
/// sim.advance_to(deadline);
/// assert_eq!(ticks, 5);
/// assert_eq!(sim.now(), deadline);
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

    /// Pops the next event *if* it fires at or before `deadline`, advancing
    /// the clock to its firing time; `None` leaves the event queued and the
    /// clock untouched.
    pub fn step_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (at, ev) = self.queue.pop_before(deadline)?;
        debug_assert!(at >= self.now, "event queue yielded an event from the past");
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every event due by `deadline` through `handler`, then moves
    /// the clock to `deadline` — the loop an owning engine drives.
    fn run_to<E>(sim: &mut Sim<E>, deadline: SimTime, mut handler: impl FnMut(&mut Sim<E>, E)) {
        while let Some((_, ev)) = sim.step_before(deadline) {
            handler(sim, ev);
        }
        sim.advance_to(deadline);
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Sim<u8> = Sim::new(0);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.schedule_at(SimTime::from_millis(5), 2);
        let (t1, e1) = sim.step_before(SimTime::MAX).unwrap();
        assert_eq!((t1, e1), (SimTime::from_millis(5), 2));
        assert_eq!(sim.now(), SimTime::from_millis(5));
        let (t2, e2) = sim.step_before(SimTime::MAX).unwrap();
        assert_eq!((t2, e2), (SimTime::from_millis(10), 1));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert!(sim.step_before(SimTime::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<u8> = Sim::new(0);
        sim.schedule_at(SimTime::from_millis(10), 1);
        sim.step_before(SimTime::MAX);
        sim.schedule_at(SimTime::from_millis(5), 2);
    }

    #[test]
    fn step_before_stops_at_deadline() {
        let mut sim: Sim<u32> = Sim::new(0);
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), i as u32);
        }
        let mut seen = Vec::new();
        run_to(&mut sim, SimTime::from_secs(4), |_, e| seen.push(e));
        assert_eq!(sim.events_processed(), 5); // t = 0,1,2,3,4 inclusive
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        run_to(&mut sim, SimTime::MAX, |_, e| seen.push(e));
        assert_eq!(seen, (0..10).collect::<Vec<_>>(), "the other five stayed queued");
    }

    #[test]
    fn advance_to_moves_the_clock_when_idle() {
        let mut sim: Sim<()> = Sim::new(0);
        run_to(&mut sim, SimTime::from_secs(30), |_, _| {});
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "cannot advance past a pending event")]
    fn advance_to_refuses_to_skip_an_event() {
        let mut sim: Sim<()> = Sim::new(0);
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn handler_can_schedule_more_events() {
        let mut sim: Sim<u32> = Sim::new(0);
        sim.schedule_after(SimDuration::from_millis(1), 0);
        let mut count = 0;
        run_to(&mut sim, SimTime::from_millis(100), |sim, depth| {
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
            run_to(&mut sim, SimTime::from_secs(1), |sim, _| {
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
