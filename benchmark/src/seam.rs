//! The seam trace: an unmodified engine driven over [`SimTransport`]
//! through a benchmark-owned copy of `LiveRunner::run_until`, with a
//! clock read at every layer boundary.
//!
//! The engines expose a wire-tap seam (`advance_to`, `take_outbound`,
//! `deliver_wire`) and the fabric sits behind the [`Transport`] trait, so
//! every crossing between *engine logic* and *fabric + NAT boxes* is a
//! call this loop makes — which is where the spans go, without touching
//! the program. Per tick it records one span per phase:
//!
//! | phase | call | layer |
//! |---|---|---|
//! | `engine.timer` | `advance_to` — due shuffles, purges, punch timeouts | engine |
//! | `engine.outbound` | `take_outbound` — draining what the engine queued | engine |
//! | `net.send` | `Transport::send` — `Network::send`, egress NAT | fabric |
//! | `net.poll` | `Transport::poll` — timer wheel pop, `Network::deliver`, ingress NAT | fabric |
//! | `engine.deliver` | `deliver_wire` — merge, routing install, relaying | engine |
//!
//! Phases are timed back to back (one clock read per boundary), so they
//! cover a tick up to the loop's own arithmetic. This loop is *not* the
//! direct kernel: the engine queues datagrams instead of scheduling them,
//! and ticks quantize delivery. `--check` asserts it ends in exactly the
//! engine state `LiveRunner` ends in; `trace.seam_wall_ratio` says how far
//! its wall clock is from the direct kernel's.

use std::time::Instant;

use nylon_net::private_endpoint;
use nylon_sim::{SimDuration, SimTime};
use nylon_transport::{LiveSampler, Transport};

use crate::spans::{SpanId, SpanLog};

/// Phase names, in the order of the table above.
pub const PHASES: [&str; 5] =
    ["engine.timer", "engine.outbound", "net.send", "net.poll", "engine.deliver"];
const TIMER: usize = 0;
const OUTBOUND: usize = 1;
const SEND: usize = 2;
const POLL: usize = 3;
const DELIVER: usize = 4;

/// Per-tick accumulator: time and calls per phase.
#[derive(Debug, Default, Clone, Copy)]
struct Tick {
    dur: [f64; 5],
    calls: [u64; 5],
    first: [Option<Instant>; 5],
}

/// The traced event loop: one engine, one transport, fixed ticks.
#[derive(Debug)]
pub struct SeamRunner<S: LiveSampler, T: Transport<S::Payload>> {
    engine: S,
    transport: T,
    tick: SimDuration,
}

impl<S: LiveSampler, T: Transport<S::Payload>> SeamRunner<S, T> {
    /// Wraps a built, bootstrapped and started engine, as
    /// `LiveRunner::new` does.
    pub fn new(mut engine: S, transport: T, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        engine.enable_wire_tap();
        SeamRunner { engine, transport, tick }
    }

    /// The driven engine.
    pub fn engine(&self) -> &S {
        &self.engine
    }

    /// The driven engine, for between-window mutations (kill waves).
    pub fn engine_mut(&mut self) -> &mut S {
        &mut self.engine
    }

    /// `LiveRunner::run_rounds`, recording spans under `parent` when a log
    /// is given.
    pub fn run_rounds(&mut self, n: u64, trace: Option<(&mut SpanLog, SpanId)>) {
        let deadline = self.engine.now() + self.engine.shuffle_period() * n;
        self.run_until(deadline, trace);
    }

    /// `LiveRunner::run_until`, statement for statement, with the phase
    /// clock threaded through.
    pub fn run_until(&mut self, deadline: SimTime, mut trace: Option<(&mut SpanLog, SpanId)>) {
        let mut acc = Tick::default();
        let mut mark = Instant::now();
        self.flush(&mut acc, &mut mark);
        // The pre-loop flush belongs to no tick.
        acc = Tick::default();
        let mut t = self.engine.now();
        while t < deadline {
            let tick_start = mark;
            t = (t + self.tick).min(deadline);
            self.engine.advance_to(t);
            lap(&mut acc, TIMER, &mut mark);
            self.flush(&mut acc, &mut mark);
            loop {
                let arrival = self.transport.poll(t);
                lap(&mut acc, POLL, &mut mark);
                let Some(a) = arrival else { break };
                self.engine.deliver_wire(a.to, a.from_ep, a.payload);
                lap(&mut acc, DELIVER, &mut mark);
                self.flush(&mut acc, &mut mark);
            }
            if let Some((log, parent)) = trace.as_mut() {
                let dur = mark.duration_since(tick_start).as_secs_f64();
                let tick_id = log.push("tick", Some(*parent), tick_start, dur, 1);
                for (i, name) in PHASES.iter().enumerate() {
                    if let Some(first) = acc.first[i] {
                        log.push(name, Some(tick_id), first, acc.dur[i], acc.calls[i]);
                    }
                }
            }
            acc = Tick::default();
        }
    }

    fn flush(&mut self, acc: &mut Tick, mark: &mut Instant) {
        let now = self.engine.now();
        let outbound = self.engine.take_outbound();
        lap(acc, OUTBOUND, mark);
        if outbound.is_empty() {
            return;
        }
        let sends = outbound.len() as u64;
        for o in outbound {
            let src = private_endpoint(o.from);
            self.transport.send(now, o.from, src, o.dst, o.payload, o.payload_bytes);
        }
        lap(acc, SEND, mark);
        // One lap covers the whole batch; count the datagrams, not the lap.
        acc.calls[SEND] += sends - 1;
    }
}

/// Charges the time since `mark` to `phase` and restarts the clock.
#[inline]
fn lap(acc: &mut Tick, phase: usize, mark: &mut Instant) {
    let now = Instant::now();
    acc.dur[phase] += now.duration_since(*mark).as_secs_f64();
    acc.calls[phase] += 1;
    acc.first[phase].get_or_insert(*mark);
    *mark = now;
}
