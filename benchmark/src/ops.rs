//! Isolated operations: timing loops over each layer's public functions,
//! on inputs shaped like the workload that asks (routing-table size,
//! queue occupancy, view size read from the built engine).
//!
//! These are the per-layer numbers that exist with nothing else running;
//! they say what an operation costs, not what share of a round it is —
//! the seam trace answers that.

use std::hint::black_box;
use std::time::Instant;

use nylon::routing::RoutingTable;
use nylon::{NylonMsg, WireEntry};
use nylon_faults::{FaultConfig, FaultPlan, FaultSpec};
use nylon_gossip::{MergePolicy, NodeDescriptor, PartialView};
use nylon_net::natbox::NatBox;
use nylon_net::{DenseMap, Endpoint, Ip, NatClass, NatType, PeerId, Port};
use nylon_sim::{EventQueue, SimDuration, SimRng, SimTime};
use nylon_transport::codec;
use nylon_workloads::Scenario;

use crate::counts::Counts;
use crate::json::Value;
use crate::sim::{Engine, SimSpec};
use crate::stats::Timing;

/// Samples per timing loop: enough for a p95 with ten samples beyond it.
const SAMPLES: usize = 200;

/// Runs `f` (which performs `ops` operations) [`SAMPLES`] times after one
/// untimed warm-up and reports nanoseconds per operation.
fn time_ns(ops: u64, mut f: impl FnMut() -> u64) -> Timing {
    black_box(f());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Timing::of(&samples)
}

/// `{median, p<tail>, n}` for one timing.
fn timing_json(t: Timing) -> Value {
    let mut v = Value::obj();
    v.set("median", t.median).set("tail_p", t.tail_p).set("tail", t.tail).set("n", t.n);
    v
}

fn descriptor(id: u32, age: u16) -> NodeDescriptor {
    let mut d = NodeDescriptor::new(
        PeerId(id),
        Endpoint::new(Ip(0x0100_0000 + id), Port(9000)),
        NatClass::Natted(NatType::RestrictedCone),
    );
    d.age = age;
    d
}

/// `EventQueue` in steady state at `pending` queued events: pop the
/// earliest, schedule its successor one shuffle period later — what the
/// kernel does once per timer event.
pub fn queue_ns_per_event(pending: usize) -> Timing {
    let pending = pending.max(16);
    let period = 5_000u64;
    let mut q = EventQueue::with_capacity(pending);
    for i in 0..pending as u64 {
        q.schedule(SimTime::from_millis((i * 7919) % period), i);
    }
    const OPS: u64 = 4096;
    time_ns(OPS, move || {
        let mut sum = 0u64;
        for _ in 0..OPS {
            let (at, e) = q.pop_before(SimTime::from_millis(u64::MAX / 2)).expect("never drains");
            sum = sum.wrapping_add(e);
            q.schedule(at + SimDuration::from_millis(period), e);
        }
        sum
    })
}

/// One outbound plus one inbound packet through a port-restricted NAT box
/// that keeps `remotes` sessions alive (a view's worth of partners).
pub fn natbox_ns_per_op(remotes: u32) -> Timing {
    let private = Endpoint::new(Ip(Ip::PRIVATE_BASE + 1), Port(5000));
    let mut nat =
        NatBox::new(Ip(0x0100_0001), NatType::PortRestrictedCone, SimDuration::from_secs(90));
    let mut now = 0u64;
    const OPS: u64 = 1024;
    time_ns(2 * OPS, move || {
        let mut admitted = 0u64;
        for i in 0..OPS as u32 {
            now += 1;
            let remote = Endpoint::new(Ip(0x0200_0000 + i % remotes), Port(9000));
            let public = nat.on_outbound(SimTime::from_millis(now), private, remote);
            let inbound = nat.on_inbound(SimTime::from_millis(now), public.port, remote);
            admitted += u64::from(black_box(inbound).is_ok());
        }
        admitted
    })
}

/// `DenseMap<PeerId, _>` at `size` entries. The steady mix is what a
/// shuffle does to the pending maps (insert, look up, remove); the
/// remove-heavy mix is what purges and kill waves do.
pub fn densemap_ns_per_op(size: u32, remove_heavy: bool) -> Timing {
    let mut map: DenseMap<PeerId, u64> = DenseMap::new();
    for i in 0..size {
        map.insert(PeerId(i * 7), u64::from(i));
    }
    let mut next = size;
    const OPS: u64 = 1024;
    time_ns(OPS, move || {
        let mut hits = 0u64;
        for _ in 0..OPS / 4 {
            let fresh = PeerId(next * 7);
            let old = PeerId((next - size) * 7);
            next += 1;
            map.insert(fresh, u64::from(next));
            if remove_heavy {
                hits += u64::from(map.remove(&old).is_some());
                map.insert(old, 0);
                hits += u64::from(map.remove(&old).is_some());
            } else {
                hits += u64::from(map.get(&fresh).is_some());
                hits += u64::from(map.get(&PeerId(next * 7 + 1)).is_some());
                hits += u64::from(map.remove(&old).is_some());
            }
        }
        hits
    })
}

/// The healer merge of a full view with a received shuffle of
/// `view_size + 1` descriptors, and building the payload to send.
pub fn view_ns(view_size: usize) -> (Timing, Timing) {
    let n = view_size as u32;
    let base: Vec<NodeDescriptor> = (1..=n).map(|i| descriptor(i, i as u16)).collect();
    let received: Vec<NodeDescriptor> =
        (n + 5..2 * n + 6).map(|i| descriptor(i, (i % 7) as u16)).collect();
    let sent: Vec<PeerId> = base.iter().map(|d| d.id).collect();
    let mut rng = SimRng::new(3);
    let mut view = PartialView::new(PeerId(0), view_size);
    const OPS: u64 = 128;
    let merge = {
        let base = base.clone();
        time_ns(OPS, move || {
            let mut kept = 0u64;
            for _ in 0..OPS {
                view.retain(|_| false);
                for d in &base {
                    view.insert(*d);
                }
                view.merge_and_truncate(&received, &sent, MergePolicy::Healer, &mut rng);
                kept += view.len() as u64;
            }
            kept
        })
    };
    let mut full = PartialView::new(PeerId(0), view_size);
    for d in &base {
        full.insert(*d);
    }
    let me = descriptor(0, 0);
    let mut out = Vec::new();
    let payload = time_ns(OPS, move || {
        let mut len = 0u64;
        for _ in 0..OPS {
            full.write_shuffle_payload(me, &mut out);
            len += black_box(&out).len() as u64;
        }
        len
    });
    (merge, payload)
}

/// A routing table holding `size` chain routes behind one direct partner.
fn populated_table(size: u32, ttl_secs: impl Fn(u32) -> u64) -> RoutingTable {
    let mut rt = RoutingTable::new(PeerId(0));
    rt.update_direct(PeerId(1), SimDuration::from_secs(36_000));
    rt.install_from_shuffle(
        PeerId(1),
        (2..2 + size).map(|i| (PeerId(i), SimDuration::from_secs(ttl_secs(i)), 1u8)),
    );
    rt
}

/// `RoutingTable` at `size` entries: a 16-entry shuffle install (per
/// entry), a hit + a miss through `entry_of` and `resolve_first_hop` (per
/// lookup), and the expiry sweep with half the TTLs lapsed (per entry).
pub fn routing_ns(size: u32) -> (Timing, Timing, Timing) {
    let size = size.max(16);
    let mut rt = populated_table(size, |_| 30_000);
    let mut start = 0u32;
    const BATCHES: u64 = 64;
    let install = time_ns(BATCHES * 16, move || {
        let mut installed = 0u64;
        for _ in 0..BATCHES {
            // Rotate through the key space so successive installs touch
            // different probe chains, as real shuffles do.
            start = (start + 17) % size;
            installed += rt.install_from_shuffle(
                PeerId(1),
                (start..start + 16)
                    .map(|i| (PeerId(2 + i % size), SimDuration::from_secs(30_000), 1u8)),
            );
        }
        installed
    });
    let rt = populated_table(size, |_| 30_000);
    const LOOKUPS: u64 = 512;
    let lookup = time_ns(2 * LOOKUPS, move || {
        let mut hits = 0u64;
        for i in 0..LOOKUPS as u32 / 2 {
            let present = PeerId(2 + (i * 31) % size);
            let absent = PeerId(10_000_000 + i);
            hits += u64::from(rt.entry_of(present).is_some());
            hits += u64::from(rt.entry_of(absent).is_some());
            hits += u64::from(rt.resolve_first_hop(present, 32).is_some());
            hits += u64::from(rt.resolve_first_hop(absent, 32).is_some());
        }
        hits
    });
    let template = populated_table(size, |i| if i % 2 == 0 { 20 } else { 30_000 });
    let sweep = time_ns(u64::from(size), move || {
        let mut rt = template.clone();
        rt.decrease_ttls(SimDuration::from_secs(90)) + rt.len() as u64
    });
    (install, lookup, sweep)
}

/// Compiling the workload's fault plan, milliseconds.
pub fn fault_compile_ms(spec: &str, scn: &Scenario) -> f64 {
    let spec = FaultSpec::parse(spec).expect("workload fault specs are valid");
    let cfg = FaultConfig::from_spec(&spec);
    let classes = scn.classes();
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(FaultPlan::compile(&cfg, scn.seed, &classes));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

/// A `NylonMsg::Request` carrying `entries` view entries, drawn from `rng`.
pub fn request_frame(rng: &mut SimRng, from: PeerId, to: PeerId, entries: usize) -> NylonMsg {
    let mut draw = |natted: bool| {
        let id: u32 = rng.gen_range(0..1_000_000u32);
        let class =
            if natted { NatClass::Natted(NatType::PortRestrictedCone) } else { NatClass::Public };
        let mut d = NodeDescriptor::new(
            PeerId(id),
            Endpoint::new(Ip(0x0100_0000 + id), Port(rng.gen_range(1024..60_000u16))),
            class,
        );
        d.age = rng.gen_range(0..30u16);
        d
    };
    let entries = (0..entries)
        .map(|i| {
            let d = draw(i % 3 != 0);
            WireEntry::new(d, SimDuration::from_secs(u64::from(d.age) + 30), 1 + (i % 3) as u8)
        })
        .collect();
    let mut src = draw(true);
    src.id = from;
    NylonMsg::Request { src, dest: to, via: from, hops: 0, entries }
}

/// Encoding and decoding one 16-entry request frame; also its size.
pub fn codec_ns(seed: u64) -> (Timing, Timing, usize) {
    let mut rng = SimRng::new(seed).fork(0x0063_6F64_6563); // "codec"
    let msg = request_frame(&mut rng, PeerId(4), PeerId(0), 16);
    let (src, dst) = (Endpoint::new(Ip(9), Port(5000)), Endpoint::new(Ip(10), Port(9000)));
    let frame = codec::encode_frame(src, dst, &msg);
    let bytes = frame.len();
    const OPS: u64 = 256;
    let encode = time_ns(OPS, || {
        let mut total = 0u64;
        for _ in 0..OPS {
            total += black_box(codec::encode_frame(src, dst, black_box(&msg))).len() as u64;
        }
        total
    });
    let decode = time_ns(OPS, || {
        let mut total = 0u64;
        for _ in 0..OPS {
            let f = codec::decode_frame::<NylonMsg>(black_box(&frame)).expect("own frame decodes");
            total += u64::from(f.src.port.0);
        }
        total
    });
    (encode, decode, bytes)
}

/// The isolated operations of a simulated workload, shaped by the engine
/// it just ran: queue occupancy and routing-table size come from the
/// engine's telemetry, the view size from its views.
pub fn for_sim(spec: &SimSpec, scn: &Scenario, window: &Counts) -> Value {
    let mut v = Value::obj();
    let lanes = window.gauge("shard/lanes").max(1);
    let pending = window.gauge("kernel/pending_events") as usize;
    v.set("sim.queue.pending_events", pending);
    v.set("sim.queue.ns_per_event", timing_json(queue_ns_per_event(pending)));

    let view_size = scn.view_size;
    v.set("net.natbox.ns_per_op", timing_json(natbox_ns_per_op(2 * view_size as u32)));
    // Purges and kill waves delete; steady shuffling mostly inserts and reads.
    let remove_heavy = spec.kill.is_some();
    v.set("net.densemap.ns_per_op", timing_json(densemap_ns_per_op(64, remove_heavy)));
    let (merge, payload) = view_ns(view_size);
    v.set("gossip.view.merge_ns", timing_json(merge));
    v.set("gossip.view.payload_ns", timing_json(payload));

    if spec.engine == Engine::Nylon {
        let alive = window.gauge("net/alive_peers").max(1);
        let table = (window.gauge("routing/entries") * lanes / alive).max(16) as u32;
        let (install, lookup, sweep) = routing_ns(table);
        v.set("core.routing.table_size", u64::from(table));
        v.set("core.routing.install_ns_per_entry", timing_json(install));
        v.set("core.routing.lookup_ns", timing_json(lookup));
        v.set("core.routing.sweep_ns_per_entry", timing_json(sweep));
    }
    if let Some(faults) = spec.faults {
        v.set("faults.plan.compile_ms", fault_compile_ms(faults, scn));
    }
    v
}
