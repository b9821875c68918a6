//! `wire-loopback-8`: the only workload in which the codec, UDP system
//! calls, the `NatEmulator` and the receive threads do all the work and
//! the simulation kernel does none.
//!
//! Four natted (port-restricted cone) sockets send 16-entry
//! `NylonMsg::Request` frames to four public sockets through
//! `UdpTransport::send` / `poll`, on **real loopback UDP sockets** with
//! the user-space NAT emulator in the path. The loop is **closed**, 64
//! frames in flight: the next frame goes out only when one arrived,
//! because callers of a live overlay wait for their replies. An operation
//! is one frame delivered and verified.

use std::time::Instant;

use nylon::NylonMsg;
use nylon_net::{private_endpoint, Endpoint, NatClass, NatType, NetConfig, Network, PeerId};
use nylon_sim::{SimDuration, SimRng};
use nylon_transport::{udp_over_emulated_nat, LiveClock, Transport};

use crate::counts::{Counts, Fnv};
use crate::host::{self, NoiseGuard};
use crate::json::Value;
use crate::ops;
use crate::stats::quantile;
use crate::{ChildCtx, Mode};

/// Frames in flight.
const WINDOW: usize = 64;
/// Frames the reported window stands for.
const WINDOW_FRAMES: u64 = 600_000;
/// The window is measured in blocks of this many frames; `wall_s` is the
/// first-quartile block scaled to [`WINDOW_FRAMES`]. Ten threads share
/// two cores here and interference only ever slows a block down, so the
/// least-disturbed quarter is the steadiest statement of what the path
/// can do: over eight runs the quartile ranged 8 %, the median 16 %.
const BLOCK_FRAMES: u64 = 100_000;
/// Distinct pre-generated frames cycled through.
const POOL: usize = 512;
/// In-flight table slots; the slot index travels in the frame.
const SLOTS: usize = 4096;
/// With nothing arriving for this long, everything in flight is lost.
const LOSS_TIMEOUT: SimDuration = SimDuration::from_millis(250);

const PUBLICS: u32 = 4;
const NATTED: u32 = 4;

/// One pre-generated frame and who exchanges it.
struct Template {
    from: PeerId,
    to: PeerId,
    msg: NylonMsg,
}

/// `true` when `got` is the request `sent`, field for field.
fn same_request(sent: &NylonMsg, got: &NylonMsg) -> bool {
    match (sent, got) {
        (
            NylonMsg::Request { src, dest, via, hops, entries },
            NylonMsg::Request { src: s2, dest: d2, via: v2, hops: h2, entries: e2 },
        ) => src == s2 && dest == d2 && via == v2 && hops == h2 && entries == e2,
        _ => false,
    }
}

/// Stamps the in-flight slot into the frame (the source descriptor's age:
/// sixteen free bits the emulator never reads).
fn stamped(template: &NylonMsg, slot: usize) -> NylonMsg {
    let mut msg = template.clone();
    if let NylonMsg::Request { src, .. } = &mut msg {
        src.age = slot as u16;
    }
    msg
}

/// Runs one child process' worth of the loopback workload.
pub fn run(ctx: &ChildCtx) -> Value {
    let mut rec = Value::obj();
    let traced = ctx.mode == Mode::Traced;
    let seconds = if ctx.toy { 0.5 } else { ctx.seconds };
    let (block_frames, min_blocks, warm_frames) = if ctx.toy {
        (2_000, 3, 1_000)
    } else {
        (BLOCK_FRAMES, WINDOW_FRAMES / BLOCK_FRAMES, 20_000)
    };

    // Inputs: the population and the frame pool, from the seed.
    let mut classes = vec![NatClass::Public; PUBLICS as usize];
    classes.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); NATTED as usize]);
    let mut rng = SimRng::new(ctx.seed).fork(0x7769_7265); // "wire"
    let pool: Vec<Template> = (0..POOL as u32)
        .map(|k| {
            let from = PeerId(PUBLICS + k % NATTED);
            let to = PeerId((k / NATTED) % PUBLICS);
            Template { from, to, msg: ops::request_frame(&mut rng, from, to, 16) }
        })
        .collect();

    // Set-up: the address plan (the emulator's fabric is built from the
    // same classes, so this replica predicts every NAT mapping), sockets,
    // emulator and receive threads.
    let net_cfg = NetConfig::default();
    let mut plan: Network<()> = Network::new(net_cfg.clone(), 0);
    for class in &classes {
        plan.add_peer(*class);
    }
    let identity: Vec<Endpoint> =
        (0..classes.len()).map(|i| plan.identity_endpoint(PeerId(i as u32))).collect();
    let clock = LiveClock::start_now();
    let (mut transport, emulator) =
        match udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock.clone()) {
            Ok(stack) => stack,
            Err(e) => {
                rec.set("setup_s", ctx.start.elapsed_s());
                rec.set("failures", vec![Value::from(format!("cannot build the live stack: {e}"))]);
                return rec;
            }
        };
    rec.set("setup_s", ctx.start.elapsed_s());
    if ctx.mode == Mode::Setup {
        return rec;
    }

    let mut in_flight: Vec<Option<(usize, Instant)>> = vec![None; SLOTS];
    let mut outstanding = 0usize;
    let (mut sent, mut delivered, mut lost, mut wrong) = (0u64, 0u64, 0u64, 0u64);
    let mut src_ok = 0u64;
    let mut pairs_seen = [[false; PUBLICS as usize]; NATTED as usize];
    let mut rtt_ns = nylon_obs::Histogram::new();
    let mut send_ns = nylon_obs::Histogram::new();
    let mut blocks: Vec<f64> = Vec::new();

    let mut measuring = false;
    let mut guard = NoiseGuard::start();
    let mut alloc0 = ctx.alloc.map(|a| a.read());
    let mut window_start = Instant::now();
    let mut block_start = window_start;
    let (mut sent0, mut delivered0) = (0u64, 0u64);
    loop {
        while outstanding < WINDOW {
            let slot = (sent % SLOTS as u64) as usize;
            let idx = (sent % POOL as u64) as usize;
            let t = &pool[idx];
            let msg = stamped(&t.msg, slot);
            let now = clock.now_sim();
            let at = Instant::now();
            transport.send(now, t.from, private_endpoint(t.from), identity[t.to.index()], msg, 0);
            if traced {
                send_ns.record(at.elapsed().as_nanos() as u64);
            }
            in_flight[slot] = Some((idx, at));
            outstanding += 1;
            sent += 1;
        }
        match transport.poll(clock.now_sim() + LOSS_TIMEOUT) {
            Some(a) => {
                let slot = match &a.payload {
                    NylonMsg::Request { src, .. } => usize::from(src.age),
                    _ => SLOTS,
                };
                let Some((idx, at)) = in_flight.get_mut(slot).and_then(Option::take) else {
                    wrong += 1;
                    continue;
                };
                outstanding -= 1;
                let t = &pool[idx];
                // Delivered means: to the addressed peer, byte-for-byte the
                // request that was sent, its source rewritten to the
                // sender's NAT mapping (and never the private endpoint).
                let rewritten =
                    a.from_ep == identity[t.from.index()] && a.from_ep != private_endpoint(t.from);
                if a.to == t.to && same_request(&stamped(&t.msg, slot), &a.payload) {
                    delivered += 1;
                    src_ok += u64::from(rewritten);
                    pairs_seen[(t.from.0 - PUBLICS) as usize][t.to.index()] = true;
                } else {
                    wrong += 1;
                }
                if traced {
                    rtt_ns.record(at.elapsed().as_nanos() as u64);
                }
            }
            None => {
                lost += outstanding as u64;
                in_flight.iter_mut().for_each(|s| *s = None);
                outstanding = 0;
            }
        }
        let done = delivered + lost + wrong;
        if !measuring {
            if done >= warm_frames {
                // Warm: holes are open, threads are hot. Start the clock.
                measuring = true;
                guard = NoiseGuard::start();
                alloc0 = ctx.alloc.map(|a| a.read());
                window_start = Instant::now();
                block_start = window_start;
                (sent0, delivered0) = (sent, delivered);
                rtt_ns = nylon_obs::Histogram::new();
                send_ns = nylon_obs::Histogram::new();
            }
            continue;
        }
        if (delivered - delivered0) / block_frames > blocks.len() as u64 {
            let now = Instant::now();
            blocks.push(now.duration_since(block_start).as_secs_f64());
            block_start = now;
            let enough = blocks.len() as u64 >= min_blocks;
            if enough && window_start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        if window_start.elapsed().as_secs_f64() > seconds.max(10.0) * 6.0 {
            break; // a wedged stack must not hang the benchmark
        }
    }
    let measured_s = window_start.elapsed().as_secs_f64();
    let noise = guard.finish();
    if let Some((a, before)) = ctx.alloc.zip(alloc0) {
        rec.set("alloc", a.since(before));
    }

    // Frames still in flight when the clock stopped were neither delivered
    // nor lost; they are not attempts.
    let attempted = (sent - sent0).saturating_sub(outstanding as u64);
    let completed = (delivered - delivered0).min(attempted);
    let mut live = nylon_obs::Report::new();
    transport.obs_report(&mut live);
    emulator.obs_report(&mut live);
    let live = Counts::of(&live);
    let (decode_errors, malformed) = (transport.decode_errors(), emulator.malformed());
    let overflow = transport.overflow_drops();
    let forwarded = emulator.forwarded();
    drop(transport);
    drop(emulator);

    let mut failures: Vec<String> = Vec::new();
    if wrong > 0 {
        failures.push(format!("{wrong} frames arrived altered, misaddressed or unknown"));
    }
    if src_ok != delivered {
        failures.push(format!(
            "{} delivered frames did not carry the sender's NAT mapping as source",
            delivered - src_ok
        ));
    }
    if decode_errors > 0 || malformed > 0 {
        failures.push(format!("decode_errors = {decode_errors}, malformed = {malformed}"));
    }
    if (blocks.len() as u64) < min_blocks {
        failures.push(format!("only {} of {min_blocks} blocks completed", blocks.len()));
    }
    let pairs = pairs_seen.iter().flatten().filter(|s| **s).count();
    let scale_to_window = WINDOW_FRAMES as f64 / block_frames as f64;
    let block_s = if blocks.is_empty() {
        measured_s
    } else {
        let mut sorted = blocks.clone();
        sorted.sort_by(f64::total_cmp);
        quantile(&sorted, 0.25)
    };
    let frame_bytes =
        live.counter("live/bytes_sent") as f64 / live.counter("live/packets_sent").max(1) as f64;
    let mut fp = Fnv::default();
    for t in &pool {
        fp.bytes(&nylon_transport::codec::encode_frame(
            private_endpoint(t.from),
            identity[t.to.index()],
            &t.msg,
        ));
    }

    rec.set("wall_s", block_s * scale_to_window)
        .set("attempted", attempted)
        .set("completed", completed)
        .set("failed", attempted - completed)
        .set("ops_ok_share", completed as f64 / attempted.max(1) as f64)
        // The live analogues of the simulated statistics: sender→receiver
        // pairs connected, delivered frames with a fresh (correct) NAT
        // mapping, bytes on the wire per frame.
        .set("sim_cluster_pct", 100.0 * pairs as f64 / (PUBLICS * NATTED) as f64)
        .set("sim_fresh_pct", 100.0 * src_ok as f64 / delivered.max(1) as f64)
        .set("sim_bytes_per_peer_round", frame_bytes)
        .set("sim_fingerprint", fp.hex())
        .set("peers", u64::from(PUBLICS + NATTED))
        .set("pkts_per_s", block_frames as f64 / block_s)
        .set("measured_s", measured_s)
        .set("blocks", blocks.iter().map(|b| Value::Num(*b)).collect::<Vec<_>>())
        .set("lost", lost)
        .set("rss_bytes_at_end", host::rss_bytes())
        .set("failures", failures.into_iter().map(Value::from).collect::<Vec<_>>())
        .set("noise", noise.clone())
        .set("window", live.to_json());

    let mut layer = Value::obj();
    layer
        .set("transport.natemu.forwarded_share", forwarded as f64 / sent.max(1) as f64)
        .set("transport.udp.overflow_drops", overflow)
        .set(
            "transport.live.cpu_us_per_pkt",
            noise.num_or_zero("cpu_s") * 1e6 / attempted.max(1) as f64,
        );
    if traced {
        let (rtt, send) = (rtt_ns.snapshot(), send_ns.snapshot());
        let (encode, decode, bytes) = ops::codec_ns(ctx.seed);
        layer
            .set("transport.wire.rtt_us_p50", rtt.quantile(0.5) as f64 / 1e3)
            .set("transport.wire.rtt_us_p99", rtt.quantile(0.99) as f64 / 1e3)
            .set("transport.wire.rtt_samples", rtt.count)
            .set("transport.udp.send_us", send.quantile(0.5) as f64 / 1e3)
            .set("transport.udp.send_us_p99", send.quantile(0.99) as f64 / 1e3)
            .set("transport.codec.encode_ns", encode.median)
            .set("transport.codec.encode_ns_tail", encode.tail)
            .set("transport.codec.decode_ns", decode.median)
            .set("transport.codec.decode_ns_tail", decode.tail)
            .set("transport.codec.frame_bytes", bytes);
    }
    rec.set("end_state_ops", layer);
    rec
}
