//! Loopback-UDP smoke tests: the traversal matrix exercised through the
//! user-space NAT emulator on real sockets.
//!
//! Three paths must each work on-wire, with the unmodified engine:
//! direct exchange (public targets), reactive hole punching (cone NATs),
//! and end-to-end relaying (symmetric combinations). A fourth test drives
//! raw frames through the emulator to pin down the packet-level NAT
//! behaviour itself (filtering unsolicited traffic, source rewriting), and
//! two bursts hold every frame sent to exactly one counted end.

use nylon::{NylonEngine, NylonMsg};
use nylon_net::{private_endpoint, DropReason, NatClass, NatType, NetConfig, PeerId};
use nylon_obs::{Counters, MetricValue, Report};
use nylon_sim::SimDuration;
use nylon_transport::{
    scaled_configs, udp_over_emulated_nat, LiveClock, LiveRunner, NatEmulator, Transport,
    UdpTransport,
};

fn live_run(classes: &[NatClass], rounds: u64, period_ms: u64, seed: u64) -> NylonEngine {
    let (cfg, net_cfg) = scaled_configs(period_ms);
    let mut engine = NylonEngine::new(cfg, net_cfg.clone(), seed);
    for c in classes {
        engine.add_peer(*c);
    }
    engine.bootstrap_random_public(8);
    engine.start();
    let clock = LiveClock::start_now();
    let (transport, emulator) = udp_over_emulated_nat::<NylonMsg>(classes, &net_cfg, clock)
        .expect("loopback sockets must bind");
    let tick = SimDuration::from_millis((period_ms / 10).max(5));
    let mut runner = LiveRunner::new(engine, transport, tick);
    runner.run_rounds(rounds);
    assert_eq!(runner.transport().decode_errors(), 0, "frames must decode on-wire");
    let engine = runner.into_engine();
    drop(emulator);
    engine
}

#[test]
fn direct_exchange_over_loopback() {
    let classes = vec![NatClass::Public; 8];
    let eng = live_run(&classes, 10, 100, 1);
    let s = eng.stats();
    assert!(s.direct_requests > 0, "public targets must be contacted directly");
    assert!(s.requests_completed > 0, "requests must arrive over real UDP");
    assert!(s.responses_completed > 0, "responses must arrive over real UDP");
    assert_eq!(s.hole_punches, 0, "all-public populations never punch");
}

#[test]
fn hole_punching_over_loopback() {
    let mut classes = vec![NatClass::Public; 4];
    classes.extend(vec![NatClass::Natted(NatType::PortRestrictedCone); 8]);
    classes.extend(vec![NatClass::Natted(NatType::RestrictedCone); 4]);
    let eng = live_run(&classes, 15, 100, 2);
    let s = eng.stats();
    assert!(s.hole_punches > 0, "cone targets must trigger OPEN_HOLE");
    assert!(s.punch_successes > 0, "punched holes must complete on-wire");
    assert!(s.requests_completed > 0);
}

#[test]
fn relaying_over_loopback() {
    let mut classes = vec![NatClass::Public; 4];
    classes.extend(vec![NatClass::Natted(NatType::Symmetric); 12]);
    let eng = live_run(&classes, 15, 100, 3);
    let s = eng.stats();
    assert!(s.relayed_requests > 0, "symmetric combinations must relay");
    assert!(s.requests_completed > 0, "relayed shuffles must complete on-wire");
}

/// Packet-level NAT behaviour on the wire, without any engine: unsolicited
/// traffic towards a natted peer dies at the emulator; once the natted
/// peer initiates, the reply flows back through the hole with a rewritten
/// (public) source endpoint.
#[test]
fn emulator_filters_and_rewrites_raw_frames() {
    let classes = vec![NatClass::Public, NatClass::Natted(NatType::PortRestrictedCone)];
    let net_cfg = NetConfig::default();
    let clock = LiveClock::start_now();
    let (mut transport, emulator): (UdpTransport<NylonMsg>, NatEmulator) =
        udp_over_emulated_nat(&classes, &net_cfg, clock.clone()).expect("sockets must bind");
    let (public, natted) = (PeerId(0), PeerId(1));
    // The virtual address plan is deterministic: peer 0 is the first
    // public peer, peer 1 sits behind the first NAT box.
    let sim_plan: nylon_transport::SimTransport<NylonMsg> =
        nylon_transport::SimTransport::new(&classes, net_cfg.clone(), 0);
    let pub_ep = sim_plan.net().identity_endpoint(public);
    let nat_ep = sim_plan.net().identity_endpoint(natted);

    let wait = |t: &mut UdpTransport<NylonMsg>| {
        let deadline = clock.now_sim() + SimDuration::from_millis(300);
        t.poll(deadline)
    };

    // 1. Unsolicited public -> natted: swallowed by the emulator.
    let now = clock.now_sim();
    transport.send(
        now,
        public,
        private_endpoint(public),
        nat_ep,
        NylonMsg::Ping { from: public },
        8,
    );
    assert!(wait(&mut transport).is_none(), "unsolicited frame must be filtered on-wire");
    assert!(
        emulator.drop_counters()[DropReason::NoMapping] > 0,
        "the NAT must have refused a mapping"
    );

    // 2. Natted initiates: arrives at the public peer with a rewritten,
    //    public source endpoint (not the private one it was sent with).
    let now = clock.now_sim();
    transport.send(
        now,
        natted,
        private_endpoint(natted),
        pub_ep,
        NylonMsg::Ping { from: natted },
        8,
    );
    let a = wait(&mut transport).expect("natted -> public must pass");
    assert_eq!(a.to, public);
    assert_ne!(a.from_ep, private_endpoint(natted), "source must be NAT-rewritten");
    assert_eq!(a.from_ep.ip, nat_ep.ip, "rewritten source must carry the NAT's public IP");

    // 3. The reply to the observed endpoint flows back through the hole.
    let now = clock.now_sim();
    transport.send(
        now,
        public,
        private_endpoint(public),
        a.from_ep,
        NylonMsg::Pong { from: public },
        8,
    );
    let back = wait(&mut transport).expect("reply through the hole must pass");
    assert_eq!(back.to, natted);
    assert!(matches!(back.payload, NylonMsg::Pong { .. }));
    assert_eq!(emulator.forwarded(), 2);

    // The live report: every counter of both sets under its pinned name,
    // every drop cause of the emulated fabric among them.
    let mut out = Report::new();
    transport.obs_report(&mut out);
    emulator.obs_report(&mut out);
    let count = |layer: &str, metric: &str| match out.get(layer, metric) {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("{layer}/{metric} is {other:?}, not a counter"),
    };
    let names = |layer: &str| -> Vec<&str> {
        out.iter().filter(|(l, _, _)| *l == layer).map(|(_, m, _)| m).collect()
    };
    let sorted = |mut list: Vec<&'static str>| {
        list.sort();
        list
    };
    let live = [
        "packets_sent",
        "bytes_sent",
        "send_errors",
        "packets_received",
        "decode_errors",
        "overflow_drops",
        "recv_errors",
    ];
    assert_eq!(names("live"), sorted(live.to_vec()));
    assert_eq!(count("live", "packets_sent"), 3, "three frames were sent");
    assert_eq!(count("live", "packets_received"), 2, "two frames made it through");
    let drops = [
        "drop_loss",
        "drop_no_route",
        "drop_target_dead",
        "drop_source_dead",
        "drop_no_mapping",
        "drop_filtered",
        "drop_hairpin_blocked",
        "drop_fault_loss",
        "drop_partitioned",
    ];
    let emu = ["forwarded", "malformed", "outside_senders"];
    assert_eq!(names("emulator"), sorted([&emu[..], &drops].concat()));
    let reported: u64 = drops.iter().map(|m| count("emulator", m)).sum();
    assert_eq!(reported, emulator.drop_counters().total(), "every drop is reported");
    assert_eq!(reported, 1, "one frame was filtered");
}

/// Burst stack: public peer 0 sends to public peers `1..=receivers`.
fn burst_stack(
    receivers: usize,
) -> (UdpTransport<NylonMsg>, NatEmulator, LiveClock, Vec<nylon_net::Endpoint>) {
    let classes = vec![NatClass::Public; receivers + 1];
    let net_cfg = NetConfig::default();
    let clock = LiveClock::start_now();
    let (transport, emulator) =
        udp_over_emulated_nat(&classes, &net_cfg, clock.clone()).expect("sockets must bind");
    let sim_plan: nylon_transport::SimTransport<NylonMsg> =
        nylon_transport::SimTransport::new(&classes, net_cfg, 0);
    let eps = (0..=receivers).map(|i| sim_plan.net().identity_endpoint(PeerId(i as u32))).collect();
    (transport, emulator, clock, eps)
}

/// Sends `frames` pings from peer 0, frame `k` to peer `1 + k % receivers`.
fn burst(
    transport: &mut UdpTransport<NylonMsg>,
    clock: &LiveClock,
    eps: &[nylon_net::Endpoint],
    frames: u32,
) {
    let (from, receivers) = (PeerId(0), eps.len() as u32 - 1);
    for k in 0..frames {
        let dst = eps[(1 + k % receivers) as usize];
        let ping = NylonMsg::Ping { from: PeerId(k) };
        transport.send(clock.now_sim(), from, private_endpoint(from), dst, ping, 8);
    }
}

/// Polls until nothing is left and returns, per frame, how often it was
/// read; each must arrive at the peer it was sent to.
fn read_all(
    transport: &mut UdpTransport<NylonMsg>,
    clock: &LiveClock,
    frames: u32,
    receivers: u32,
) -> Vec<u32> {
    let mut seen = vec![0u32; frames as usize];
    while let Some(a) = transport.poll(clock.now_sim()) {
        let NylonMsg::Ping { from: PeerId(k) } = a.payload else {
            panic!("a frame that was not sent arrived: {:?}", a.payload)
        };
        assert_eq!(a.to, PeerId(1 + k % receivers), "frame {k} reached the wrong peer");
        seen[k as usize] += 1;
    }
    seen
}

fn live_counts(transport: &UdpTransport<NylonMsg>) -> impl Fn(&str) -> u64 {
    let mut out = Report::new();
    transport.obs_report(&mut out);
    move |metric: &str| match out.get("live", metric) {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("live/{metric} is {other:?}, not a counter"),
    }
}

/// The middlebox forwards a frame inside `send`, so a burst sent without
/// polling is forwarded in full before anything reads it, and every frame
/// is then read exactly once.
#[test]
fn every_frame_of_a_burst_is_forwarded_at_send_and_read_once() {
    // 100 frames a receiver: well within one default socket buffer.
    const FRAMES: u32 = 3_000;
    const RECEIVERS: usize = 30;
    let (mut transport, emulator, clock, eps) = burst_stack(RECEIVERS);
    burst(&mut transport, &clock, &eps, FRAMES);
    assert_eq!(live_counts(&transport)("packets_sent"), u64::from(FRAMES));
    assert_eq!(emulator.forwarded(), u64::from(FRAMES), "forwarded before any poll");
    assert_eq!(transport.unaccounted(), 0, "every frame waits in the FIFO");

    let seen = read_all(&mut transport, &clock, FRAMES, RECEIVERS as u32);
    assert!(seen.iter().all(|n| *n == 1), "every frame is read exactly once");
    let count = live_counts(&transport);
    assert_eq!(count("packets_received"), u64::from(FRAMES));
    assert_eq!(count("overflow_drops"), 0);
    assert_eq!(count("send_errors") + count("recv_errors"), 0);
    assert_eq!(transport.unaccounted(), 0);
}

/// A receiver that falls behind overflows its socket: every forward is then
/// either read exactly once or counted as an overflow drop.
#[test]
fn an_overflowed_socket_counts_each_frame_it_dropped() {
    // A 208 KiB default receive buffer holds 256 of these frames. Each
    // one beyond that is a read that waits out its timeout, a scheduler
    // tick, so the flood overflows it by about 250 frames and no more.
    const FLOOD: u32 = 500;
    let (mut transport, emulator, clock, eps) = burst_stack(1);
    burst(&mut transport, &clock, &eps, FLOOD);
    assert_eq!(emulator.forwarded(), u64::from(FLOOD), "public -> public frames must pass");

    let seen = read_all(&mut transport, &clock, FLOOD, 1);
    assert!(seen.iter().all(|n| *n <= 1), "no frame is read twice");
    let read = seen.iter().filter(|n| **n == 1).count() as u64;
    let count = live_counts(&transport);
    assert_eq!(count("packets_received"), read, "every datagram read decoded");
    assert_eq!(
        count("packets_received") + count("overflow_drops"),
        u64::from(FLOOD),
        "each forward is read once or counted as dropped"
    );
    assert!(count("overflow_drops") > 0, "{FLOOD} frames must overflow one socket buffer");
    assert_eq!(count("send_errors") + count("recv_errors"), 0);
    assert_eq!(transport.unaccounted(), 0);
}
