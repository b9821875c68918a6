//! The per-layer metrics: one row per (crate/module, quantity), derived
//! from the traced pass.
//!
//! Three sources, all outside the program — **(a)** the seam trace's phase
//! spans, **(b)** isolated timing loops over public functions, **(c)** the
//! counters `obs_report` exports, differenced over the measured window.
//! A layer a workload does not exercise reads 0 there. Which end-to-end
//! metric each row should move, and on which workload, is written down in
//! `benchmark/README.md` before anything is optimised.

use crate::json::Value;
use crate::workloads::Better::{self, Higher, Lower};

/// One per-layer metric: name, unit, direction.
pub type Def = (&'static str, &'static str, Better);

/// Every per-layer metric, grouped by layer.
pub const PER_LAYER: [Def; 74] = [
    ("sim.kernel.events_per_node_round", "count", Lower),
    ("sim.kernel.ns_per_event", "ns", Lower),
    ("sim.kernel.queue_depth_hwm", "count", Lower),
    ("sim.queue.ns_per_event", "ns", Lower),
    ("sim.shard.stall_share", "ratio", Lower),
    ("sim.shard.envelopes_per_tick", "count", Lower),
    ("sim.shard.outbox_bytes_per_node_round", "B", Lower),
    ("sim.shard.lane_imbalance", "ratio", Lower),
    ("sim.shard.s2_speedup", "ratio", Higher),
    ("net.network.self_s", "s", Lower),
    ("net.network.share", "ratio", Lower),
    ("net.network.ns_per_datagram", "ns", Lower),
    ("net.network.datagrams_per_node_round", "count", Lower),
    ("net.network.drop_share", "ratio", Lower),
    ("net.network.drop_no_mapping_share", "ratio", Lower),
    ("net.network.drop_filtered_share", "ratio", Lower),
    ("net.network.drop_fault_loss_share", "ratio", Lower),
    ("net.natbox.ns_per_op", "ns", Lower),
    ("net.densemap.ns_per_op", "ns", Lower),
    ("net.pool.recycle_ratio", "ratio", Higher),
    ("gossip.view.merge_ns", "ns", Lower),
    ("gossip.view.payload_ns", "ns", Lower),
    ("gossip.engine.self_s", "s", Lower),
    ("gossip.engine.share", "ratio", Lower),
    ("gossip.engine.timer_s", "s", Lower),
    ("gossip.engine.deliver_s", "s", Lower),
    ("gossip.engine.outbound_s", "s", Lower),
    ("gossip.engine.shuffle_success_ratio", "ratio", Higher),
    ("core.engine.self_s", "s", Lower),
    ("core.engine.share", "ratio", Lower),
    ("core.engine.timer_s", "s", Lower),
    ("core.engine.deliver_s", "s", Lower),
    ("core.engine.outbound_s", "s", Lower),
    ("core.engine.ns_per_msg", "ns", Lower),
    ("core.engine.punch_success_ratio", "ratio", Higher),
    ("core.engine.punch_retry_win_ratio", "ratio", Higher),
    ("core.engine.relayed_share", "ratio", Lower),
    ("core.engine.forwards_per_shuffle", "count", Lower),
    ("core.engine.mean_chain_len", "count", Lower),
    ("core.routing.install_ns_per_entry", "ns", Lower),
    ("core.routing.lookup_ns", "ns", Lower),
    ("core.routing.sweep_ns_per_entry", "ns", Lower),
    ("core.routing.entries_per_node", "count", Lower),
    ("core.routing.installs_per_node_round", "count", Lower),
    ("core.routing.expiries_per_node_round", "count", Lower),
    ("core.routing.probe_len_p99", "count", Lower),
    ("faults.plan.compile_ms", "ms", Lower),
    ("faults.driver.events_applied", "count", Lower),
    ("metrics.graph.snapshot_ms", "ms", Lower),
    ("metrics.staleness.ms", "ms", Lower),
    ("obs.report.us", "us", Lower),
    ("workloads.runner.add_peers_s", "s", Lower),
    ("workloads.runner.bootstrap_s", "s", Lower),
    ("workloads.runner.start_s", "s", Lower),
    ("workloads.experiment.cell_ms_p50", "ms", Lower),
    ("workloads.experiment.cell_ms_p90", "ms", Lower),
    ("workloads.experiment.worker_busy_share", "ratio", Higher),
    ("workloads.render_ms", "ms", Lower),
    ("transport.codec.encode_ns", "ns", Lower),
    ("transport.codec.decode_ns", "ns", Lower),
    ("transport.codec.frame_bytes", "B", Lower),
    ("transport.udp.send_us", "us", Lower),
    ("transport.wire.rtt_us_p50", "us", Lower),
    ("transport.wire.rtt_us_p99", "us", Lower),
    ("transport.natemu.forwarded_share", "ratio", Higher),
    ("transport.udp.overflow_drops", "count", Lower),
    ("transport.live.cpu_us_per_pkt", "us", Lower),
    ("host.cpu_s", "s", Lower),
    ("host.allocs_per_node_round", "count", Lower),
    ("host.alloc_bytes_per_node_round", "B", Lower),
    ("host.rss_bytes_per_node", "B", Lower),
    ("host.runq_wait_share", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("trace.seam_wall_ratio", "ratio", Lower),
];

/// The records one traced pass of one workload produced.
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    /// The untraced end-to-end run (base of the overhead ratios).
    pub e2e: &'a Value,
    /// The traced direct run.
    pub traced: &'a Value,
    /// The seam run, for engines that have the seam.
    pub seam: Option<&'a Value>,
    /// Nylon 20k at one and at two shards, for the scaling row.
    pub shards: Option<(&'a Value, &'a Value)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives every metric of [`PER_LAYER`], in order.
pub fn derive(pass: &Pass<'_>) -> Vec<(&'static str, f64)> {
    let t = pass.traced;
    let window = |k: &str| t.path(&["window", k]).and_then(Value::num).unwrap_or(0.0);
    let op = |k: &str| {
        let v = t.path(&["ops", k]).or_else(|| t.path(&["end_state_ops", k]));
        // Timing loops report {median, tail, n}; everything else a number.
        v.and_then(|v| v.get("median").unwrap_or(v).num()).unwrap_or(0.0)
    };
    let setup_phase = |k: &str| t.path(&["setup_phases", k]).and_then(Value::num).unwrap_or(0.0);
    let top = |v: &Value, k: &str| v.num_or_zero(k);

    let wall = top(pass.e2e, "wall_s");
    let peer_rounds = top(t, "peer_rounds");
    // Work per node-round where there are nodes; per operation otherwise.
    let work = if peer_rounds > 0.0 { peer_rounds } else { top(t, "attempted") };
    let sent = window("net/datagrams_sent");
    let lanes = window("shard/lanes");
    let lane_events: Vec<f64> =
        (0..lanes as usize).map(|i| window(&format!("shard/lane{i}_events"))).collect();
    let lane_mean = ratio(lane_events.iter().sum(), lanes);
    let lane_max = lane_events.iter().copied().fold(0.0, f64::max);

    // The seam's engine/fabric split, attributed to whichever engine ran.
    let phase = |name: &str, field: &str| {
        pass.seam
            .and_then(|s| s.path(&["seam", "phases", name, field]))
            .and_then(Value::num)
            .unwrap_or(0.0)
    };
    let seam_wall = pass.seam.map_or(0.0, |s| top(s, "wall_s"));
    let net_s = phase("net.send", "s") + phase("net.poll", "s");
    let (timer_s, deliver_s, outbound_s) =
        (phase("engine.timer", "s"), phase("engine.deliver", "s"), phase("engine.outbound", "s"));
    let engine_s = timer_s + deliver_s + outbound_s;
    let nylon = window("engine.nylon/shuffles_initiated") > 0.0;
    let baseline = window("engine.baseline/shuffles_initiated") > 0.0;
    let engine = |on: bool, v: f64| if on { v } else { 0.0 };
    let ny = |k: &str| window(&format!("engine.nylon/{k}"));
    let faults = ["rebinds", "crashes", "revives", "loss_bursts", "partitions"]
        .iter()
        .map(|k| window(&format!("faults/{k}")))
        .sum::<f64>();
    let compile_ms = match op("faults.plan.compile_ms") {
        0.0 => setup_phase("faults.plan.compile") * 1e3 * f64::from(u8::from(faults > 0.0)),
        ms => ms,
    };
    let alloc = |k: &str| t.path(&["alloc", k]).and_then(Value::num).unwrap_or(0.0);

    let values: [f64; PER_LAYER.len()] = [
        ratio(window("kernel/events_processed"), peer_rounds),
        ratio(wall * 1e9, window("kernel/events_processed")),
        window("kernel/queue_depth_hwm"),
        op("sim.queue.ns_per_event"),
        ratio(window("shard/stall_ns"), lanes * top(t, "wall_s") * 1e9),
        ratio(window("shard/outbox_envelopes"), window("shard/ticks")),
        ratio(window("shard/outbox_bytes"), peer_rounds),
        ratio(lane_max, lane_mean),
        pass.shards.map_or(0.0, |(s1, s2)| ratio(top(s1, "wall_s"), top(s2, "wall_s"))),
        net_s,
        ratio(net_s, seam_wall),
        ratio(net_s * 1e9, phase("net.send", "calls")),
        ratio(sent, peer_rounds),
        ratio(window("net/drops_total"), sent),
        ratio(window("net/drop_no_mapping"), sent),
        ratio(window("net/drop_filtered"), sent),
        ratio(window("net/drop_fault_loss"), sent),
        op("net.natbox.ns_per_op"),
        op("net.densemap.ns_per_op"),
        ratio(window("kernel/pool_recycled"), window("kernel/pool_acquired")),
        op("gossip.view.merge_ns"),
        op("gossip.view.payload_ns"),
        engine(baseline, engine_s),
        engine(baseline, ratio(engine_s, seam_wall)),
        engine(baseline, timer_s),
        engine(baseline, deliver_s),
        engine(baseline, outbound_s),
        ratio(
            window("engine.baseline/responses_received"),
            window("engine.baseline/shuffles_initiated"),
        ),
        engine(nylon, engine_s),
        engine(nylon, ratio(engine_s, seam_wall)),
        engine(nylon, timer_s),
        engine(nylon, deliver_s),
        engine(nylon, outbound_s),
        engine(nylon, ratio(deliver_s * 1e9, phase("engine.deliver", "calls"))),
        ratio(ny("punch_successes"), ny("hole_punches")),
        ratio(ny("punch_retry_wins"), ny("punch_retries")),
        ratio(ny("relayed_requests"), ny("relayed_requests") + ny("direct_requests")),
        ratio(ny("rvp_forwards"), ny("shuffles_initiated")),
        ratio(ny("chain_hops_sum"), ny("chain_samples")),
        op("core.routing.install_ns_per_entry"),
        op("core.routing.lookup_ns"),
        op("core.routing.sweep_ns_per_entry"),
        ratio(window("routing/entries") * lanes.max(1.0), top(t, "alive_at_end")),
        ratio(window("routing/installs"), peer_rounds),
        ratio(window("routing/ttl_expiries"), peer_rounds),
        window("routing/probe_len/p99"),
        compile_ms,
        faults,
        op("metrics.graph.snapshot_ms"),
        op("metrics.staleness.ms"),
        op("obs.report.us"),
        setup_phase("workloads.runner.add_peers"),
        setup_phase("workloads.runner.bootstrap"),
        setup_phase("workloads.runner.start"),
        op("workloads.experiment.cell_ms_p50"),
        op("workloads.experiment.cell_ms_p90"),
        op("workloads.experiment.worker_busy_share"),
        op("workloads.render_ms"),
        op("transport.codec.encode_ns"),
        op("transport.codec.decode_ns"),
        op("transport.codec.frame_bytes"),
        op("transport.udp.send_us"),
        op("transport.wire.rtt_us_p50"),
        op("transport.wire.rtt_us_p99"),
        op("transport.natemu.forwarded_share"),
        op("transport.udp.overflow_drops"),
        op("transport.live.cpu_us_per_pkt"),
        t.path(&["noise", "cpu_s"]).and_then(Value::num).unwrap_or(0.0),
        ratio(alloc("allocs"), work),
        ratio(alloc("bytes"), work),
        ratio(top(t, "rss_bytes_at_end"), top(t, "peers")),
        t.path(&["noise", "wait_share"]).and_then(Value::num).unwrap_or(0.0),
        ratio(top(t, "wall_s"), wall) - f64::from(u8::from(wall > 0.0)),
        ratio(seam_wall, wall),
    ];
    PER_LAYER.iter().map(|(name, _, _)| *name).zip(values).collect()
}
