//! `repro stats-report`: summarize a `--stats` JSONL file.
//!
//! Reads the snapshot lines the [`nylon_obs`] sink wrote, keeps the last
//! one (the `"final"` snapshot of a completed run), and renders a
//! per-layer markdown table plus the derived health numbers the layers
//! only imply together: kernel events per wall second, allocations the
//! buffer pools avoided, cell latency quantiles and per-shard imbalance.
//! [`render_counters`] prints the same snapshot as a sorted `layer/metric
//! value` list without the rows that move with the host or the worker
//! count ([`IMPLEMENTATION_ROWS`]): the exact telemetry a golden can pin.
//!
//! Lines are read with [`nylon_obs::json`]; tolerance means skipping
//! unparseable lines (a killed run can truncate its tail), not accepting
//! JSON extensions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nylon_obs::json::{self, Value};

/// One metric of the last snapshot, flattened for rendering.
#[derive(Debug)]
struct Metric {
    kind: String,
    value: u64,
    hist: Option<(u64, u64, u64, u64)>, // (count, mean, p50, p99)
    /// What [`render_counters`] prints: the value, or a histogram's digest.
    digest: String,
}

/// Rows [`render_counters`] leaves out, each a `layer/metric` name or a
/// `layer/prefix*` pattern, with why it cannot be a golden: each moves with
/// the host or the worker count while the behaviour stays the same.
pub const IMPLEMENTATION_ROWS: [(&str, &str); 8] = [
    ("exec/*", "wall-clock timings of the executor and its cells"),
    ("process/*", "the operating system's view of the process: RSS, CPU time"),
    ("shard/*", "lane, envelope and barrier accounting of the lockstep workers"),
    ("kernel/events_processed", "each worker arms its own purge timer"),
    ("kernel/pending_events", "each worker holds its own pending purge timer"),
    ("kernel/pool_recycled", "payload pools are per worker; a buffer may be released on another"),
    ("kernel/queue_depth_hwm", "each worker's queue peaks on its own schedule"),
    ("kernel/wheel_*", "each worker's timer wheel sizes its own levels and buckets"),
];

/// Whether `layer/metric` is one of the [`IMPLEMENTATION_ROWS`].
fn is_implementation_row(row: &str) -> bool {
    IMPLEMENTATION_ROWS.iter().any(|(pattern, _)| match pattern.strip_suffix('*') {
        Some(prefix) => row.starts_with(prefix),
        None => row == *pattern,
    })
}

/// The last snapshot of one stats file, flattened for rendering.
#[derive(Debug)]
struct Summary {
    snapshots: usize,
    kind: String,
    t_ms: u64,
    layers: BTreeMap<String, BTreeMap<String, Metric>>,
}

/// Parses a stats JSONL file down to its last snapshot.
///
/// Skips lines that fail to parse (a killed run can truncate its tail),
/// but rejects files whose parseable lines carry the wrong schema tag or
/// that contain no snapshot at all.
fn summarize(text: &str) -> Result<Summary, String> {
    let mut snapshots = 0usize;
    let mut last: Option<Value> = None;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else { continue };
        match v.get("schema").and_then(Value::as_str) {
            Some(s) if s == nylon_obs::SCHEMA => {}
            Some(s) => {
                return Err(format!("unsupported schema '{s}' (want {})", nylon_obs::SCHEMA))
            }
            None => continue,
        }
        snapshots += 1;
        last = Some(v);
    }
    let last = last.ok_or_else(|| "no snapshot lines found".to_string())?;
    let uint = |v: &Value, key: &str| v.get(key).and_then(Value::as_num::<u64>).unwrap_or(0);
    let kind = last.get("kind").and_then(Value::as_str).unwrap_or("?").to_string();
    let t_ms = uint(&last, "t_ms");

    // Flatten layers -> metrics, keeping the sink's sorted order.
    let mut layers: BTreeMap<String, BTreeMap<String, Metric>> = BTreeMap::new();
    if let Some(Value::Obj(layer_fields)) = last.get("layers") {
        for (layer, metrics) in layer_fields {
            let Value::Obj(metric_fields) = metrics else { continue };
            let entry = layers.entry(layer.clone()).or_default();
            for (name, m) in metric_fields {
                let kind = m.get("type").and_then(Value::as_str).unwrap_or("?").to_string();
                let (value, hist, digest) = if kind == "histogram" {
                    let count = uint(m, "count");
                    let mean = uint(m, "sum").checked_div(count).unwrap_or(0);
                    let digest = ["count", "sum", "min", "max", "p50", "p90", "p99"]
                        .map(|k| format!("{k}={}", uint(m, k)))
                        .join(" ");
                    (count, Some((count, mean, uint(m, "p50"), uint(m, "p99"))), digest)
                } else {
                    let value = uint(m, "value");
                    (value, None, value.to_string())
                };
                entry.insert(name.clone(), Metric { kind, value, hist, digest });
            }
        }
    }
    Ok(Summary { snapshots, kind, t_ms, layers })
}

/// Summarizes a stats JSONL file as markdown.
pub fn render(text: &str) -> Result<String, String> {
    let Summary { snapshots, kind, t_ms, layers } = summarize(text)?;

    let mut out = String::new();
    let _ = writeln!(out, "## stats report\n");
    let _ = writeln!(out, "{snapshots} snapshot(s); last is `{kind}` at t={t_ms} ms\n");
    let _ = writeln!(out, "| layer | metric | kind | value |");
    let _ = writeln!(out, "|---|---|---|---|");
    for (layer, metrics) in &layers {
        for (name, m) in metrics {
            let shown = match m.hist {
                Some((count, mean, p50, p99)) => {
                    format!("count={count} mean={mean} p50={p50} p99={p99}")
                }
                None => m.value.to_string(),
            };
            let _ = writeln!(out, "| {layer} | {name} | {} | {shown} |", m.kind);
        }
    }

    let _ = writeln!(out, "\n### derived\n");
    let lookup = |layer: &str, metric: &str| -> Option<&Metric> {
        layers.get(layer).and_then(|m| m.get(metric))
    };
    if let (Some(events), Some(wall)) =
        (lookup("kernel", "events_processed"), lookup("exec", "run_wall_ms"))
    {
        if wall.value > 0 {
            let rate = events.value as f64 / (wall.value as f64 / 1000.0);
            let _ = writeln!(out, "- kernel events/s (wall): {rate:.0}");
        }
    }
    if let Some(recycled) = lookup("kernel", "pool_recycled") {
        let _ = writeln!(out, "- allocations avoided (pool recycles): {}", recycled.value);
    }
    if let Some((count, mean, p50, p99)) = lookup("exec", "cell_wall_ms").and_then(|m| m.hist) {
        let _ = writeln!(
            out,
            "- cell latency: {count} cells, mean={mean} ms p50={p50} ms p99={p99} ms"
        );
    }
    let lane_events: Vec<u64> = layers
        .get("shard")
        .map(|m| {
            let mut lanes: Vec<(usize, u64)> = m
                .iter()
                .filter_map(|(name, metric)| {
                    let idx = name.strip_prefix("lane")?.strip_suffix("_events")?;
                    Some((idx.parse::<usize>().ok()?, metric.value))
                })
                .collect();
            lanes.sort_unstable();
            lanes.into_iter().map(|(_, v)| v).collect()
        })
        .unwrap_or_default();
    if lane_events.len() > 1 {
        let max = *lane_events.iter().max().expect("non-empty") as f64;
        let mean = lane_events.iter().sum::<u64>() as f64 / lane_events.len() as f64;
        if mean > 0.0 {
            let _ = writeln!(
                out,
                "- per-shard imbalance (max/mean events over {} lanes): {:.3}",
                lane_events.len(),
                max / mean
            );
        }
    }
    if let Some(rss) = lookup("process", "peak_rss_bytes") {
        let _ = writeln!(out, "- peak RSS: {:.1} MiB", rss.value as f64 / (1024.0 * 1024.0));
    }
    Ok(out)
}

/// Formats a signed delta with an explicit sign (`+12`, `-3`, `0`).
fn signed(after: u64, before: u64) -> String {
    if after == before {
        "0".to_string()
    } else if after > before {
        format!("+{}", after - before)
    } else {
        format!("-{}", before - after)
    }
}

/// Diffs two stats JSONL files (before, after) as markdown: per-(layer,
/// metric) counter/gauge deltas plus histogram quantile shifts.
///
/// Metrics present in only one file still get a row — `(absent)` on the
/// missing side — so a run that gained or lost an instrumentation layer
/// is visible rather than silently skipped.
pub fn render_diff(before_text: &str, after_text: &str) -> Result<String, String> {
    let before = summarize(before_text).map_err(|e| format!("before: {e}"))?;
    let after = summarize(after_text).map_err(|e| format!("after: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(out, "## stats diff\n");
    let _ = writeln!(
        out,
        "before: {} snapshot(s); last is `{}` at t={} ms",
        before.snapshots, before.kind, before.t_ms
    );
    let _ = writeln!(
        out,
        "after:  {} snapshot(s); last is `{}` at t={} ms\n",
        after.snapshots, after.kind, after.t_ms
    );
    let _ = writeln!(out, "| layer | metric | kind | before | after | delta |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");

    // Union of layer names, then union of metric names per layer; BTreeMap
    // keeps the sink's sorted order on both sides.
    let layer_names: std::collections::BTreeSet<&String> =
        before.layers.keys().chain(after.layers.keys()).collect();
    for layer in layer_names {
        let (b_metrics, a_metrics) = (before.layers.get(layer), after.layers.get(layer));
        let metric_names: std::collections::BTreeSet<&String> = b_metrics
            .into_iter()
            .flat_map(BTreeMap::keys)
            .chain(a_metrics.into_iter().flat_map(BTreeMap::keys))
            .collect();
        for name in metric_names {
            let b = b_metrics.and_then(|m| m.get(name));
            let a = a_metrics.and_then(|m| m.get(name));
            let kind = a.or(b).map_or("?", |m| m.kind.as_str());
            let show = |m: Option<&Metric>| -> String {
                match m {
                    None => "(absent)".to_string(),
                    Some(Metric { hist: Some((count, mean, p50, p99)), .. }) => {
                        format!("count={count} mean={mean} p50={p50} p99={p99}")
                    }
                    Some(m) => m.value.to_string(),
                }
            };
            let delta = match (b, a) {
                (Some(b), Some(a)) => match (b.hist, a.hist) {
                    (Some((bc, bm, bp50, bp99)), Some((ac, am, ap50, ap99))) => format!(
                        "count {} mean {} p50 {} p99 {}",
                        signed(ac, bc),
                        signed(am, bm),
                        signed(ap50, bp50),
                        signed(ap99, bp99)
                    ),
                    _ => signed(a.value, b.value),
                },
                (None, Some(_)) => "new".to_string(),
                (Some(_), None) => "gone".to_string(),
                (None, None) => unreachable!("name came from one of the two maps"),
            };
            let _ = writeln!(
                out,
                "| {layer} | {name} | {kind} | {} | {} | {delta} |",
                show(b),
                show(a)
            );
        }
    }
    Ok(out)
}

/// The last snapshot of a stats JSONL file as sorted `layer/metric value`
/// lines, one per counter and gauge and one digest per histogram (`count=
/// sum= min= max= p50= p90= p99=`), without the [`IMPLEMENTATION_ROWS`].
///
/// Everything it prints is a pure function of the run's seed and scale:
/// the same at every `--jobs` and `--shards`, so a golden can hold it.
pub fn render_counters(text: &str) -> Result<String, String> {
    let Summary { layers, .. } = summarize(text)?;
    let mut lines: Vec<String> = layers
        .iter()
        .flat_map(|(layer, metrics)| metrics.iter().map(move |(name, m)| (layer, name, m)))
        .map(|(layer, name, m)| (format!("{layer}/{name}"), m))
        .filter(|(row, _)| !is_implementation_row(row))
        .map(|(row, m)| format!("{row} {}\n", m.digest))
        .collect();
    lines.sort_unstable();
    Ok(lines.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"schema\":\"nylon-obs/1\",\"kind\":\"final\",\"t_ms\":2000,\"layers\":{\
        \"exec\":{\"cell_wall_ms\":{\"type\":\"histogram\",\"count\":4,\"sum\":100,\"min\":10,\
        \"max\":40,\"p50\":23,\"p90\":39,\"p99\":40,\"buckets\":[[12,2],[20,2]]},\
        \"run_wall_ms\":{\"type\":\"gauge\",\"value\":2000}},\
        \"kernel\":{\"events_processed\":{\"type\":\"counter\",\"value\":5000},\
        \"pool_recycled\":{\"type\":\"counter\",\"value\":123}},\
        \"shard\":{\"lane0_events\":{\"type\":\"counter\",\"value\":100},\
        \"lane1_events\":{\"type\":\"counter\",\"value\":300}}}}";

    #[test]
    fn parses_and_derives_from_a_snapshot_line() {
        let text = format!("{LINE}\n{LINE}\n");
        let report = render(&text).expect("valid file renders");
        assert!(report.contains("2 snapshot(s)"), "{report}");
        assert!(report.contains("| kernel | events_processed | counter | 5000 |"), "{report}");
        assert!(report.contains("count=4 mean=25 p50=23 p99=40"), "{report}");
        assert!(report.contains("kernel events/s (wall): 2500"), "{report}");
        assert!(report.contains("allocations avoided (pool recycles): 123"), "{report}");
        // lanes 100 and 300: mean 200, max 300 -> 1.5 imbalance.
        assert!(report.contains("over 2 lanes): 1.500"), "{report}");
    }

    #[test]
    fn truncated_tail_lines_are_skipped() {
        let text = format!("{LINE}\n{}", &LINE[..LINE.len() / 2]);
        let report = render(&text).expect("truncated tail must not fail the report");
        assert!(report.contains("1 snapshot(s)"), "{report}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = "{\"schema\":\"other/9\",\"kind\":\"final\",\"t_ms\":1,\"layers\":{}}";
        assert!(render(text).is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(render("").is_err());
        assert!(render("not json\n").is_err());
    }

    #[test]
    fn diff_reports_deltas_and_quantile_shifts() {
        const AFTER: &str =
            "{\"schema\":\"nylon-obs/1\",\"kind\":\"final\",\"t_ms\":1800,\"layers\":{\
            \"exec\":{\"cell_wall_ms\":{\"type\":\"histogram\",\"count\":4,\"sum\":80,\"min\":5,\
            \"max\":35,\"p50\":18,\"p90\":33,\"p99\":35,\"buckets\":[[12,2],[20,2]]},\
            \"run_wall_ms\":{\"type\":\"gauge\",\"value\":1800}},\
            \"kernel\":{\"events_processed\":{\"type\":\"counter\",\"value\":5000},\
            \"pool_recycled\":{\"type\":\"counter\",\"value\":100}},\
            \"routing\":{\"installs\":{\"type\":\"counter\",\"value\":42}}}}";
        let report = render_diff(LINE, AFTER).expect("valid files diff");
        // Counter delta with explicit sign.
        assert!(
            report.contains("| kernel | pool_recycled | counter | 123 | 100 | -23 |"),
            "{report}"
        );
        assert!(
            report.contains("| kernel | events_processed | counter | 5000 | 5000 | 0 |"),
            "{report}"
        );
        // Histogram quantile shifts: mean 25 -> 20, p50 23 -> 18, p99 40 -> 35.
        assert!(report.contains("count 0 mean -5 p50 -5 p99 -5"), "{report}");
        // Layer present only after: shown as new, not skipped.
        assert!(
            report.contains("| routing | installs | counter | (absent) | 42 | new |"),
            "{report}"
        );
        // Layer present only before: shown as gone.
        assert!(
            report.contains("| shard | lane0_events | counter | 100 | (absent) | gone |"),
            "{report}"
        );
    }

    #[test]
    fn counters_skip_implementation_rows_and_sort() {
        const SNAPSHOT: &str =
            "{\"schema\":\"nylon-obs/1\",\"kind\":\"final\",\"t_ms\":9,\"layers\":{\
            \"kernel\":{\"events_processed\":{\"type\":\"counter\",\"value\":5000},\
            \"wheel_l0_events\":{\"type\":\"gauge\",\"value\":3},\
            \"wheel_lifetime_ops\":{\"type\":\"counter\",\"value\":4},\
            \"shuffles\":{\"type\":\"counter\",\"value\":7}},\
            \"net\":{\"wire_bytes\":{\"type\":\"histogram\",\"count\":2,\"sum\":90,\
            \"min\":40,\"max\":50,\"p50\":40,\"p90\":50,\"p99\":50,\"buckets\":[[26,2]]},\
            \"alive_peers\":{\"type\":\"gauge\",\"value\":40}},\
            \"process\":{\"peak_rss_bytes\":{\"type\":\"gauge\",\"value\":1}}}}";
        let counters = render_counters(&format!("{LINE}\n{SNAPSHOT}\n")).expect("renders");
        assert_eq!(
            counters,
            "kernel/shuffles 7\n\
             net/alive_peers 40\n\
             net/wire_bytes count=2 sum=90 min=40 max=50 p50=40 p90=50 p99=50\n"
        );
        assert!(render_counters("").is_err());
    }

    #[test]
    fn diff_rejects_bad_inputs_with_side_labels() {
        let err = render_diff("", LINE).unwrap_err();
        assert!(err.starts_with("before:"), "{err}");
        let err = render_diff(LINE, "not json\n").unwrap_err();
        assert!(err.starts_with("after:"), "{err}");
    }
}
