//! The process-global stats sink behind `repro … --stats out.jsonl`.
//!
//! Cells, shards, and the live path build [`Report`]s and
//! [`merge_report`] them into one aggregate (commutative, so `--jobs` and
//! completion order never change totals). [`periodic_snapshot`] writes a
//! rate-limited progress line; [`final_snapshot`] writes the closing one.
//! Each line is self-contained JSON carrying [`crate::SCHEMA`]:
//!
//! ```text
//! {"schema":"nylon-obs/1","kind":"periodic","t_ms":412,"layers":{
//!   "exec":{"cells_completed":{"type":"counter","value":3}, ...}, ...}}
//! ```
//!
//! Lines are written through [`crate::json::Writer`]. Until [`install`]
//! succeeds [`is_active`] is `false` and every other call is a no-op.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Writer;
use crate::report::{MetricValue, Report};

/// Minimum milliseconds between two periodic snapshot lines; calls inside
/// the window are dropped (the final snapshot always writes).
const PERIODIC_EVERY_MS: u64 = 1000;

struct Sink {
    started: Instant,
    file: Mutex<io::BufWriter<std::fs::File>>,
    agg: Mutex<Report>,
    /// `t_ms` of the last periodic emission; `u64::MAX` until the first.
    last_emit_ms: AtomicU64,
}

static SINK: OnceLock<Sink> = OnceLock::new();

/// Opens `path` (truncating) as the process-global stats sink. At most
/// one sink per process: a second call fails with `AlreadyExists`.
pub fn install(path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let sink = Sink {
        started: Instant::now(),
        file: Mutex::new(io::BufWriter::new(file)),
        agg: Mutex::new(Report::new()),
        last_emit_ms: AtomicU64::new(u64::MAX),
    };
    SINK.set(sink)
        .map_err(|_| io::Error::new(io::ErrorKind::AlreadyExists, "stats sink already installed"))
}

/// `true` once [`install`] has succeeded — the cue for instrumented code
/// to build and merge reports (skip the work entirely when off).
pub fn is_active() -> bool {
    SINK.get().is_some()
}

/// Folds `r` into the global aggregate. No-op without an installed sink.
pub fn merge_report(r: &Report) {
    if let Some(s) = SINK.get() {
        s.agg.lock().expect("stats aggregate poisoned").absorb(r);
    }
}

/// Writes a `"periodic"` snapshot line unless one was written within the
/// last second. Call freely at natural boundaries (cell completions).
pub fn periodic_snapshot() {
    let Some(s) = SINK.get() else { return };
    let now_ms = s.started.elapsed().as_millis() as u64;
    let last = s.last_emit_ms.load(Ordering::Relaxed);
    if last != u64::MAX && now_ms.saturating_sub(last) < PERIODIC_EVERY_MS {
        return;
    }
    if s.last_emit_ms.compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
        write_snapshot(s, "periodic", now_ms);
    }
}

/// Writes the closing `"final"` snapshot line (never rate-limited).
pub fn final_snapshot() {
    let Some(s) = SINK.get() else { return };
    let now_ms = s.started.elapsed().as_millis() as u64;
    write_snapshot(s, "final", now_ms);
}

fn write_snapshot(s: &Sink, kind: &str, t_ms: u64) {
    let mut report = s.agg.lock().expect("stats aggregate poisoned").clone();
    // Process-wide context every snapshot should carry, refreshed at
    // write time rather than instrumented anywhere.
    if let Some(rss) = crate::process::peak_rss_bytes() {
        report.gauge("process", "peak_rss_bytes", rss);
    }
    let mut w = Writer::default();
    w.open('{').key("schema").string(crate::SCHEMA).key("kind").string(kind);
    w.key("t_ms").number(t_ms).key("layers").open('{');
    let mut current_layer: Option<&str> = None;
    for (layer, metric, value) in report.iter() {
        if current_layer != Some(layer) {
            if current_layer.is_some() {
                w.close('}');
            }
            w.key(layer).open('{');
            current_layer = Some(layer);
        }
        write_metric(w.key(metric), value);
    }
    if current_layer.is_some() {
        w.close('}');
    }
    w.close('}').close('}');
    let mut line = w.finish();
    line.push('\n');
    let mut file = s.file.lock().expect("stats writer poisoned");
    use io::Write as _;
    // Stats are best-effort: a full disk must not abort the run.
    let _ = file.write_all(line.as_bytes());
    let _ = file.flush();
}

fn write_metric(w: &mut Writer, value: &MetricValue) {
    w.open('{').key("type");
    match value {
        MetricValue::Counter(v) => w.string("counter").key("value").number(v),
        MetricValue::Gauge(v) => w.string("gauge").key("value").number(v),
        MetricValue::Histogram(h) => {
            w.string("histogram").key("count").number(h.count).key("sum").number(h.sum);
            w.key("min").number(h.min).key("max").number(h.max);
            for (name, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                w.key(name).number(h.quantile(q));
            }
            w.key("buckets").open('[');
            for (idx, c) in &h.buckets {
                w.open('[').number(idx).number(c).close(']');
            }
            w.close(']')
        }
    };
    w.close('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One process-wide sink: this is the only test that installs it.
    #[test]
    fn install_merge_and_snapshot_round_trip() {
        let path =
            std::env::temp_dir().join(format!("nylon_obs_sink_{}.jsonl", std::process::id()));
        install(&path).expect("first install succeeds");
        assert!(is_active());
        assert!(install(&path).is_err(), "second install must fail");

        let mut r = Report::new();
        r.counter("kernel", "events_processed", 42);
        r.observe("exec", "cell_wall_ms", 17);
        merge_report(&r);
        periodic_snapshot();
        final_snapshot();

        let text = std::fs::read_to_string(&path).expect("sink file readable");
        let _ = std::fs::remove_file(&path);
        let last = text.lines().last().expect("at least one snapshot line");
        assert!(last.contains("\"schema\":\"nylon-obs/1\""), "schema marker missing: {last}");
        assert!(last.contains("\"kind\":\"final\""));
        assert!(last.contains("\"events_processed\":{\"type\":\"counter\",\"value\":42}"));
        assert!(last.contains("\"cell_wall_ms\":{\"type\":\"histogram\",\"count\":1"));
    }
}
