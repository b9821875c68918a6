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
//! Lines are written through [`crate::json::Writer`]. With the `enabled`
//! feature off the whole module is a stub — [`install`] reports
//! `Unsupported` and [`is_active`] is a constant `false`.

use std::io;
use std::path::Path;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
use std::time::Instant;

#[cfg(feature = "enabled")]
use crate::json::Writer;
#[cfg(feature = "enabled")]
use crate::report::MetricValue;
use crate::report::Report;

/// Minimum milliseconds between two periodic snapshot lines; calls inside
/// the window are dropped (the final snapshot always writes).
#[cfg(feature = "enabled")]
const PERIODIC_EVERY_MS: u64 = 1000;

#[cfg(feature = "enabled")]
struct Sink {
    started: Instant,
    file: Mutex<io::BufWriter<std::fs::File>>,
    agg: Mutex<Report>,
    /// `t_ms` of the last periodic emission; `u64::MAX` until the first.
    last_emit_ms: AtomicU64,
}

#[cfg(feature = "enabled")]
static SINK: OnceLock<Sink> = OnceLock::new();

/// Opens `path` (truncating) as the process-global stats sink. At most
/// one sink per process: a second call fails with `AlreadyExists`.
#[cfg(feature = "enabled")]
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
#[cfg(feature = "enabled")]
pub fn is_active() -> bool {
    SINK.get().is_some()
}

/// Folds `r` into the global aggregate. No-op without an installed sink.
#[cfg(feature = "enabled")]
pub fn merge_report(r: &Report) {
    if let Some(s) = SINK.get() {
        s.agg.lock().expect("stats aggregate poisoned").absorb(r);
    }
}

/// Writes a `"periodic"` snapshot line unless one was written within the
/// last second. Call freely at natural boundaries (cell completions).
#[cfg(feature = "enabled")]
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
#[cfg(feature = "enabled")]
pub fn final_snapshot() {
    let Some(s) = SINK.get() else { return };
    let now_ms = s.started.elapsed().as_millis() as u64;
    write_snapshot(s, "final", now_ms);
}

#[cfg(feature = "enabled")]
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

#[cfg(feature = "enabled")]
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

// ---------------------------------------------------------------------------
// disabled: stubs
// ---------------------------------------------------------------------------

/// Opens a stats sink (stub: always `Unsupported` — the binary was built
/// without the `enabled` feature, so there is nothing to record).
#[cfg(not(feature = "enabled"))]
pub fn install(_path: &Path) -> io::Result<()> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "built without the nylon-obs `enabled` feature"))
}

/// `true` once a sink is installed (stub: always `false`).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn is_active() -> bool {
    false
}

/// Folds a report into the global aggregate (stub: no-op).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn merge_report(_r: &Report) {}

/// Writes a rate-limited periodic snapshot (stub: no-op).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn periodic_snapshot() {}

/// Writes the closing snapshot (stub: no-op).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn final_snapshot() {}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;
    use crate::{Counter, Histogram};

    #[test]
    fn sink_and_primitives_are_inert() {
        let path = std::env::temp_dir().join(format!("nylon_obs_off_{}.jsonl", std::process::id()));
        let err = install(&path).expect_err("a disabled build has no sink to install");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(!is_active());

        let mut r = Report::new();
        r.counter("kernel", "events_processed", 42);
        merge_report(&r);
        periodic_snapshot();
        final_snapshot();
        assert!(!path.exists(), "a disabled sink must not touch the file system");

        let (c, mut h) = (Counter::new(), Histogram::new());
        c.add(7);
        h.record(7);
        assert_eq!((c.get(), h.count()), (0, 0));
        assert_eq!(h.snapshot(), crate::HistSnapshot::default());
    }
}

#[cfg(all(test, feature = "enabled"))]
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
