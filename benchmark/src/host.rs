//! What `/proc` says about this process and the machine: memory, CPU
//! time, and the signs that something else was competing for the cores
//! while a measurement ran.

use std::time::Instant;

use crate::json::Value;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_kib(field: &str) -> Option<u64> {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// Current resident set (`VmRSS`) of this process in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").map_or(0, |k| k * 1024)
}

/// CPU time (user + system, every thread, exited ones included) this
/// process has consumed, in seconds. `/proc/self/stat` counts in clock
/// ticks of 10 ms on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis (utime and stime are fields 14 and 15 overall).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let (utime, stime) = (ticks(fields.next()), ticks(fields.next()));
    (utime + stime) as f64 / 100.0
}

/// Seconds the main thread — the one that drives every workload — spent
/// runnable but waiting for a core (second field of `/proc/self/schedstat`).
pub fn runq_wait_seconds() -> f64 {
    read("/proc/self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// CPU seconds consumed machine-wide since boot (every state of the first
/// `/proc/stat` line except idle and iowait).
pub fn machine_busy_seconds() -> f64 {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .map(|cpu| cpu.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user).
    let busy: u64 = fields
        .iter()
        .take(8)
        .enumerate()
        .filter(|(i, _)| !matches!(i, 3 | 4))
        .map(|(_, v)| v)
        .sum();
    busy as f64 / 100.0
}

/// Seconds of hypervisor steal summed over all cores since boot.
pub fn steal_seconds() -> f64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// The one-minute load average.
pub fn loadavg() -> f64 {
    read("/proc/loadavg").split_whitespace().next().and_then(|s| s.parse().ok()).unwrap_or(0.0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string of the first core.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A share of wall time lost to waiting above which a run is flagged.
pub const NOISY_SHARE: f64 = 0.02;

/// Brackets a measured window with the host-interference counters.
#[derive(Debug)]
pub struct NoiseGuard {
    started: Instant,
    runq0: f64,
    steal0: f64,
    cpu0: f64,
    busy0: f64,
}

impl NoiseGuard {
    /// Starts watching.
    pub fn start() -> Self {
        NoiseGuard {
            started: Instant::now(),
            runq0: runq_wait_seconds(),
            steal0: steal_seconds(),
            cpu0: cpu_seconds(),
            busy0: machine_busy_seconds(),
        }
    }

    /// What happened since [`NoiseGuard::start`]: run-queue wait, steal,
    /// load, this process' CPU seconds, everyone else's CPU seconds, and the
    /// `noisy` verdict (waiting plus steal above [`NOISY_SHARE`] of the
    /// wall time). A workload that runs more threads than the host has
    /// cores makes its own main thread wait; `other_cpu_s` tells that
    /// apart from interference by other processes.
    pub fn finish(&self) -> Value {
        let wall = self.started.elapsed().as_secs_f64();
        let runq = (runq_wait_seconds() - self.runq0).max(0.0);
        // Steal is machine-wide; per core it bounds what this process lost.
        let steal = (steal_seconds() - self.steal0).max(0.0) / nproc() as f64;
        let share = if wall > 0.0 { (runq + steal) / wall } else { 0.0 };
        let cpu = (cpu_seconds() - self.cpu0).max(0.0);
        let other = (machine_busy_seconds() - self.busy0 - cpu).max(0.0);
        let mut v = Value::obj();
        v.set("runq_wait_s", runq)
            .set("steal_s", steal)
            .set("wait_share", share)
            .set("loadavg_1m", loadavg())
            .set("cpu_s", cpu)
            .set("other_cpu_s", other)
            .set("noisy", share > NOISY_SHARE);
        v
    }
}

/// Machine identification for result files.
pub fn describe() -> Value {
    let mut v = Value::obj();
    v.set("nproc", nproc()).set("cpu_model", cpu_model()).set("loadavg_1m", loadavg());
    v
}
