//! Process-level readings reported by the binary itself, replacing
//! out-of-band `grep /proc` in shell scripts.

/// The `VmHWM` and `VmRSS` fields of one `/proc/self/status` read, in
/// bytes: `(peak, current)`. One read, so the pair is consistent — two
/// reads would let the first one's own buffer grow the heap in between.
fn status_fields() -> (Option<u64>, Option<u64>) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let bytes = |field: &str| {
        let line = status.lines().find(|l| l.starts_with(field))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    };
    (bytes("VmHWM:"), bytes("VmRSS:"))
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` off Linux / without procfs. One file read, made at snapshot
/// time.
pub fn peak_rss_bytes() -> Option<u64> {
    status_fields().0
}

/// Current resident set size in bytes (Linux `VmRSS`); see
/// [`peak_rss_bytes`].
pub fn rss_bytes() -> Option<u64> {
    status_fields().1
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive_when_available() {
        if let (Some(peak), Some(now)) = super::status_fields() {
            assert!(peak >= now && now > 0);
        }
    }
}
