//! Process-level readings reported by the binary itself, replacing
//! out-of-band `grep /proc` in shell scripts.

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` off Linux / without procfs. Always compiled: it reads kernel
/// state, costs one file read, and is only called at snapshot time.
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// Current resident set size in bytes (Linux `VmRSS`); see
/// [`peak_rss_bytes`].
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS:")
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive_when_available() {
        if let (Some(peak), Some(now)) = (super::peak_rss_bytes(), super::rss_bytes()) {
            assert!(peak >= now && now > 0);
        }
    }
}
