//! Resident-set-size introspection for memory-budget accounting.
//!
//! The `--mem-budget` governor ([`crate::membudget`]) bounds what the
//! replayer *charges*; this module reads back what the kernel actually
//! *granted*, so the CLI self-report and the scale benchmark can assert
//! "peak RSS stayed under the cap" against ground truth instead of
//! internal bookkeeping.
//!
//! Linux-only by nature (`/proc/self/status`); on other platforms the
//! probe returns `None` and callers print nothing rather than lying.

/// Peak resident set size (`VmHWM`) of the calling process in bytes,
/// or `None` when `/proc` is unavailable or unparseable.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Extracts a `kB` field from `/proc/self/status` by line prefix.
fn status_kib(prefix: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(prefix))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_tracks_allocation() {
        let before = peak_rss_bytes().unwrap();
        assert!(before >= 4096, "a live process holds at least a page: {before}");
        // Touch 32 MiB so the high-water mark provably moves if it was
        // ever going to (it may already be higher from other tests).
        let v = vec![7u8; 32 << 20];
        assert_eq!(v[31 << 20], 7);
        let after = peak_rss_bytes().unwrap();
        assert!(after >= before, "{after} < {before}");
    }
}
