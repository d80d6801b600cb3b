//! Process memory probes read from `/proc/self`, and the allocator trim
//! that keeps one round's freed heap out of the next round's figures.

use std::fs;

extern "C" {
    /// glibc: return free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Current resident set size in kB (0 where `/proc` is unavailable).
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:").unwrap_or(0)
}

/// Peak resident set size in kB since the last [`reset_peak`].
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:").unwrap_or(0)
}

/// Reset `VmHWM` to the current RSS (writing `5` to `clear_refs`).
/// Returns false if the kernel refused, in which case peaks cover the
/// whole process lifetime.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand freed heap back to the kernel so the next round starts from the
/// same resident baseline.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only walks the allocator's own free lists; it
    // takes no pointers from us and is safe to call at any time from a
    // thread that holds no allocator lock (we are between allocations).
    unsafe {
        malloc_trim(0);
    }
}
