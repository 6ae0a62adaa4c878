//! Order statistics and process readings the workloads report.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Quantile `q ∈ [0, 1]` of `values` by linear interpolation between order
/// statistics (`NaN` for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `kB` field of `/proc/self/status`, or `None` where the file or field
/// is missing (the benchmark then reports `NaN` or fails its thread check).
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Operating-system threads this process is running now.
fn os_threads() -> Option<usize> {
    status_field("Threads:").map(|n| n as usize)
}

/// Largest thread count read so far; `usize::MAX` once a reading failed.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Reads the thread count now and keeps the largest reading. Called after
/// every set-up and every round, and at the end of the run.
pub fn sample_threads() {
    MAX_THREADS.fetch_max(os_threads().unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// Largest thread count read so far, or `None` if a reading failed.
pub fn max_threads() -> Option<usize> {
    match MAX_THREADS.load(Ordering::Relaxed) {
        usize::MAX => None,
        n => Some(n),
    }
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
