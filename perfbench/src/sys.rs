//! Host facts for the run header, and process-level measurements.

use attn_tensor::workspace::thread_alloc_events;
use std::time::Instant;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `avx2 fma avx512f` flags as detected at run time, `+` present, `-` absent.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let flag = |on: bool, name: &str| format!("{}{name}", if on { '+' } else { '-' });
        [
            flag(std::arch::is_x86_feature_detected!("avx2"), "avx2"),
            flag(std::arch::is_x86_feature_detected!("fma"), "fma"),
            flag(std::arch::is_x86_feature_detected!("avx512f"), "avx512f"),
        ]
        .join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "-avx2 -fma -avx512f (not x86_64)".to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Warm up: run `round` in windows of `window` calls until a window raises
/// this thread's workspace allocation counter no more than the window
/// before it did, i.e. the counter's rise has levelled off (at least two
/// windows, at most `cap`). Returns the windows run.
pub fn warm_up<E>(
    window: usize,
    cap: usize,
    mut round: impl FnMut() -> Result<(), E>,
) -> Result<usize, E> {
    let mut prev = u64::MAX;
    for w in 0..cap {
        let a0 = thread_alloc_events();
        for _ in 0..window {
            round()?;
        }
        let n = thread_alloc_events() - a0;
        if w >= 1 && n <= prev {
            return Ok(w + 1);
        }
        prev = n;
    }
    Ok(cap)
}
