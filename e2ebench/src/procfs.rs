//! Process-level readings from Linux `/proc`: resident memory and CPU time.

/// Clock ticks per second of `/proc/self/stat` CPU times (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Reset the process's peak-RSS watermark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS watermark: {e}"))
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Peak resident set size since start or the last reset, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

/// User plus system CPU seconds of the whole process (all threads), at
/// 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / TICKS_PER_S,
        _ => 0.0,
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hand the allocator's free heap pages back to the system, so that the
/// resident set afterwards holds live data only and a later peak shows what
/// was allocated since. Without it, freed memory the allocator keeps would
/// hide a unit's allocations.
#[allow(unsafe_code)]
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}
