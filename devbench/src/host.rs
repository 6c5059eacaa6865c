//! Host readings from `/proc`: peak resident memory, this process's CPU
//! time, and the machine's steal time. A run records the CPU and steal
//! deltas over its measured window so a noisy host can be told apart from
//! a regression.

use std::fs;

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A point-in-time host reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// CPU time of this process (all threads, user + system), ns.
    pub cpu_ns: u64,
    /// Machine-wide steal ticks (`/proc/stat`, all CPUs).
    pub steal: u64,
    /// Machine-wide total ticks.
    pub total: u64,
}

impl Snapshot {
    /// Reads the current values (zeros where `/proc` is unavailable).
    pub fn now() -> Self {
        let mut s = Snapshot::default();
        // utime and stime are fields 14 and 15, counted after the
        // parenthesised command name; the kernel reports them in USER_HZ
        // (100 per second on Linux).
        if let Ok(t) = fs::read_to_string("/proc/self/stat") {
            if let Some((_, rest)) = t.rsplit_once(')') {
                let f: Vec<u64> = rest
                    .split_whitespace()
                    .map(|v| v.parse().unwrap_or(0))
                    .collect();
                if f.len() > 12 {
                    s.cpu_ns = (f[11] + f[12]) * 10_000_000;
                }
            }
        }
        if let Ok(stat) = fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let ticks: Vec<u64> = cpu
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal ...
                s.total = ticks.iter().take(8).sum();
                s.steal = ticks.get(7).copied().unwrap_or(0);
            }
        }
        s
    }

    /// Steal share of machine time since `earlier`, percent.
    pub fn steal_pct_since(&self, earlier: &Snapshot) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }

    /// CPU seconds this process used since `earlier`.
    pub fn cpu_s_since(&self, earlier: &Snapshot) -> f64 {
        self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 / 1e9
    }
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the affinity masks below: room for 1,024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the first CPU it may run on. Returns that CPU.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
