//! Host readings recorded with every run: CPU steal over the measured
//! phase, core count and peak resident memory. Steal tells a noisy set
//! of runs apart from a program regression.

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// All ticks (user through steal; guest time is inside user).
    pub total: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads the current counters; all zero where `/proc/stat` is
    /// missing, which reports a steal of 0.
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
    }

    /// Percent of ticks since `earlier` that were stolen.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Parses the `cpu ` line: user nice system idle iowait irq softirq
/// steal [guest guest_nice].
fn parse_stat(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line.split_whitespace().skip(1).map_while(|x| x.parse().ok()).collect();
    if f.len() < 8 {
        return None;
    }
    Some(CpuTicks { total: f[..8].iter().sum(), steal: f[7] })
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_steal_from_proc_stat() {
        let a = parse_stat("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!(a, CpuTicks { total: 1000, steal: 35 });
        let b = CpuTicks { total: 1200, steal: 85 };
        assert!((b.steal_pct_since(&a) - 25.0).abs() < 1e-9);
        assert_eq!(a.steal_pct_since(&a), 0.0);
        assert_eq!(parse_stat("cpu 1 2 3\n"), None);
    }
}
