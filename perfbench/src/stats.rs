//! Medians, significant-digit formatting, and process memory.

/// Median of `v` (mean of the middle two for even lengths; 0 when empty).
#[must_use]
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `v` with `digits` significant digits, in plain or scientific notation
/// by magnitude — never `0.0` for a small nonzero rate.
#[must_use]
pub fn sig(v: f64, digits: usize) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let exp = v.abs().log10().floor() as i32;
    if (-3..6).contains(&exp) {
        let decimals = (digits as i32 - 1 - exp).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.prec$e}", prec = digits.saturating_sub(1))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has run and CPU time the hypervisor has taken
/// from this machine's CPUs, at one instant.
///
/// On a virtual machine the hypervisor can deschedule a busy virtual CPU
/// (steal time); the program's wall time then grows with the load of other
/// guests. Steal accrues only on virtual CPUs that have work, and the
/// kernel's paravirtual accounting keeps it out of thread run times, so
/// `steal / (run + steal)` between two samples is the share of the busy
/// time that was taken away.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    run_ns: u64,
    steal_ns: u64,
}

impl CpuSample {
    /// Sample `/proc/self/task/*/schedstat` and `/proc/stat`; `None` where
    /// they are unavailable.
    #[must_use]
    pub fn now() -> Option<Self> {
        let mut run_ns = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            run_ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
        // The eighth field, in USER_HZ ticks of 10 ms.
        let steal_ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
        Some(Self {
            run_ns,
            steal_ns: steal_ticks * 10_000_000,
        })
    }

    /// The share of the busy CPU time between `self` and `later` that the
    /// hypervisor took (0 when nothing ran).
    #[must_use]
    pub fn steal_share(self, later: Self) -> f64 {
        let run = later.run_ns.saturating_sub(self.run_ns) as f64;
        let steal = later.steal_ns.saturating_sub(self.steal_ns) as f64;
        if run + steal > 0.0 {
            steal / (run + steal)
        } else {
            0.0
        }
    }
}

/// The steal share between `before` and now, or 0 where it cannot be
/// measured.
#[must_use]
pub fn steal_since(before: Option<CpuSample>) -> f64 {
    match (before, CpuSample::now()) {
        (Some(a), Some(b)) => a.steal_share(b),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_busy_time() {
        let a = CpuSample {
            run_ns: 0,
            steal_ns: 0,
        };
        let b = CpuSample {
            run_ns: 800,
            steal_ns: 200,
        };
        assert!((a.steal_share(b) - 0.2).abs() < 1e-12);
        assert_eq!(a.steal_share(a), 0.0);
        assert!(
            CpuSample::now().is_some(),
            "Linux exposes schedstat and steal"
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn sig_keeps_small_rates_visible() {
        assert_eq!(sig(0.001_234, 3), "0.00123");
        assert_eq!(sig(12.345, 4), "12.35");
        assert_eq!(sig(380_000.0, 3), "380000");
        assert_eq!(sig(2.5e7, 3), "2.50e7");
        assert_eq!(sig(1.5e-5, 3), "1.50e-5");
    }
}
