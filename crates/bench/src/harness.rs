//! Minimal wall-clock benchmark harness.
//!
//! The build environment is offline, so the microbenchmarks under
//! `crates/bench/benches/` use this self-contained harness instead of
//! criterion. It keeps the parts that matter for this workspace:
//!
//! * warmup + repeated samples with min/median/mean reporting,
//! * optional element-throughput reporting,
//! * a machine-readable JSON dump (hand-rolled; no serde) used to seed the
//!   `BENCH_*.json` trajectory files at the repository root,
//! * a substring filter from the command line (`cargo bench -- staggered`).
//!
//! Every bench target (`harness = false`) builds a [`Harness`], registers
//! closures, and calls [`Harness::finish`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's collected samples.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id, e.g. `"max_min_allocation/DgxA100"`.
    pub id: String,
    /// Per-sample wall-clock durations (one closure call each).
    pub samples: Vec<Duration>,
    /// Elements processed per sample, for throughput reporting.
    pub throughput_elements: Option<u64>,
}

impl BenchResult {
    /// Smallest sample — the least-noisy estimate on a busy machine.
    #[must_use]
    pub fn min(&self) -> Duration {
        self.samples.iter().copied().min().unwrap_or_default()
    }

    /// Median sample.
    #[must_use]
    pub fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        s.sort_unstable();
        s.get(s.len() / 2).copied().unwrap_or_default()
    }

    /// Arithmetic mean of the samples.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.iter().sum::<Duration>() / self.samples.len() as u32
    }

    /// Million elements per second at the median sample, if a throughput
    /// was registered.
    #[must_use]
    pub fn melems_per_sec(&self) -> Option<f64> {
        let n = self.throughput_elements?;
        let t = self.median().as_secs_f64();
        (t > 0.0).then(|| n as f64 / t / 1e6)
    }
}

/// Benchmark registry and runner.
pub struct Harness {
    name: String,
    sample_size: usize,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

/// Format a duration the way the summary table prints it.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Format an element rate with its unit picked automatically, to four
/// significant digits (jobs-per-second rates stay readable next to
/// keys-per-second ones).
fn fmt_rate(per_sec: f64) -> String {
    let (value, unit) = if per_sec >= 1e9 {
        (per_sec / 1e9, "Gelem/s")
    } else if per_sec >= 1e6 {
        (per_sec / 1e6, "Melem/s")
    } else if per_sec >= 1e3 {
        (per_sec / 1e3, "Kelem/s")
    } else {
        (per_sec, "elem/s")
    };
    let decimals = if value >= 100.0 {
        1
    } else if value >= 10.0 {
        2
    } else {
        3
    };
    format!("{value:.decimals$} {unit}")
}

impl Harness {
    /// Create a harness for the bench target `name`, reading the sample
    /// filter from the process arguments (criterion-style: the first
    /// non-flag argument is a substring filter).
    #[must_use]
    pub fn new(name: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self {
            name: name.to_string(),
            sample_size: 10,
            filter,
            results: Vec::new(),
        }
    }

    /// Set the number of timed samples per benchmark (default 10).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark: a warmup call, then `sample_size` timed calls.
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        self.bench_inner(id, None, &mut f);
    }

    /// Like [`Harness::bench`], reporting throughput as `elements` per call.
    pub fn bench_throughput<R>(&mut self, id: &str, elements: u64, mut f: impl FnMut() -> R) {
        self.bench_inner(id, Some(elements), &mut f);
    }

    fn bench_inner<R>(&mut self, id: &str, elements: Option<u64>, f: &mut dyn FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        black_box(f()); // warmup (fills caches, faults pages)
        let samples: Vec<Duration> = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        let result = BenchResult {
            id: id.to_string(),
            samples,
            throughput_elements: elements,
        };
        let tp = result
            .melems_per_sec()
            .map(|m| format!("  ({})", fmt_rate(m * 1e6)))
            .unwrap_or_default();
        println!(
            "{:<48} median {:>12}  min {:>12}  mean {:>12}{}",
            result.id,
            fmt_duration(result.median()),
            fmt_duration(result.min()),
            fmt_duration(result.mean()),
            tp,
        );
        self.results.push(result);
    }

    /// Results collected so far (in registration order).
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Hand-rolled JSON dump of all results (median/min/mean in
    /// nanoseconds), suitable for the repository's `BENCH_*.json` files.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.name));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}{}}}{}\n",
                r.id,
                r.median().as_nanos(),
                r.min().as_nanos(),
                r.mean().as_nanos(),
                r.throughput_elements
                    .map(|n| format!(", \"elements\": {n}"))
                    .unwrap_or_default(),
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Print the footer; if the environment variable `MSORT_BENCH_JSON` is
    /// set, also write the JSON dump to `$MSORT_BENCH_JSON/BENCH_<name>.json`.
    pub fn finish(self) {
        println!("{}: {} benchmarks run", self.name, self.results.len());
        if let Ok(dir) = std::env::var("MSORT_BENCH_JSON") {
            let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
            match std::fs::write(&path, self.to_json()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(500)).ends_with('s'));
    }

    #[test]
    fn fmt_rate_keeps_four_significant_digits() {
        assert_eq!(fmt_rate(379_500.0), "379.5 Kelem/s");
        assert_eq!(fmt_rate(2.5), "2.500 elem/s");
        assert_eq!(fmt_rate(15_800.0), "15.80 Kelem/s");
        assert_eq!(fmt_rate(2.5e9), "2.500 Gelem/s");
    }

    #[test]
    fn result_stats() {
        let r = BenchResult {
            id: "x".into(),
            samples: vec![
                Duration::from_nanos(30),
                Duration::from_nanos(10),
                Duration::from_nanos(20),
            ],
            throughput_elements: Some(1_000_000),
        };
        assert_eq!(r.min(), Duration::from_nanos(10));
        assert_eq!(r.median(), Duration::from_nanos(20));
        assert_eq!(r.mean(), Duration::from_nanos(20));
        assert!(r.melems_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn json_shape() {
        let mut h = Harness {
            name: "t".into(),
            sample_size: 2,
            filter: None,
            results: Vec::new(),
        };
        h.bench("a/b", || 1 + 1);
        let j = h.to_json();
        assert!(j.contains("\"bench\": \"t\""));
        assert!(j.contains("\"id\": \"a/b\""));
        assert!(j.contains("median_ns"));
    }
}
