//! The correctness gate: a digest of every simulated statistic, checked
//! against the value recorded in `digests.txt`, and the paper rows.
//!
//! Simulated time is the paper's result, so it must stay bit-identical
//! across changes that only make the host faster. Each run replays its
//! workload once at [`PINNED_SEED`] (whatever `--seed` says) and hashes
//! the simulated outcome together with every paper row; a digest that
//! differs from the recorded one fails the run.

use crate::spans::Tracer;
use crate::workload::Size;
use msort_bench::{run_experiment, ALL_EXPERIMENTS};
use msort_core::SortReport;
use msort_serve::ServiceReport;

/// The default `--seed`, and the seed of every run's gate pass.
pub const PINNED_SEED: u64 = 0x5EED;

/// The seed kept back for confirming a claimed gain on inputs the change
/// was not tuned on.
pub const HOLDOUT_SEED: u64 = 0x0D15_EA5E;

/// Digests of the gate pass plus paper rows, one line per
/// `<workload> <size> <hex digest>`.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest for `workload` at `size`.
#[must_use]
pub fn recorded(workload: &str, size: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next() == Some(workload) && parts.next() == Some(size))
            .then(|| parts.next())
            .flatten()
            .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
    })
}

/// Check a run's digest against the recorded one: `Err` says why the
/// run fails the gate.
///
/// # Errors
/// When `expected` is missing or differs from `digest`.
pub fn verify(digest: u64, expected: Option<u64>) -> Result<(), String> {
    if expected == Some(digest) {
        Ok(())
    } else {
        Err(format!(
            "simulated digest {digest:#018x} does not match the recorded {}",
            expected.map_or("(none)".to_owned(), |e| format!("{e:#018x}"))
        ))
    }
}

/// FNV-1a over the bit patterns of simulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in one integer.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix in a string.
    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self.u64(s.len() as u64);
    }

    /// Mix in a sort's simulated totals and phases.
    pub fn sort(&mut self, r: &SortReport) {
        for v in [
            r.total.0,
            r.phases.htod.0,
            r.phases.sort.0,
            r.phases.merge.0,
            r.phases.dtoh.0,
            r.inter_node.0,
            r.keys,
            r.p2p_swapped_keys,
            r.rerouted_transfers,
            r.max_partition_keys,
        ] {
            self.u64(v);
        }
    }

    /// Mix in a serve run's outcome count, p50, p99 and makespan.
    pub fn service(&mut self, r: &ServiceReport) {
        for v in [
            r.outcomes.len() as u64,
            r.p50_latency().0,
            r.p99_latency().0,
            r.makespan.0,
        ] {
            self.u64(v);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Experiments whose rows are simulated, so deterministic: every entry of
/// `ALL_EXPERIMENTS` except the two that time the host.
#[must_use]
pub fn simulated_experiments() -> Vec<&'static str> {
    ALL_EXPERIMENTS
        .iter()
        .copied()
        .filter(|&e| e != "multiway" && e != "cpu-baselines")
        .collect()
}

/// The experiments a run's gate reproduces: all simulated ones, or three
/// at tiny size.
#[must_use]
pub fn experiments(size: Size) -> Vec<&'static str> {
    match size {
        Size::Full => simulated_experiments(),
        Size::Tiny => vec!["table1", "fig5", "fig12"],
    }
}

/// Figures 12-16 were not used to calibrate the simulator.
const HOLDOUT: [&str; 6] = ["fig12", "fig13", "fig14", "fig15a", "fig15b", "fig16"];

/// The reproduced paper rows of a set of experiments.
#[derive(Debug, Clone, Copy)]
pub struct PaperRows {
    /// Mean |Δ%| against the paper over every row with a paper value.
    pub mad_pct: f64,
    /// The same over the rows of figures 12-16.
    pub holdout_mad_pct: f64,
    /// Rows with a paper value.
    pub rows: u64,
    /// Digest of every row's label and value.
    pub digest: Digest,
}

/// Run `experiments` through `run_experiment`, each call a
/// `bench.paper_figures` span.
#[must_use]
pub fn paper_rows(t: &Tracer, experiments: &[&'static str]) -> PaperRows {
    let mut digest = Digest::default();
    let (mut all, mut holdout) = (Vec::new(), Vec::new());
    for &name in experiments {
        for result in t.call("bench.paper_figures", name, || run_experiment(name)) {
            for row in &result.rows {
                digest.str(&row.label);
                digest.f64(row.ours);
                if let Some(d) = row.delta_percent() {
                    all.push(d.abs());
                    if HOLDOUT.contains(&name) {
                        holdout.push(d.abs());
                    }
                }
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    PaperRows {
        mad_pct: mean(&all),
        holdout_mad_pct: mean(&holdout),
        rows: all.len() as u64,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_and_strings() {
        let mut a = Digest::default();
        a.u64(1);
        let mut b = Digest::default();
        b.u64(2);
        assert_ne!(a, b);
        let (mut c, mut d) = (Digest::default(), Digest::default());
        c.str("ab");
        c.str("c");
        d.str("a");
        d.str("bc");
        assert_ne!(c, d);
    }

    #[test]
    fn host_timed_experiments_are_excluded() {
        let e = simulated_experiments();
        assert_eq!(e.len(), ALL_EXPERIMENTS.len() - 2);
        assert!(!e.contains(&"multiway") && !e.contains(&"cpu-baselines"));
    }

    #[test]
    fn recorded_lookup_parses_hex() {
        assert!(recorded("no_such_workload", "full").is_none());
        assert!(recorded("sort_full", "tiny").is_some());
    }

    #[test]
    fn a_wrong_digest_fails_the_gate() {
        let right = recorded("sort_full", "tiny").expect("a recorded digest");
        assert_eq!(verify(right, Some(right)), Ok(()));
        let wrong = verify(right ^ 1, Some(right)).expect_err("a wrong digest fails");
        assert!(wrong.contains("does not match"), "{wrong}");
        assert!(verify(right, None).is_err(), "an unrecorded digest fails");
    }
}
