//! Section 6.1.4's cross-platform conclusion, quantified: "The IBM AC922
//! achieves the same sort performance with only two GPUs as the DGX A100
//! with eight GPUs even though the DGX A100 has faster GPUs" — because the
//! AC922 is the only system with NVLink CPU-GPU transfers. This experiment
//! puts the best configuration of every platform side by side.

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{p2p_sort, P2pConfig, SortReport};
use msort_data::{generate, Distribution};

use msort_topology::{Platform, PlatformId};

fn best_run(platform: &Platform, g: usize, n: u64, input: &[u32]) -> SortReport {
    let mut data = input.to_vec();
    let cfg = P2pConfig::new(g).sampled(PAPER_SCALE);
    p2p_sort(platform, &cfg, &mut data, n)
}

/// Cross-platform comparison at 2 B keys.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "conclusion",
        "Cross-platform: best P2P sort configuration per system (2B keys)",
        "s",
    );
    let n = align_down(2_000_000_000, PAPER_SCALE * 8);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / PAPER_SCALE) as usize, 61);

    // The paper's 2B-key bests: AC922 2 GPUs 0.24 s; DGX 8 GPUs 0.24 s;
    // DELTA 4 GPUs 0.64 s.
    let ac = Platform::ibm_ac922();
    r.push(
        "IBM AC922, 2 GPUs (NVLink CPU-GPU)",
        0.24,
        best_run(&ac, 2, n, &input).total.as_secs_f64(),
    );
    let dgx = Platform::dgx_a100();
    r.push(
        "DGX A100, 8 GPUs (PCIe 4.0 CPU-GPU)",
        0.24,
        best_run(&dgx, 8, n, &input).total.as_secs_f64(),
    );
    let delta = Platform::delta_d22x();
    r.push(
        "DELTA D22x, 4 GPUs (PCIe 3.0 CPU-GPU)",
        0.64,
        best_run(&delta, 4, n, &input).total.as_secs_f64(),
    );

    // Per-platform transfer share of the end-to-end duration — the basis
    // of the paper's "CPU-GPU interconnects are the key deciding factor".
    for id in PlatformId::paper_set() {
        let p = Platform::paper(id);
        let g = if id == PlatformId::DgxA100 { 8 } else { 2 };
        let report = best_run(&p, g, n, &input);
        let transfer = report.phases.htod + report.phases.dtoh;
        r.push_ours(
            format!("{}: transfer share of total [%]", id.name()),
            transfer.as_secs_f64() / report.total.as_secs_f64() * 100.0,
        );
    }
    r.note(
        "Two NVLink-fed V100s match eight PCIe-4.0-fed A100s end to end: \
         faster GPUs cannot buy back slow CPU-GPU transfers.",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn ac922_two_gpus_match_dgx_eight() {
        let r = super::run();
        let ac = r.rows[0].ours;
        let dgx = r.rows[1].ours;
        let ratio = ac / dgx;
        assert!(
            (0.85..=1.25).contains(&ratio),
            "AC922x2 {ac} vs DGXx8 {dgx}"
        );
        // And the DELTA is far behind both.
        assert!(r.rows[2].ours > ac * 1.8);
    }
}
