//! Figure 1: sorting 16 GB (4 B u32 keys) on the DGX A100 — the paper's
//! headline comparison of PARADIS, single-GPU Thrust, P2P sort, and HET
//! sort on 2 and 4 GPUs.

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{cpu_only_sort, het_sort, p2p_sort, single_gpu_sort, HetConfig, P2pConfig};
use msort_data::{generate, Distribution};
use msort_gpu::Fidelity;
use msort_sim::GpuSortAlgo;
use msort_topology::Platform;

/// Run Figure 1.
#[must_use]
pub fn run() -> ExperimentResult {
    let p = Platform::dgx_a100();
    let scale = PAPER_SCALE;
    // 4B keys, aligned so it divides into 4 chunks of whole samples.
    let n = align_down(4_000_000_000, scale * 8);
    let phys = (n / scale) as usize;
    let fidelity = Fidelity::Sampled { scale };
    let input: Vec<u32> = generate(Distribution::Uniform, phys, 2022);

    let mut r = ExperimentResult::new(
        "fig1",
        "Sorting 16 GB (4B keys) on the DGX A100: CPU vs. GPUs",
        "s",
    );

    let mut d = input.clone();
    r.push(
        "PARADIS (CPU)",
        2.25,
        cpu_only_sort(&p, fidelity, &mut d, n).total.as_secs_f64(),
    );
    let mut d = input.clone();
    r.push(
        "Thrust (1 GPU)",
        1.47,
        single_gpu_sort(&p, fidelity, GpuSortAlgo::ThrustLike, &mut d, n)
            .total
            .as_secs_f64(),
    );
    for (g, paper) in [(2usize, 0.75), (4, 0.45)] {
        let mut d = input.clone();
        let cfg = P2pConfig::new(g).sampled(scale);
        r.push(
            format!("P2P sort ({g} GPUs)"),
            paper,
            p2p_sort(&p, &cfg, &mut d, n).total.as_secs_f64(),
        );
    }
    for (g, paper) in [(2usize, 1.09), (4, 0.75)] {
        let mut d = input.clone();
        let cfg = HetConfig::new(g).sampled(scale);
        r.push(
            format!("HET sort ({g} GPUs)"),
            paper,
            het_sort(&p, &cfg, &mut d, n).total.as_secs_f64(),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig1_shape_holds() {
        let r = super::run();
        let v: Vec<f64> = r.rows.iter().map(|x| x.ours).collect();
        let (paradis, thrust1, p2p2, p2p4, het2, het4) = (v[0], v[1], v[2], v[3], v[4], v[5]);
        // Orderings the paper's Figure 1 shows.
        assert!(p2p4 < p2p2 && p2p2 < thrust1 && thrust1 < paradis, "{v:?}");
        assert!(het4 < het2 && het2 < thrust1, "{v:?}");
        assert!(p2p2 < het2 && p2p4 < het4, "P2P beats HET on NVSwitch");
        // Rough magnitudes.
        assert!(r.mean_abs_delta().unwrap() < 25.0, "{}", r.to_markdown());
    }
}
