//! Baselines: CPU-only PARADIS and the single-GPU Thrust sort.
//!
//! Every evaluation figure compares the multi-GPU algorithms against these
//! two. The CPU baseline sorts in host memory (no transfers at all); the
//! single-GPU baseline is HET sort with one GPU, which for data within
//! half the device memory is the plain HtoD → sort → DtoH pipeline and
//! chunks + merges beyond it.

use crate::frame::JobFrame;
use crate::het::{het_sort, HetConfig};
use crate::report::{PhaseBreakdown, SortReport};
use msort_data::SortKey;
use msort_gpu::{Fidelity, GpuSystem};
use msort_sim::GpuSortAlgo;
use msort_topology::Platform;

/// Sort with the CPU-only baseline (PARADIS) and report.
pub fn cpu_only_sort<K: SortKey>(
    platform: &Platform,
    fidelity: Fidelity,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    let mut sys: GpuSystem<'_, K> = GpuSystem::new(platform, fidelity);
    let mut frame = JobFrame::in_place(&mut sys, std::mem::take(data), logical_len);
    frame.start(&sys);
    let s = sys.stream();
    sys.cpu_sort(s, frame.host_out, &[]);
    sys.synchronize();
    frame.finish(&sys);
    *data = frame.take_output();
    let phases = PhaseBreakdown {
        sort: frame.t_end.since(frame.t0),
        ..PhaseBreakdown::default()
    };
    frame.report(&sys, "PARADIS (CPU)", Vec::new(), phases)
}

/// Sort with the single-GPU baseline ("Thrust (1 GPU)" in Figure 1).
pub fn single_gpu_sort<K: SortKey>(
    platform: &Platform,
    fidelity: Fidelity,
    algo: GpuSortAlgo,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    let mut cfg = HetConfig::new(1);
    cfg.placement.fidelity = fidelity;
    cfg.placement.algo = algo;
    let mut report = het_sort(platform, &cfg, data, logical_len);
    report.algorithm = "Thrust (1 GPU)".into();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, same_multiset, Distribution};

    #[test]
    fn cpu_baseline_sorts() {
        let p = Platform::dgx_a100();
        let input: Vec<u32> = generate(Distribution::Uniform, 1 << 14, 3);
        let mut data = input.clone();
        let report = cpu_only_sort(&p, Fidelity::Full, &mut data, 1 << 14);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert!(report.gpus.is_empty());
    }

    #[test]
    fn cpu_baseline_anchor_matches_fig1() {
        // 4 B keys on the DGX take ~2.25 s (Figure 1). Sampled fidelity
        // keeps the physical payload tiny.
        let p = Platform::dgx_a100();
        let scale = 1u64 << 20;
        let n = 4_000_000_000u64 / scale * scale; // scale-aligned ~4 B keys
        let phys = (n / scale) as usize;
        let input: Vec<u32> = generate(Distribution::Uniform, phys, 3);
        let mut data = input;
        let report = cpu_only_sort(&p, Fidelity::Sampled { scale }, &mut data, n);
        let secs = report.total.as_secs_f64();
        assert!((secs - 2.25).abs() < 0.05, "{secs}");
    }

    #[test]
    fn single_gpu_baseline_sorts() {
        let p = Platform::ibm_ac922();
        let input: Vec<u32> = generate(Distribution::Normal, 1 << 14, 5);
        let mut data = input.clone();
        let report = single_gpu_sort(
            &p,
            Fidelity::Full,
            GpuSortAlgo::ThrustLike,
            &mut data,
            1 << 14,
        );
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert_eq!(report.gpus, vec![0]);
        assert_eq!(report.algorithm, "Thrust (1 GPU)");
    }

    #[test]
    fn single_gpu_anchor_matches_fig12() {
        // 2 B keys on one AC922 V100: ~0.35 s (Figure 12 breakdown).
        let p = Platform::ibm_ac922();
        let scale = 1u64 << 18;
        let n = 2_000_000_000u64 / scale * scale;
        let phys = (n / scale) as usize;
        let input: Vec<u32> = generate(Distribution::Uniform, phys, 4);
        let mut data = input;
        let report = single_gpu_sort(
            &p,
            Fidelity::Sampled { scale },
            GpuSortAlgo::ThrustLike,
            &mut data,
            n,
        );
        let secs = report.total.as_secs_f64();
        assert!((secs - 0.355).abs() < 0.03, "{secs}");
    }
}
