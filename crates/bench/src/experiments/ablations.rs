//! Ablations beyond the paper's numbered figures:
//!
//! * GPU-set order on the AC922 (Section 5.4's (0,1,2,3) vs (0,2,1,3));
//! * leftmost-pivot optimization (Section 5.2's "skip the P2P swap");
//! * multiway-merge bandwidth utilization (Section 5.3's gnu_parallel
//!   saturation measurements).

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::gpuset::score_gpu_set;
use msort_core::{p2p_sort, P2pConfig};
use msort_cpu::multiway::{parallel_multiway_merge_with, ParallelMergeConfig};
use msort_data::{generate, Distribution, GIB};
use msort_sim::CostModel;
use msort_topology::Platform;
use std::time::Instant;

/// GPU set order on the AC922: identity vs interleaved, end-to-end and by
/// the transfer-pattern score.
#[must_use]
pub fn gpuset_order() -> ExperimentResult {
    let p = Platform::ibm_ac922();
    let scale = PAPER_SCALE;
    let n = align_down(2_000_000_000, scale * 4);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 54);

    let mut r = ExperimentResult::new(
        "gpuset",
        "P2P sort GPU-set order on the IBM AC922 (2B keys, 4 GPUs)",
        "s",
    );
    for order in [vec![0usize, 1, 2, 3], vec![0, 2, 1, 3]] {
        let mut d = input.clone();
        let cfg = P2pConfig::new(4).sampled(scale).with_set(order.clone());
        let report = p2p_sort(&p, &cfg, &mut d, n);
        r.push_ours(
            format!("end-to-end, order {order:?}"),
            report.total.as_secs_f64(),
        );
        r.push_ours(
            format!("transfer score, order {order:?}"),
            score_gpu_set(&p, &order, n / 4 * 4),
        );
    }
    r.note("(0,1,2,3) keeps the pair-wise merges on NVLink; (0,2,1,3) forces them over the X-Bus.");
    r
}

/// Leftmost-pivot optimization: P2P swap volume per distribution, with the
/// alternative (middle-of-ties pivot) as reference.
#[must_use]
pub fn pivot_leftmost() -> ExperimentResult {
    let p = Platform::ibm_ac922();
    let scale = PAPER_SCALE;
    let n = align_down(2_000_000_000, scale * 2);
    let mut r = ExperimentResult::new(
        "pivot-ablation",
        "Leftmost-pivot optimization: P2P keys swapped (2 GPUs, 2B keys)",
        "B keys",
    );
    for dist in [
        Distribution::Uniform,
        Distribution::Sorted,
        Distribution::NearlySorted,
        Distribution::ReverseSorted,
        Distribution::ZipfDuplicates {
            skew_permille: 1200,
        },
        Distribution::Constant,
    ] {
        let input: Vec<u32> = generate(dist, (n / scale) as usize, 77);
        let mut d = input.clone();
        let cfg = P2pConfig::new(2).sampled(scale);
        let report = p2p_sort(&p, &cfg, &mut d, n);
        r.push_ours(
            format!("{}: swapped", dist.label()),
            report.p2p_swapped_keys as f64 / 1e9,
        );
        r.push_ours(
            format!("{}: sort duration [s]", dist.label()),
            report.total.as_secs_f64(),
        );
    }
    r.note(
        "Sorted/constant inputs swap zero keys — the swap is skipped \
         entirely; duplicates shrink the pivot because the leftmost valid \
         position is taken.",
    );
    r
}

/// Multiway-merge utilization: the *modeled* merge rates per platform and
/// the *real* parallel multiway merge wall-clock on this container
/// (mirroring the paper's Likwid/STREAM methodology on our own host).
#[must_use]
pub fn multiway_utilization() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "multiway",
        "CPU multiway merge: modeled platform rates + host measurement",
        "GB/s",
    );
    for id in msort_topology::PlatformId::paper_set() {
        let model = CostModel::for_platform_id(id);
        for k in [2usize, 4, 8] {
            // Output rate x2 = stream traffic rate.
            r.push_ours(
                format!("{} modeled stream rate, k={k}", id.name()),
                model.cpu_merge_rate(k) * 2.0 / 1e9,
            );
        }
    }
    // Real measurement on this container: merge 8 runs of 4 MiB keys.
    let k = 8;
    let run_len = (4 * GIB / 1024 / 4) as usize; // 1 Mi keys per run
    let runs: Vec<Vec<u32>> = (0..k)
        .map(|i| {
            let mut v: Vec<u32> = generate(Distribution::Uniform, run_len, i as u64);
            v.sort_unstable();
            v
        })
        .collect();
    let views: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
    let total: usize = views.iter().map(|v| v.len()).sum();
    let mut out = vec![0u32; total];
    let start = Instant::now();
    parallel_multiway_merge_with(
        &views,
        &mut out,
        ParallelMergeConfig {
            threads: msort_cpu::default_threads(),
            sequential_threshold: 0,
        },
    );
    let secs = start.elapsed().as_secs_f64();
    let bytes_moved = 2.0 * total as f64 * 4.0;
    r.push_ours(
        format!("this host: real k={k} merge of {total} keys"),
        bytes_moved / secs / 1e9,
    );
    let copy = msort_cpu::stream::stream_copy(run_len, 3);
    r.push_ours("this host: STREAM copy", copy.gb_per_sec());
    r.note(
        "The paper measures gnu_parallel::multiway_merge at 71-94% of \
         STREAM bandwidth; the last two rows repeat that comparison on \
         whatever machine runs this harness.",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn gpuset_identity_wins() {
        let r = super::gpuset_order();
        let e2e: Vec<f64> = r
            .rows
            .iter()
            .filter(|row| row.label.starts_with("end-to-end"))
            .map(|row| row.ours)
            .collect();
        assert!(e2e[0] < e2e[1], "{e2e:?}");
    }

    #[test]
    fn pivot_ablation_sorted_swaps_nothing() {
        let r = super::pivot_leftmost();
        let swapped = |label: &str| {
            r.rows
                .iter()
                .find(|row| row.label.starts_with(label) && row.label.contains("swapped"))
                .unwrap()
                .ours
        };
        assert_eq!(swapped("sorted"), 0.0);
        assert_eq!(swapped("constant"), 0.0);
        assert!(swapped("uniform") > 0.0);
        assert!(swapped("reverse-sorted") >= swapped("uniform"));
    }
}
