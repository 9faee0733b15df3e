//! Section 6.3 data-type experiment: sorting 8 GB of 32-bit vs 64-bit
//! keys on the A100 (DGX) and V100 (AC922).
//!
//! The paper sorts 4 B ints/floats and 2 B doubles/longs — 8 GB either
//! way — and finds the widths within 95% of each other on the A100 while
//! the V100 sorts 32-bit data in 83–88% of the 64-bit time.

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{p2p_sort, P2pConfig};
use msort_data::{generate, Distribution, SortKey};

use msort_topology::{Platform, PlatformId};

fn run_typed<K: SortKey>(platform: &Platform, n: u64, seed: u64) -> f64 {
    let scale = PAPER_SCALE;
    let input: Vec<K> = generate(Distribution::Uniform, (n / scale) as usize, seed);
    let mut data = input;
    let cfg = P2pConfig::new(2).sampled(scale);
    p2p_sort(platform, &cfg, &mut data, n).total.as_secs_f64()
}

/// Run the data-type comparison.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "datatypes",
        "Sorting 8 GB of 32-bit vs 64-bit keys (P2P sort, 2 GPUs)",
        "s",
    );
    let n32 = align_down(4_000_000_000, PAPER_SCALE * 2);
    let n64 = align_down(2_000_000_000, PAPER_SCALE * 2);
    for id in [PlatformId::DgxA100, PlatformId::IbmAc922] {
        let p = Platform::paper(id);
        let gpu = p.topology.gpu_model(0).name();
        let t_u32 = run_typed::<u32>(&p, n32, 1);
        let t_f32 = run_typed::<f32>(&p, n32, 2);
        let t_u64 = run_typed::<u64>(&p, n64, 3);
        let t_f64 = run_typed::<f64>(&p, n64, 4);
        r.push_ours(format!("{gpu}: 4B u32"), t_u32);
        r.push_ours(format!("{gpu}: 4B f32"), t_f32);
        r.push_ours(format!("{gpu}: 2B u64"), t_u64);
        r.push_ours(format!("{gpu}: 2B f64"), t_f64);
        let ratio = t_u32 / t_u64;
        let paper_ratio = if id == PlatformId::DgxA100 {
            0.97
        } else {
            0.855
        };
        r.push(
            format!("{gpu}: 32-bit / 64-bit time ratio"),
            paper_ratio,
            ratio,
        );
    }
    r.note(
        "A100: widths within ~95% for equal bytes; V100: 32-bit takes \
         83-88% of the 64-bit time (the kernel-only ratios; end-to-end \
         ratios are damped by the width-independent transfer phases).",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn datatype_ratios_hold() {
        let r = super::run();
        let ratios: Vec<f64> = r
            .rows
            .iter()
            .filter(|row| row.label.contains("ratio"))
            .map(|row| row.ours)
            .collect();
        assert_eq!(ratios.len(), 2);
        // A100 ratio close to 1; V100 ratio visibly below the A100's.
        assert!(ratios[0] > 0.93 && ratios[0] <= 1.0, "{ratios:?}");
        assert!(ratios[1] < ratios[0], "{ratios:?}");
    }
}
