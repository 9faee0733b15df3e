//! Figures 12–14: multi-GPU sort performance per platform.
//!
//! Each figure has two parts per algorithm: the data-size sweep (total
//! sort duration for increasing key counts per GPU count) and the phase
//! breakdown at 2 B keys.

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{het_sort, p2p_sort, single_gpu_sort, HetConfig, P2pConfig, SortReport};
use msort_data::{generate, Distribution};
use msort_gpu::Fidelity;
use msort_sim::GpuSortAlgo;
use msort_topology::{Platform, PlatformId};

/// GPU counts evaluated per platform (Figures 12–14).
fn gpu_counts(id: PlatformId) -> &'static [usize] {
    match id {
        PlatformId::DgxA100 => &[1, 2, 4, 8],
        _ => &[1, 2, 4],
    }
}

/// Alignment that keeps every configuration's chunks on whole samples.
fn alignment(id: PlatformId) -> u64 {
    let max_g = *gpu_counts(id).last().expect("non-empty") as u64;
    PAPER_SCALE * max_g
}

fn run_one(platform: &Platform, algo: &str, gpus: usize, n: u64, input: &[u32]) -> SortReport {
    let fidelity = Fidelity::Sampled { scale: PAPER_SCALE };
    let mut data = input.to_vec();
    match (algo, gpus) {
        (_, 1) => single_gpu_sort(platform, fidelity, GpuSortAlgo::ThrustLike, &mut data, n),
        ("p2p", g) => {
            let cfg = P2pConfig::new(g).sampled(PAPER_SCALE);
            p2p_sort(platform, &cfg, &mut data, n)
        }
        ("het", g) => {
            let cfg = HetConfig::new(g).sampled(PAPER_SCALE);
            het_sort(platform, &cfg, &mut data, n)
        }
        _ => unreachable!("algo is 'p2p' or 'het'"),
    }
}

/// The per-GPU-count maximum in-core data size (keys): chunk + aux per GPU.
fn max_keys(platform: &Platform, gpus: usize) -> u64 {
    let per_gpu = platform.topology.gpu_memory_bytes(0) / 2 / 4;
    per_gpu * gpus as u64
}

/// Sweep + breakdown for one algorithm on one platform.
fn figure(
    platform: &Platform,
    algo: &str,
    sweep_b_keys: &[f64],
    paper: &PaperRefs,
) -> Vec<ExperimentResult> {
    let id = platform.id;
    let align = alignment(id);
    let fig = match id {
        PlatformId::IbmAc922 => "fig12",
        PlatformId::DeltaD22x => "fig13",
        PlatformId::DgxA100 => "fig14",
        PlatformId::Custom => "figX",
    };
    let algo_label = if algo == "p2p" {
        "P2P sort"
    } else {
        "HET sort"
    };

    // (top) data size sweep.
    let mut sweep = ExperimentResult::new(
        format!("{fig}{}-sweep", if algo == "p2p" { "a" } else { "b" }),
        format!("{algo_label} sweep on the {}", id.name()),
        "s",
    );
    for &g in gpu_counts(id) {
        for &b in sweep_b_keys {
            let n = align_down((b * 1e9) as u64, align);
            if n == 0 || n > max_keys(platform, g) {
                continue;
            }
            let input: Vec<u32> = generate(Distribution::Uniform, (n / PAPER_SCALE) as usize, 7);
            let report = run_one(platform, algo, g, n, &input);
            sweep.push_ours(
                format!("{algo_label} {g} GPU(s), {b}B keys"),
                report.total.as_secs_f64(),
            );
        }
    }
    sweep.note("Line-plot points; the paper reports no exact numbers for these.");

    // (bottom) breakdown at 2B keys.
    let mut breakdown = ExperimentResult::new(
        format!("{fig}{}-breakdown", if algo == "p2p" { "a" } else { "b" }),
        format!("{algo_label} 2B-key breakdown on the {}", id.name()),
        "s",
    );
    let n = align_down(2_000_000_000, align);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / PAPER_SCALE) as usize, 7);
    for (&g, &paper_total) in gpu_counts(id).iter().zip(paper.totals(algo)) {
        let report = run_one(platform, algo, g, n, &input);
        breakdown.push(
            format!("{algo_label} {g} GPU(s) total"),
            paper_total,
            report.total.as_secs_f64(),
        );
        breakdown.push_ours(
            format!("  {g} GPU(s) HtoD"),
            report.phases.htod.as_secs_f64(),
        );
        breakdown.push_ours(
            format!("  {g} GPU(s) sort"),
            report.phases.sort.as_secs_f64(),
        );
        breakdown.push_ours(
            format!("  {g} GPU(s) merge"),
            report.phases.merge.as_secs_f64(),
        );
        breakdown.push_ours(
            format!("  {g} GPU(s) DtoH"),
            report.phases.dtoh.as_secs_f64(),
        );
    }
    if id == PlatformId::IbmAc922 && algo == "p2p" {
        breakdown.note(
            "Known deviation: at 4 GPUs the simulated X-Bus merge stage is \
             ~25% faster than the paper's (fluid flows have no per-swap \
             launch/sync overhead), pulling the 4-GPU total ~14% low. The \
             shape — 4 GPUs slower than 2 because of the host-traversing \
             global stage — is preserved.",
        );
    }
    vec![sweep, breakdown]
}

/// Paper-reported 2B-key totals per GPU count.
struct PaperRefs {
    p2p: &'static [f64],
    het: &'static [f64],
}

impl PaperRefs {
    fn totals(&self, algo: &str) -> &'static [f64] {
        if algo == "p2p" {
            self.p2p
        } else {
            self.het
        }
    }
}

/// Figure 12: the IBM AC922.
#[must_use]
pub fn fig12() -> Vec<ExperimentResult> {
    let p = Platform::ibm_ac922();
    let sweep = [0.5, 1.0, 2.0, 4.0, 8.0];
    let refs = PaperRefs {
        p2p: &[0.35, 0.24, 0.45],
        het: &[0.35, 0.35, 0.45],
    };
    let mut out = figure(&p, "p2p", &sweep, &refs);
    out.extend(figure(&p, "het", &sweep, &refs));
    out
}

/// Figure 13: the DELTA D22x.
#[must_use]
pub fn fig13() -> Vec<ExperimentResult> {
    let p = Platform::delta_d22x();
    let sweep = [0.5, 1.0, 2.0, 4.0, 8.0];
    let refs = PaperRefs {
        p2p: &[1.37, 0.74, 0.64],
        het: &[1.37, 0.90, 0.64],
    };
    let mut out = figure(&p, "p2p", &sweep, &refs);
    out.extend(figure(&p, "het", &sweep, &refs));
    out
}

/// Figure 14: the DGX A100.
#[must_use]
pub fn fig14() -> Vec<ExperimentResult> {
    let p = Platform::dgx_a100();
    let sweep = [2.0, 4.0, 8.0, 16.0];
    let refs = PaperRefs {
        p2p: &[0.72, 0.38, 0.25, 0.24],
        het: &[0.72, 0.56, 0.39, 0.37],
    };
    let mut out = figure(&p, "p2p", &sweep, &refs);
    out.extend(figure(&p, "het", &sweep, &refs));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_breakdown_totals_close() {
        let results = fig12();
        // results[1] is the P2P breakdown, results[3] the HET breakdown.
        for r in [&results[1], &results[3]] {
            assert!(r.mean_abs_delta().unwrap() < 20.0, "{}", r.to_markdown());
        }
    }

    #[test]
    fn fig14_p2p_beats_het_everywhere() {
        let results = fig14();
        let p2p = &results[1];
        let het = &results[3];
        for (a, b) in p2p
            .rows
            .iter()
            .zip(het.rows.iter())
            .filter(|(a, _)| a.label.contains("total") && !a.label.contains("1 GPU"))
        {
            assert!(a.ours <= b.ours, "{} vs {}", a.label, b.label);
        }
    }
}
