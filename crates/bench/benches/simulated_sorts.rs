//! Benchmarks of the *simulated* end-to-end sorts: one group per
//! evaluation figure, tracking the harness's wall-clock cost.
//!
//! These keep `cargo bench` exercising the exact code paths the figure
//! harness uses, so regressions in the simulator or the algorithms show up
//! as wall-clock deltas.

use msort_bench::Harness;
use msort_core::{het_sort, p2p_sort, rp_sort, HetConfig, P2pConfig, RpConfig};
use msort_data::{generate, Distribution};
use msort_topology::{Platform, PlatformId};
use std::hint::black_box;

const SCALE: u64 = 1 << 18;

fn paper_input(n: u64, seed: u64) -> Vec<u32> {
    generate(Distribution::Uniform, (n / SCALE) as usize, seed)
}

/// Figures 12-14: the 2B-key runs on each platform.
fn bench_fig12_to_14(h: &mut Harness) {
    let n = 2_000_000_000u64 / (SCALE * 8) * (SCALE * 8);
    let input = paper_input(n, 1);
    for id in PlatformId::paper_set() {
        let platform = Platform::paper(id);
        for g in [2usize, 4] {
            h.bench(&format!("simulated_2B_{id:?}/p2p/{g}"), || {
                let mut d = input.clone();
                let cfg = P2pConfig::new(g).sampled(SCALE);
                black_box(p2p_sort(&platform, &cfg, &mut d, n).total)
            });
            h.bench(&format!("simulated_2B_{id:?}/het/{g}"), || {
                let mut d = input.clone();
                let cfg = HetConfig::new(g).sampled(SCALE);
                black_box(het_sort(&platform, &cfg, &mut d, n).total)
            });
        }
    }
}

/// Section 7 extension: RP sort at 8 GPUs on the DGX.
fn bench_rp_sort(h: &mut Harness) {
    let platform = Platform::dgx_a100();
    let n = 2_000_000_000u64 / (SCALE * 64) * (SCALE * 64);
    let input = paper_input(n, 4);
    h.bench("simulated_2B_rp_sort_dgx_8gpu", || {
        let mut d = input.clone();
        black_box(rp_sort(&platform, &RpConfig::new(8).sampled(SCALE), &mut d, n).total)
    });
}

/// Figure 15: one large-data pipelined run.
fn bench_fig15(h: &mut Harness) {
    let platform = Platform::dgx_a100();
    let scale = 1u64 << 22;
    let n = 60_000_000_000u64 / (scale * 8) * (scale * 8);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 2);
    h.bench("simulated_60B_het_2n_dgx", || {
        let mut d = input.clone();
        let cfg = HetConfig::new(8).with_mem_budget(33 << 30).sampled(scale);
        black_box(het_sort(&platform, &cfg, &mut d, n).total)
    });
}

/// Full-fidelity small run: the real-data path the tests use.
fn bench_full_fidelity(h: &mut Harness) {
    let platform = Platform::dgx_a100();
    let n = 1u64 << 18;
    let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
    h.bench("full_fidelity_p2p_256k_keys", || {
        let mut d = input.clone();
        black_box(p2p_sort(&platform, &P2pConfig::new(4), &mut d, n).total)
    });
}

fn main() {
    let mut h = Harness::new("simulated_sorts").sample_size(10);
    bench_fig12_to_14(&mut h);
    bench_rp_sort(&mut h);
    bench_fig15(&mut h);
    bench_full_fidelity(&mut h);
    h.finish();
}
