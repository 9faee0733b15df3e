//! End-to-end integration tests: both multi-GPU sorting algorithms on all
//! three paper platforms, at full fidelity, validated on real data.

use multi_gpu_sort::prelude::*;

fn uniform(n: usize, seed: u64) -> Vec<u32> {
    generate(Distribution::Uniform, n, seed)
}

#[test]
fn p2p_sort_all_platforms_all_gpu_counts() {
    for id in PlatformId::paper_set() {
        let platform = Platform::paper(id);
        let max_g = platform.gpu_count();
        let mut g = 1;
        while g <= max_g {
            let n = 1u64 << 15;
            let input = uniform(n as usize, 11);
            let mut data = input.clone();
            let report = p2p_sort(&platform, &P2pConfig::new(g), &mut data, n);
            assert!(report.validated, "{id:?} g={g}");
            assert!(is_sorted(&data), "{id:?} g={g}");
            assert!(same_multiset(&input, &data), "{id:?} g={g}");
            assert_eq!(report.gpus.len(), g);
            assert!(report.total > SimDuration::ZERO);
            g *= 2;
        }
    }
}

#[test]
fn het_sort_all_platforms_all_gpu_counts() {
    for id in PlatformId::paper_set() {
        let platform = Platform::paper(id);
        let max_g = platform.gpu_count();
        let mut g = 1;
        while g <= max_g {
            let n = 1u64 << 15;
            let input = uniform(n as usize, 13);
            let mut data = input.clone();
            let report = het_sort(&platform, &HetConfig::new(g), &mut data, n);
            assert!(report.validated, "{id:?} g={g}");
            assert!(same_multiset(&input, &data), "{id:?} g={g}");
            g *= 2;
        }
    }
}

#[test]
fn both_algorithms_agree_on_output() {
    let platform = Platform::dgx_a100();
    let n = 1u64 << 16;
    let input = uniform(n as usize, 17);
    let mut a = input.clone();
    let mut b = input.clone();
    p2p_sort(&platform, &P2pConfig::new(4), &mut a, n);
    het_sort(&platform, &HetConfig::new(4), &mut b, n);
    assert_eq!(a, b, "two different algorithms, one sorted order");
}

#[test]
fn all_gpu_sort_primitives_end_to_end() {
    let platform = Platform::ibm_ac922();
    let n = 1u64 << 14;
    let input = uniform(n as usize, 19);
    for algo in GpuSortAlgo::all() {
        let mut data = input.clone();
        let mut cfg = P2pConfig::new(2);
        cfg.placement.algo = algo;
        let report = p2p_sort(&platform, &cfg, &mut data, n);
        assert!(report.validated, "{algo:?}");
        assert!(same_multiset(&input, &data), "{algo:?}");
    }
}

#[test]
fn paper_headline_shapes_hold_at_paper_scale() {
    // The qualitative results of Section 6.1 — evaluated at the paper's 2B
    // key scale via sampled fidelity (they concern GB-sized inputs, where
    // transfers and merges dominate the fixed per-stage latencies).
    let scale = 1u64 << 16;
    let n = 2_000_000_000u64 / (scale * 8) * (scale * 8);
    let fidelity = Fidelity::Sampled { scale };
    let input = uniform((n / scale) as usize, 23);

    // (1) On the DGX A100, P2P sort beats HET sort for every g.
    let dgx = Platform::dgx_a100();
    for g in [2usize, 4, 8] {
        let mut a = input.clone();
        let p2p = p2p_sort(&dgx, &P2pConfig::new(g).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let het = het_sort(&dgx, &HetConfig::new(g).sampled(scale), &mut b, n);
        assert!(
            p2p.total < het.total,
            "g={g}: P2P {} vs HET {}",
            p2p.total,
            het.total
        );
    }

    // (2) On the AC922, P2P on the NVLink pair beats HET on 2 GPUs.
    let ac = Platform::ibm_ac922();
    let mut a = input.clone();
    let p2p2 = p2p_sort(&ac, &P2pConfig::new(2).sampled(scale), &mut a, n);
    let mut b = input.clone();
    let het2 = het_sort(&ac, &HetConfig::new(2).sampled(scale), &mut b, n);
    assert!(p2p2.total < het2.total);

    // (3) Both beat the CPU baseline everywhere.
    for id in PlatformId::paper_set() {
        let platform = Platform::paper(id);
        let mut c = input.clone();
        let cpu = cpu_only_sort(&platform, fidelity, &mut c, n);
        let mut d = input.clone();
        let p2p = p2p_sort(&platform, &P2pConfig::new(2).sampled(scale), &mut d, n);
        assert!(cpu.total > p2p.total, "{id:?}");
    }
}

#[test]
fn out_of_core_het_end_to_end() {
    // Force many chunk groups with a tiny memory budget; real data.
    let platform = Platform::delta_d22x();
    let n = 1u64 << 17;
    let input = uniform(n as usize, 29);
    for approach in [LargeDataApproach::TwoN, LargeDataApproach::ThreeN] {
        for eager in [false, true] {
            let mut cfg = HetConfig::new(2)
                .with_approach(approach)
                .with_mem_budget(64 * 1024);
            if eager {
                cfg = cfg.with_eager_merge();
            }
            let mut data = input.clone();
            let report = het_sort(&platform, &cfg, &mut data, n);
            assert!(report.validated, "{approach:?} eager={eager}");
            assert!(same_multiset(&input, &data), "{approach:?} eager={eager}");
        }
    }
}

#[test]
fn key_types_end_to_end() {
    let platform = Platform::dgx_a100();
    let n = 1u64 << 14;

    let input: Vec<i32> = generate(Distribution::Normal, n as usize, 1);
    let mut d = input.clone();
    assert!(p2p_sort(&platform, &P2pConfig::new(2), &mut d, n).validated);
    assert!(same_multiset(&input, &d));

    let input: Vec<f32> = generate(Distribution::Normal, n as usize, 2);
    let mut d = input.clone();
    assert!(het_sort(&platform, &HetConfig::new(2), &mut d, n).validated);
    assert!(same_multiset(&input, &d));

    let input: Vec<i64> = generate(Distribution::Uniform, n as usize, 3);
    let mut d = input.clone();
    assert!(p2p_sort(&platform, &P2pConfig::new(4), &mut d, n).validated);
    assert!(same_multiset(&input, &d));

    let input: Vec<f64> = generate(Distribution::Normal, n as usize, 4);
    let mut d = input.clone();
    assert!(het_sort(&platform, &HetConfig::new(4), &mut d, n).validated);
    assert!(same_multiset(&input, &d));
}

#[test]
fn key_value_pairs_sort_by_key_with_payload_intact() {
    use multi_gpu_sort::data::Pair;
    let platform = Platform::dgx_a100();
    let n = 1u64 << 14;
    // Duplicate-heavy keys with unique payloads so we can verify the
    // payloads are a permutation and land under the right keys.
    let input: Vec<Pair<u32>> = (0..n as u32).map(|i| Pair::new(i % 256, i)).collect();
    let mut data = input.clone();
    let report = p2p_sort(&platform, &P2pConfig::new(4), &mut data, n);
    assert!(report.validated);
    assert!(is_sorted(&data));
    // Payloads are a permutation of the originals...
    let mut payloads: Vec<u32> = data.iter().map(|p| p.value).collect();
    payloads.sort_unstable();
    assert_eq!(payloads, (0..n as u32).collect::<Vec<_>>());
    // ...and every payload still sits under its original key.
    for p in &data {
        assert_eq!(p.value % 256, p.key);
    }
    // Pair elements are 8 bytes: the report's byte count reflects it.
    assert_eq!(report.bytes, n * 8);
}

#[test]
fn key_value_pairs_het_sort() {
    use multi_gpu_sort::data::Pair;
    let platform = Platform::ibm_ac922();
    let n = 1u64 << 13;
    let input: Vec<Pair<u64>> = (0..n as u32)
        .map(|i| Pair::new(u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
        .collect();
    let mut data = input.clone();
    let report = het_sort(&platform, &HetConfig::new(2), &mut data, n);
    assert!(report.validated);
    for p in &data {
        assert_eq!(
            u64::from(p.value).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            p.key,
            "payload separated from its key"
        );
    }
    assert_eq!(report.bytes, n * 12);
}

#[test]
fn deterministic_simulation() {
    // Identical runs produce bit-identical reports and outputs.
    let platform = Platform::ibm_ac922();
    let n = 1u64 << 15;
    let input = uniform(n as usize, 31);
    let run = || {
        let mut data = input.clone();
        let report = p2p_sort(&platform, &P2pConfig::new(4), &mut data, n);
        (report.total, report.p2p_swapped_keys, data)
    };
    let (t1, s1, d1) = run();
    let (t2, s2, d2) = run();
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
    assert_eq!(d1, d2);
}
