//! The Section 7 extensions in action: RP sort's single all-to-all and
//! multi-hop P2P routing, plus a Graphviz export of the topologies.
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use multi_gpu_sort::prelude::*;

fn main() {
    let scale: u64 = 1 << 21;
    let n: u64 = 8_000_000_000 / (scale * 64) * (scale * 64);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 5);

    // ---- RP sort vs P2P sort on the DGX A100. ----
    println!("== RP sort (one all-to-all) vs P2P sort (g-1 merge stages) ==\n");
    let dgx = Platform::dgx_a100();
    for g in [4usize, 8] {
        let mut a = input.clone();
        let p2p = p2p_sort(&dgx, &P2pConfig::new(g).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let rp = rp_sort(&dgx, &RpConfig::new(g).sampled(scale), &mut b, n);
        assert_eq!(a, b, "same sorted output");
        println!(
            "DGX A100, {g} GPUs, {:.0}B keys:  P2P {} (merge {})  |  RP {} (merge {})",
            n as f64 / 1e9,
            p2p.total,
            p2p.phases.merge,
            rp.total,
            rp.phases.merge,
        );
    }

    // ---- Multi-hop routing on the DELTA D22x. ----
    println!("\n== Multi-hop P2P routing on the DELTA D22x ==\n");
    let delta = Platform::delta_d22x();
    for (a, b) in [(0usize, 3usize), (1, 2)] {
        let (_, direct) = best_p2p_route(&delta, a, b, false);
        let (relay_route, relay) = best_p2p_route(&delta, a, b, true);
        println!(
            "GPU {a} -> GPU {b}: direct {:.0} GB/s (through the host), \
             best relay {:.0} GB/s over {} hops",
            direct / 1e9,
            relay / 1e9,
            relay_route.hop_count(),
        );
    }
    let n_small = 2_000_000_000u64 / (scale * 16) * (scale * 16);
    let small: Vec<u32> = generate(Distribution::Uniform, (n_small / scale) as usize, 6);
    let mut x = small.clone();
    let base = p2p_sort(&delta, &P2pConfig::new(4).sampled(scale), &mut x, n_small);
    let mut y = small.clone();
    let hopped = p2p_sort(
        &delta,
        &P2pConfig::new(4).sampled(scale).with_multi_hop(),
        &mut y,
        n_small,
    );
    println!(
        "\nP2P sort, 4 GPUs, 2B keys: host routing {} -> multi-hop {} \
         (merge phase {} -> {})",
        base.total, hopped.total, base.phases.merge, hopped.phases.merge,
    );

    // ---- Topology export. ----
    let path = std::env::temp_dir().join("dgx_a100_topology.dot");
    std::fs::write(&path, dgx.topology.to_dot()).expect("write dot file");
    println!(
        "\nwrote {} (render with `dot -Tsvg {} -o topo.svg`)",
        path.display(),
        path.display(),
    );
}
