//! What-if study: where is the P2P-vs-HET crossover?
//!
//! The paper's discussion (Section 7) argues that multi-GPU platforms now
//! need *CPU-GPU* bandwidth to scale, and that P2P sort beats HET sort
//! once the P2P interconnect bandwidth approaches host memory bandwidth.
//! With a simulator we can chart both claims directly: build a family of
//! synthetic 4-GPU platforms and sweep one link technology at a time.

use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{het_sort, p2p_sort, HetConfig, P2pConfig};
use msort_data::{generate, Distribution};
use msort_topology::platforms::CpuModel;
use msort_topology::{gbps, GpuModel, LinkKind, MemSpec, Platform, TopologyBuilder};

/// A single-socket 4-GPU machine with `host_gbps` CPU-GPU links and a
/// `mesh_gbps` all-to-all P2P mesh (0 = no mesh).
fn build(host_gbps: f64, mesh_gbps: f64) -> Platform {
    let mut b = TopologyBuilder::new();
    let cpu = b.cpu(
        0,
        MemSpec {
            capacity_bytes: 512 << 30,
            read_cap: gbps(140.0),
            write_cap: gbps(110.0),
            combined_cap: Some(gbps(150.0)),
        },
    );
    let gpus: Vec<_> = (0..4).map(|i| b.gpu(i, GpuModel::A100)).collect();
    for &g in &gpus {
        b.link_full(
            cpu,
            g,
            LinkKind::Custom,
            gbps(host_gbps),
            gbps(host_gbps),
            Some(gbps(host_gbps * 1.7)),
        );
    }
    if mesh_gbps > 0.0 {
        for i in 0..4 {
            for j in i + 1..4 {
                b.link(
                    gpus[i],
                    gpus[j],
                    LinkKind::NvLink2 { bricks: 2 },
                    gbps(mesh_gbps),
                );
            }
        }
    }
    Platform::custom(b.build(), CpuModel::Epyc7742)
}

fn durations(platform: &Platform, n: u64, input: &[u32]) -> (f64, f64) {
    let mut a = input.to_vec();
    let p2p = p2p_sort(platform, &P2pConfig::new(4).sampled(PAPER_SCALE), &mut a, n);
    let mut b = input.to_vec();
    let het = het_sort(platform, &HetConfig::new(4).sampled(PAPER_SCALE), &mut b, n);
    (p2p.total.as_secs_f64(), het.total.as_secs_f64())
}

/// Sweep the P2P mesh bandwidth at fixed host links, then sweep the host
/// bandwidth at a fixed mesh.
#[must_use]
pub fn run() -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "whatif",
        "What-if: P2P-vs-HET crossover on synthetic 4-GPU platforms (2B keys)",
        "s",
    );
    let n = 2_000_000_000u64 / (PAPER_SCALE * 8) * (PAPER_SCALE * 8);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / PAPER_SCALE) as usize, 71);

    // Sweep 1: mesh bandwidth at PCIe-4.0-class host links (25 GB/s).
    for mesh in [0.0, 12.0, 25.0, 50.0, 100.0, 200.0] {
        let p = build(25.0, mesh);
        let (p2p, het) = durations(&p, n, &input);
        r.push_ours(format!("host 25 GB/s, mesh {mesh:>3} GB/s: P2P sort"), p2p);
        r.push_ours(format!("host 25 GB/s, mesh {mesh:>3} GB/s: HET sort"), het);
    }
    // Sweep 2: host bandwidth at an NVLink-class mesh (100 GB/s).
    for host in [12.0, 25.0, 50.0, 72.0, 100.0] {
        let p = build(host, 100.0);
        let (p2p, het) = durations(&p, n, &input);
        r.push_ours(format!("host {host:>3} GB/s, mesh 100 GB/s: P2P sort"), p2p);
        r.push_ours(format!("host {host:>3} GB/s, mesh 100 GB/s: HET sort"), het);
    }
    r.note(
        "Shapes to look for: (1) HET sort is flat in mesh bandwidth while \
         P2P sort improves until the swap phase stops mattering; (2) both \
         algorithms scale with host bandwidth — the paper's conclusion that \
         CPU-GPU transfers, not P2P, are the scaling frontier.",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn het_flat_in_mesh_and_p2p_improves() {
        let r = super::run();
        let get = |label: &str| {
            r.rows
                .iter()
                .find(|row| row.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
                .ours
        };
        // HET is mesh-insensitive.
        let het_no_mesh = get("host 25 GB/s, mesh   0 GB/s: HET sort");
        let het_big_mesh = get("host 25 GB/s, mesh 200 GB/s: HET sort");
        assert!((het_no_mesh / het_big_mesh - 1.0).abs() < 0.02);
        // P2P with a big mesh beats P2P with a small one.
        let p2p_small = get("host 25 GB/s, mesh  12 GB/s: P2P sort");
        let p2p_big = get("host 25 GB/s, mesh 200 GB/s: P2P sort");
        assert!(p2p_big < p2p_small);
        // With a big mesh, P2P beats HET; host-bandwidth sweep helps both.
        assert!(p2p_big < het_big_mesh);
        let p2p_slow_host = get("host  12 GB/s, mesh 100 GB/s: P2P sort");
        let p2p_fast_host = get("host 100 GB/s, mesh 100 GB/s: P2P sort");
        assert!(p2p_fast_host < p2p_slow_host / 2.0);
    }
}
