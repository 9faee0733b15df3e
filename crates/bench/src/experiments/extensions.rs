//! Section 7 extensions: the future-work directions the paper proposes,
//! implemented and measured.
//!
//! * **RP sort** — the partitioning-based multi-GPU sort with a single
//!   all-to-all key exchange ("would highly benefit systems with many
//!   NVSwitch-interconnected GPUs such as the DGX A100");
//! * **multi-hop P2P routing** — relaying host-traversing swaps through an
//!   intermediate GPU ("limited to systems where multi-hop traversals can
//!   benefit from high-speed interconnects (e.g., DELTA D22x)").

use super::align_down;
use crate::{ExperimentResult, PAPER_SCALE};
use msort_core::{p2p_sort, rp_sort, P2pConfig, RpConfig};
use msort_data::{generate, Distribution};
use msort_topology::{Platform, PlatformId};

/// RP sort vs P2P sort across platforms and GPU counts.
#[must_use]
pub fn rp_vs_p2p() -> ExperimentResult {
    let scale = PAPER_SCALE;
    let mut r = ExperimentResult::new(
        "rp-sort",
        "Extension (paper §7): RP sort (one all-to-all) vs P2P sort (g-1 merge stages)",
        "s",
    );
    for (id, counts, b_keys) in [
        (PlatformId::DgxA100, &[4usize, 8][..], 8.0),
        (PlatformId::IbmAc922, &[4][..], 2.0),
        (PlatformId::DeltaD22x, &[4][..], 2.0),
    ] {
        let p = Platform::paper(id);
        let n = align_down((b_keys * 1e9) as u64, scale * 64);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 41);
        for &g in counts {
            let mut a = input.clone();
            let p2p = p2p_sort(&p, &P2pConfig::new(g).sampled(scale), &mut a, n);
            let mut b = input.clone();
            let rp = rp_sort(&p, &RpConfig::new(g).sampled(scale), &mut b, n);
            r.push_ours(
                format!(
                    "{}: P2P sort, {g} GPUs, {b_keys}B keys (merge {})",
                    id.name(),
                    p2p.phases.merge
                ),
                p2p.total.as_secs_f64(),
            );
            r.push_ours(
                format!(
                    "{}: RP sort, {g} GPUs, {b_keys}B keys (merge {})",
                    id.name(),
                    rp.phases.merge
                ),
                rp.total.as_secs_f64(),
            );
        }
    }
    r.note(
        "RP sort replaces the g-1 merge stages with one splitter-balanced \
         all-to-all plus a local k-way merge. On NVSwitch the exchange runs \
         at full per-GPU rate, shrinking the merge phase severalfold; on \
         host-traversing systems the cross-socket volume is the same as the \
         global merge stage's, so the gain reduces to skipping the \
         pair-wise stages.",
    );
    r
}

/// Multi-hop P2P routing on the DELTA D22x.
#[must_use]
pub fn multihop() -> ExperimentResult {
    let scale = PAPER_SCALE;
    let mut r = ExperimentResult::new(
        "multihop",
        "Extension (paper §7): multi-hop P2P routing over the DELTA's NVLink ring",
        "s",
    );
    let p = Platform::delta_d22x();
    let n = align_down(2_000_000_000, scale * 16);
    let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 43);

    let mut a = input.clone();
    let base = p2p_sort(&p, &P2pConfig::new(4).sampled(scale), &mut a, n);
    let mut b = input.clone();
    let hopped = p2p_sort(
        &p,
        &P2pConfig::new(4).sampled(scale).with_multi_hop(),
        &mut b,
        n,
    );
    r.push_ours(
        format!("P2P sort, host routing (merge {})", base.phases.merge),
        base.total.as_secs_f64(),
    );
    r.push_ours(
        format!(
            "P2P sort, multi-hop routing (merge {})",
            hopped.phases.merge
        ),
        hopped.total.as_secs_f64(),
    );
    r.push_ours(
        "merge-phase speedup from multi-hop",
        base.phases.merge.as_secs_f64() / hopped.phases.merge.as_secs_f64(),
    );
    // Single-flow rates for the global stage's pairs.
    for (x, y) in [(0usize, 3usize), (1, 2)] {
        let (_, direct) = msort_core::best_p2p_route(&p, x, y, false);
        let (_, relay) = msort_core::best_p2p_route(&p, x, y, true);
        r.push_ours(format!("{x}->{y} direct rate [GB/s]"), direct / 1e9);
        r.push_ours(format!("{x}->{y} best relay rate [GB/s]"), relay / 1e9);
    }
    r.note(
        "The global merge stage's (0,3) and (1,2) swaps have no direct \
         NVLink; relaying through a ring neighbor (0->2->3, 1->0->2) \
         replaces the 9 GB/s host path with a 48 GB/s two-hop NVLink \
         path — the concurrent relays then share the ring's links.",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn rp_wins_big_on_dgx() {
        let r = super::rp_vs_p2p();
        let dgx_p2p_8 = r
            .rows
            .iter()
            .find(|row| row.label.contains("DGX") && row.label.contains("P2P sort, 8"))
            .unwrap()
            .ours;
        let dgx_rp_8 = r
            .rows
            .iter()
            .find(|row| row.label.contains("DGX") && row.label.contains("RP sort, 8"))
            .unwrap()
            .ours;
        assert!(dgx_rp_8 < dgx_p2p_8, "{dgx_rp_8} vs {dgx_p2p_8}");
    }

    #[test]
    fn multihop_speeds_up_merge() {
        let r = super::multihop();
        let speedup = r
            .rows
            .iter()
            .find(|row| row.label.contains("speedup"))
            .unwrap()
            .ours;
        assert!(speedup > 1.5, "merge speedup only {speedup}");
    }
}
