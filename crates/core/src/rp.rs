//! RP sort — the partitioning-based multi-GPU sort the paper proposes as
//! future work (Section 7).
//!
//! P2P sort's merge phase needs `g − 1` merge stages, each re-swapping
//! keys; the paper suggests instead a *partitioning-based* design that
//! exchanges keys between GPUs exactly once (all-to-all), "which would
//! highly benefit systems with many NVSwitch-interconnected GPUs such as
//! the DGX A100". This module implements that design:
//!
//! 1. chunks sort locally (same phase 1 as P2P sort);
//! 2. the host selects `g − 1` *splitters* by multisequence selection over
//!    the sorted chunks at global ranks `i·n/g` — an exact partitioning,
//!    so every GPU ends up with exactly `n/g` keys (perfect balance even
//!    for skewed data, unlike a sampled radix histogram);
//! 3. one all-to-all exchange: GPU `j` sends its `i`-th partition (a
//!    sorted run) to GPU `i`'s receive buffer; its own partition moves by
//!    a device-local copy;
//! 4. each GPU k-way-merges the `g` received runs;
//! 5. chunks copy back to the host in GPU order — the concatenation is
//!    globally sorted by the splitter property.
//!
//! On NVSwitch every flow of the all-to-all runs at full rate, so the
//! merge phase costs ~one chunk transfer regardless of `g`; on systems
//! whose P2P crosses the host (AC922, DELTA), the all-to-all hammers the
//! CPU interconnect with `O(g²)` streams and loses to P2P sort's staged
//! merges — exactly the trade-off the paper predicts.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`RpDriver`]) so a scheduler can interleave RP jobs with other work on
//! one shared [`GpuSystem`]; [`rp_sort`] drives it alone.

use crate::exec::{DriverStep, SortDriver};
use crate::frame::{placement_builders, JobFrame, LocalSorts, PlacementConfig, Streams};
use crate::report::{PhaseBreakdown, SortReport};
use msort_cpu::multiway::multisequence_select;
use msort_data::SortKey;
use msort_gpu::{BufId, GpuSystem, OpId, Phase};
use msort_sim::SimTime;
use msort_topology::Platform;

/// Configuration for [`rp_sort`].
#[derive(Debug, Clone)]
pub struct RpConfig {
    /// GPUs (any `g >= 1`; RP sort does not need a power of two, another
    /// advantage over the merge-tree design), primitive, fidelity, and
    /// home socket. RP sort is order-insensitive, so only the set's
    /// membership matters.
    pub placement: PlacementConfig,
}

impl RpConfig {
    /// Default configuration.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            placement: PlacementConfig::new(gpus),
        }
    }
}

placement_builders!(RpConfig);

/// Where the driver is in the RP sort's phase sequence.
enum RpState {
    /// Nothing enqueued yet.
    Start,
    /// Phase 1 drained; splitter selection + all-to-all + merges next.
    Partition,
    /// Exchange and merges drained; gather next.
    Gather,
    /// Gather enqueued; next step reads the output.
    Gathering,
    /// Output taken from the host buffer; nothing left to do.
    Finished,
}

/// RP sort as a resumable [`SortDriver`] over a caller-provided
/// [`GpuSystem`]. Construction allocates the 3n-footprint buffers; timing
/// starts at the first [`RpDriver::step`].
pub struct RpDriver<K: SortKey> {
    frame: JobFrame<K>,
    order: Vec<usize>,
    chunk: u64,
    scale: u64,
    bufs: Vec<(BufId, BufId, BufId)>,
    streams: Streams,
    local: LocalSorts,
    state: RpState,
    t_sorted: SimTime,
    t_merged: SimTime,
    recv_off: Vec<u64>,
    exchanged_keys: u64,
}

impl<K: SortKey> RpDriver<K> {
    /// Prepare an RP sort of `data` (physical payload for `logical_len`
    /// keys) on `sys`: import the input and pre-allocate the per-GPU
    /// primary / receive / merge-output buffers.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale`, if the
    /// buffers exceed GPU memory, or if `config.fidelity` disagrees with
    /// the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &RpConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let p = &config.placement;
        let g = p.gpus;
        let order = p.resolve(sys.platform());
        let scale = p.fidelity.scale();
        assert!(
            logical_len.is_multiple_of(g as u64 * scale),
            "input length must divide evenly into {g} chunks of whole samples"
        );
        let chunk = logical_len / g as u64;
        let mut frame = JobFrame::new(sys, p.fidelity, p.home_socket, data, logical_len);

        // Buffers: primary chunk, aux (sort scratch + receive target), and
        // a merge output buffer per GPU — RP sort's 3n footprint is the
        // price of the single exchange. The slack absorbs
        // partition-boundary rounding.
        let slack = g as u64 * scale;
        let bufs: Vec<(BufId, BufId, BufId)> = order
            .iter()
            .map(|&gpu| {
                (
                    frame.register(sys.world_mut().alloc_gpu(gpu, chunk)),
                    frame.register(sys.world_mut().alloc_gpu(gpu, chunk + slack)),
                    frame.register(sys.world_mut().alloc_gpu(gpu, chunk + slack)),
                )
            })
            .collect();
        let streams = Streams::new(sys, g);

        Self {
            frame,
            order,
            chunk,
            scale,
            bufs,
            streams,
            local: LocalSorts::new(p.algo),
            state: RpState::Start,
            t_sorted: SimTime::ZERO,
            t_merged: SimTime::ZERO,
            recv_off: vec![0; g],
            exchanged_keys: 0,
        }
    }
}

impl<K: SortKey> SortDriver<K> for RpDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        let g = self.order.len();
        match self.state {
            RpState::Start => {
                // ---- Phase 1: scatter + local sort. ----
                self.frame.start(sys);
                let bufs = self.bufs.iter().map(|&(primary, aux, _)| (primary, aux));
                let s = &self.streams;
                let wait = self.local.enqueue(
                    sys,
                    self.frame.host_in,
                    self.chunk,
                    &s.copy_in,
                    &s.compute,
                    bufs,
                );
                self.state = RpState::Partition;
                DriverStep::Wait(wait)
            }
            RpState::Partition => {
                self.t_sorted = sys.now();
                let mut wait = Vec::new();

                // ---- Phase 2: splitter selection (host side, O(g log n)
                // reads of this job's own device buffers). ----
                let views: Vec<&[K]> = (0..g)
                    .map(|i| sys.world().slice(self.bufs[i].0, 0, self.chunk))
                    .collect();
                let total_phys: usize = views.iter().map(|v| v.len()).sum();
                // splits[r][j]: how many keys of chunk j have global rank
                // < r*n/g.
                let splits: Vec<Vec<usize>> = (0..=g)
                    .map(|r| multisequence_select(&views, r * total_phys / g))
                    .collect();
                drop(views);
                let split_cost = sys.cost_model().pivot_selection(self.chunk);
                let split_op = sys.delay(
                    self.streams.host,
                    msort_sim::SimDuration(split_cost.0 * g as u64),
                    &[],
                    Phase::Merge,
                );
                wait.push(split_op);

                // ---- Phase 3: the all-to-all exchange. ----
                // Receive offsets: GPU i receives partition (j -> i) from
                // every j.
                let mut recv_deps: Vec<Vec<OpId>> = vec![Vec::new(); g];
                let mut recv_runs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); g];
                #[allow(clippy::needless_range_loop)] // i and j index splits and bufs together
                for j in 0..g {
                    for i in 0..g {
                        let from = splits[i][j] as u64 * self.scale;
                        let to = splits[i + 1][j] as u64 * self.scale;
                        let len = to - from;
                        if len == 0 {
                            continue;
                        }
                        let s = sys.stream();
                        let op = sys.memcpy(
                            s,
                            self.bufs[j].0,
                            from,
                            self.bufs[i].1,
                            self.recv_off[i],
                            len,
                            &[split_op],
                            Phase::Merge,
                        );
                        if i != j {
                            self.exchanged_keys += len;
                        }
                        recv_runs[i].push((self.recv_off[i], len));
                        self.recv_off[i] += len;
                        recv_deps[i].push(op);
                        wait.push(op);
                    }
                }

                // ---- Phase 4: per-GPU k-way merge of the received runs.
                for i in 0..g {
                    let inputs: Vec<(BufId, u64, u64)> = recv_runs[i]
                        .iter()
                        .map(|&(off, len)| (self.bufs[i].1, off, len))
                        .collect();
                    let mo = sys.gpu_multiway_merge(
                        self.streams.compute[i],
                        inputs,
                        self.bufs[i].2,
                        &recv_deps[i],
                    );
                    wait.push(mo);
                }
                self.state = RpState::Gather;
                DriverStep::Wait(wait)
            }
            RpState::Gather => {
                // ---- Phase 5: gather (partition sizes are exact n/g by
                // selection). ----
                self.t_merged = sys.now();
                let mut wait = Vec::with_capacity(g);
                for i in 0..g {
                    wait.push(sys.memcpy(
                        self.streams.copy_out[i],
                        self.bufs[i].2,
                        0,
                        self.frame.host_out,
                        i as u64 * self.chunk,
                        self.recv_off[i],
                        &[],
                        Phase::DtoH,
                    ));
                    debug_assert_eq!(
                        self.recv_off[i], self.chunk,
                        "exact selection balances partitions"
                    );
                }
                self.state = RpState::Gathering;
                DriverStep::Wait(wait)
            }
            RpState::Gathering => {
                self.state = RpState::Finished;
                self.frame.finish(sys)
            }
            RpState::Finished => DriverStep::Done,
        }
    }

    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport {
        let [htod, sort] = self.local.split(sys, self.t_sorted.since(self.frame.t0));
        let phases = PhaseBreakdown {
            htod,
            sort,
            merge: self.t_merged.since(self.t_sorted),
            dtoh: self.frame.t_end.since(self.t_merged),
        };
        SortReport {
            p2p_swapped_keys: self.exchanged_keys,
            ..self
                .frame
                .report(sys, "RP sort", self.order.clone(), phases)
        }
    }

    fn frame(&self) -> &JobFrame<K> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut JobFrame<K> {
        &mut self.frame
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with RP sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus² × scale` (each
/// partition boundary must land on a whole sample for the exchange
/// offsets to be scale-aligned) or the buffers exceed GPU memory.
pub fn rp_sort<K: SortKey>(
    platform: &Platform,
    config: &RpConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::rp(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{p2p_sort, P2pConfig};
    use msort_data::{generate, same_multiset, Distribution};
    use msort_topology::PlatformId;

    fn run(
        platform: &Platform,
        gpus: usize,
        dist: Distribution,
        n: u64,
        seed: u64,
    ) -> (SortReport, Vec<u32>, Vec<u32>) {
        let input: Vec<u32> = generate(dist, n as usize, seed);
        let mut data = input.clone();
        let report = rp_sort(platform, &RpConfig::new(gpus), &mut data, n);
        (report, input, data)
    }

    #[test]
    fn sorts_on_all_platforms() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            let (report, input, output) = run(&p, 4, Distribution::Uniform, 1 << 14, 3);
            assert!(report.validated, "{id:?}");
            assert!(same_multiset(&input, &output), "{id:?}");
        }
    }

    #[test]
    fn sorts_all_distributions() {
        let p = Platform::dgx_a100();
        for dist in Distribution::paper_set() {
            let (report, input, output) = run(&p, 4, dist, 1 << 14, 5);
            assert!(report.validated, "{dist:?}");
            assert!(same_multiset(&input, &output), "{dist:?}");
        }
    }

    #[test]
    fn skewed_data_stays_balanced() {
        // Exact splitter selection keeps partitions equal even for
        // duplicate-heavy input (the debug_assert in phase 5 checks it).
        let p = Platform::dgx_a100();
        let (report, input, output) = run(
            &p,
            8,
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            1 << 15,
            7,
        );
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
    }

    #[test]
    fn non_power_of_two_gpu_count() {
        let p = Platform::dgx_a100();
        let n = 3 * (1 << 12);
        let (report, input, output) = run(&p, 3, Distribution::Uniform, n, 9);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert_eq!(report.gpus.len(), 3);
    }

    #[test]
    fn beats_p2p_sort_on_nvswitch_at_scale() {
        // The paper's Section 7 hypothesis: one all-to-all beats g-1 merge
        // stages on the DGX A100 (at paper scale, 8 GPUs).
        let p = Platform::dgx_a100();
        let scale = 1u64 << 16;
        let n = 8_000_000_000u64 / (scale * 64) * (scale * 64);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let mut a = input.clone();
        let rp = rp_sort(&p, &RpConfig::new(8).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let p2p = p2p_sort(&p, &P2pConfig::new(8).sampled(scale), &mut b, n);
        assert_eq!(a, b);
        assert!(
            rp.phases.merge < p2p.phases.merge,
            "RP merge {} should beat P2P merge {}",
            rp.phases.merge,
            p2p.phases.merge
        );
    }

    #[test]
    fn advantage_is_small_on_host_traversing_systems() {
        // On the AC922 the all-to-all still crosses the X-Bus for half the
        // data — the same unavoidable cross-socket volume as P2P sort's
        // global stage — so RP's gain shrinks to skipping the pair-wise
        // stages. The NVSwitch advantage (previous test) is the big one.
        let p = Platform::ibm_ac922();
        let scale = 1u64 << 16;
        let n = 2_000_000_000u64 / (scale * 16) * (scale * 16);
        let input: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 17);
        let mut a = input.clone();
        let rp = rp_sort(&p, &RpConfig::new(4).sampled(scale), &mut a, n);
        let mut b = input.clone();
        let p2p = p2p_sort(&p, &P2pConfig::new(4).sampled(scale), &mut b, n);
        let ratio = p2p.total.as_secs_f64() / rp.total.as_secs_f64();
        assert!(
            (0.95..=1.25).contains(&ratio),
            "RP {} vs P2P {} (ratio {ratio:.2}) left the expected band",
            rp.total,
            p2p.total
        );
    }
}
