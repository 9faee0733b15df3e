//! Multiway mergesort — the k-way merge-tree multi-GPU sort after Karsin
//! et al. (arXiv 1702.07961).
//!
//! Where P2P sort keeps all `g` GPUs busy through `g − 1` pairwise
//! swap-and-re-merge stages, multiway mergesort treats the sorted chunks as
//! the leaves of a binary merge tree and merges runs *pairwise across
//! GPUs*:
//!
//! 1. chunks sort locally (same phase 1 as P2P/RP sort);
//! 2. `⌈log₂ g⌉` merge levels: at each level, runs pair up; the loser's
//!    run ships whole to the winner's GPU, which concatenates both runs
//!    into a fresh buffer and merges them with the zero-copy
//!    `gpu_merge_into` path ([`msort_cpu::mergesort::parallel_merge_into`]
//!    under the hood). An odd run gets a bye to the next level;
//! 3. the final run (all `n` keys, on one GPU) copies back to the host in
//!    one DtoH transfer.
//!
//! The data-movement shape is the *opposite* of the all-to-all designs:
//! every level moves half the data point-to-point over whichever links
//! connect the paired GPUs, and the merge work concentrates onto fewer
//! GPUs each level — the top merge runs on one GPU over the full `n`.
//! That makes the algorithm merge-bound (`O(n log g)` merge traffic) and
//! its tail serial, the classic weakness Karsin's analysis predicts for
//! `k = 2`; its strength is simplicity and strictly point-to-point
//! transfers (no g²-stream all-to-all hammering a host interconnect).
//!
//! Memory: the winner of the top-level merge transiently holds `2n` keys
//! (concatenated input + merge output), the steepest footprint of the five
//! algorithm families — the serve layer's admission control accounts for
//! it.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`MwmsDriver`]); [`mwms_sort`] drives it alone.

use crate::exec::{DriverStep, SortDriver};
use crate::frame::{placement_builders, JobFrame, LocalSorts, PlacementConfig};
use crate::report::{PhaseBreakdown, SortReport};
use msort_data::SortKey;
use msort_gpu::{BufId, GpuSystem, Phase, StreamId};
use msort_sim::SimTime;
use msort_topology::Platform;

/// Configuration for [`mwms_sort`].
#[derive(Debug, Clone)]
pub struct MwmsConfig {
    /// GPUs (any `g >= 1`; odd runs get merge-tree byes), primitive,
    /// fidelity, and home socket. Set order matters: adjacent entries pair
    /// first, and earlier entries win the pair (accumulate the merged
    /// runs), so the first entry hosts the final merge.
    pub placement: PlacementConfig,
}

impl MwmsConfig {
    /// Default configuration.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            placement: PlacementConfig::new(gpus),
        }
    }
}

placement_builders!(MwmsConfig);

/// A sorted run living on one GPU during the merge tree.
struct Run {
    buf: BufId,
    /// Logical keys in the run.
    len: u64,
    /// Position in the driver's GPU order (indexes `compute`/`order`).
    pos: usize,
}

/// A pairwise merge whose inputs have been concatenated into `src`.
struct PendingMerge {
    src: BufId,
    /// Logical split point (end of the winner's run).
    mid: u64,
    /// Logical total length.
    len: u64,
    pos: usize,
}

/// Where the driver is in the merge tree.
enum MwmsState {
    /// Nothing enqueued yet.
    Start,
    /// Concatenate the next level's run pairs (or move to gather when one
    /// run remains).
    Copy,
    /// Concatenations drained; enqueue the level's merges.
    Merge,
    /// Merge tree drained; gather next.
    Gather,
    /// Gather enqueued; next step reads the output.
    Gathering,
    /// Output taken from the host buffer; nothing left to do.
    Finished,
}

/// Multiway mergesort as a resumable [`SortDriver`] over a caller-provided
/// [`GpuSystem`]. Merge-tree buffers are allocated level by level (and the
/// consumed level freed), so the footprint peaks at `2n` on the final
/// winner rather than `n log g` fleet-wide.
pub struct MwmsDriver<K: SortKey> {
    frame: JobFrame<K>,
    order: Vec<usize>,
    chunk: u64,
    copy_in: Vec<StreamId>,
    compute: Vec<StreamId>,
    local: LocalSorts,
    state: MwmsState,
    level: u32,
    runs: Vec<Run>,
    pending: Vec<PendingMerge>,
    /// Buffers consumed by the ops the driver is currently waiting on;
    /// freed when the next step runs (i.e. once those ops drained).
    to_free: Vec<BufId>,
    t_sorted: SimTime,
    t_merged: SimTime,
    exchanged_keys: u64,
}

impl<K: SortKey> MwmsDriver<K> {
    /// Prepare a multiway mergesort of `data` (physical payload for
    /// `logical_len` keys) on `sys`: import the input and pre-allocate the
    /// phase-1 chunk buffers.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale` (chunks
    /// must hold whole samples), if the buffers exceed GPU memory, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &MwmsConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let p = &config.placement;
        let g = p.gpus;
        // Adjacent GPUs pair first, so the default set's stage-0-adjacency
        // (fast pairwise links first) is exactly the right order here too.
        let order = p.resolve(sys.platform());
        let scale = p.fidelity.scale();
        assert!(
            logical_len.is_multiple_of(g as u64 * scale),
            "input length must divide evenly into {g} chunks of whole samples"
        );
        let chunk = logical_len / g as u64;
        let mut frame = JobFrame::new(sys, p.fidelity, p.home_socket, data, logical_len);

        // Phase-1 buffers: primary chunk + sort scratch per GPU. The
        // scratch buffers die after the local sorts; merge-tree buffers
        // are allocated per level.
        let mut runs = Vec::with_capacity(g);
        let mut scratch = Vec::with_capacity(g);
        for (pos, &gpu) in order.iter().enumerate() {
            let primary = frame.register(sys.world_mut().alloc_gpu(gpu, chunk));
            scratch.push(frame.register(sys.world_mut().alloc_gpu(gpu, chunk)));
            runs.push(Run {
                buf: primary,
                len: chunk,
                pos,
            });
        }
        let copy_in: Vec<_> = (0..g).map(|_| sys.stream()).collect();
        let compute: Vec<_> = (0..g).map(|_| sys.stream()).collect();

        Self {
            frame,
            order,
            chunk,
            copy_in,
            compute,
            local: LocalSorts::new(p.algo),
            state: MwmsState::Start,
            level: 0,
            runs,
            pending: Vec::new(),
            to_free: scratch,
            t_sorted: SimTime::ZERO,
            t_merged: SimTime::ZERO,
            exchanged_keys: 0,
        }
    }

    fn free_drained(&mut self, sys: &mut GpuSystem<'_, K>) {
        for buf in self.to_free.drain(..) {
            sys.world_mut().free(buf);
        }
    }
}

impl<K: SortKey> SortDriver<K> for MwmsDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        match self.state {
            MwmsState::Start => {
                // ---- Phase 1: scatter + local sort (aux freed once the
                // sorts drain). ----
                self.frame.start(sys);
                let bufs = self
                    .runs
                    .iter()
                    .map(|r| r.buf)
                    .zip(self.to_free.iter().copied());
                let (copy_in, compute) = (&self.copy_in, &self.compute);
                let wait =
                    self.local
                        .enqueue(sys, self.frame.host_in, self.chunk, copy_in, compute, bufs);
                self.state = MwmsState::Copy;
                DriverStep::Wait(wait)
            }
            MwmsState::Copy => {
                // ---- Phase 2a (per level): pair runs and concatenate
                // each pair on the winner's GPU. ----
                if self.level == 0 {
                    self.t_sorted = sys.now();
                }
                self.free_drained(sys);
                if self.runs.len() == 1 {
                    self.state = MwmsState::Gather;
                    return self.step(sys);
                }
                let mut wait = Vec::new();
                let mut next_runs = Vec::with_capacity(self.runs.len().div_ceil(2));
                let runs = std::mem::take(&mut self.runs);
                for pair in runs.chunks(2) {
                    if pair.len() == 1 {
                        // Odd run out: a bye to the next level.
                        next_runs.push(Run {
                            buf: pair[0].buf,
                            len: pair[0].len,
                            pos: pair[0].pos,
                        });
                        continue;
                    }
                    let (w, l) = (&pair[0], &pair[1]);
                    let total = w.len + l.len;
                    let gpu = self.order[w.pos];
                    let src = self.frame.register(sys.world_mut().alloc_gpu(gpu, total));
                    // Winner's half moves device-locally; the loser's run
                    // crosses the fabric point-to-point.
                    let s1 = sys.stream();
                    let c1 = sys.memcpy(s1, w.buf, 0, src, 0, w.len, &[], Phase::Merge);
                    let s2 = sys.stream();
                    let c2 = sys.memcpy(s2, l.buf, 0, src, w.len, l.len, &[], Phase::Merge);
                    self.exchanged_keys += l.len;
                    wait.push(c1);
                    wait.push(c2);
                    self.to_free.push(w.buf);
                    self.to_free.push(l.buf);
                    self.pending.push(PendingMerge {
                        src,
                        mid: w.len,
                        len: total,
                        pos: w.pos,
                    });
                    next_runs.push(Run {
                        // Placeholder; the Merge arm replaces it with the
                        // freshly allocated output buffer.
                        buf: src,
                        len: total,
                        pos: w.pos,
                    });
                }
                self.runs = next_runs;
                self.state = MwmsState::Merge;
                DriverStep::Wait(wait)
            }
            MwmsState::Merge => {
                // ---- Phase 2b (per level): the pairwise merges. The
                // consumed input runs are freed here (their copies
                // drained), so the peak footprint is src + dst = 2x the
                // level's run length on each winner. ----
                self.free_drained(sys);
                let mut wait = Vec::new();
                for pm in self.pending.drain(..) {
                    let gpu = self.order[pm.pos];
                    let dst = self.frame.register(sys.world_mut().alloc_gpu(gpu, pm.len));
                    let mo =
                        sys.gpu_merge_into(self.compute[pm.pos], pm.src, pm.mid, pm.len, dst, &[]);
                    wait.push(mo);
                    self.to_free.push(pm.src);
                    // Point the run at the merge output.
                    let run = self
                        .runs
                        .iter_mut()
                        .find(|r| r.buf == pm.src)
                        .expect("pending merge has a run");
                    run.buf = dst;
                }
                self.level += 1;
                self.state = MwmsState::Copy;
                DriverStep::Wait(wait)
            }
            MwmsState::Gather => {
                // ---- Phase 3: one DtoH transfer of the final run. ----
                self.t_merged = sys.now();
                let run = &self.runs[0];
                debug_assert_eq!(
                    run.len, self.frame.logical_len,
                    "merge tree covers the input"
                );
                let s = sys.stream();
                let op = sys.memcpy(
                    s,
                    run.buf,
                    0,
                    self.frame.host_out,
                    0,
                    run.len,
                    &[],
                    Phase::DtoH,
                );
                self.state = MwmsState::Gathering;
                DriverStep::Wait(vec![op])
            }
            MwmsState::Gathering => {
                self.state = MwmsState::Finished;
                self.frame.finish(sys)
            }
            MwmsState::Finished => DriverStep::Done,
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
                .report(sys, "Multiway mergesort", self.order.clone(), phases)
        }
    }

    fn frame(&self) -> &JobFrame<K> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut JobFrame<K> {
        &mut self.frame
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with multiway
/// mergesort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale` (chunks must
/// hold whole samples) or the buffers exceed GPU memory (note the final
/// winner transiently holds `2n` keys).
pub fn mwms_sort<K: SortKey>(
    platform: &Platform,
    config: &MwmsConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::mwms(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = mwms_sort(platform, &MwmsConfig::new(gpus), &mut data, n);
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
    fn non_power_of_two_gpu_count_gets_byes() {
        let p = Platform::dgx_a100();
        for g in [3u64, 5, 6, 7] {
            let n = g * (1 << 12);
            let (report, input, output) = run(&p, g as usize, Distribution::Uniform, n, 9);
            assert!(report.validated, "g={g}");
            assert!(same_multiset(&input, &output), "g={g}");
            assert_eq!(report.gpus.len(), g as usize);
        }
    }

    #[test]
    fn single_gpu_degenerates_to_local_sort() {
        let p = Platform::dgx_a100();
        let (report, input, output) = run(&p, 1, Distribution::Uniform, 1 << 13, 11);
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert_eq!(report.p2p_swapped_keys, 0);
    }

    #[test]
    fn merge_traffic_is_n_log_g_shaped() {
        // Each of the log2(g) levels ships half the data: g=4 moves n
        // keys total (n/2 per level), strictly more point-to-point volume
        // than RP's single exchange on the same input would.
        let p = Platform::dgx_a100();
        let n = 1u64 << 16;
        let (report, _, _) = run(&p, 4, Distribution::Uniform, n, 13);
        assert_eq!(report.p2p_swapped_keys, n);
    }

    #[test]
    fn sampled_fidelity_runs() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 24) / (scale * 8) * (scale * 8);
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let report = mwms_sort(&p, &MwmsConfig::new(8).sampled(scale), &mut data, n);
        assert!(report.validated);
        assert_eq!(report.keys, n);
    }
}
