//! HET sort: the heterogeneous CPU/GPU sorting algorithm (Section 5.3).
//!
//! Chunks sort on the GPUs and return to host memory; the CPU merges the
//! sorted sublists with a parallel multiway merge. For data that fits the
//! combined GPU memory this is one chunk group and one final merge. For
//! larger data, chunk groups stream through the GPUs with bidirectional
//! transfer overlap, in one of two pipelines:
//!
//! * **2n-approach** (this paper's contribution): two buffers per GPU;
//!   sorting blocks copies, but chunks are 1.5× larger, so the final merge
//!   sees fewer sublists;
//! * **3n-approach** (Stehle et al.): three buffers per GPU; copies overlap
//!   the sort (the classic copy/compute overlap the paper shows to no
//!   longer matter).
//!
//! Optional **eager merging** (Gowanlock et al.) merges each completed
//! chunk group on the CPU while the GPUs work on the next one; the paper
//! shows it *hurts* on modern systems because the merge queue grows faster
//! than it drains and the merge steals host memory bandwidth from the
//! transfers — both effects are reproduced by modeling CPU merges as
//! host-memory flows.

use crate::exec::{DriverStep, SortDriver};
use crate::frame::{placement_builders, split_by_busy, JobFrame, PlacementConfig, Streams};
use crate::report::{PhaseBreakdown, SortReport};
use msort_data::SortKey;
use msort_gpu::{BufId, GpuSystem, OpId, Phase};
use msort_sim::{GpuSortAlgo, SimTime};
use msort_topology::Platform;

/// Which large-data pipeline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LargeDataApproach {
    /// Two buffers per GPU; sort blocks copies (Figure 11).
    TwoN,
    /// Three buffers per GPU; copies overlap the sort (Figure 10).
    ThreeN,
}

impl LargeDataApproach {
    /// Device buffers per GPU.
    #[must_use]
    pub fn buffers(self) -> u64 {
        match self {
            LargeDataApproach::TwoN => 2,
            LargeDataApproach::ThreeN => 3,
        }
    }

    /// Display label ("2n" / "3n").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LargeDataApproach::TwoN => "2n",
            LargeDataApproach::ThreeN => "3n",
        }
    }
}

/// Configuration for [`het_sort`].
#[derive(Debug, Clone)]
pub struct HetConfig {
    /// GPUs, primitive, fidelity, and home socket.
    pub placement: PlacementConfig,
    /// Large-data pipeline (irrelevant when one chunk group suffices —
    /// the two approaches then behave identically, as the paper notes).
    pub approach: LargeDataApproach,
    /// Eager merging (Section 5.3); the paper's recommendation is `false`.
    pub eager_merge: bool,
    /// Usable device memory per GPU in bytes (defaults to the full GPU
    /// memory). The paper's 2n-vs-3n comparison fixes this to 33 GB so
    /// both pipelines get the same budget (Section 6.2).
    pub gpu_mem_budget: Option<u64>,
}

impl HetConfig {
    /// Default configuration: 2n pipeline, no eager merging.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            placement: PlacementConfig::new(gpus),
            approach: LargeDataApproach::TwoN,
            eager_merge: false,
            gpu_mem_budget: None,
        }
    }

    /// Select the large-data pipeline.
    #[must_use]
    pub fn with_approach(mut self, approach: LargeDataApproach) -> Self {
        self.approach = approach;
        self
    }

    /// Enable eager merging.
    #[must_use]
    pub fn with_eager_merge(mut self) -> Self {
        self.eager_merge = true;
        self
    }

    /// Restrict the usable device memory per GPU.
    #[must_use]
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.gpu_mem_budget = Some(bytes);
        self
    }
}

placement_builders!(HetConfig);

/// How the input divides into chunks: `pieces[group * g + gpu]` is the
/// `(offset, len)` of that chunk in the input, in logical keys. Pieces are
/// nearly equal (they differ by at most one sample) and scale-aligned.
#[derive(Debug, Clone)]
pub struct ChunkPlan {
    /// Chunk `(offset, len)` pairs in input order.
    pub pieces: Vec<(u64, u64)>,
    /// Number of chunk groups.
    pub groups: u64,
    /// GPUs per group.
    pub g: usize,
}

impl ChunkPlan {
    /// Compute the plan for `logical_len` keys over `g` GPUs with at most
    /// `max_chunk_keys` keys per chunk.
    ///
    /// # Panics
    /// Panics if `logical_len` is not a multiple of `scale`, or if
    /// `max_chunk_keys < scale` (a chunk must hold at least one sample).
    #[must_use]
    pub fn compute(logical_len: u64, g: usize, max_chunk_keys: u64, scale: u64) -> Self {
        assert_eq!(logical_len % scale, 0, "input must be whole samples");
        assert!(
            max_chunk_keys >= scale,
            "GPU memory budget too small for even one sample per chunk"
        );
        let samples = logical_len / scale;
        let max_samples = max_chunk_keys / scale;
        let mut groups = samples.div_ceil(max_samples * g as u64).max(1);
        // Nearly-equal split can push the larger pieces one sample over
        // the budget; bump the group count when that happens.
        loop {
            let total = groups * g as u64;
            let base = samples / total;
            let rem = samples % total;
            if base + u64::from(rem > 0) <= max_samples {
                let mut pieces = Vec::with_capacity(total as usize);
                let mut off = 0u64;
                for i in 0..total {
                    let len = (base + u64::from(i < rem)) * scale;
                    pieces.push((off, len));
                    off += len;
                }
                debug_assert_eq!(off, logical_len);
                return Self { pieces, groups, g };
            }
            groups += 1;
        }
    }

    /// Chunk `(offset, len)` for `(group, gpu)`.
    #[must_use]
    pub fn piece(&self, group: u64, gpu: usize) -> (u64, u64) {
        self.pieces[(group * self.g as u64) as usize + gpu]
    }

    /// The largest chunk length in the plan.
    #[must_use]
    pub fn max_len(&self) -> u64 {
        self.pieces.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with HET sort.
/// Returns the report; the sorted output replaces `data`.
///
/// # Panics
/// Panics if `logical_len` is not a multiple of the sampling factor or if
/// even a single-sample chunk exceeds the GPU memory budget.
pub fn het_sort<K: SortKey>(
    platform: &Platform,
    config: &HetConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::het(config.clone()),
        data,
        logical_len,
    )
}

/// Where the HET driver is in its phase sequence.
enum HetState {
    /// Nothing enqueued yet.
    Start,
    /// Every chunk group (and eager merge) drained; final CPU merge next
    /// (or nothing, single-chunk case).
    GpuDone,
    /// Final merge enqueued; next step reads the output.
    Merging,
    /// Output taken; nothing left to do.
    Finished,
}

/// HET sort as a resumable [`SortDriver`]. The first step enqueues every
/// chunk group — one group in core, several streaming through the GPUs in
/// the 2n or 3n pipeline out of core, with the eager merges if enabled —
/// and waits on them as one set; the second enqueues the final CPU
/// multiway merge. A single chunk over a single GPU copies straight into
/// the output and skips the merge.
pub struct HetDriver<K: SortKey> {
    frame: JobFrame<K>,
    order: Vec<usize>,
    algo: GpuSortAlgo,
    approach: LargeDataApproach,
    plan: ChunkPlan,
    /// Sorted sublists land here; the final merge writes the output.
    host_runs: BufId,
    /// Eager merge outputs (the final merge writes the output while
    /// reading them).
    eager_buf: Option<BufId>,
    /// Per GPU: the pipeline's `approach.buffers()` device buffers.
    bufs: Vec<Vec<BufId>>,
    /// The host stream runs the CPU merges.
    streams: Streams,
    state: HetState,
    t_gpu_done: SimTime,
    htod_ops: Vec<OpId>,
    sort_ops: Vec<OpId>,
    dtoh_ops: Vec<OpId>,
}

impl<K: SortKey> HetDriver<K> {
    /// Prepare a HET sort of `data` on `sys`: plan the chunk groups under
    /// the device-memory budget and pre-allocate the pipeline buffers.
    ///
    /// # Panics
    /// Panics if `logical_len` is not a multiple of the sampling factor,
    /// if even a single-sample chunk exceeds the GPU memory budget, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &HetConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let p = &config.placement;
        let g = p.gpus;
        let order = p.resolve(sys.platform());
        let gpu_mem = order
            .iter()
            .map(|&i| sys.platform().topology.gpu_memory_bytes(i))
            .min()
            .expect("at least one GPU");
        let budget = config.gpu_mem_budget.unwrap_or(gpu_mem).min(gpu_mem);
        let max_chunk_keys = budget / config.approach.buffers() / K::DATA_TYPE.key_bytes();
        let plan = ChunkPlan::compute(logical_len, g, max_chunk_keys, p.fidelity.scale());

        let mut frame = JobFrame::new(sys, p.fidelity, p.home_socket, data, logical_len);
        let host_runs = frame.register(sys.world_mut().alloc_host(p.home_socket, logical_len));
        let buf_len = plan.max_len();
        let nbuf = config.approach.buffers() as usize;
        let bufs: Vec<Vec<BufId>> = order
            .iter()
            .map(|&gpu| {
                (0..nbuf)
                    .map(|_| frame.register(sys.world_mut().alloc_gpu(gpu, buf_len)))
                    .collect()
            })
            .collect();
        let streams = Streams::new(sys, g);
        let eager_buf = (config.eager_merge && plan.groups > 1)
            .then(|| frame.register(sys.world_mut().alloc_host(p.home_socket, logical_len)));

        Self {
            frame,
            order,
            algo: p.algo,
            approach: config.approach,
            plan,
            host_runs,
            eager_buf,
            bufs,
            streams,
            state: HetState::Start,
            t_gpu_done: SimTime::ZERO,
            htod_ops: Vec::new(),
            sort_ops: Vec::new(),
            dtoh_ops: Vec::new(),
        }
    }

    /// Enqueue every chunk group and its eager merge; returns the ops
    /// whose completion drains them all (each GPU's last DtoH closes its
    /// stream chain, plus the eager merges).
    fn enqueue_groups(&mut self, sys: &mut GpuSystem<'_, K>) -> Vec<OpId> {
        let g = self.order.len();
        let nbuf = self.approach.buffers() as usize;
        let two_n = self.approach == LargeDataApproach::TwoN;
        let runs_target = if self.plan.pieces.len() == 1 {
            self.frame.host_out
        } else {
            self.host_runs
        };
        let mut wait = Vec::new();
        let mut last_sort: Vec<Option<OpId>> = vec![None; g];
        let mut last_dtoh: Vec<Option<OpId>> = vec![None; g];
        for group in 0..self.plan.groups {
            let j = group as usize;
            let mut group_dtoh = Vec::with_capacity(g);
            for i in 0..g {
                let (off, len) = self.plan.piece(group, i);
                let data_buf = self.bufs[i][j % nbuf];
                let aux_buf = self.bufs[i][(j + nbuf - 1) % nbuf];

                // HtoD. 2n: the target buffer was the previous sort's aux,
                // so wait for that sort (the paper's explicit
                // synchronization step). 3n: the buffer cycles roles; the
                // in-place data-transfer swap lets this copy overlap the
                // DtoH that is still draining the same buffer.
                let htod_waits: Vec<OpId> = if two_n {
                    last_sort[i].into_iter().collect()
                } else {
                    Vec::new()
                };
                let up = sys.memcpy(
                    self.streams.copy_in[i],
                    self.frame.host_in,
                    off,
                    data_buf,
                    0,
                    len,
                    &htod_waits,
                    Phase::HtoD,
                );

                // Sort. 2n additionally waits for the previous DtoH: its
                // aux buffer is the buffer that chunk was leaving from.
                let mut sort_waits = vec![up];
                if two_n {
                    sort_waits.extend(last_dtoh[i]);
                }
                let so = sys.gpu_sort(
                    self.streams.compute[i],
                    self.algo,
                    data_buf,
                    (0, len),
                    aux_buf,
                    &sort_waits,
                );

                // DtoH of the sorted chunk into its slot of the runs buffer.
                let down = sys.memcpy(
                    self.streams.copy_out[i],
                    data_buf,
                    0,
                    runs_target,
                    off,
                    len,
                    &[so],
                    Phase::DtoH,
                );
                last_sort[i] = Some(so);
                last_dtoh[i] = Some(down);
                group_dtoh.push(down);
                self.htod_ops.push(up);
                self.sort_ops.push(so);
                self.dtoh_ops.push(down);
            }

            // Eager merge of this group (skipped for the last group — no
            // GPU work would remain to overlap with, Section 5.3).
            if let Some(eager_buf) = self.eager_buf {
                if group + 1 < self.plan.groups {
                    let inputs: Vec<(BufId, u64, u64)> = (0..g)
                        .map(|i| {
                            let (off, len) = self.plan.piece(group, i);
                            (self.host_runs, off, len)
                        })
                        .collect();
                    let out_off = self.plan.piece(group, 0).0;
                    wait.push(sys.cpu_multiway_merge(
                        self.streams.host,
                        inputs,
                        eager_buf,
                        out_off,
                        &group_dtoh,
                    ));
                }
            }
        }
        wait.extend(last_dtoh.into_iter().flatten());
        wait
    }

    /// The final merge's inputs: the eager outputs plus the last group's
    /// chunks, or every chunk.
    fn merge_inputs(&self) -> Vec<(BufId, u64, u64)> {
        let plan = &self.plan;
        let Some(eager_buf) = self.eager_buf else {
            return plan
                .pieces
                .iter()
                .map(|&(off, len)| (self.host_runs, off, len))
                .collect();
        };
        let g = self.order.len();
        let last = plan.groups - 1;
        let mut v: Vec<(BufId, u64, u64)> = (0..last)
            .map(|grp| {
                let start = plan.piece(grp, 0).0;
                let end = plan.piece(grp, g - 1);
                (eager_buf, start, end.0 + end.1 - start)
            })
            .collect();
        v.extend((0..g).map(|i| {
            let (off, len) = plan.piece(last, i);
            (self.host_runs, off, len)
        }));
        v
    }
}

impl<K: SortKey> SortDriver<K> for HetDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        match self.state {
            HetState::Start => {
                self.frame.start(sys);
                let wait = self.enqueue_groups(sys);
                self.state = HetState::GpuDone;
                DriverStep::Wait(wait)
            }
            HetState::GpuDone => {
                self.t_gpu_done = sys.now();
                if self.plan.pieces.len() == 1 {
                    self.state = HetState::Finished;
                    return self.frame.finish(sys);
                }
                let inputs = self.merge_inputs();
                let host_out = self.frame.host_out;
                let mo = sys.cpu_multiway_merge(self.streams.host, inputs, host_out, 0, &[]);
                self.state = HetState::Merging;
                DriverStep::Wait(vec![mo])
            }
            HetState::Merging => {
                self.state = HetState::Finished;
                self.frame.finish(sys)
            }
            HetState::Finished => DriverStep::Done,
        }
    }

    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport {
        let window = self.t_gpu_done.since(self.frame.t0);
        let [htod, sort, dtoh] = split_by_busy(
            window,
            [
                sys.ops_busy(&self.htod_ops),
                sys.ops_busy(&self.sort_ops),
                sys.ops_busy(&self.dtoh_ops),
            ],
        );
        // The final merge window; eager merges (if any) overlapped the GPU
        // window and are folded into it.
        let phases = PhaseBreakdown {
            htod,
            sort,
            merge: self.frame.t_end.since(self.t_gpu_done),
            dtoh,
        };
        let algorithm = if self.plan.groups > 1 {
            format!(
                "HET sort ({}{})",
                self.approach.label(),
                if self.eager_buf.is_some() {
                    " + EM"
                } else {
                    ""
                }
            )
        } else {
            "HET sort".into()
        };
        self.frame
            .report(sys, algorithm, self.order.clone(), phases)
    }

    fn frame(&self) -> &JobFrame<K> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut JobFrame<K> {
        &mut self.frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_data::{generate, same_multiset, Distribution};
    use msort_gpu::Fidelity;
    use msort_sim::SimDuration;
    use msort_topology::PlatformId;

    fn run_cfg(
        platform: &Platform,
        cfg: &HetConfig,
        dist: Distribution,
        n: u64,
        seed: u64,
    ) -> (SortReport, Vec<u32>, Vec<u32>) {
        let input: Vec<u32> = generate(dist, n as usize, seed);
        let mut data = input.clone();
        let report = het_sort(platform, cfg, &mut data, n);
        (report, input, data)
    }

    #[test]
    fn in_core_sorts_all_platforms() {
        for id in PlatformId::paper_set() {
            let p = Platform::paper(id);
            let (report, input, output) =
                run_cfg(&p, &HetConfig::new(4), Distribution::Uniform, 1 << 14, 11);
            assert!(report.validated, "{id:?}");
            assert!(same_multiset(&input, &output), "{id:?}");
            assert!(report.phases.merge > SimDuration::ZERO);
            assert_eq!(report.algorithm, "HET sort");
        }
    }

    #[test]
    fn in_core_all_distributions() {
        let p = Platform::ibm_ac922();
        for dist in Distribution::paper_set() {
            let (report, input, output) = run_cfg(&p, &HetConfig::new(2), dist, 1 << 13, 5);
            assert!(report.validated, "{dist:?}");
            assert!(same_multiset(&input, &output), "{dist:?}");
        }
    }

    #[test]
    fn chunk_plan_respects_budget_and_covers_input() {
        let plan = ChunkPlan::compute(1000, 2, 130, 1);
        assert!(plan.groups >= 4);
        let total: u64 = plan.pieces.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 1000);
        assert!(plan.pieces.iter().all(|&(_, l)| l <= 130 && l > 0));
        // Pieces are contiguous.
        let mut expect = 0;
        for &(off, len) in &plan.pieces {
            assert_eq!(off, expect);
            expect += len;
        }
    }

    #[test]
    fn chunk_plan_scale_alignment() {
        let plan = ChunkPlan::compute(64 * 10, 2, 64 * 3, 64);
        for &(off, len) in &plan.pieces {
            assert_eq!(off % 64, 0);
            assert_eq!(len % 64, 0);
        }
    }

    #[test]
    fn out_of_core_pipelines_sort_correctly() {
        let p = Platform::test_pcie(2);
        for approach in [LargeDataApproach::TwoN, LargeDataApproach::ThreeN] {
            // Budget of 96 KiB per GPU forces several chunk groups for a
            // 64K-key input (2 or 3 buffers of 96/2 or 96/3 KiB).
            let cfg = HetConfig::new(2)
                .with_approach(approach)
                .with_mem_budget(96 * 1024);
            let n = 1u64 << 16;
            let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
            let mut data = input.clone();
            let report = het_sort(&p, &cfg, &mut data, n);
            assert!(report.validated, "{approach:?}");
            assert!(same_multiset(&input, &data), "{approach:?}");
            assert!(report.algorithm.contains(approach.label()));
        }
    }

    #[test]
    fn eager_merge_is_slower_but_correct() {
        // Section 6.2: eager merging decreases performance.
        let p = Platform::dgx_a100();
        let base = HetConfig::new(4).with_mem_budget(1 << 20);
        let n = 1u64 << 20; // forces ~4+ chunk groups at a 1 MiB budget
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 9);

        let mut a = input.clone();
        let plain = het_sort(&p, &base, &mut a, n);
        let mut b = input.clone();
        let eager = het_sort(&p, &base.clone().with_eager_merge(), &mut b, n);
        assert!(plain.validated && eager.validated);
        assert_eq!(a, b);
        assert!(
            eager.total >= plain.total,
            "eager merging should not win: {} vs {}",
            eager.total,
            plain.total
        );
    }

    #[test]
    fn two_n_and_three_n_equal_in_core() {
        // With a single chunk group the approaches are identical (§6.1).
        let p = Platform::ibm_ac922();
        let n = 1u64 << 14;
        let (r2, _, out2) = run_cfg(
            &p,
            &HetConfig::new(2).with_approach(LargeDataApproach::TwoN),
            Distribution::Uniform,
            n,
            4,
        );
        let (r3, _, out3) = run_cfg(
            &p,
            &HetConfig::new(2).with_approach(LargeDataApproach::ThreeN),
            Distribution::Uniform,
            n,
            4,
        );
        assert_eq!(out2, out3);
        assert_eq!(r2.total, r3.total);
    }

    #[test]
    fn out_of_core_driver_sorts_and_releases_device_memory() {
        // The resumable driver runs the streaming pipeline itself: all
        // chunk groups in one wait set, then the final merge.
        let p = Platform::test_pcie(2);
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let free_before: Vec<u64> = (0..2).map(|g| sys.world().gpu_free_bytes(g)).collect();
        let n = 1u64 << 16;
        let cfg = HetConfig::new(2)
            .with_mem_budget(96 * 1024)
            .with_eager_merge();
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
        let mut d = HetDriver::new(&mut sys, &cfg, input.clone(), n);
        crate::exec::drive(&mut sys, &mut d);
        let report = d.report(&sys);
        assert!(d.validated());
        assert_eq!(report.algorithm, "HET sort (2n + EM)");
        assert!(same_multiset(&input, &d.take_output()));
        d.release(&mut sys);
        let after: Vec<u64> = (0..2).map(|g| sys.world().gpu_free_bytes(g)).collect();
        assert_eq!(free_before, after, "release must free all device memory");
    }

    #[test]
    fn sampled_out_of_core_run() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 16) * scale;
        let cfg = HetConfig::new(2).sampled(scale).with_mem_budget(64 << 20);
        let phys = (n / scale) as usize;
        let input: Vec<u32> = generate(Distribution::Uniform, phys, 8);
        let mut data = input.clone();
        let report = het_sort(&p, &cfg, &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert_eq!(report.keys, n);
    }

    #[test]
    fn wide_keys_sort() {
        let p = Platform::dgx_a100();
        let input: Vec<f64> = generate(Distribution::Normal, 1 << 13, 6);
        let mut data = input.clone();
        let report = het_sort(&p, &HetConfig::new(2), &mut data, 1 << 13);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
    }
}
