//! GPU sample sort — the splitter-based multi-GPU sort of Leischner,
//! Osipov & Sanders (arXiv 0909.5649), lifted to the multi-GPU setting.
//!
//! Where RP sort partitions *sorted* chunks exactly by multisequence
//! selection, sample sort partitions *unsorted* chunks approximately by an
//! oversampled splitter set, and only sorts after the exchange:
//!
//! 1. chunks copy to the GPUs (no local sort — the partition pass works on
//!    raw keys);
//! 2. the host draws `oversample × g` evenly spaced samples per chunk,
//!    sorts the combined sample, and keeps `g − 1` splitters (deterministic
//!    sampling: stride midpoints, no RNG, so runs are bit-reproducible from
//!    the data alone);
//! 3. every GPU histograms + stably scatters its chunk into `g` contiguous
//!    buckets in one partition pass ([`msort_gpu::primitives::device_partition`],
//!    backed by the OneSweep-style tiled counting scatter in
//!    `msort_cpu::sample`);
//! 4. one all-to-all exchange ships bucket `i` of every chunk to GPU `i`;
//! 5. each GPU sorts its received partition, and the chunks gather back in
//!    GPU order — globally sorted by the splitter property.
//!
//! Splitters compare `(radix image, sample position)` lexicographically, so
//! duplicate-heavy inputs still split into bounded buckets (a plain key
//! comparison would dump every duplicate of a hot key into one bucket).
//! The receive partitions are only *approximately* `n/g`; the realized
//! imbalance is reported as [`SortReport::max_partition_keys`] and the
//! receive buffers are sized from the exact histogram counts.
//!
//! The interconnect profile sits between P2P sort and RP sort: like RP it
//! exchanges keys exactly once (all-to-all), but it moves *unsorted* keys
//! and replaces RP's k-way merge with a full local sort — trading merge
//! bandwidth for sort throughput, which wins when the per-GPU sort is fast
//! relative to the fabric (NVSwitch) and loses when the partition pass and
//! the second sort cannot hide behind transfer time.
//!
//! Like the other sorts, the phases live in a resumable driver
//! ([`SampleSortDriver`]); [`sample_sort`] drives it alone.

use crate::exec::{DriverStep, SortDriver};
use crate::frame::{placement_builders, JobFrame, PlacementConfig, Streams};
use crate::report::{PhaseBreakdown, SortReport};
use msort_cpu::sample::{bucket_counts, select_splitters, Splitter};
use msort_data::SortKey;
use msort_gpu::{BufId, GpuSystem, OpId, Phase, StreamId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};
use msort_topology::Platform;

/// Configuration for [`sample_sort`].
#[derive(Debug, Clone)]
pub struct SampleSortConfig {
    /// GPUs (any `g >= 1`; the bucket exchange does not need a power of
    /// two), primitive for the post-exchange final sorts, fidelity, and
    /// home socket. The all-to-all is order-insensitive, so only the
    /// set's membership matters.
    pub placement: PlacementConfig,
    /// Samples drawn per chunk per bucket. Higher values tighten the
    /// bucket-imbalance bound at the cost of a longer (host-side) splitter
    /// selection; the classic sample-sort analysis suggests `O(log n)`.
    pub oversample: usize,
}

impl SampleSortConfig {
    /// Default configuration.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            placement: PlacementConfig::new(gpus),
            oversample: 32,
        }
    }

    /// Use the given per-chunk-per-bucket oversampling factor.
    #[must_use]
    pub fn with_oversample(mut self, oversample: usize) -> Self {
        self.oversample = oversample;
        self
    }
}

placement_builders!(SampleSortConfig);

/// A splitter-based bucket partition of staged chunks: sample sort's
/// exchange plan, shared by the GPU-level sort here and the node-level
/// sort of [`crate::cross_node`].
pub(crate) struct Buckets<K> {
    pub(crate) splitters: Vec<Splitter<K>>,
    /// `counts[j][i]`: physical keys of chunk `j` in bucket `i`.
    counts: Vec<Vec<u64>>,
}

/// The ops of an all-to-all bucket exchange.
pub(crate) struct Exchange {
    /// Every copy.
    pub(crate) ops: Vec<OpId>,
    /// The copies between different chunks' owners.
    pub(crate) remote: Vec<OpId>,
    /// Logical keys those copies moved.
    pub(crate) remote_keys: u64,
}

impl<K: SortKey> Buckets<K> {
    /// Select `buckets - 1` splitters from `views` by deterministic stride
    /// sampling (the set depends only on the data, so runs are
    /// bit-reproducible from the seed), and histogram every chunk.
    pub(crate) fn select(views: &[&[K]], buckets: usize, oversample: usize) -> Self {
        let splitters = select_splitters(views, buckets, oversample);
        // `resize` only matters for the degenerate empty-input case (no
        // samples, one catch-all bucket).
        let counts = views
            .iter()
            .map(|v| {
                let mut c = bucket_counts(v, &splitters);
                c.resize(buckets, 0);
                c
            })
            .collect();
        Self { splitters, counts }
    }

    /// The selection's host latency on `stream`: each chunk (of `chunk`
    /// logical keys) contributes an O(oversample · buckets) sample, modeled
    /// like the pivot selections of the other sorts, once per chunk.
    pub(crate) fn selection(
        &self,
        sys: &mut GpuSystem<'_, K>,
        stream: StreamId,
        chunk: u64,
    ) -> OpId {
        let cost = sys.cost_model().pivot_selection(chunk);
        let chunks = self.counts.len() as u64;
        sys.delay(stream, SimDuration(cost.0 * chunks), &[], Phase::Partition)
    }

    /// Logical keys each bucket receives.
    pub(crate) fn received(&self, scale: u64) -> Vec<u64> {
        let buckets = self.counts.first().map_or(0, Vec::len);
        (0..buckets)
            .map(|i| self.counts.iter().map(|c| c[i]).sum::<u64>() * scale)
            .collect()
    }

    /// Enqueue the all-to-all: bucket `i` of chunk `j` (contiguous in
    /// `src[j]` once its partition op `parts[j]` ran) copies to `dst[i]`,
    /// each copy on its own stream. Copies stage their source when they
    /// *start*, so they ship the partitioned buckets.
    pub(crate) fn exchange(
        &self,
        sys: &mut GpuSystem<'_, K>,
        scale: u64,
        src: &[BufId],
        dst: &[BufId],
        parts: &[OpId],
    ) -> Exchange {
        let mut ex = Exchange {
            ops: Vec::new(),
            remote: Vec::new(),
            remote_keys: 0,
        };
        let mut recv_off = vec![0u64; dst.len()];
        for (j, counts) in self.counts.iter().enumerate() {
            let mut send_off = 0u64;
            for (i, &phys) in counts.iter().enumerate() {
                let len = phys * scale;
                if len == 0 {
                    continue;
                }
                let s = sys.stream();
                let op = sys.memcpy(
                    s,
                    src[j],
                    send_off,
                    dst[i],
                    recv_off[i],
                    len,
                    &[parts[j]],
                    Phase::Merge,
                );
                if i != j {
                    ex.remote_keys += len;
                    ex.remote.push(op);
                }
                send_off += len;
                recv_off[i] += len;
                ex.ops.push(op);
            }
        }
        ex
    }
}

/// Where the driver is in the sample sort's phase sequence.
enum SampleState {
    /// Nothing enqueued yet.
    Start,
    /// HtoD drained; splitter selection + partition + exchange next.
    Partition,
    /// Exchange drained; per-GPU final sorts next.
    FinalSort,
    /// Final sorts drained; gather next.
    Gather,
    /// Gather enqueued; next step reads the output.
    Gathering,
    /// Output taken from the host buffer; nothing left to do.
    Finished,
}

/// Sample sort as a resumable [`SortDriver`] over a caller-provided
/// [`GpuSystem`]. Construction allocates the partition-phase buffers; the
/// data-dependent receive buffers are sized from the splitter histogram
/// mid-run. Timing starts at the first [`SampleSortDriver::step`].
pub struct SampleSortDriver<K: SortKey> {
    frame: JobFrame<K>,
    order: Vec<usize>,
    algo: GpuSortAlgo,
    oversample: usize,
    chunk: u64,
    scale: u64,
    /// Per GPU: (primary chunk, partition scatter target).
    bufs: Vec<(BufId, BufId)>,
    /// Per GPU: receive buffer, allocated after splitter selection.
    recv: Vec<BufId>,
    /// Per GPU: logical keys received in the exchange.
    recv_len: Vec<u64>,
    streams: Streams,
    state: SampleState,
    t_in: SimTime,
    t_exchanged: SimTime,
    t_sorted: SimTime,
    exchanged_keys: u64,
    max_partition_keys: u64,
}

impl<K: SortKey> SampleSortDriver<K> {
    /// Prepare a sample sort of `data` (physical payload for `logical_len`
    /// keys) on `sys`: import the input and pre-allocate the per-GPU
    /// primary and scatter buffers (the receive buffers are data-dependent
    /// and allocated after splitter selection).
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `gpus × scale` (chunks
    /// must hold whole samples), if the buffers exceed GPU memory, or if
    /// `config.fidelity` disagrees with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &SampleSortConfig,
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

        // Partition-phase buffers: the primary chunk and the scatter
        // target of the local partition pass. The receive buffers are
        // sized from the actual histogram when the splitters are known.
        let bufs: Vec<(BufId, BufId)> = order
            .iter()
            .map(|&gpu| {
                (
                    frame.register(sys.world_mut().alloc_gpu(gpu, chunk)),
                    frame.register(sys.world_mut().alloc_gpu(gpu, chunk)),
                )
            })
            .collect();
        let streams = Streams::new(sys, g);

        Self {
            frame,
            order,
            algo: p.algo,
            oversample: config.oversample,
            chunk,
            scale,
            bufs,
            recv: Vec::with_capacity(g),
            recv_len: Vec::new(),
            streams,
            state: SampleState::Start,
            t_in: SimTime::ZERO,
            t_exchanged: SimTime::ZERO,
            t_sorted: SimTime::ZERO,
            exchanged_keys: 0,
            max_partition_keys: 0,
        }
    }
}

impl<K: SortKey> SortDriver<K> for SampleSortDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        let g = self.order.len();
        match self.state {
            SampleState::Start => {
                // ---- Phase 1: scatter the raw chunks (no local sort). ----
                self.frame.start(sys);
                let mut wait = Vec::with_capacity(g);
                for i in 0..g {
                    wait.push(sys.memcpy(
                        self.streams.copy_in[i],
                        self.frame.host_in,
                        i as u64 * self.chunk,
                        self.bufs[i].0,
                        0,
                        self.chunk,
                        &[],
                        Phase::HtoD,
                    ));
                }
                self.state = SampleState::Partition;
                DriverStep::Wait(wait)
            }
            SampleState::Partition => {
                self.t_in = sys.now();

                // ---- Phase 2: splitter selection (host side, over the
                // raw device chunks). ----
                let views: Vec<&[K]> = (0..g)
                    .map(|i| sys.world().slice(self.bufs[i].0, 0, self.chunk))
                    .collect();
                let buckets = Buckets::select(&views, g, self.oversample);
                drop(views);
                let split_op = buckets.selection(sys, self.streams.host, self.chunk);

                // Receive partition sizes, and the realized imbalance for
                // the report.
                self.recv_len = buckets.received(self.scale);
                self.max_partition_keys = self.recv_len.iter().copied().max().unwrap_or(0);
                for (&gpu, &len) in self.order.iter().zip(&self.recv_len) {
                    let buf = self.frame.register(sys.world_mut().alloc_gpu(gpu, len));
                    self.recv.push(buf);
                }

                // ---- Phase 3: local partition pass on every GPU. ----
                let part_ops: Vec<OpId> = (0..g)
                    .map(|j| {
                        sys.gpu_partition(
                            self.streams.compute[j],
                            self.bufs[j].0,
                            (0, self.chunk),
                            self.bufs[j].1,
                            buckets.splitters.clone(),
                            &[split_op],
                        )
                    })
                    .collect();

                // ---- Phase 4: the all-to-all bucket exchange. ----
                let src: Vec<BufId> = self.bufs.iter().map(|b| b.0).collect();
                let ex = buckets.exchange(sys, self.scale, &src, &self.recv, &part_ops);
                self.exchanged_keys += ex.remote_keys;
                let mut wait = vec![split_op];
                wait.extend(ex.ops);
                wait.extend(part_ops);
                self.state = SampleState::FinalSort;
                DriverStep::Wait(wait)
            }
            SampleState::FinalSort => {
                // ---- Phase 5: per-GPU sort of the received partition.
                // The partition-phase buffers are dead now; freeing them
                // caps the per-GPU footprint at max(2 + r, 2r) chunks for
                // realized imbalance r. ----
                self.t_exchanged = sys.now();
                for &(a, b) in &self.bufs {
                    sys.world_mut().free(a);
                    sys.world_mut().free(b);
                }
                let aux: Vec<BufId> = (0..g)
                    .map(|i| {
                        self.frame
                            .register(sys.world_mut().alloc_gpu(self.order[i], self.recv_len[i]))
                    })
                    .collect();
                let wait: Vec<OpId> = (0..g)
                    .map(|i| {
                        sys.gpu_sort(
                            self.streams.compute[i],
                            self.algo,
                            self.recv[i],
                            (0, self.recv_len[i]),
                            aux[i],
                            &[],
                        )
                    })
                    .collect();
                self.state = SampleState::Gather;
                DriverStep::Wait(wait)
            }
            SampleState::Gather => {
                // ---- Phase 6: gather in GPU order (bucket i's keys all
                // precede bucket i+1's in splitter order). ----
                self.t_sorted = sys.now();
                let mut wait = Vec::with_capacity(g);
                let mut out_off = 0u64;
                for i in 0..g {
                    if self.recv_len[i] == 0 {
                        continue;
                    }
                    wait.push(sys.memcpy(
                        self.streams.copy_out[i],
                        self.recv[i],
                        0,
                        self.frame.host_out,
                        out_off,
                        self.recv_len[i],
                        &[],
                        Phase::DtoH,
                    ));
                    out_off += self.recv_len[i];
                }
                debug_assert_eq!(
                    out_off, self.frame.logical_len,
                    "buckets partition the input"
                );
                self.state = SampleState::Gathering;
                DriverStep::Wait(wait)
            }
            SampleState::Gathering => {
                self.state = SampleState::Finished;
                self.frame.finish(sys)
            }
            SampleState::Finished => DriverStep::Done,
        }
    }

    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport {
        let phases = PhaseBreakdown {
            htod: self.t_in.since(self.frame.t0),
            // Splitter selection + partition pass + all-to-all: the
            // inter-GPU phase, reported as the merge slot of the paper's
            // four-phase breakdown.
            merge: self.t_exchanged.since(self.t_in),
            sort: self.t_sorted.since(self.t_exchanged),
            dtoh: self.frame.t_end.since(self.t_sorted),
        };
        SortReport {
            p2p_swapped_keys: self.exchanged_keys,
            max_partition_keys: self.max_partition_keys,
            ..self
                .frame
                .report(sys, "Sample sort", self.order.clone(), phases)
        }
    }

    fn frame(&self) -> &JobFrame<K> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut JobFrame<K> {
        &mut self.frame
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with GPU sample
/// sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `gpus × scale` (chunks must
/// hold whole samples) or the buffers exceed GPU memory.
pub fn sample_sort<K: SortKey>(
    platform: &Platform,
    config: &SampleSortConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::sample(config.clone()),
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
        let report = sample_sort(platform, &SampleSortConfig::new(gpus), &mut data, n);
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
    fn duplicate_heavy_input_stays_bounded() {
        // The (key, position) splitter tie-break splits hot keys across
        // buckets; without it a 1500-permille Zipf would dump most of the
        // input on one GPU.
        let p = Platform::dgx_a100();
        let n = 1u64 << 15;
        let g = 8;
        let (report, input, output) = run(
            &p,
            g,
            Distribution::ZipfDuplicates {
                skew_permille: 1500,
            },
            n,
            7,
        );
        assert!(report.validated);
        assert!(same_multiset(&input, &output));
        assert!(
            report.max_partition_keys <= 2 * (n / g as u64),
            "bucket imbalance {} exceeds 2x the ideal {}",
            report.max_partition_keys,
            n / g as u64
        );
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
    fn exchanges_once_like_rp() {
        // Sample sort's defining property: at most one all-to-all, so the
        // exchanged volume is bounded by n (strictly less: the diagonal
        // bucket stays local).
        let p = Platform::dgx_a100();
        let n = 1u64 << 16;
        let (report, _, _) = run(&p, 4, Distribution::Uniform, n, 11);
        assert!(report.p2p_swapped_keys < n);
        assert!(report.p2p_swapped_keys > 0);
    }

    #[test]
    fn sampled_fidelity_runs() {
        let p = Platform::dgx_a100();
        let scale = 1u64 << 10;
        let n = (1u64 << 24) / (scale * 8) * (scale * 8);
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let report = sample_sort(&p, &SampleSortConfig::new(8).sampled(scale), &mut data, n);
        assert!(report.validated);
        assert_eq!(report.keys, n);
    }
}
