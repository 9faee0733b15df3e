//! Cross-node sort: node-level sample sort composed with per-node sorts.
//!
//! The cluster platforms (`msort-cluster`) are single [`Platform`]s whose
//! topology spans several nodes joined by NIC links, so one simulation
//! carries both traffic classes: this driver's inter-node exchange flows
//! over the NICs *and* the inner sorts' NVLink/PCIe traffic contend in the
//! same max-min rate allocation.
//!
//! The algorithm is the classic two-level sample sort, lifted one level up
//! (the node level) with the existing single-node sorts as the inner
//! primitive:
//!
//! 1. **Scatter**: the input splits into `n_nodes` equal chunks; chunk `k`
//!    ships from the global input (socket 0) to node `k`'s staging buffer
//!    (its home socket). For `k > 0` these are NIC flows.
//! 2. **Exchange**: the host draws deterministic stride samples from every
//!    staged chunk and keeps `n_nodes − 1` global splitters (reusing
//!    [`msort_cpu::sample::select_splitters`] with nodes as buckets); each
//!    node partitions its chunk into node-buckets on the CPU
//!    ([`msort_gpu::GpuSystem::host_partition`]), then an all-to-all bucket
//!    exchange ships bucket `i` of every chunk to node `i` over the NICs.
//!    Same-node buckets stay put as local copies.
//! 3. **Inner sorts**: every node sorts its received partition with a
//!    full single-node sort ([`Algorithm`]-selectable: P2P, RP, HET,
//!    sample, or multiway mergesort), staged on the node's home socket and
//!    running on the node's own GPUs. The inner drivers advance in
//!    lockstep on the shared system, so their intra-node traffic overlaps
//!    in simulated time.
//! 4. **Gather**: the sorted partitions concatenate back to the global
//!    output in node order — globally sorted by the splitter property.
//!
//! Bucket sizes are data-dependent, but the inner sorts require lengths
//! divisible by `gpus × scale`; each partition is padded to the next
//! multiple with copies of its maximum key, and the pad is truncated from
//! the sorted tail before the gather (the multiset is exact).
//!
//! The NIC-crossing transfers are tracked and reported as
//! [`SortReport::inter_node`]; with a [`Recorder`] attached, every node
//! gets its own track group (`node 0`, `node 1`, ...) with the four
//! phase spans, alongside the per-NIC link-utilization counters the flow
//! simulator already emits.
//!
//! [`Recorder`]: msort_trace::Recorder

use crate::exec::{DriverStep, SortDriver};
use crate::frame::{JobFrame, PlacementConfig};
use crate::het::HetConfig;
use crate::mwms::MwmsConfig;
use crate::p2p::P2pConfig;
use crate::report::{PhaseBreakdown, SortReport};
use crate::rp::RpConfig;
use crate::run::Algorithm;
use crate::sample::{Buckets, SampleSortConfig};
use msort_data::SortKey;
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId, Phase, StreamId};
use msort_sim::{GpuSortAlgo, SimTime};
use msort_topology::{ClusterLayout, Fabric, Platform};

/// Which single-node sort runs inside each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerAlgo {
    /// P2P sort (needs a power-of-two GPU count per node).
    P2p,
    /// RP sort.
    Rp,
    /// HET sort.
    Het,
    /// GPU sample sort.
    SampleSort,
    /// Multiway mergesort.
    MultiwayMerge,
}

impl InnerAlgo {
    /// Report label of the inner sort.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InnerAlgo::P2p => "P2P",
            InnerAlgo::Rp => "RP",
            InnerAlgo::Het => "HET",
            InnerAlgo::SampleSort => "sample",
            InnerAlgo::MultiwayMerge => "mwms",
        }
    }

    /// All inner algorithms, for sweeps.
    #[must_use]
    pub const fn all() -> [InnerAlgo; 5] {
        [
            InnerAlgo::P2p,
            InnerAlgo::Rp,
            InnerAlgo::Het,
            InnerAlgo::SampleSort,
            InnerAlgo::MultiwayMerge,
        ]
    }

    /// This family with its default knobs, placed by `placement`.
    #[must_use]
    pub fn placed(self, placement: PlacementConfig) -> Algorithm {
        match self {
            InnerAlgo::P2p => Algorithm::P2p(P2pConfig {
                placement,
                ..P2pConfig::new(0)
            }),
            InnerAlgo::Rp => Algorithm::Rp(RpConfig { placement }),
            InnerAlgo::Het => Algorithm::Het(HetConfig {
                placement,
                ..HetConfig::new(0)
            }),
            InnerAlgo::SampleSort => Algorithm::SampleSort(SampleSortConfig {
                placement,
                ..SampleSortConfig::new(0)
            }),
            InnerAlgo::MultiwayMerge => Algorithm::MultiwayMerge(MwmsConfig { placement }),
        }
    }
}

/// Configuration for [`cross_node_sort`].
#[derive(Debug, Clone)]
pub struct CrossNodeConfig {
    /// The single-node sort each node runs on its partition.
    pub inner: InnerAlgo,
    /// GPUs used per node (`None`: all of the node's GPUs).
    pub gpus_per_node: Option<usize>,
    /// Single-GPU sorting primitive for the inner sorts.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// Samples drawn per node per bucket for the global splitter
    /// selection.
    pub oversample: usize,
}

impl CrossNodeConfig {
    /// Default configuration: sample sort inside every node, all GPUs.
    #[must_use]
    pub fn new(inner: InnerAlgo) -> Self {
        Self {
            inner,
            gpus_per_node: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            oversample: 32,
        }
    }

    /// Use sampled fidelity with the given factor.
    #[must_use]
    pub fn sampled(mut self, scale: u64) -> Self {
        self.fidelity = Fidelity::Sampled { scale };
        self
    }

    /// Restrict each node to its first `g` GPUs.
    #[must_use]
    pub fn with_gpus_per_node(mut self, g: usize) -> Self {
        self.gpus_per_node = Some(g);
        self
    }
}

/// Where the driver is in the cross-node phase sequence.
enum CrossState {
    /// Nothing enqueued yet.
    Start,
    /// Scatter drained; splitter selection + partition + exchange next.
    Exchange,
    /// Exchange drained; inner sorts run in lockstep until all finish.
    InnerSorts,
    /// Inner sorts done; gather to the global output next.
    Gather,
    /// Gather enqueued; next step reads the output.
    Finishing,
    /// Output taken; nothing left to do.
    Finished,
}

/// Cross-node sort as a resumable [`SortDriver`]. On a single-node
/// platform (no [`ClusterLayout`]) it degenerates to one inner sort with
/// an idle node level.
pub struct CrossNodeDriver<K: SortKey> {
    frame: JobFrame<K>,
    layout: ClusterLayout,
    config: CrossNodeConfig,
    chunk: u64,
    scale: u64,
    /// Per node: staging buffer and partition scratch on its home socket.
    stage: Vec<(BufId, BufId)>,
    /// Per node: receive buffer for the bucket exchange.
    recv: Vec<BufId>,
    /// Per node: logical keys received in the exchange.
    recv_len: Vec<u64>,
    /// Per node: the inner sort, once constructed (`None`: empty bucket).
    inner: Vec<Option<Box<dyn SortDriver<K>>>>,
    inner_done: Vec<bool>,
    scatter_streams: Vec<StreamId>,
    gather_streams: Vec<StreamId>,
    host_stream: StreamId,
    /// Ops that crossed the inter-node fabric, for `inter_node`.
    nic_ops: Vec<OpId>,
    state: CrossState,
    t_scattered: SimTime,
    t_exchanged: SimTime,
    t_sorted: SimTime,
    exchanged_keys: u64,
    max_partition_keys: u64,
}

/// The effective node layout of `platform`: its [`ClusterLayout`], or a
/// synthetic one-node layout for single-box platforms.
fn effective_layout(platform: &Platform) -> ClusterLayout {
    platform.cluster.unwrap_or(ClusterLayout {
        nodes: 1,
        gpus_per_node: platform.gpu_count(),
        sockets_per_node: platform.topology.cpu_count(),
        nics_per_node: 0,
        fabric: Fabric::IbHdr,
    })
}

impl<K: SortKey> CrossNodeDriver<K> {
    /// Prepare a cross-node sort of `data` (physical payload for
    /// `logical_len` keys) on `sys`: import the input on socket 0 and
    /// pre-allocate the per-node staging buffers. Receive buffers are
    /// data-dependent and allocated after splitter selection; the inner
    /// sorts allocate their own device buffers when they start.
    ///
    /// # Panics
    /// Panics if `logical_len` is not divisible by `nodes × scale` (every
    /// node must stage whole samples) or if `config.fidelity` disagrees
    /// with the system's fidelity.
    pub fn new(
        sys: &mut GpuSystem<'_, K>,
        config: &CrossNodeConfig,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        let layout = effective_layout(sys.platform());
        let nodes = layout.nodes;
        let scale = config.fidelity.scale();
        assert!(
            logical_len.is_multiple_of(nodes as u64 * scale),
            "input length must divide evenly into {nodes} node chunks of whole samples"
        );
        if let Some(g) = config.gpus_per_node {
            assert!(
                g >= 1 && g <= layout.gpus_per_node,
                "gpus_per_node {g} exceeds the node's {} GPUs",
                layout.gpus_per_node
            );
        }
        let chunk = logical_len / nodes as u64;

        let mut frame = JobFrame::new(sys, config.fidelity, 0, data, logical_len);
        let stage: Vec<(BufId, BufId)> = (0..nodes)
            .map(|k| {
                let socket = layout.node_socket(k);
                (
                    frame.register(sys.world_mut().alloc_host(socket, chunk)),
                    frame.register(sys.world_mut().alloc_host(socket, chunk)),
                )
            })
            .collect();
        let scatter_streams: Vec<_> = (0..nodes).map(|_| sys.stream()).collect();
        let gather_streams: Vec<_> = (0..nodes).map(|_| sys.stream()).collect();
        let host_stream = sys.stream();

        Self {
            frame,
            layout,
            config: config.clone(),
            chunk,
            scale,
            stage,
            recv: Vec::with_capacity(nodes),
            recv_len: Vec::new(),
            inner: Vec::new(),
            inner_done: vec![false; nodes],
            scatter_streams,
            gather_streams,
            host_stream,
            nic_ops: Vec::new(),
            state: CrossState::Start,
            t_scattered: SimTime::ZERO,
            t_exchanged: SimTime::ZERO,
            t_sorted: SimTime::ZERO,
            exchanged_keys: 0,
            max_partition_keys: 0,
        }
    }

    /// GPUs used on each node.
    fn node_gpus(&self, node: usize) -> Vec<usize> {
        let g = self
            .config
            .gpus_per_node
            .unwrap_or(self.layout.gpus_per_node);
        self.layout.node_gpus(node).take(g).collect()
    }

    /// Build node `k`'s inner driver over its padded partition.
    fn build_inner(
        &self,
        sys: &mut GpuSystem<'_, K>,
        node: usize,
        data: Vec<K>,
        padded_len: u64,
    ) -> Box<dyn SortDriver<K>> {
        let set = self.node_gpus(node);
        let placement = PlacementConfig {
            gpus: set.len(),
            set: Some(set),
            algo: self.config.algo,
            fidelity: self.config.fidelity,
            home_socket: self.layout.node_socket(node),
        };
        self.config
            .inner
            .placed(placement)
            .driver(sys, data, padded_len)
    }

    /// Emit the per-node track groups once the run's phase times are known.
    fn record_node_tracks(&self, sys: &GpuSystem<'_, K>) {
        let rec = sys.recorder();
        if !rec.is_enabled() {
            return;
        }
        for k in 0..self.layout.nodes {
            let track = rec.track(&format!("node {k}"), "phases");
            for (name, from, to) in [
                ("scatter", self.frame.t0, self.t_scattered),
                ("exchange", self.t_scattered, self.t_exchanged),
                ("inner sort", self.t_exchanged, self.t_sorted),
                ("gather", self.t_sorted, self.frame.t_end),
            ] {
                if to > from {
                    rec.span(track, name, "cross-node", from.0, to.0);
                }
            }
        }
    }
}

impl<K: SortKey> SortDriver<K> for CrossNodeDriver<K> {
    fn step(&mut self, sys: &mut GpuSystem<'_, K>) -> DriverStep {
        let nodes = self.layout.nodes;
        match self.state {
            CrossState::Start => {
                // ---- Phase 1: scatter one chunk per node. ----
                self.frame.start(sys);
                let mut wait = Vec::with_capacity(nodes);
                for k in 0..nodes {
                    let op = sys.memcpy(
                        self.scatter_streams[k],
                        self.frame.host_in,
                        k as u64 * self.chunk,
                        self.stage[k].0,
                        0,
                        self.chunk,
                        &[],
                        Phase::HtoD,
                    );
                    if k != 0 {
                        self.nic_ops.push(op);
                    }
                    wait.push(op);
                }
                self.state = CrossState::Exchange;
                DriverStep::Wait(wait)
            }
            CrossState::Exchange => {
                self.t_scattered = sys.now();

                // ---- Phase 2a: global splitter selection over the staged
                // chunks. ----
                let views: Vec<&[K]> = (0..nodes)
                    .map(|k| sys.world().slice(self.stage[k].0, 0, self.chunk))
                    .collect();
                let buckets = Buckets::select(&views, nodes, self.config.oversample);
                drop(views);
                let split_op = buckets.selection(sys, self.host_stream, self.chunk);

                self.recv_len = buckets.received(self.scale);
                self.max_partition_keys = self.recv_len.iter().copied().max().unwrap_or(0);
                for (i, &len) in self.recv_len.iter().enumerate() {
                    let socket = self.layout.node_socket(i);
                    let buf = self.frame.register(sys.world_mut().alloc_host(socket, len));
                    self.recv.push(buf);
                }

                // ---- Phase 2b: host-side partition pass on every node. ----
                let part_ops: Vec<OpId> = (0..nodes)
                    .map(|k| {
                        sys.host_partition(
                            self.scatter_streams[k],
                            self.stage[k].0,
                            (0, self.chunk),
                            self.stage[k].1,
                            buckets.splitters.clone(),
                            &[split_op],
                        )
                    })
                    .collect();

                // ---- Phase 2c: all-to-all bucket exchange over the NICs.
                // Same-node buckets are local host copies. ----
                let src: Vec<BufId> = self.stage.iter().map(|s| s.0).collect();
                let ex = buckets.exchange(sys, self.scale, &src, &self.recv, &part_ops);
                self.exchanged_keys += ex.remote_keys;
                self.nic_ops.extend(ex.remote);
                let mut wait = vec![split_op];
                wait.extend(ex.ops);
                wait.extend(part_ops);
                self.state = CrossState::InnerSorts;
                DriverStep::Wait(wait)
            }
            CrossState::InnerSorts => {
                // First entry: hand each node its partition, padded to a
                // multiple of `gpus × scale` with copies of its maximum
                // key (truncated from the sorted tail before the gather).
                if self.inner.is_empty() {
                    self.t_exchanged = sys.now();
                    for k in 0..nodes {
                        let len = self.recv_len[k];
                        if len == 0 {
                            self.inner.push(None);
                            self.inner_done[k] = true;
                            continue;
                        }
                        let g = self.node_gpus(k).len() as u64;
                        let unit = g * self.scale;
                        let padded = len.div_ceil(unit) * unit;
                        let mut part: Vec<K> = sys.world().slice(self.recv[k], 0, len).to_vec();
                        if padded > len {
                            let pad_key = *part
                                .iter()
                                .max_by_key(|key| key.to_radix())
                                .expect("non-empty partition");
                            part.resize((padded / self.scale) as usize, pad_key);
                        }
                        let driver = self.build_inner(sys, k, part, padded);
                        self.inner.push(Some(driver));
                    }
                    // The exchange buffers are dead: the partitions now
                    // live in the inner sorts' own staging buffers.
                    for &(a, b) in &self.stage {
                        sys.world_mut().free(a);
                        sys.world_mut().free(b);
                    }
                    for &r in &self.recv {
                        sys.world_mut().free(r);
                    }
                }
                // ---- Phase 3: advance every unfinished inner sort one
                // step (lockstep: the returned waits of all nodes drain
                // before the next step, so the per-node pipelines overlap
                // in simulated time). ----
                let mut wait = Vec::new();
                for k in 0..nodes {
                    if self.inner_done[k] {
                        continue;
                    }
                    let driver = self.inner[k].as_mut().expect("unfinished inner driver");
                    match driver.step(sys) {
                        DriverStep::Wait(ops) => wait.extend(ops),
                        DriverStep::Done => self.inner_done[k] = true,
                    }
                }
                if wait.is_empty() && self.inner_done.iter().all(|&d| d) {
                    self.state = CrossState::Gather;
                    return self.step(sys);
                }
                DriverStep::Wait(wait)
            }
            CrossState::Gather => {
                // ---- Phase 4: concatenate the sorted partitions in node
                // order. Cross-node copies (k > 0) flow over the NICs. ----
                self.t_sorted = sys.now();
                let mut wait = Vec::new();
                let mut out_off = 0u64;
                for k in 0..nodes {
                    let len = self.recv_len[k];
                    let Some(driver) = self.inner[k].as_mut() else {
                        continue;
                    };
                    let mut sorted = driver.take_output();
                    debug_assert!(driver.validated(), "inner sort {k} failed validation");
                    sorted.truncate((len / self.scale) as usize);
                    driver.release(sys);
                    let socket = self.layout.node_socket(k);
                    let buf = self
                        .frame
                        .register(sys.world_mut().import_host(socket, sorted, len));
                    let op = sys.memcpy(
                        self.gather_streams[k],
                        buf,
                        0,
                        self.frame.host_out,
                        out_off,
                        len,
                        &[],
                        Phase::DtoH,
                    );
                    if k != 0 {
                        self.nic_ops.push(op);
                    }
                    out_off += len;
                    wait.push(op);
                }
                debug_assert_eq!(
                    out_off, self.frame.logical_len,
                    "buckets partition the input"
                );
                self.state = CrossState::Finishing;
                DriverStep::Wait(wait)
            }
            CrossState::Finishing => {
                self.state = CrossState::Finished;
                let done = self.frame.finish(sys);
                self.record_node_tracks(sys);
                done
            }
            CrossState::Finished => DriverStep::Done,
        }
    }

    fn report(&self, sys: &GpuSystem<'_, K>) -> SortReport {
        let gpus: Vec<usize> = (0..self.layout.nodes)
            .flat_map(|k| self.node_gpus(k))
            .collect();
        let phases = PhaseBreakdown {
            htod: self.t_scattered.since(self.frame.t0),
            // Splitter selection + host partition + node all-to-all.
            merge: self.t_exchanged.since(self.t_scattered),
            sort: self.t_sorted.since(self.t_exchanged),
            dtoh: self.frame.t_end.since(self.t_sorted),
        };
        let algorithm = format!("Cross-node sort ({} inner)", self.config.inner.name());
        SortReport {
            platform: sys.platform().name(),
            p2p_swapped_keys: self.exchanged_keys,
            max_partition_keys: self.max_partition_keys,
            inter_node: sys.ops_busy(&self.nic_ops),
            ..self.frame.report(sys, algorithm, gpus, phases)
        }
    }

    fn frame(&self) -> &JobFrame<K> {
        &self.frame
    }

    fn frame_mut(&mut self) -> &mut JobFrame<K> {
        &mut self.frame
    }

    fn release(&mut self, sys: &mut GpuSystem<'_, K>) {
        for driver in self.inner.iter_mut().flatten() {
            driver.release(sys);
        }
        self.frame.release(sys);
    }
}

/// Sort `data` (physical payload for `logical_len` keys) with the
/// cross-node sort.
///
/// # Panics
/// Panics if `logical_len` is not divisible by `nodes × scale`, or on the
/// shape constraints of the inner algorithm (e.g. P2P's power-of-two GPU
/// count).
pub fn cross_node_sort<K: SortKey>(
    platform: &Platform,
    config: &CrossNodeConfig,
    data: &mut Vec<K>,
    logical_len: u64,
) -> SortReport {
    crate::run::run_sort(
        platform,
        &crate::run::RunConfig::cross_node(config.clone()),
        data,
        logical_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_cluster::{dgx_a100_cluster, ibm_ac922_cluster};
    use msort_data::{generate, same_multiset, Distribution};
    use msort_sim::SimDuration;
    use msort_trace::groups;

    #[test]
    fn sorts_on_two_node_dgx_matching_single_node_reference() {
        let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
        let n: u64 = 1 << 14;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 42);

        let mut data = input.clone();
        let config = CrossNodeConfig::new(InnerAlgo::SampleSort);
        let report = cross_node_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert!(report.inter_node > SimDuration::ZERO);
        assert_eq!(report.gpus.len(), 16);

        // Bit-identical to the single-node reference sort of the same keys.
        let single = Platform::dgx_a100();
        let mut reference = input.clone();
        let ref_report = crate::sample::sample_sort(
            &single,
            &crate::sample::SampleSortConfig::new(8),
            &mut reference,
            n,
        );
        assert!(ref_report.validated);
        assert_eq!(data, reference);
    }

    #[test]
    fn all_inner_algorithms_sort() {
        let cluster = ibm_ac922_cluster(2, Fabric::Slingshot);
        let n: u64 = 1 << 13;
        for inner in InnerAlgo::all() {
            let input: Vec<u32> = generate(
                Distribution::ZipfDuplicates { skew_permille: 800 },
                n as usize,
                7,
            );
            let mut data = input.clone();
            let report = cross_node_sort(&cluster, &CrossNodeConfig::new(inner), &mut data, n);
            assert!(report.validated, "{inner:?}");
            assert!(same_multiset(&input, &data), "{inner:?}");
        }
    }

    #[test]
    fn four_node_cluster_exchanges_more_than_two_node() {
        let n: u64 = 1 << 14;
        let mut shares = Vec::new();
        for nodes in [2, 4] {
            let cluster = dgx_a100_cluster(nodes, Fabric::IbNdr);
            let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 3);
            let report = cross_node_sort(
                &cluster,
                &CrossNodeConfig::new(InnerAlgo::SampleSort),
                &mut data,
                n,
            );
            assert!(report.validated, "{nodes} nodes");
            shares.push(report.inter_node.as_secs_f64() / report.total.as_secs_f64());
        }
        assert!(
            shares[1] > shares[0],
            "inter-node share should grow with node count: {shares:?}"
        );
    }

    #[test]
    fn single_node_platform_degenerates_cleanly() {
        let p = Platform::dgx_a100();
        let n: u64 = 1 << 13;
        let input: Vec<u32> = generate(Distribution::Uniform, n as usize, 9);
        let mut data = input.clone();
        let report = cross_node_sort(&p, &CrossNodeConfig::new(InnerAlgo::Rp), &mut data, n);
        assert!(report.validated);
        assert!(same_multiset(&input, &data));
        assert_eq!(report.inter_node, SimDuration::ZERO);
    }

    #[test]
    fn sampled_fidelity_reaches_billions_of_keys() {
        // The scale-sampled path: 2^32 logical keys over a 2-node DGX
        // cluster with a 2^20 sampling factor — 4096 physical keys stand
        // in for ~4.3 billion logical ones.
        let cluster = dgx_a100_cluster(2, Fabric::IbNdr);
        let scale = 1u64 << 20;
        let n = 1u64 << 32;
        let mut data: Vec<u32> = generate(Distribution::Uniform, (n / scale) as usize, 13);
        let config = CrossNodeConfig::new(InnerAlgo::SampleSort).sampled(scale);
        let report = cross_node_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);
        assert!(report.keys >= 4_000_000_000);
        assert!(report.inter_node > SimDuration::ZERO);
        assert!(report.mkeys_per_sec() > 0.0);
    }

    #[test]
    fn trace_shows_nic_and_nvlink_counters_and_node_groups() {
        use crate::run::RunConfig;
        let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
        let recorder = msort_trace::Recorder::new();
        let config = RunConfig::cross_node(CrossNodeConfig::new(InnerAlgo::SampleSort))
            .with_recorder(recorder.clone());
        let n: u64 = 1 << 13;
        let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 5);
        let report = crate::run::run_sort(&cluster, &config, &mut data, n);
        assert!(report.validated);

        let data = recorder.snapshot().unwrap();
        // Per-NIC utilization counters alongside NVLink counters, in one
        // recording: counter series on the links track are named after the
        // link ("CPU 0 ⇄ Node 0 NIC 0", "GPU 3 ⇄ NVSwitch", ...).
        let link_series: Vec<&str> = data
            .events
            .iter()
            .filter(|e| data.track(e.track).group == groups::LINKS)
            .map(|e| e.name.as_str())
            .collect();
        assert!(
            link_series.iter().any(|n| n.contains("NIC")),
            "no NIC counters among {} link series",
            link_series.len()
        );
        assert!(
            link_series.iter().any(|n| n.contains("NVSwitch")),
            "no NVLink counters among {} link series",
            link_series.len()
        );
        // Per-node track groups with the cross-node phase spans.
        for k in 0..2 {
            let group = format!("node {k}");
            assert!(
                data.tracks.iter().any(|t| t.group == group),
                "missing track group {group}"
            );
        }
    }
}
