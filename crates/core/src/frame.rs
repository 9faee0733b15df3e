//! The frame every sort driver shares.
//!
//! Every sort the paper evaluates has the same shape: HtoD scatter, on-GPU
//! sort, merge or exchange, DtoH gather. The bookkeeping around that shape
//! is the same for every family, so it lives here once:
//!
//! * [`PlacementConfig`] — where a single-node sort runs: GPU count and
//!   (ordered) set, the single-GPU primitive, fidelity, and the home
//!   socket. The five single-node configs embed it and share its builders.
//! * [`JobFrame`] — one job's state around its phases: the host input and
//!   output, every buffer the driver allocates (freed as a set by an
//!   idempotent [`JobFrame::release`]), the start and end times, the
//!   reroute baseline, the output with its one sortedness check, and the
//!   [`SortReport`] fields every family fills the same way.
//!
//! A driver owns one frame and keeps only its phase state machine, its
//! [`PhaseBreakdown`], and its own counters.

use crate::exec::DriverStep;
use crate::gpuset::default_gpu_set;
use crate::report::{PhaseBreakdown, SortReport};
use msort_data::{is_sorted, SortKey};
use msort_gpu::{BufId, Fidelity, GpuSystem, OpId, Phase, StreamId};
use msort_sim::{GpuSortAlgo, SimDuration, SimTime};
use msort_topology::Platform;

/// Where a single-node sort runs. Embedded by [`crate::P2pConfig`],
/// [`crate::RpConfig`], [`crate::HetConfig`], [`crate::SampleSortConfig`]
/// and [`crate::MwmsConfig`].
#[derive(Debug, Clone)]
pub struct PlacementConfig {
    /// Number of GPUs.
    pub gpus: usize,
    /// Explicit ordered GPU set. The default is the paper's
    /// [`default_gpu_set`] for a power-of-two count, else the first
    /// `gpus` GPUs. Order matters to P2P sort's merge pairing and to
    /// multiway mergesort's merge tree.
    pub set: Option<Vec<usize>>,
    /// Single-GPU sorting primitive for the on-GPU sorts.
    pub algo: GpuSortAlgo,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
    /// NUMA socket whose host memory stages the input and output (0 on
    /// single-node platforms; the cross-node driver points each inner sort
    /// at its node's home socket).
    pub home_socket: usize,
}

impl PlacementConfig {
    /// `gpus` GPUs from the default set, Thrust-like sorts, full fidelity,
    /// socket 0.
    #[must_use]
    pub fn new(gpus: usize) -> Self {
        Self {
            gpus,
            set: None,
            algo: GpuSortAlgo::ThrustLike,
            fidelity: Fidelity::Full,
            home_socket: 0,
        }
    }

    /// The GPUs to run on, in order: the explicit set, else the default.
    ///
    /// # Panics
    /// Panics if the set does not list exactly `gpus` GPUs, or if the
    /// platform has fewer than `gpus` GPUs.
    #[must_use]
    pub(crate) fn resolve(&self, platform: &Platform) -> Vec<usize> {
        let g = self.gpus;
        let order = self.set.clone().unwrap_or_else(|| {
            if g.is_power_of_two() {
                default_gpu_set(platform, g)
            } else {
                (0..g).collect()
            }
        });
        assert_eq!(order.len(), g, "the GPU set must list exactly `gpus` GPUs");
        order
    }
}

/// The [`PlacementConfig`] builders, generated once for every config that
/// embeds one as its `placement` field.
macro_rules! placement_builders {
    ($config:ty) => {
        impl $config {
            /// Use sampled fidelity with the given factor.
            #[must_use]
            pub fn sampled(mut self, scale: u64) -> Self {
                self.placement.fidelity = msort_gpu::Fidelity::Sampled { scale };
                self
            }

            /// Use an explicit ordered GPU set.
            #[must_use]
            pub fn with_set(mut self, set: Vec<usize>) -> Self {
                self.placement.set = Some(set);
                self
            }

            /// Stage host buffers on `socket` instead of socket 0.
            #[must_use]
            pub fn with_home_socket(mut self, socket: usize) -> Self {
                self.placement.home_socket = socket;
                self
            }
        }
    };
}
pub(crate) use placement_builders;

/// One job's state around its phases. See the [module docs](self).
/// Drivers build and update it; callers reach it through the
/// [`SortDriver`](crate::SortDriver) methods.
pub struct JobFrame<K: SortKey> {
    /// Logical keys sorted.
    pub(crate) logical_len: u64,
    /// The imported input.
    pub(crate) host_in: BufId,
    /// Where the gather writes the sorted output.
    pub(crate) host_out: BufId,
    /// Every buffer the job allocated, freed together by `release`.
    bufs: Vec<BufId>,
    /// When the first phase was enqueued.
    pub(crate) t0: SimTime,
    /// When the last phase drained.
    pub(crate) t_end: SimTime,
    reroutes_at_start: u64,
    output: Option<Vec<K>>,
    validated: bool,
    released: bool,
}

impl<K: SortKey> JobFrame<K> {
    /// Import `data` (the physical payload of `logical_len` keys) and
    /// allocate the output, both on `home_socket`.
    ///
    /// # Panics
    /// Panics if `fidelity` disagrees with the system's.
    pub(crate) fn new(
        sys: &mut GpuSystem<'_, K>,
        fidelity: Fidelity,
        home_socket: usize,
        data: Vec<K>,
        logical_len: u64,
    ) -> Self {
        assert_eq!(
            fidelity.scale(),
            sys.world().scale(),
            "driver fidelity must match the system's"
        );
        let host_in = sys.world_mut().import_host(home_socket, data, logical_len);
        let host_out = sys.world_mut().alloc_host(home_socket, logical_len);
        Self::with_buffers(sys, logical_len, host_in, host_out)
    }

    /// Import `data` on socket 0 for a sort that works in place: the
    /// output is read back from the input buffer.
    pub(crate) fn in_place(sys: &mut GpuSystem<'_, K>, data: Vec<K>, logical_len: u64) -> Self {
        let host = sys.world_mut().import_host(0, data, logical_len);
        Self::with_buffers(sys, logical_len, host, host)
    }

    fn with_buffers(
        sys: &GpuSystem<'_, K>,
        logical_len: u64,
        host_in: BufId,
        host_out: BufId,
    ) -> Self {
        Self {
            logical_len,
            host_in,
            host_out,
            bufs: vec![host_in, host_out],
            t0: SimTime::ZERO,
            t_end: SimTime::ZERO,
            reroutes_at_start: sys.rerouted_transfers(),
            output: None,
            validated: false,
            released: false,
        }
    }

    /// Register a buffer the job allocated, to be freed by `release`.
    pub(crate) fn register(&mut self, buf: BufId) -> BufId {
        self.bufs.push(buf);
        buf
    }

    /// Start the clock: call when the first phase is enqueued.
    pub(crate) fn start(&mut self, sys: &GpuSystem<'_, K>) {
        self.t0 = sys.now();
    }

    /// Stop the clock, read the output, and check it is sorted — the one
    /// validation every driver shares.
    pub(crate) fn finish(&mut self, sys: &GpuSystem<'_, K>) -> DriverStep {
        self.t_end = sys.now();
        let output = sys.world().buffer(self.host_out).data.clone();
        self.validated = is_sorted(&output);
        self.output = Some(output);
        DriverStep::Done
    }

    /// Take the sorted output (physical payload).
    ///
    /// # Panics
    /// Panics before [`JobFrame::finish`] or on a second call.
    pub(crate) fn take_output(&mut self) -> Vec<K> {
        self.output.take().expect("the sort has not finished")
    }

    /// Whether the output was verified sorted.
    #[must_use]
    pub(crate) fn validated(&self) -> bool {
        self.validated
    }

    /// Free every buffer the job allocated. Idempotent, and safe after
    /// buffers were already freed mid-run (`free` is idempotent too).
    pub(crate) fn release(&mut self, sys: &mut GpuSystem<'_, K>) {
        if self.released {
            return;
        }
        self.released = true;
        for &buf in &self.bufs {
            sys.world_mut().free(buf);
        }
    }

    /// The report fields every family fills the same way; family counters
    /// start at zero for the caller to fill in.
    #[must_use]
    pub(crate) fn report(
        &self,
        sys: &GpuSystem<'_, K>,
        algorithm: impl Into<String>,
        gpus: Vec<usize>,
        phases: PhaseBreakdown,
    ) -> SortReport {
        SortReport {
            algorithm: algorithm.into(),
            platform: sys.platform().id.name().into(),
            gpus,
            keys: self.logical_len,
            bytes: self.logical_len * K::DATA_TYPE.key_bytes(),
            total: self.t_end.since(self.t0),
            phases,
            validated: self.validated,
            p2p_swapped_keys: 0,
            rerouted_transfers: sys.rerouted_transfers() - self.reroutes_at_start,
            max_partition_keys: 0,
            inter_node: SimDuration::ZERO,
        }
    }
}

/// A driver's streams: one copy stream per direction and one compute
/// stream per GPU, plus one host-side stream (pivot or splitter selection,
/// CPU merges).
pub(crate) struct Streams {
    pub(crate) copy_in: Vec<StreamId>,
    pub(crate) copy_out: Vec<StreamId>,
    pub(crate) compute: Vec<StreamId>,
    pub(crate) host: StreamId,
}

impl Streams {
    pub(crate) fn new<K: SortKey>(sys: &mut GpuSystem<'_, K>, g: usize) -> Self {
        Self {
            copy_in: (0..g).map(|_| sys.stream()).collect(),
            copy_out: (0..g).map(|_| sys.stream()).collect(),
            compute: (0..g).map(|_| sys.stream()).collect(),
            host: sys.stream(),
        }
    }
}

/// Phase 1 of P2P sort, RP sort and multiway mergesort: every GPU copies
/// its chunk of the input in and sorts it locally.
pub(crate) struct LocalSorts {
    algo: GpuSortAlgo,
    htod: Vec<OpId>,
    sort: Vec<OpId>,
}

impl LocalSorts {
    pub(crate) fn new(algo: GpuSortAlgo) -> Self {
        Self {
            algo,
            htod: Vec::new(),
            sort: Vec::new(),
        }
    }

    /// Copy chunk `i` (`chunk` keys of `host_in`) into `bufs[i].0` on
    /// `copy_in[i]` and sort it there on `compute[i]` with scratch
    /// `bufs[i].1`. Returns the sorts to wait for.
    pub(crate) fn enqueue<K: SortKey>(
        &mut self,
        sys: &mut GpuSystem<'_, K>,
        host_in: BufId,
        chunk: u64,
        copy_in: &[StreamId],
        compute: &[StreamId],
        bufs: impl IntoIterator<Item = (BufId, BufId)>,
    ) -> Vec<OpId> {
        for (i, (data, aux)) in bufs.into_iter().enumerate() {
            let offset = i as u64 * chunk;
            let up = sys.memcpy(
                copy_in[i],
                host_in,
                offset,
                data,
                0,
                chunk,
                &[],
                Phase::HtoD,
            );
            let so = sys.gpu_sort(compute[i], self.algo, data, (0, chunk), aux, &[up]);
            self.htod.push(up);
            self.sort.push(so);
        }
        self.sort.clone()
    }

    /// Split the phase's `window` between HtoD and sort by this job's
    /// busy times: the copies and sorts overlap across GPUs.
    pub(crate) fn split<K: SortKey>(
        &self,
        sys: &GpuSystem<'_, K>,
        window: SimDuration,
    ) -> [SimDuration; 2] {
        split_by_busy(window, [sys.ops_busy(&self.htod), sys.ops_busy(&self.sort)])
    }
}

/// Split a window of overlapping phases proportionally to their busy
/// times. The last phase takes the rounding remainder; with no busy time
/// at all, the first takes the whole window.
pub(crate) fn split_by_busy<const N: usize>(
    window: SimDuration,
    busy: [SimDuration; N],
) -> [SimDuration; N] {
    let denom: u64 = busy.iter().map(|b| b.0).sum();
    let mut parts = [SimDuration::ZERO; N];
    if denom == 0 {
        parts[0] = window;
        return parts;
    }
    let mut rest = window.0;
    for (part, b) in parts.iter_mut().zip(&busy).take(N - 1) {
        part.0 = (u128::from(window.0) * u128::from(b.0) / u128::from(denom)) as u64;
        rest -= part.0;
    }
    parts[N - 1] = SimDuration(rest);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use msort_topology::Platform;

    #[test]
    fn unsorted_output_is_not_validated() {
        let p = Platform::dgx_a100();
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let mut frame = JobFrame::in_place(&mut sys, vec![3, 1, 2], 3);
        frame.start(&sys);
        assert!(matches!(frame.finish(&sys), DriverStep::Done));
        assert!(!frame.validated());
        assert_eq!(frame.take_output(), vec![3, 1, 2]);
        let report = frame.report(&sys, "test", Vec::new(), PhaseBreakdown::default());
        assert!(!report.validated);
    }

    #[test]
    fn release_frees_registered_buffers_once() {
        let p = Platform::dgx_a100();
        let mut sys: GpuSystem<'_, u32> = GpuSystem::new(&p, Fidelity::Full);
        let before = sys.world().gpu_free_bytes(0);
        let mut frame = JobFrame::new(&mut sys, Fidelity::Full, 0, vec![1, 2], 2);
        let buf = frame.register(sys.world_mut().alloc_gpu(0, 1024));
        // A buffer freed mid-run stays registered; freeing again is a no-op.
        sys.world_mut().free(buf);
        frame.register(sys.world_mut().alloc_gpu(0, 1024));
        assert!(sys.world().gpu_free_bytes(0) < before);
        frame.release(&mut sys);
        frame.release(&mut sys);
        assert_eq!(sys.world().gpu_free_bytes(0), before);
    }
}
