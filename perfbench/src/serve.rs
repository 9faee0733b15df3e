//! `serve_steady` and `serve_traced`: `SortService` on the DGX A100 under
//! open-loop arrivals.
//!
//! * `serve_steady` — `serve_scale`'s tiny-job mix at sampled ×64, SJF,
//!   fixed fleet, unbounded queue, recorder off, Poisson arrivals at about
//!   65% of simulated capacity. The scheduler, the `GpuSystem` event loop
//!   and FlowSim do the per-job work; kernels touch at most 128 keys a job.
//! * `serve_traced` — five tenants, one family and gang size each,
//!   weighted-fair queue, elastic fleet, bursty (MMPP) arrivals, a seeded
//!   link fault, and an enabled `Recorder` whose snapshot is exported as a
//!   Chrome trace. The recorder dominates.

use crate::spans::Tracer;
use crate::workload::{PassOut, Size, Variant, Workload};
use msort_core::RunConfig;
use msort_data::Rng;
use msort_serve::{
    ArrivalProcess, JobAlgo, JobMix, OpenLoop, QueuePolicy, ServeConfig, ServiceReport, SortJob,
    SortService, TenantId, TraceWorkload, Workload as _,
};
use msort_sim::{FaultPlan, SimDuration, SimTime};
use msort_topology::{LinkId, Platform};
use msort_trace::{chrome_trace, groups, json_valid, summarize, Recorder, TraceData};
use std::collections::BTreeMap;

const SCALE: u64 = 64;

/// `serve_steady`'s offered rate: about 65% of the ~380k jobs/s the DGX
/// completes of this mix, so host cost per job does not depend on run
/// length.
const STEADY_RATE: f64 = 250_000.0;

/// `serve_steady`'s guard on the queue: far above what a stable queue at
/// 65% load reaches, far below what an overloaded one does.
const STEADY_MAX_DEPTH: usize = 512;

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_steady`.
    Steady,
    /// `serve_traced`.
    Traced,
}

/// See the [module docs](self).
pub struct Serve<'p> {
    kind: Kind,
    platform: &'p Platform,
    config: ServeConfig,
    /// The open-loop arrivals, generated from the seed at set-up.
    arrivals: Vec<(SimTime, SortJob)>,
    /// The next pass's service and its recorder (disabled when the pass
    /// does not record).
    next: Option<(SortService<'p, u32>, Recorder)>,
    /// The last recording, for the summarize probe.
    last: Option<TraceData>,
}

/// `serve_scale`'s mix: tiny one-GPU jobs, an occasional two-GPU one.
fn steady_mix() -> JobMix {
    JobMix::of(
        SortJob::new(TenantId(0), 1 << 12)
            .with_gpus(1)
            .interactive(),
    )
    .and(
        SortJob::new(TenantId(1), 1 << 12)
            .with_gpus(1)
            .with_algo(JobAlgo::SampleSort),
        0.7,
    )
    .and(SortJob::new(TenantId(2), 1 << 13).with_gpus(2), 0.2)
}

/// Five tenants, each its own family and gang size.
fn traced_mix() -> JobMix {
    let job = |tenant, algo, gpus| {
        SortJob::new(TenantId(tenant), 3 << 16)
            .with_algo(algo)
            .with_gpus(gpus)
    };
    JobMix::of(job(0, JobAlgo::P2p, 4))
        .and(job(1, JobAlgo::Rp, 2), 1.0)
        .and(job(2, JobAlgo::Het, 1), 1.0)
        .and(job(3, JobAlgo::SampleSort, 3), 1.0)
        .and(job(4, JobAlgo::MultiwayMerge, 2), 1.0)
}

/// A seeded fault plan that fires while `serve_traced` runs: one GPU's
/// NVSwitch uplink goes down and comes back, another GPU's uplink
/// degrades. Transfers reroute over PCIe meanwhile.
fn traced_faults(platform: &Platform, seed: u64, horizon: SimDuration) -> FaultPlan {
    let topo = &platform.topology;
    let uplink = |gpu: usize| {
        let node = topo.gpu(gpu);
        (0..topo.links().len())
            .map(LinkId)
            .find(|&l| topo.link(l).a == node || topo.link(l).b == node)
            .expect("every GPU has a link")
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xFA17);
    let gpu = rng.below(platform.gpu_count() as u64) as usize;
    let at = |rng: &mut Rng, lo: f64, span: f64| {
        SimTime((horizon.0 as f64 * (lo + span * rng.f64())) as u64)
    };
    let down = at(&mut rng, 0.05, 0.25);
    let back = SimTime(down.0 + at(&mut rng, 0.1, 0.2).0);
    let degrade = at(&mut rng, 0.1, 0.4);
    let factor = 0.3 + 0.4 * rng.f64();
    FaultPlan::new()
        .link_down(down, uplink(gpu))
        .link_degrade(degrade, uplink((gpu + 4) % platform.gpu_count()), factor)
        .link_restore(back, uplink(gpu))
}

/// A workload whose `next_arrival` calls are `serve.arrivals` spans.
struct Timed<'t, W> {
    inner: W,
    t: &'t Tracer,
}

impl<W: msort_serve::Workload> msort_serve::Workload for Timed<'_, W> {
    fn next_arrival(&mut self) -> Option<(SimTime, SortJob)> {
        self.t
            .call("serve.arrivals", "", || self.inner.next_arrival())
    }
}

impl<'p> Serve<'p> {
    /// Build the configuration, the arrivals and the first pass's service
    /// on `platform`.
    #[must_use]
    pub fn setup(kind: Kind, platform: &'p Platform, seed: u64, size: Size, t: &Tracer) -> Self {
        let (config, process, mix, jobs) = match kind {
            Kind::Steady => (
                ServeConfig::new()
                    .sampled(SCALE)
                    .with_policy(QueuePolicy::Sjf)
                    .with_max_queue_depth(usize::MAX),
                ArrivalProcess::Poisson { rate: STEADY_RATE },
                steady_mix(),
                match size {
                    Size::Full => 12_000,
                    Size::Tiny => 300,
                },
            ),
            Kind::Traced => {
                let horizon = SimDuration::from_millis(30);
                let mut config = ServeConfig::new()
                    .with_policy(QueuePolicy::WeightedFair)
                    .with_max_queue_depth(usize::MAX)
                    .elastic(2, SimDuration::from_micros(500))
                    .with_run(
                        RunConfig::new()
                            .sampled(SCALE)
                            .with_faults(traced_faults(platform, seed, horizon)),
                    );
                for (tenant, weight) in [(0, 2.0), (1, 1.0), (2, 1.0), (3, 1.5), (4, 0.5)] {
                    config = config.with_weight(TenantId(tenant), weight);
                }
                let process = ArrivalProcess::Bursty {
                    base_rate: 5_000.0,
                    burst_rate: 60_000.0,
                    mean_calm: SimDuration::from_millis(4),
                    mean_burst: SimDuration::from_millis(1),
                };
                let jobs = match size {
                    Size::Full => 600,
                    Size::Tiny => 60,
                };
                (config, process, traced_mix(), jobs)
            }
        };
        let arrivals = t.aside("serve.generate", "", || {
            OpenLoop::new(process, mix, jobs, seed).collect_arrivals()
        });
        let mut serve = Self {
            kind,
            platform,
            config,
            arrivals,
            next: None,
            last: None,
        };
        serve.next = Some(serve.service(t, kind == Kind::Traced));
        serve
    }

    fn service(&self, t: &Tracer, record: bool) -> (SortService<'p, u32>, Recorder) {
        t.aside("serve.new", "", || {
            let recorder = if record {
                Recorder::new()
            } else {
                Recorder::disabled()
            };
            let config = self.config.clone().with_recorder(recorder.clone());
            (SortService::new(self.platform, config), recorder)
        })
    }

    fn check(&self, out: &mut PassOut, report: &ServiceReport) {
        let depth = report
            .queue_depth
            .iter()
            .map(|&(_, d)| d)
            .max()
            .unwrap_or(0);
        let shed = report.shed_jobs();
        let rejected = report.rejected.len() as u64 - shed;
        out.offered += report.offered_jobs();
        for o in &report.outcomes {
            if o.validated {
                out.ok += 1;
                out.keys += o.keys / SCALE;
            }
        }
        out.check(report.all_validated(), || "a job failed validation".into());
        out.check(report.rejected.is_empty(), || {
            format!(
                "{rejected} jobs rejected and {shed} shed, first for {:?}",
                report.rejected[0].reason
            )
        });
        if self.kind == Kind::Steady {
            out.check(depth <= STEADY_MAX_DEPTH, || {
                format!("queue reached {depth} > {STEADY_MAX_DEPTH}: the load is over capacity")
            });
        } else {
            let mut sizes: Vec<usize> = report.fleet_size.iter().map(|&(_, s)| s).collect();
            sizes.sort_unstable();
            sizes.dedup();
            out.check(sizes.len() > 1, || {
                "the elastic fleet never changed size".into()
            });
        }
        out.digest.service(report);
        for (key, value) in [
            ("serve.completed", report.outcomes.len() as f64),
            ("serve.rejected", rejected as f64),
            ("serve.shed", shed as f64),
            ("serve.queue_depth_max", depth as f64),
            ("serve.mean_fleet", report.mean_fleet_size()),
            ("serve.p50_ns", report.p50_latency().0 as f64),
            ("serve.p99_ns", report.p99_latency().0 as f64),
            ("serve.makespan_ns", report.makespan.0 as f64),
        ] {
            out.set(key, value);
        }
    }
}

impl Workload for Serve<'_> {
    fn pass(&mut self, t: &Tracer, variant: Variant) -> PassOut {
        let record = self.kind == Kind::Traced && variant == Variant::Measured;
        t.aside("trace.drop", "", || drop(self.last.take()));
        let (service, recorder) = match self.next.take() {
            Some(prepared) if prepared.1.is_enabled() == record => prepared,
            _ => self.service(t, record),
        };
        let workload = t.aside("serve.workload", "", || Timed {
            inner: TraceWorkload::new(self.arrivals.clone()),
            t,
        });
        t.next_sort();
        let report = t.call("serve.serve", "", || service.serve(workload));
        let mut out = PassOut::default();
        if record {
            let data = t
                .call("trace.snapshot", "", || recorder.snapshot())
                .expect("the recorder is enabled");
            let json = t.call("trace.export", "", || chrome_trace(&data));
            t.aside("trace.check", "", || {
                out.check(json_valid(&json), || {
                    "the exported trace is not valid JSON".into()
                });
                let faults = data.events_in_group(groups::FAULTS).count();
                out.check(faults > 0, || "no fault fired during the run".into());
                for (key, group) in [
                    ("trace.events.gpu", groups::GPU),
                    ("trace.events.links", groups::LINKS),
                    ("trace.events.flows", groups::FLOWS),
                    ("trace.events.faults", groups::FAULTS),
                    ("trace.events.service", groups::SERVICE),
                ] {
                    out.set(key, data.events_in_group(group).count() as f64);
                }
                out.set("trace.events", data.events.len() as f64);
                out.set("trace.tracks", data.tracks.len() as f64);
                out.set("trace.json_bytes", json.len() as f64);
            });
            self.last = Some(data);
            t.aside("trace.drop", "", || drop((json, recorder)));
        }
        t.aside("serve.check", "", || self.check(&mut out, &report));
        t.aside("serve.drop", "", || drop(report));
        out
    }

    fn records(&self) -> bool {
        self.kind == Kind::Traced
    }

    fn probes(&mut self, t: &Tracer) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        if let Some(data) = &self.last {
            let secs = crate::workload::probe(t, "trace.summarize", 3, || {
                std::hint::black_box(summarize(data));
            });
            out.insert("trace.summarize_s".to_owned(), secs);
        }
        out
    }
}
