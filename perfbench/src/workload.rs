//! What every workload provides, and the sort-driving loop they share.

use crate::gate::Digest;
use crate::spans::Tracer;
use msort_core::{drive, DriverStep, SortDriver, SortReport};
use msort_gpu::GpuSystem;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sort families, in report order; `cross_node` is the cluster sort.
pub const FAMILIES: [&str; 6] = ["p2p", "rp", "het", "sample", "mwms", "cross_node"];

/// Input sizes: `Full` is the benchmark, `Tiny` keeps the benchmark's own
/// tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined with.
    Full,
    /// Minimal sizes for tests of the benchmark itself.
    Tiny,
}

impl Size {
    /// The name used on the command line and in `digests.txt`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One pass's countable outcome. Host time is measured by the runner.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Sorts offered (single sorts, or serve jobs).
    pub offered: u64,
    /// Sorts completed and validated.
    pub ok: u64,
    /// Physical keys in the validated sorts.
    pub keys: u64,
    /// Digest of the pass's simulated statistics.
    pub digest: Digest,
    /// Per-layer counts and simulated values of this pass.
    pub values: BTreeMap<String, f64>,
    /// Guards the pass broke; any entry invalidates the run.
    pub problems: Vec<String>,
}

impl PassOut {
    /// Account one single sort of `keys` physical keys.
    pub fn sort(&mut self, family: &str, run: &SortRun, valid: bool, keys: u64) {
        self.offered += 1;
        if valid && run.report.validated {
            self.ok += 1;
            self.keys += keys;
        } else {
            self.problems
                .push(format!("{family}: output failed validation"));
        }
        self.digest.sort(&run.report);
        self.set(format!("core.steps.{family}"), run.steps as f64);
        self.set(format!("core.waited_ops.{family}"), run.waited as f64);
        self.set(format!("sim.total_ns.{family}"), run.report.total.0 as f64);
    }

    /// Set a per-layer value.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Record a broken guard.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// How a pass runs. Only `serve_traced` distinguishes them: the
/// recorder-off pass prices the recorder (`trace.overhead_x`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Measured,
    /// The same workload with the program's recorder disabled.
    RecorderOff,
}

/// A benchmark workload: built by its `setup` (timed as `setup_s`), then
/// run pass after pass.
pub trait Workload {
    /// Run one pass: every program call through `t.call`, every
    /// benchmark-side step through `t.aside`.
    fn pass(&mut self, t: &Tracer, variant: Variant) -> PassOut;

    /// Whether the workload has a recorder to switch off.
    fn records(&self) -> bool {
        false
    }

    /// One-off probes of single layers, run only when tracing.
    fn probes(&mut self, _t: &Tracer) -> BTreeMap<String, f64> {
        BTreeMap::new()
    }
}

/// A finished single sort.
pub struct SortRun {
    /// The driver's report.
    pub report: SortReport,
    /// The sorted physical payload.
    pub output: Vec<u32>,
    /// `step` calls (counted only when tracing).
    pub steps: u64,
    /// Ops the driver waited on, summed over its steps (counted only when
    /// tracing).
    pub waited: u64,
}

/// Run one driver to completion on `sys`. Untraced, this is
/// `msort_core::drive`. Traced, it is the same loop with each `step` and
/// `run_until` as its own call, so simulated results are bit-identical
/// either way (the per-pass digest check holds the two together).
pub fn run_driver<'p>(
    t: &Tracer,
    family: &'static str,
    sys: &mut GpuSystem<'p, u32>,
    new: impl FnOnce(&mut GpuSystem<'p, u32>) -> Box<dyn SortDriver<u32> + 'p>,
) -> SortRun {
    let mut driver = t.call("core.new", family, || new(sys));
    let (mut steps, mut waited) = (0, 0);
    if t.enabled() {
        loop {
            steps += 1;
            match t.call("core.step", family, || driver.step(sys)) {
                DriverStep::Done => break,
                DriverStep::Wait(mut ops) => {
                    waited += ops.len() as u64;
                    loop {
                        ops.retain(|&o| !sys.op_done(o));
                        if ops.is_empty() {
                            break;
                        }
                        t.call("gpu.run_until", family, || sys.run_until(&ops, None));
                    }
                }
            }
        }
    } else {
        drive(sys, &mut *driver);
    }
    let report = t.call("core.report", family, || driver.report(sys));
    let output = t.call("core.take_output", family, || driver.take_output());
    t.aside("core.drop", family, || drop(driver));
    SortRun {
        report,
        output,
        steps,
        waited,
    }
}

/// Median seconds of `reps` runs of `f`, each a `name` call: the one-off
/// layer probes of the traced run.
pub fn probe(t: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            t.call(name, "", &mut f);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut secs)
}
