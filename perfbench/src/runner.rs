//! One benchmark run: gate, repeated set-up, timed passes, metrics.
//!
//! An untraced run measures in [`PROCESSES`] child processes of this
//! binary, one after another, each set up afresh and given an equal share
//! of `--seconds`. Host time of one unchanged program differs from process
//! to process by 10–30% on a shared virtual machine (placement of its
//! memory, which host core its CPUs land on), while passes within one
//! process agree far better; medians over passes pooled from several
//! processes are what make two runs comparable. A traced run measures in
//! its own process, because its spans stay in memory.

use crate::gate::{experiments, paper_rows, recorded, verify, PaperRows, PINNED_SEED};
use crate::metrics::{end_to_end, per_layer};
use crate::scaleout::{cluster, Scaleout};
use crate::serve::{Kind, Serve};
use crate::sort_full::SortFull;
use crate::spans::{chrome_json, covered, self_times, totals, Span, Tracer};
use crate::stats::{median, peak_rss_mb, steal_since, CpuSample};
use crate::workload::{Size, Variant, Workload, FAMILIES};
use msort_topology::Platform;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

/// Child processes an untraced run measures in.
pub const PROCESSES: usize = 4;

/// Set-up samples each measuring process takes after its passes.
const SETUP_SAMPLES: usize = 5;

/// Least time one set-up sample spends building (at least one set-up).
const SETUP_BATCH: Duration = Duration::from_millis(20);

/// The workloads, in the order the docs describe them.
pub const WORKLOADS: [&str; 4] = ["sort_full", "serve_steady", "serve_traced", "sim_scaleout"];

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the inputs, the arrivals and the fault plan.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics from spans.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

impl Args {
    /// The arguments of one measuring child process.
    fn child_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            (self.seconds / PROCESSES as f64).to_string(),
            "--size".into(),
            self.size.name().into(),
            "--child".into(),
        ]
    }
}

/// A run's result.
#[derive(Debug)]
pub struct Outcome {
    /// The gate held: digest matched, outputs validated, guards passed.
    pub correct: bool,
    /// Sorts offered, gate pass included.
    pub attempted: u64,
    /// Offered sorts that were not completed and validated.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why the run is not correct.
    pub problems: Vec<String>,
    /// Digest of the gate pass and the paper rows.
    pub digest: u64,
    /// The digest it was checked against.
    pub expected: Option<u64>,
    /// Wall seconds of each timed pass, in run order, steal included.
    pub walls: Vec<f64>,
    /// Share of each pass's busy CPU time the hypervisor took.
    pub steal: Vec<f64>,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
    /// Paper rows the gate reproduced.
    pub paper_rows: u64,
    /// The traced run's spans, as a Chrome trace.
    pub spans_json: Option<String>,
}

/// The platform `workload` runs on: the 32-node cluster for
/// `sim_scaleout`, the DGX A100 for the others.
fn platform(workload: &str, size: Size, t: &Tracer) -> Platform {
    if workload == "sim_scaleout" {
        t.aside("cluster.build", "", || cluster(size))
    } else {
        t.aside("topology.platform", "", Platform::dgx_a100)
    }
}

fn setup<'p>(
    workload: &str,
    platform: &'p Platform,
    seed: u64,
    size: Size,
    t: &Tracer,
) -> Box<dyn Workload + 'p> {
    match workload {
        "sort_full" => Box::new(SortFull::setup(platform, seed, size, t)),
        "serve_steady" => Box::new(Serve::setup(Kind::Steady, platform, seed, size, t)),
        "serve_traced" => Box::new(Serve::setup(Kind::Traced, platform, seed, size, t)),
        "sim_scaleout" => Box::new(Scaleout::setup(platform, seed, size, t)),
        other => unreachable!("unknown workload {other}"),
    }
}

/// One timed pass.
#[derive(Debug, Default)]
struct Pass {
    spans: bool,
    variant: Option<Variant>,
    /// Seconds inside the program's calls, less the stolen share.
    wall: f64,
    /// Seconds inside the program's calls.
    raw_wall: f64,
    /// Share of the pass's busy CPU time the hypervisor took.
    steal: f64,
    offered: u64,
    ok: u64,
    keys: u64,
    digest: u64,
    /// Per-layer values of a traced pass.
    layer: BTreeMap<String, f64>,
}

/// What one or more processes measured.
#[derive(Default)]
struct Measured {
    passes: Vec<Pass>,
    /// Seconds per set-up, one batch mean a sample, less the stolen share.
    setup_secs: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    problems: Vec<String>,
    /// Spans of the set-up the passes ran on.
    setup_spans: Vec<Span>,
    /// Spans of the last traced pass and of the probes.
    spans: Vec<Span>,
    probes: BTreeMap<String, f64>,
}

/// Set up, run passes for `args.seconds`, read the peak memory, drop the
/// workload, then time set-ups.
fn measure(args: &Args, t: &Tracer) -> Measured {
    let mut m = Measured::default();
    {
        // The set-up the passes run on, traced when tracing.
        t.set_enabled(args.trace);
        let platform = platform(&args.workload, args.size, t);
        let mut workload = setup(&args.workload, &platform, args.seed, args.size, t);
        m.setup_spans = t.take();

        // Round-robin over the run's variants.
        let mut schedule = vec![(args.trace, Variant::Measured)];
        if args.trace {
            schedule.push((false, Variant::Measured));
            if workload.records() {
                schedule.push((false, Variant::RecorderOff));
            }
        }
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        while m.passes.len() < schedule.len() || Instant::now() < deadline {
            let (spans, variant) = schedule[m.passes.len() % schedule.len()];
            let pass = timed_pass(&mut *workload, t, spans, variant, &mut m);
            m.passes.push(pass);
        }
        if args.trace {
            t.set_enabled(true);
            m.probes = workload.probes(t);
            m.spans.append(&mut t.take());
        }
        // The peak of the process while it holds the workload and runs its
        // passes, before the set-ups below allocate more.
        m.peak_rss_mb.push(peak_rss_mb());
    }
    t.set_enabled(false);
    for _ in 0..SETUP_SAMPLES {
        m.setup_secs.push(setup_sample(args, t));
    }
    m
}

/// Run one pass and time it; a traced pass also leaves its spans in `m`.
fn timed_pass(
    workload: &mut dyn Workload,
    t: &Tracer,
    spans: bool,
    variant: Variant,
    m: &mut Measured,
) -> Pass {
    t.set_enabled(spans);
    let aside = t.aside_total();
    let before = CpuSample::now();
    let start = Instant::now();
    let out = workload.pass(t, variant);
    let raw_wall = (start.elapsed() - (t.aside_total() - aside)).as_secs_f64();
    let steal = steal_since(before);
    t.set_enabled(false);
    let mut layer = BTreeMap::new();
    if spans {
        let recorded = t.take();
        layer = totals(&recorded, &FAMILIES);
        for (l, secs) in self_times(&recorded) {
            layer.insert(format!("self_s.{l}"), secs);
        }
        layer.insert(
            "span.untraced_frac".into(),
            (raw_wall - covered(&recorded)) / raw_wall,
        );
        layer.extend(out.values.iter().map(|(k, v)| (k.clone(), *v)));
        if let (Some(serve), Some(&jobs)) =
            (layer.get("serve.serve_s"), layer.get("serve.completed"))
        {
            layer.insert("serve.host_us_per_job".into(), serve / jobs * 1e6);
        }
        m.spans = recorded;
    }
    m.problems.extend(out.problems.iter().cloned());
    Pass {
        spans,
        variant: Some(variant),
        wall: raw_wall * (1.0 - steal),
        raw_wall,
        steal,
        offered: out.offered,
        ok: out.ok,
        keys: out.keys,
        digest: out.digest.value(),
        layer,
    }
}

/// Mean seconds per set-up over a batch of at least [`SETUP_BATCH`], less
/// the batch's stolen share: build the platform and the workload, drop
/// them, repeat. Only the builds are timed; a batch keeps a sample of a
/// set-up of tens of microseconds well above the scheduler's jitter.
fn setup_sample(args: &Args, t: &Tracer) -> f64 {
    let before = CpuSample::now();
    let batch = Instant::now();
    let (mut built, mut count) = (Duration::ZERO, 0u32);
    while count == 0 || batch.elapsed() < SETUP_BATCH {
        let start = Instant::now();
        let platform = platform(&args.workload, args.size, t);
        let workload = setup(&args.workload, &platform, args.seed, args.size, t);
        built += start.elapsed();
        count += 1;
        drop(workload);
    }
    built.as_secs_f64() / f64::from(count) * (1.0 - steal_since(before))
}

/// Measure as a child process of [`run`] and print what was measured,
/// one record a line, for the parent to read.
pub fn child(args: &Args) {
    let m = measure(args, &Tracer::new(false));
    for p in &m.passes {
        println!(
            "pass {:?} {:?} {:?} {} {} {} {:x}",
            p.wall, p.raw_wall, p.steal, p.offered, p.ok, p.keys, p.digest
        );
    }
    for s in &m.setup_secs {
        println!("setup {s:?}");
    }
    for r in &m.peak_rss_mb {
        println!("rss {r:?}");
    }
    for p in &m.problems {
        println!("problem {p}");
    }
}

/// Fold one child's records into `m`.
fn read_child(text: &str, m: &mut Measured) -> Result<(), String> {
    for line in text.lines() {
        let bad = || format!("unreadable record from a measuring process: {line}");
        let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
        let f: Vec<&str> = rest.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
        let int = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
        match kind {
            "pass" => m.passes.push(Pass {
                wall: num(0)?,
                raw_wall: num(1)?,
                steal: num(2)?,
                offered: int(3)?,
                ok: int(4)?,
                keys: int(5)?,
                digest: f
                    .get(6)
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or_else(bad)?,
                ..Pass::default()
            }),
            "setup" => m.setup_secs.push(num(0)?),
            "rss" => m.peak_rss_mb.push(num(0)?),
            "problem" => m.problems.push(rest.to_owned()),
            _ => return Err(bad()),
        }
    }
    Ok(())
}

/// Measure in [`PROCESSES`] child processes, one after another.
fn measure_in_children(args: &Args) -> Measured {
    let mut m = Measured::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            m.problems.push(format!("cannot find this program: {e}"));
            return m;
        }
    };
    for _ in 0..PROCESSES {
        let read = Command::new(&exe)
            .args(args.child_args())
            .output()
            .map_err(|e| format!("cannot start a measuring process: {e}"))
            .and_then(|out| {
                if out.status.success() {
                    read_child(&String::from_utf8_lossy(&out.stdout), &mut m)
                } else {
                    Err(format!(
                        "a measuring process failed ({}): {}",
                        out.status,
                        String::from_utf8_lossy(&out.stderr).trim()
                    ))
                }
            });
        if let Err(e) = read {
            m.problems.push(e);
        }
    }
    if m.passes.is_empty() {
        m.problems.push("no pass was measured".into());
    }
    m
}

/// Run the gate, then measure: in child processes for end-to-end
/// metrics, in this process for per-layer ones.
///
/// # Panics
/// Panics if `args.workload` is not one of [`WORKLOADS`].
#[must_use]
pub fn run(args: &Args) -> Outcome {
    assert!(
        WORKLOADS.contains(&args.workload.as_str()),
        "unknown workload"
    );
    let t = Tracer::new(false);
    let rows = paper_rows(&t, &experiments(args.size));

    // Gate: the workload at the pinned seed, against the recorded digest.
    let gate = {
        let platform = platform(&args.workload, args.size, &t);
        let mut gate = setup(&args.workload, &platform, PINNED_SEED, args.size, &t);
        gate.pass(&t, Variant::Measured)
    };
    let mut digest = gate.digest;
    digest.u64(rows.digest.value());
    let digest = digest.value();
    let expected = recorded(&args.workload, args.size.name());
    let mut problems = gate.problems.clone();
    problems.extend(verify(digest, expected).err());

    let mut m = if args.trace {
        measure(args, &t)
    } else {
        measure_in_children(args)
    };
    problems.append(&mut m.problems);
    if m.passes.iter().any(|p| p.digest != m.passes[0].digest) {
        problems.push("simulated results differ between passes".into());
    }
    let (mut attempted, mut ok) = (gate.offered, gate.ok);
    for p in &m.passes {
        attempted += p.offered;
        ok += p.ok;
    }

    let (values, spans_json) = if args.trace {
        let values = per_layer_values(&m, &rows);
        let mut spans = std::mem::take(&mut m.setup_spans);
        spans.append(&mut m.spans);
        (values, Some(chrome_json(&spans)))
    } else {
        let med =
            |f: &dyn Fn(&Pass) -> f64| median(&mut m.passes.iter().map(f).collect::<Vec<_>>());
        let values = BTreeMap::from([
            ("wall_s".to_owned(), med(&|p| p.wall)),
            ("jobs_per_s".to_owned(), med(&|p| p.ok as f64 / p.wall)),
            ("keys_per_s".to_owned(), med(&|p| p.keys as f64 / p.wall)),
            ("setup_s".to_owned(), median(&mut m.setup_secs.clone())),
            ("peak_rss_mb".to_owned(), median(&mut m.peak_rss_mb.clone())),
            ("ok_frac".to_owned(), ok as f64 / attempted.max(1) as f64),
            ("paper_mad_pct".to_owned(), rows.mad_pct),
        ]);
        (values, None)
    };

    let correct = problems.is_empty();
    let table = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let metrics = if correct {
        table
            .into_iter()
            .map(|m| {
                let v = values.get(&m.name).copied().unwrap_or(0.0);
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        Vec::new()
    };
    Outcome {
        correct,
        attempted,
        failed: attempted - ok,
        metrics,
        problems,
        digest,
        expected,
        walls: m.passes.iter().map(|p| p.raw_wall).collect(),
        steal: m.passes.iter().map(|p| p.steal).collect(),
        setups: m.setup_secs.len(),
        paper_rows: rows.rows,
        spans_json,
    }
}

/// Per-layer values: probes first, then medians over the traced passes,
/// then the set-up's spans, then run-level ratios; 0 for a layer the
/// workload does not use.
fn per_layer_values(m: &Measured, rows: &PaperRows) -> BTreeMap<String, f64> {
    let setup = totals(&m.setup_spans, &FAMILIES);
    let wall = |spans: bool, variant: Variant| {
        median(
            &mut m
                .passes
                .iter()
                .filter(|p| p.spans == spans && p.variant == Some(variant))
                .map(|p| p.wall)
                .collect::<Vec<_>>(),
        )
    };
    let untraced = wall(false, Variant::Measured);
    let mut out = BTreeMap::new();
    for metric in per_layer() {
        let mut traced: Vec<f64> = m
            .passes
            .iter()
            .filter_map(|p| p.layer.get(&metric.name).copied())
            .collect();
        let value = if let Some(&v) = m.probes.get(&metric.name) {
            v
        } else if !traced.is_empty() {
            median(&mut traced)
        } else {
            setup.get(&metric.name).copied().unwrap_or(0.0)
        };
        out.insert(metric.name, value);
    }
    out.insert(
        "span.overhead_s".into(),
        wall(true, Variant::Measured) - untraced,
    );
    out.insert("bench.holdout_mad_pct".into(), rows.holdout_mad_pct);
    let recorder_off = wall(false, Variant::RecorderOff);
    if recorder_off > 0.0 {
        out.insert("trace.overhead_x".into(), untraced / recorder_off);
        let events = out["trace.events"];
        if events > 0.0 {
            out.insert(
                "trace.ns_per_event".into(),
                (untraced - recorder_off) / events * 1e9,
            );
        }
    }
    out
}
