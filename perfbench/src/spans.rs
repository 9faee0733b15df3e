//! Spans around the benchmark's calls into each layer.
//!
//! Every call the benchmark makes into the program goes through
//! [`Tracer::call`]; work the benchmark does for itself inside a pass
//! (copying inputs, building the next pass's executor, checking outputs)
//! goes through [`Tracer::aside`], which keeps it out of the pass's wall
//! time. With tracing off a call costs one branch (plus two clock reads for
//! an aside); with tracing on each call records a [`Span`] with its parent
//! and the id of the sort it belongs to.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The layers, named after the workspace crates. A span's layer is the
/// part of its name before the first `.`.
pub const LAYERS: [&str; 10] = [
    "data", "cpu", "topology", "sim", "gpu", "core", "cluster", "serve", "trace", "bench",
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, for example `core.step`.
    pub name: &'static str,
    /// Sort family, experiment name, or `""`.
    pub tag: &'static str,
    /// Spans of one sort (or one serve run) share this id.
    pub sort: u32,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Benchmark-side work excluded from wall time.
    pub aside: bool,
}

impl Span {
    /// The span's layer (`core` for `core.step`).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder and aside-time accumulator. See the [module docs](self).
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    sort: Cell<u32>,
    aside: Cell<Duration>,
}

impl Tracer {
    /// A tracer; `enabled` selects whether spans are recorded.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            sort: Cell::new(0),
            aside: Cell::new(Duration::ZERO),
        }
    }

    /// Turn span recording on or off (between passes).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Start a new sort: spans recorded from here share a fresh id.
    pub fn next_sort(&self) {
        self.sort.set(self.sort.get() + 1);
    }

    /// Run `f`, a call into the program.
    pub fn call<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        self.record(name, tag, false, f)
    }

    /// Run `f`, benchmark-side work whose time is excluded from the pass.
    pub fn aside<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = if self.enabled.get() {
            self.record(name, tag, true, f)
        } else {
            f()
        };
        self.aside.set(self.aside.get() + t.elapsed());
        r
    }

    fn record<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        aside: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                tag,
                sort: self.sort.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
                aside,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let r = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        r
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total aside time so far; a pass subtracts the difference.
    #[must_use]
    pub fn aside_total(&self) -> Duration {
        self.aside.get()
    }

    /// Take the spans recorded so far, leaving the tracer empty.
    #[must_use]
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Seconds per metric key: `<span name>_s`, plus `.<tag>` for the sort
/// families in `families` (so `core.step` tagged `p2p` adds to
/// `core.step_s.p2p`, while `bench.paper_figures` tagged `fig5` adds to
/// `bench.paper_figures_s`).
#[must_use]
pub fn totals(spans: &[Span], families: &[&str]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        let key = if families.contains(&s.tag) {
            format!("{}_s.{}", s.name, s.tag)
        } else {
            format!("{}_s", s.name)
        };
        *out.entry(key).or_insert(0.0) += s.secs();
    }
    out
}

/// Self seconds per layer over the timed (non-aside) spans: a span's
/// duration minus the part its direct children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for (s, c) in spans.iter().zip(&child) {
        if !s.aside {
            *out.entry(s.layer()).or_insert(0.0) += s.secs() - c;
        }
    }
    out
}

/// Seconds covered by top-level timed spans.
#[must_use]
pub fn covered(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && !s.aside)
        .map(Span::secs)
        .sum()
}

/// The spans as a Chrome trace (open in Perfetto or `chrome://tracing`):
/// one row per sort id, layer as the category.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"tag\":\"{}\",\"span\":{i},\"parent\":{parent},\"aside\":{}}}}}",
            s.name,
            s.layer(),
            s.sort,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tag,
            s.aside,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.call("serve.serve", "", || {
            t.call("trace.snapshot", "", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        t.aside("data.validate", "", || ());
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        let total = totals(&spans, &[])["serve.serve_s"];
        assert!(
            own["serve"] > 0.0015 && own["serve"] < total - 0.0015,
            "{own:?} of {total}"
        );
        assert!((own["serve"] + own["trace"] - total).abs() < 1e-9);
        assert!((covered(&spans) - total).abs() < 1e-12);
        assert!(msort_trace::json_valid(&chrome_json(&spans)));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_counts_asides() {
        let t = Tracer::new(false);
        t.call("core.step", "p2p", || ());
        t.aside("data.validate", "", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(t.take().is_empty());
        assert!(t.aside_total() >= Duration::from_millis(1));
    }
}
