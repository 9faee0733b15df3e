//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names and units; the benchmark's tests hold the two
//! together.

use crate::spans::LAYERS;
use crate::workload::FAMILIES;

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
    }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
#[must_use]
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("wall_s", "s"),
        metric("jobs_per_s", "1/s"),
        metric("keys_per_s", "1/s"),
        metric("setup_s", "s"),
        metric("peak_rss_mb", "MB"),
        metric("ok_frac", "frac"),
        metric("paper_mad_pct", "%"),
    ]
}

/// Per-layer metrics, from the traced run (`--trace 1`). A metric of a
/// layer the workload does not use reads 0.
#[must_use]
pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    for f in FAMILIES {
        out.push(metric(format!("core.new_s.{f}"), "s"));
        out.push(metric(format!("core.step_s.{f}"), "s"));
        out.push(metric(format!("gpu.run_until_s.{f}"), "s"));
        out.push(metric(format!("core.steps.{f}"), "count"));
        out.push(metric(format!("core.waited_ops.{f}"), "count"));
        out.push(metric(format!("sim.total_ns.{f}"), "ns"));
    }
    for (name, unit) in [
        ("cpu.device_sort_s", "s"),
        ("cpu.merge_s", "s"),
        ("data.generate_s", "s"),
        ("data.validate_s", "s"),
        ("serve.new_s", "s"),
        ("serve.arrivals_s", "s"),
        ("serve.serve_s", "s"),
        ("serve.host_us_per_job", "us"),
        ("serve.completed", "count"),
        ("serve.rejected", "count"),
        ("serve.shed", "count"),
        ("serve.queue_depth_max", "count"),
        ("serve.mean_fleet", "gpus"),
        ("serve.p50_ns", "ns"),
        ("serve.p99_ns", "ns"),
        ("serve.makespan_ns", "ns"),
        ("trace.overhead_x", "x"),
        ("trace.ns_per_event", "ns"),
        ("trace.snapshot_s", "s"),
        ("trace.export_s", "s"),
        ("trace.summarize_s", "s"),
        ("trace.events", "count"),
        ("trace.tracks", "count"),
        ("trace.json_bytes", "B"),
        ("trace.events.gpu", "count"),
        ("trace.events.links", "count"),
        ("trace.events.flows", "count"),
        ("trace.events.faults", "count"),
        ("trace.events.service", "count"),
        ("cluster.build_s", "s"),
        ("topology.allocate_a2a_s", "s"),
        ("sim.measure_a2a_s", "s"),
        ("sim.a2a_flows", "count"),
        ("sim.inter_node_ns", "ns"),
        ("bench.paper_figures_s", "s"),
        ("bench.holdout_mad_pct", "%"),
    ] {
        out.push(metric(name, unit));
    }
    for layer in LAYERS {
        out.push(metric(format!("self_s.{layer}"), "s"));
    }
    out.push(metric("span.untraced_frac", "frac"));
    out.push(metric("span.overhead_s", "s"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let names: BTreeSet<&str> = all.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), all.len());
        assert!(per_layer().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
