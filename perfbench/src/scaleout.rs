//! `sim_scaleout`: the deterministic paper experiments, then one
//! cross-node sort on a 32-node DGX A100 cluster over InfiniBand HDR with
//! sample sort inside every node, at sampled fidelity.
//!
//! FlowSim and the rate allocator under contention do the work: host time
//! barely depends on payload and grows superlinearly with the node count.
//! It is the only workload on the AC922 and Delta topologies (through the
//! experiments) and on the `cluster` crate.

use crate::gate::{experiments, paper_rows};
use crate::spans::Tracer;
use crate::workload::{probe, run_driver, PassOut, Size, Variant, Workload};
use msort_cluster::dgx_a100_cluster;
use msort_core::{CrossNodeConfig, CrossNodeDriver, InnerAlgo};
use msort_data::{generate, validate_sort, Distribution};
use msort_gpu::{Fidelity, GpuSystem};
use msort_sim::flows::measure_concurrent;
use msort_topology::route::route;
use msort_topology::{allocate_rates, Endpoint, Fabric, Platform, Route};
use std::collections::BTreeMap;

/// Bytes per flow of the all-to-all probe.
const A2A_BYTES: u64 = 256 << 20;

/// See the [module docs](self).
pub struct Scaleout<'p> {
    cluster: &'p Platform,
    nodes: usize,
    /// Logical keys of the cross-node sort.
    keys: u64,
    scale: u64,
    /// Its physical payload, kept to validate the output against.
    input: Vec<u32>,
    experiments: Vec<&'static str>,
    next: Option<GpuSystem<'p, u32>>,
}

/// Node count, logical keys and sampling factor of the cross-node sort.
fn shape(size: Size) -> (usize, u64, u64) {
    match size {
        Size::Full => (32, 1 << 30, 1 << 10),
        Size::Tiny => (4, 1 << 20, 1 << 6),
    }
}

/// The DGX A100 cluster the cross-node sort runs on.
#[must_use]
pub fn cluster(size: Size) -> Platform {
    dgx_a100_cluster(shape(size).0, Fabric::IbHdr)
}

impl<'p> Scaleout<'p> {
    /// Build the cross-node input and its executor on `cluster`.
    #[must_use]
    pub fn setup(cluster: &'p Platform, seed: u64, size: Size, t: &Tracer) -> Self {
        let (nodes, keys, scale) = shape(size);
        let input = t.aside("data.generate", "", || {
            generate(Distribution::Uniform, (keys / scale) as usize, seed)
        });
        let next = Some(t.aside("gpu.new", "", || {
            GpuSystem::new(cluster, Fidelity::Sampled { scale })
        }));
        Self {
            cluster,
            nodes,
            keys,
            scale,
            input,
            experiments: experiments(size),
            next,
        }
    }

    /// Host socket 0 of every node to host socket 0 of every other node.
    fn a2a_routes(&self) -> Vec<Route> {
        let topo = &self.cluster.topology;
        let sockets = topo.cpu_count() / self.nodes;
        let mut routes = Vec::new();
        for a in 0..self.nodes {
            for b in (0..self.nodes).filter(|&b| b != a) {
                let (src, dst) = (Endpoint::host(a * sockets), Endpoint::host(b * sockets));
                routes.push(route(topo, src, dst).expect("nodes are connected"));
            }
        }
        routes
    }
}

impl Workload for Scaleout<'_> {
    fn pass(&mut self, t: &Tracer, _variant: Variant) -> PassOut {
        let mut out = PassOut::default();
        let rows = paper_rows(t, &self.experiments);
        out.digest = rows.digest;

        let (cluster, scale) = (self.cluster, self.scale);
        let mut sys = self.next.take().unwrap_or_else(|| {
            t.aside("gpu.new", "", || {
                GpuSystem::new(cluster, Fidelity::Sampled { scale })
            })
        });
        t.next_sort();
        let data = t.aside("data.copy", "", || self.input.clone());
        let n = self.keys;
        let config = CrossNodeConfig::new(InnerAlgo::SampleSort).sampled(scale);
        let run = run_driver(t, "cross_node", &mut sys, |sys| {
            Box::new(CrossNodeDriver::new(sys, &config, data, n))
        });
        let valid = t.aside("data.validate", "", || {
            validate_sort(&self.input, &run.output).is_valid()
        });
        out.sort("cross_node", &run, valid, self.input.len() as u64);
        let inter = run.report.inter_node.0;
        out.set("sim.inter_node_ns", inter as f64);
        out.check(inter > 0, || "the inter-node fabric was never busy".into());
        t.aside("gpu.drop", "", || drop((sys, run)));
        out
    }

    /// The allocator and FlowSim alone over the all-to-all route set.
    fn probes(&mut self, t: &Tracer) -> BTreeMap<String, f64> {
        let routes = t.aside("topology.routes", "", || self.a2a_routes());
        let requests: Vec<_> = routes
            .iter()
            .map(|r| self.cluster.flow_request(r))
            .collect();
        let table = self.cluster.constraint_table();
        let allocate = probe(t, "topology.allocate_a2a", 5, || {
            std::hint::black_box(allocate_rates(table, &requests));
        });
        let measure = probe(t, "sim.measure_a2a", 3, || {
            std::hint::black_box(measure_concurrent(self.cluster, &routes, A2A_BYTES));
        });
        BTreeMap::from([
            ("topology.allocate_a2a_s".to_owned(), allocate),
            ("sim.measure_a2a_s".to_owned(), measure),
            ("sim.a2a_flows".to_owned(), routes.len() as f64),
        ])
    }
}
