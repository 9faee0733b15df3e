//! Host-time benchmark of the multi-GPU sort workspace.
//!
//! Four workloads (`sort_full`, `serve_steady`, `serve_traced`,
//! `sim_scaleout`) each load a different layer. A run with tracing off
//! reports end-to-end metrics; a traced run reports per-layer metrics from
//! spans the benchmark records around its calls into each layer. Every run
//! checks the program's outputs and a digest of its simulated results.
//! See `README.md` beside this crate.

pub mod gate;
pub mod metrics;
pub mod runner;
pub mod scaleout;
pub mod serve;
pub mod sort_full;
pub mod spans;
pub mod stats;
pub mod workload;
