//! `sort_full`: the five single-node families on the DGX A100 with 8 GPUs,
//! full fidelity, uniform `u32` keys, each driven through its
//! `SortDriver`.
//!
//! Kernels and the effect executor do the work here: every key is really
//! sorted, while the event loop sees a few dozen waited ops per sort and
//! no scheduler or recorder runs.

use crate::spans::Tracer;
use crate::workload::{probe, run_driver, PassOut, Size, Variant, Workload};
use msort_core::{
    HetConfig, HetDriver, MwmsConfig, MwmsDriver, P2pConfig, P2pDriver, RpConfig, RpDriver,
    SampleSortConfig, SampleSortDriver, SortDriver,
};
use msort_data::{generate, validate_sort, Distribution};
use msort_gpu::{Fidelity, GpuSystem};
use msort_topology::Platform;
use std::collections::BTreeMap;

const GPUS: usize = 8;
const PROBE_REPS: usize = 5;
const SORTS: [&str; 5] = ["p2p", "rp", "het", "sample", "mwms"];

/// See the [module docs](self).
pub struct SortFull<'p> {
    platform: &'p Platform,
    keys: u64,
    /// One input per family, kept to validate the outputs against.
    inputs: Vec<Vec<u32>>,
    /// Executors for the next pass, built ahead of it.
    next: Option<Vec<GpuSystem<'p, u32>>>,
}

fn systems(platform: &Platform) -> Vec<GpuSystem<'_, u32>> {
    SORTS
        .iter()
        .map(|_| GpuSystem::new(platform, Fidelity::Full))
        .collect()
}

fn driver<'p>(
    family: &str,
    sys: &mut GpuSystem<'p, u32>,
    data: Vec<u32>,
    n: u64,
) -> Box<dyn SortDriver<u32> + 'p> {
    match family {
        "p2p" => Box::new(P2pDriver::new(sys, &P2pConfig::new(GPUS), data, n)),
        "rp" => Box::new(RpDriver::new(sys, &RpConfig::new(GPUS), data, n)),
        "het" => Box::new(HetDriver::new(sys, &HetConfig::new(GPUS), data, n)),
        "sample" => Box::new(SampleSortDriver::new(
            sys,
            &SampleSortConfig::new(GPUS),
            data,
            n,
        )),
        "mwms" => Box::new(MwmsDriver::new(sys, &MwmsConfig::new(GPUS), data, n)),
        other => unreachable!("unknown sort family {other}"),
    }
}

impl<'p> SortFull<'p> {
    /// Build the inputs and the first pass's executors on `platform`.
    #[must_use]
    pub fn setup(platform: &'p Platform, seed: u64, size: Size, t: &Tracer) -> Self {
        let keys: u64 = match size {
            Size::Full => 1 << 21,
            Size::Tiny => 1 << 13,
        };
        let inputs = (0..SORTS.len() as u64)
            .map(|i| {
                t.aside("data.generate", "", || {
                    generate(Distribution::Uniform, keys as usize, seed.wrapping_add(i))
                })
            })
            .collect();
        let next = Some(t.aside("gpu.new", "", || systems(platform)));
        Self {
            platform,
            keys,
            inputs,
            next,
        }
    }
}

impl Workload for SortFull<'_> {
    fn pass(&mut self, t: &Tracer, _variant: Variant) -> PassOut {
        let platform = self.platform;
        let systems = self
            .next
            .take()
            .unwrap_or_else(|| t.aside("gpu.new", "", || systems(platform)));
        let mut out = PassOut::default();
        for ((&family, input), mut sys) in SORTS.iter().zip(&self.inputs).zip(systems) {
            t.next_sort();
            let data = t.aside("data.copy", "", || input.clone());
            let n = self.keys;
            let run = run_driver(t, family, &mut sys, |sys| driver(family, sys, data, n));
            let valid = t.aside("data.validate", "", || {
                validate_sort(input, &run.output).is_valid()
            });
            out.sort(family, &run, valid, n);
            t.aside("gpu.drop", "", || drop((sys, run)));
        }
        out
    }

    /// The two kernels the sorts' ops call, on one per-GPU chunk.
    fn probes(&mut self, t: &Tracer) -> BTreeMap<String, f64> {
        let threads = msort_cpu::pool::threads();
        let chunk = &self.inputs[0][..self.keys as usize / GPUS];
        let mut copies: Vec<Vec<u32>> = (0..PROBE_REPS).map(|_| chunk.to_vec()).collect();
        let mut sorted = Vec::new();
        let mut aux = vec![0u32; chunk.len()];
        let device_sort = probe(t, "cpu.device_sort", PROBE_REPS, || {
            let mut data = copies.pop().expect("one copy per repetition");
            msort_cpu::parallel_onesweep_sort_with_aux(&mut data, &mut aux, threads);
            sorted.push(data);
        });
        // Both halves of a sorted chunk are sorted runs.
        let (a, b) = sorted[0].split_at(chunk.len() / 2);
        let merge = probe(t, "cpu.merge", PROBE_REPS, || {
            msort_cpu::parallel_merge_into(a, b, &mut aux, threads);
        });
        BTreeMap::from([
            ("cpu.device_sort_s".to_owned(), device_sort),
            ("cpu.merge_s".to_owned(), merge),
        ])
    }
}
