//! Golden snapshot of the sort families: every `SortReport` field plus an
//! FNV-1a hash of the sorted output, pinned per case.
//!
//! Simulated time is the reproduction's result, so a refactor of the sort
//! drivers must leave every one of these lines bit-identical. The cases
//! cover the six families on the three paper platforms (uniform and
//! duplicate-heavy input), HET out of core (2n, 3n, 2n + eager merge), a
//! sampled-fidelity run, randomized fault plans, a 2-node cluster, and the
//! two baselines. A mismatch prints the case name and the actual line.

use multi_gpu_sort::prelude::*;

/// FNV-1a over the little-endian key bytes.
fn fnv1a(keys: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line holding every report field (destructured, so a new field
/// fails to compile here until it is pinned) and the output hash.
fn line(report: &SortReport, output: &[u32]) -> String {
    let SortReport {
        algorithm,
        platform,
        gpus,
        keys,
        bytes,
        total,
        phases,
        validated,
        p2p_swapped_keys,
        rerouted_transfers,
        max_partition_keys,
        inter_node,
    } = report;
    format!(
        "{algorithm}|{platform}|{gpus:?}|{keys}|{bytes}|{}|{}/{}/{}/{}|{validated}|\
         {p2p_swapped_keys}|{rerouted_transfers}|{max_partition_keys}|{}|{:016x}",
        total.0,
        phases.htod.0,
        phases.sort.0,
        phases.merge.0,
        phases.dtoh.0,
        inter_node.0,
        fnv1a(output),
    )
}

fn run(platform: &Platform, config: &RunConfig, dist: Distribution, n: u64, seed: u64) -> String {
    let scale = config.fidelity.scale();
    let mut data: Vec<u32> = generate(dist, (n / scale) as usize, seed);
    let report = run_sort(platform, config, &mut data, n);
    line(&report, &data)
}

const SKEWED: Distribution = Distribution::ZipfDuplicates { skew_permille: 800 };

fn family(name: &str, g: usize) -> RunConfig {
    match name {
        "p2p" => RunConfig::p2p(P2pConfig::new(g)),
        "rp" => RunConfig::rp(RpConfig::new(g)),
        "het" => RunConfig::het(HetConfig::new(g)),
        "sample" => RunConfig::sample(SampleSortConfig::new(g)),
        "mwms" => RunConfig::mwms(MwmsConfig::new(g)),
        "cross" => RunConfig::cross_node(CrossNodeConfig::new(InnerAlgo::SampleSort)),
        other => unreachable!("unknown family {other}"),
    }
}

/// Every case as `(name, line)`, in a fixed order.
fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let n: u64 = 1 << 14;

    for id in PlatformId::paper_set() {
        let p = Platform::paper(id);
        for fam in ["p2p", "rp", "het", "sample", "mwms", "cross"] {
            for (dname, dist) in [("uniform", Distribution::Uniform), ("zipf", SKEWED)] {
                out.push((
                    format!("{fam}/{}/{dname}", id.name()),
                    run(&p, &family(fam, 4), dist, n, 17),
                ));
            }
        }
    }

    // HET out of core: a 96 KiB budget per GPU forces several chunk
    // groups for 64 Ki keys.
    let ac922 = Platform::ibm_ac922();
    let ooc = HetConfig::new(2).with_mem_budget(96 * 1024);
    for (name, cfg) in [
        ("het-ooc/2n", ooc.clone()),
        (
            "het-ooc/3n",
            ooc.clone().with_approach(LargeDataApproach::ThreeN),
        ),
        ("het-ooc/2n+em", ooc.clone().with_eager_merge()),
    ] {
        out.push((
            name.to_string(),
            run(
                &ac922,
                &RunConfig::het(cfg),
                Distribution::Uniform,
                1 << 16,
                5,
            ),
        ));
    }

    // Sampled fidelity: 2^24 logical keys, 16 Ki physical.
    let dgx = Platform::dgx_a100();
    out.push((
        "p2p-sampled/dgx".to_string(),
        run(
            &dgx,
            &RunConfig::p2p(P2pConfig::new(8).sampled(1 << 10)),
            Distribution::Uniform,
            1 << 24,
            9,
        ),
    ));

    // Randomized fault plans: link deaths on the DELTA's NVLink ring
    // (rerouted transfers), and degradations under the DGX's out-of-core
    // HET pipelines.
    let delta = Platform::delta_d22x();
    let plan = FaultPlan::randomized(&delta, 3, SimDuration::from_micros(5));
    for fam in ["p2p", "rp", "het", "sample", "mwms"] {
        out.push((
            format!("{fam}-faults/delta"),
            run(
                &delta,
                &family(fam, 4).with_faults(plan.clone()),
                Distribution::Uniform,
                n,
                23,
            ),
        ));
    }

    for (name, cfg, seed) in [
        (
            "het-ooc-faults/dgx/2n+em",
            ooc.clone().with_eager_merge(),
            7,
        ),
        (
            "het-ooc-faults/dgx/3n",
            ooc.clone().with_approach(LargeDataApproach::ThreeN),
            8,
        ),
    ] {
        let plan = FaultPlan::randomized(&dgx, seed, SimDuration::from_micros(5));
        out.push((
            name.to_string(),
            run(
                &dgx,
                &RunConfig::het(cfg).with_faults(plan),
                Distribution::Uniform,
                1 << 16,
                5,
            ),
        ));
    }

    // Cross-node on a 2-node DGX cluster.
    let cluster = dgx_a100_cluster(2, Fabric::IbHdr);
    for inner in [InnerAlgo::SampleSort, InnerAlgo::Het] {
        out.push((
            format!("cross-2node/{}", inner.name()),
            run(
                &cluster,
                &RunConfig::cross_node(CrossNodeConfig::new(inner)),
                SKEWED,
                n,
                31,
            ),
        ));
    }

    // The baselines.
    let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 41);
    let r = cpu_only_sort(&dgx, Fidelity::Full, &mut data, n);
    out.push(("cpu-only/dgx".to_string(), line(&r, &data)));
    let mut data: Vec<u32> = generate(Distribution::Uniform, n as usize, 43);
    let r = single_gpu_sort(
        &ac922,
        Fidelity::Full,
        GpuSortAlgo::ThrustLike,
        &mut data,
        n,
    );
    out.push(("single-gpu/ac922".to_string(), line(&r, &data)));

    out
}

/// The pinned lines, recorded before the drivers shared a frame. Never
/// edit these to make the test pass: a difference is a behaviour change.
const EXPECTED: &[(&str, &str)] = &[
    ("p2p/IBM Power System AC922/uniform", "P2P sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|165668|635/445/163651/937|true|24484|0|0|0|310461a8c59636d6"),
    ("p2p/IBM Power System AC922/zipf", "P2P sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|165667|635/445/163650/937|true|24448|0|0|0|e90c67b8c96dde69"),
    ("rp/IBM Power System AC922/uniform", "RP sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|132841|635/445/130824/937|true|12246|0|0|0|310461a8c59636d6"),
    ("rp/IBM Power System AC922/zipf", "RP sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|132841|635/445/130824/937|true|12234|0|0|0|e90c67b8c96dde69"),
    ("het/IBM Power System AC922/uniform", "HET sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|3433|616/431/1416/970|true|0|0|0|0|310461a8c59636d6"),
    ("het/IBM Power System AC922/zipf", "HET sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|3433|616/431/1416/970|true|0|0|0|0|e90c67b8c96dde69"),
    ("sample/IBM Power System AC922/uniform", "Sample sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|132734|800/290/130718/926|true|12278|0|4245|0|310461a8c59636d6"),
    ("sample/IBM Power System AC922/zipf", "Sample sort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|132737|800/291/130719/927|true|12280|0|4253|0|e90c67b8c96dde69"),
    ("mwms/IBM Power System AC922/uniform", "Multiway mergesort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|3864|635/445/1873/911|true|16384|0|0|0|310461a8c59636d6"),
    ("mwms/IBM Power System AC922/zipf", "Multiway mergesort|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|3864|635/445/1873/911|true|16384|0|0|0|e90c67b8c96dde69"),
    ("cross/IBM Power System AC922/uniform", "Cross-node sort (sample inner)|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|176133|1311/132734/40777/1311|true|0|0|16384|0|310461a8c59636d6"),
    ("cross/IBM Power System AC922/zipf", "Cross-node sort (sample inner)|IBM Power System AC922|[0, 1, 2, 3]|16384|65536|176136|1311/132737/40777/1311|true|0|0|16384|0|e90c67b8c96dde69"),
    ("p2p/DELTA System D22x M4 PS/uniform", "P2P sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|168149|1333/280/165275/1261|true|24484|0|0|0|310461a8c59636d6"),
    ("p2p/DELTA System D22x M4 PS/zipf", "P2P sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|168145|1333/280/165271/1261|true|24448|0|0|0|e90c67b8c96dde69"),
    ("rp/DELTA System D22x M4 PS/uniform", "RP sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|133628|1333/280/130754/1261|true|12246|0|0|0|310461a8c59636d6"),
    ("rp/DELTA System D22x M4 PS/zipf", "RP sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|133625|1333/280/130751/1261|true|12234|0|0|0|e90c67b8c96dde69"),
    ("het/DELTA System D22x M4 PS/uniform", "HET sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|5019|1333/280/2145/1261|true|0|0|0|0|310461a8c59636d6"),
    ("het/DELTA System D22x M4 PS/zipf", "HET sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|5019|1333/280/2145/1261|true|0|0|0|0|e90c67b8c96dde69"),
    ("sample/DELTA System D22x M4 PS/uniform", "Sample sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|133591|1333/290/130661/1307|true|12278|0|4245|0|310461a8c59636d6"),
    ("sample/DELTA System D22x M4 PS/zipf", "Sample sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|133593|1333/291/130660/1309|true|12280|0|4253|0|e90c67b8c96dde69"),
    ("mwms/DELTA System D22x M4 PS/uniform", "Multiway mergesort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|8292|1333/280/1637/5042|true|16384|0|0|0|310461a8c59636d6"),
    ("mwms/DELTA System D22x M4 PS/zipf", "Multiway mergesort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|8292|1333/280/1637/5042|true|16384|0|0|0|e90c67b8c96dde69"),
    ("cross/DELTA System D22x M4 PS/uniform", "Cross-node sort (sample inner)|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|180028|1986/133591/42465/1986|true|0|0|16384|0|310461a8c59636d6"),
    ("cross/DELTA System D22x M4 PS/zipf", "Cross-node sort (sample inner)|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|180030|1986/133593/42465/1986|true|0|0|16384|0|e90c67b8c96dde69"),
    ("p2p/NVIDIA DGX A100/uniform", "P2P sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|164337|745/147/162789/656|true|24484|0|0|0|310461a8c59636d6"),
    ("p2p/NVIDIA DGX A100/zipf", "P2P sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|164337|745/147/162789/656|true|24448|0|0|0|e90c67b8c96dde69"),
    ("rp/NVIDIA DGX A100/uniform", "RP sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|131704|745/147/130156/656|true|12246|0|0|0|310461a8c59636d6"),
    ("rp/NVIDIA DGX A100/zipf", "RP sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|131704|745/147/130156/656|true|12234|0|0|0|e90c67b8c96dde69"),
    ("het/NVIDIA DGX A100/uniform", "HET sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|3038|745/147/1490/656|true|0|0|0|0|310461a8c59636d6"),
    ("het/NVIDIA DGX A100/zipf", "HET sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|3038|745/147/1490/656|true|0|0|0|0|e90c67b8c96dde69"),
    ("sample/NVIDIA DGX A100/uniform", "Sample sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|131680|745/153/130104/678|true|12278|0|4245|0|310461a8c59636d6"),
    ("sample/NVIDIA DGX A100/zipf", "Sample sort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|131682|745/153/130104/680|true|12280|0|4253|0|e90c67b8c96dde69"),
    ("mwms/NVIDIA DGX A100/uniform", "Multiway mergesort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|3976|745/147/513/2571|true|16384|0|0|0|310461a8c59636d6"),
    ("mwms/NVIDIA DGX A100/zipf", "Multiway mergesort|NVIDIA DGX A100|[0, 2, 4, 6]|16384|65536|3976|745/147/513/2571|true|16384|0|0|0|e90c67b8c96dde69"),
    ("cross/NVIDIA DGX A100/uniform", "Cross-node sort (sample inner)|NVIDIA DGX A100|[0, 1, 2, 3, 4, 5, 6, 7]|16384|65536|285764|1489/241563/41223/1489|true|0|0|16384|0|310461a8c59636d6"),
    ("cross/NVIDIA DGX A100/zipf", "Cross-node sort (sample inner)|NVIDIA DGX A100|[0, 1, 2, 3, 4, 5, 6, 7]|16384|65536|285763|1489/241562/41223/1489|true|0|0|16384|0|e90c67b8c96dde69"),
    ("het-ooc/2n", "HET sort (2n)|IBM Power System AC922|[0, 1]|65536|262144|12141|2263/1590/5908/2380|true|0|0|0|0|5c6ead237b509e15"),
    ("het-ooc/3n", "HET sort (3n)|IBM Power System AC922|[0, 1]|65536|262144|10179|1413/1134/6082/1550|true|0|0|0|0|5c6ead237b509e15"),
    ("het-ooc/2n+em", "HET sort (2n + EM)|IBM Power System AC922|[0, 1]|65536|262144|14173|2873/1835/6292/3173|true|0|0|0|0|5c6ead237b509e15"),
    ("p2p-sampled/dgx", "P2P sort|NVIDIA DGX A100|[0, 1, 2, 3, 4, 5, 6, 7]|16777216|67108864|2923962|762601/75497/1414775/671089|true|58724352|0|0|0|1857505ed95c0dfa"),
    ("p2p-faults/delta", "P2P sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|172006|1333/280/168317/2076|true|24576|4|0|0|bbf2b034012a22b8"),
    ("rp-faults/delta", "RP sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|134769|1333/280/131080/2076|true|12262|6|0|0|bbf2b034012a22b8"),
    ("het-faults/delta", "HET sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|5112|1333/280/2145/1354|true|0|0|0|0|bbf2b034012a22b8"),
    ("sample-faults/delta", "Sample sort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|135530|1333/309/131887/2001|true|12253|2|4512|0|bbf2b034012a22b8"),
    ("mwms-faults/delta", "Multiway mergesort|DELTA System D22x M4 PS|[0, 1, 2, 3]|16384|65536|9874|1333/280/3219/5042|true|16384|1|0|0|bbf2b034012a22b8"),
    ("het-ooc-faults/dgx/2n+em", "HET sort (2n + EM)|NVIDIA DGX A100|[0, 2]|65536|262144|62036|21935/1208/6620/32273|true|0|0|0|0|5c6ead237b509e15"),
    ("het-ooc-faults/dgx/3n", "HET sort (3n)|NVIDIA DGX A100|[0, 2]|65536|262144|33354|10293/1099/5958/16004|true|0|0|0|0|5c6ead237b509e15"),
    ("cross-2node/sample", "Cross-node sort (sample inner)|2x NVIDIA DGX A100 (InfiniBand HDR)|[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]|16384|65536|315469|1360/240828/71844/1437|true|8290|0|8654|3524|bf2b2bca92b5a759"),
    ("cross-2node/HET", "Cross-node sort (HET inner)|2x NVIDIA DGX A100 (InfiniBand HDR)|[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]|16384|65536|76208|1360/1567/71844/1437|true|8290|0|8654|3524|bf2b2bca92b5a759"),
    ("cpu-only/dgx", "PARADIS (CPU)|NVIDIA DGX A100|[]|16384|65536|9204|0/9204/0/0|true|0|0|0|0|a7bcbf2a181be740"),
    ("single-gpu/ac922", "Thrust (1 GPU)|IBM Power System AC922|[0]|16384|65536|2943|911/1121/0/911|true|0|0|0|0|33f62c2f8b8660ea"),
];

#[test]
fn sort_reports_match_the_golden_snapshot() {
    let got = cases();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = EXPECTED.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the case list changed");
    let diffs: Vec<String> = got
        .iter()
        .zip(EXPECTED)
        .filter(|((_, line), (_, want))| line != want)
        .map(|((name, line), (_, want))| format!("{name}\n  want {want}\n  got  {line}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} cases differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}
