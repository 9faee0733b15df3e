//! The benchmark against its own contract: every workload runs at tiny
//! size, prints every metric named in `BENCHMARK.json` exactly once with
//! its unit, and passes the correctness gate. (That a wrong digest fails
//! the gate is a unit test of `gate::verify`.)

mod common;

use common::{parse, Json};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["sort_full", "serve_steady", "serve_traced", "sim_scaleout"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("perfbench printed nothing");
    parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(items)) = json.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_once_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = declared(list);
        for workload in WORKLOADS {
            let out = bench(&[
                "--workload",
                workload,
                "--size",
                "tiny",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed: {stderr}"
            );
            let result = result_line(&out);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {stderr}"
            );
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{workload}");
            assert!(matches!(result.get("attempted"), Some(&Json::Num(n)) if n >= 1.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            assert_eq!(metrics.len(), expected.len(), "{workload} --trace {trace}");
            for (name, unit) in &expected {
                let found: Vec<&Json> = metrics
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(
                    found.len(),
                    1,
                    "{workload}: {name} emitted {} times",
                    found.len()
                );
                assert_eq!(
                    found[0].get("unit").and_then(Json::str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(
                    matches!(found[0].get("value"), Some(Json::Num(v)) if v.is_finite()),
                    "{workload}: {name} has no numeric value"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in WORKLOADS {
        let out = bench(&["--workload", workload, "--size", "tiny", "--seconds", "0"]);
        let result = result_line(&out);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        for (name, m) in metrics {
            assert!(
                matches!(m.get("value"), Some(Json::Num(v)) if *v > 0.0),
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "sort_full", "--trace", "2"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
