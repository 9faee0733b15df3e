//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics, one per line with unit, then
//! the result as one JSON object on the last line. Exits 1 when the
//! correctness gate fails and 2 on a usage error. `--size tiny` shrinks
//! the inputs for the benchmark's own tests. `--child` marks the measuring processes an untraced run
//! starts; they print raw records instead of a result.

use msort_perfbench::gate::{HOLDOUT_SEED, PINNED_SEED};
use msort_perfbench::runner::{self, run, Args, Outcome, WORKLOADS};
use msort_perfbench::stats::{median, sig};
use msort_perfbench::workload::Size;
use std::fmt::Write as _;
use std::process::ExitCode;

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The arguments, and whether this is a measuring child process.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut child = false;
    while let Some(flag) = argv.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((args, child))
}

fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

fn spans_path(args: &Args) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("perfbench")
        .join(format!("spans-{}-{}.json", args.workload, args.seed))
}

fn result_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok((args, false)) => args,
        Ok((args, true)) => {
            runner::child(&args);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload     {} ({} inputs)",
        args.workload,
        args.size.name()
    );
    println!(
        "seed         {:#x} (default {PINNED_SEED:#x}; hold-out {HOLDOUT_SEED:#x})",
        args.seed
    );
    println!("host cores   {host_cores}");
    println!("effect pool  {} workers", msort_cpu::pool::threads());
    println!("rustc        {}", env!("PERFBENCH_RUSTC"));
    println!("profile      {}", env!("PERFBENCH_PROFILE"));
    println!("commit       {}", git_commit());

    let outcome = run(&args);
    let list = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| sig(x * scale, 3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "passes       {} in {} s, {} set-up samples",
        outcome.walls.len(),
        args.seconds,
        outcome.setups
    );
    println!(
        "pass wall s  {} (steal included)",
        list(&outcome.walls, 1.0)
    );
    println!("pass steal % {}", list(&outcome.steal, 100.0));
    println!(
        "raw wall s   median {} (steal included)",
        sig(median(&mut outcome.walls.clone()), 4)
    );
    println!(
        "paper rows   {} compared with the paper",
        outcome.paper_rows
    );
    println!(
        "digest       {:#018x} (expected {})",
        outcome.digest,
        outcome
            .expected
            .map_or("none".to_owned(), |e| format!("{e:#018x}"))
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {:>14} {unit}", sig(*value, 4));
    }
    if let Some(json) = &outcome.spans_json {
        let path = spans_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("spans        {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
