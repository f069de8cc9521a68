//! `bench` — the packet engine's performance gate, with a committed
//! baseline.
//!
//! ```text
//! cargo run --release -p dcn-bench --bin bench -- perf            # report
//! cargo run --release -p dcn-bench --bin bench -- perf --bless   # write BENCH_sim.json
//! cargo run --release -p dcn-bench --bin bench -- perf --check   # assert vs BENCH_sim.json
//! ```
//!
//! `perf` runs the suite in [`dcn_bench::perf`] and prints one row per
//! case with every column (events, wall time, rate, and the simulated
//! counters): three transports at two fat-tree sizes, one long flow, the
//! tiny Xpander under each observer, the disarmed failpoint check, and
//! the 2048-switch Xpander's lift generation and ECMP table build.
//! Simulated fields are byte-stable; `--check` compares them exactly
//! against the committed `BENCH_sim.json` and asserts each case's rate
//! stays above half the blessed baseline (loose on purpose: it catches an
//! engine regression, not CI machine jitter). Re-baseline deliberate
//! engine changes with `--bless` so the perf trajectory is reviewed next
//! to the code that moved it; `dcnstat bench` diffs two baselines.
//! `--bless` runs the suite five times and writes each case's median-rate
//! run, refusing when the runs disagree on a simulated field.
//!
//! `--out <path>` overrides the baseline location (default
//! `BENCH_sim.json` in the working directory — the repo root under CI).

#![forbid(unsafe_code)]

use dcn_bench::perf::{
    check_perf, median_runs, perf_cases, run_perf_suite, write_table, BLESS_RUNS,
};
use dcn_json::Json;

fn fail(msg: &str) -> ! {
    eprintln!("bench: error: {msg}");
    std::process::exit(1)
}

const USAGE: &str = "usage: bench perf [--bless | --check] [--seed N] [--out <path>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("perf") {
        fail(USAGE);
    }
    let mut bless = false;
    let mut check = false;
    let mut seed = 1u64;
    let mut path = "BENCH_sim.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bless" => bless = true,
            "--check" => check = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("--seed takes an integer"));
            }
            "--out" => {
                i += 1;
                path = args
                    .get(i)
                    .unwrap_or_else(|| fail("--out takes a path"))
                    .clone();
            }
            other => fail(&format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if bless && check {
        fail("--bless and --check are mutually exclusive");
    }

    let report = if bless {
        let runs: Vec<Json> = (1..=BLESS_RUNS)
            .map(|i| {
                eprintln!("bench: bless run {i}/{BLESS_RUNS}");
                run_perf_suite(seed)
            })
            .collect();
        median_runs(&runs).unwrap_or_else(|e| fail(&format!("refusing to bless:\n{e}")))
    } else {
        run_perf_suite(seed)
    };
    let cases = perf_cases(&report).unwrap_or_else(|e| fail(&e));
    write_table(cases, &mut std::io::stdout().lock())
        .unwrap_or_else(|e| fail(&format!("write table: {e}")));

    if bless {
        dcn_core::write_atomic(&path, report.pretty().as_bytes())
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("blessed {path}");
    } else if check {
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            fail(&format!(
                "read {path}: {e} (run `bench perf --bless` first)"
            ))
        });
        let baseline = Json::parse(&body).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
        let errs = check_perf(&report, &baseline);
        if !errs.is_empty() {
            for e in &errs {
                eprintln!("bench: {e}");
            }
            std::process::exit(1);
        }
        eprintln!("ok: all cases match {path} (simulated fields exact, rates above floor)");
    }
}
