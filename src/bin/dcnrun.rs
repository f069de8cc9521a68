//! `dcnrun` — a crash-safe supervisor for simulation runs.
//!
//! `dcnsim` runs one experiment in one process: a crash, OOM kill, or
//! live-lock loses everything. `dcnrun` splits the work across a
//! supervisor and per-job worker processes so long batches survive all
//! three:
//!
//! ```text
//! dcnrun run  experiment.json                  # one supervised job
//! dcnrun batch a.json b.json c.json --out-dir runs
//! dcnrun chaos --plans 20 --seed 1             # fuzz fault plans
//! ```
//!
//! Each worker periodically checkpoints full simulator state (see
//! `dcn_sim::checkpoint`) into `<out-dir>/<job>.ckpt`. If the worker dies,
//! the supervisor relaunches it with exponential backoff and the worker
//! resumes from the last good checkpoint — results are byte-identical to
//! an uninterrupted run. A *hung* worker is killed by the wall-clock
//! watchdog (`--timeout-s`). Whatever happens, the supervisor writes a
//! `<job>.report.json` (attempts, outcome, salvaged-checkpoint info) and
//! workers write `<job>.result.json` — both atomically (temporary +
//! rename), so no crash leaves a truncated file.
//!
//! A batch stops at the first failed job by default; `--keep-going` runs
//! every job regardless and reports the failures at the end. Either way
//! `batch` writes a `<out-dir>/batch.summary.json` (per-job status,
//! ok/failed/skipped counts) and exits nonzero iff any job failed.
//!
//! Exit codes (worst across a batch): 0 ok, 1 invalid config, 2 worker
//! crash, 3 watchdog timeout, 4 corrupt/unloadable checkpoint.
//!
//! `dcnrun chaos` fuzzes the fault layer in-process: seeded adversarial
//! fault plans (`FaultPlan::chaos`) run against every transport, asserting
//! packet conservation by drop cause, a monotone event clock, bounded
//! event counts (no deadlock/livelock), and `completed + failed == flows`
//! for every plan.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::Duration;

use beyond_fattrees::jobs::{self, CrashHooks};
use beyond_fattrees::metrics::Registry;
use beyond_fattrees::prelude::*;
use dcn_bench::supervise::{
    self, Attempt, EXIT_CKPT_CORRUPT, EXIT_CONFIG, EXIT_CRASH, EXIT_OK, EXIT_TIMEOUT,
};
use dcn_core::write_atomic;
use dcn_json::Json;

const USAGE: &str = "usage: dcnrun run <config.json> [options]
       dcnrun batch <config.json>... [options]
       dcnrun chaos [--plans N] [--seed N] [--transport dctcp|newreno|pfabric|all]

options:
  --out-dir DIR             result/checkpoint/report directory (default: runs)
  --timeout-s N             wall-clock watchdog per attempt (default: none)
  --retries N               relaunch budget per job (default: 2)
  --backoff-ms N            base retry backoff, doubles per attempt with jitter (default: 200)
  --checkpoint-every-ms N   worker auto-checkpoint cadence; 0 = every chunk (default: 1000)
  --jobs N                  batch: parallel worker processes (default: all cores)
  --keep-going              batch: run every job even after failures (default: stop at first)
  --metrics PATH            write Prometheus-style supervision metrics here at exit";

fn fail(msg: &str) -> ! {
    eprintln!("dcnrun: error: {msg}");
    std::process::exit(EXIT_CONFIG)
}

/// `--flag <value>` anywhere in `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| fail(&format!("{flag} takes a value")))
            .to_string()
    })
}

fn flag_u64(args: &[String], flag: &str) -> Option<u64> {
    flag_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{flag} takes an integer, got \"{v}\"")))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => supervisor(&args[1..], false),
        Some("batch") => supervisor(&args[1..], true),
        Some("chaos") => chaos(&args[1..]),
        Some("worker") => worker(&args[1..]),
        _ => fail(USAGE),
    };
    std::process::exit(code)
}

// ---------------------------------------------------------------- worker

/// Hidden subcommand: runs one experiment, checkpointing as it goes.
/// Resumes automatically if the checkpoint file exists (the supervisor
/// removes stale ones before the first attempt). The body lives in
/// `beyond_fattrees::jobs`, shared with the `dcnserve` daemon's workers.
fn worker(args: &[String]) -> i32 {
    let Some(cfg_path) = args.first().filter(|a| !a.starts_with("--")) else {
        fail("worker needs a config path");
    };
    let result_path = flag_value(args, "--result").unwrap_or_else(|| fail("worker needs --result"));
    let ckpt_path = flag_value(args, "--ckpt").unwrap_or_else(|| fail("worker needs --ckpt"));
    let every_ms = flag_u64(args, "--checkpoint-every-ms").unwrap_or(1000);
    let hooks = CrashHooks {
        die_after_checkpoints: flag_u64(args, "--die-after-checkpoints"),
        stall_after_checkpoints: flag_u64(args, "--stall-after-checkpoints"),
    };
    jobs::worker_main(
        "dcnrun",
        cfg_path,
        &result_path,
        &ckpt_path,
        every_ms,
        hooks,
    )
}

// ------------------------------------------------------------ supervisor

fn status_label(a: Attempt) -> &'static str {
    if a.degraded() {
        // Correct result, but the worker ran without durable
        // checkpointing (e.g. the checkpoint disk filled mid-run).
        return "ok_degraded";
    }
    match a.exit_code() {
        EXIT_OK => "ok",
        EXIT_CONFIG => "config_error",
        EXIT_TIMEOUT => "timeout",
        EXIT_CKPT_CORRUPT => "checkpoint_corrupt",
        _ => "crash",
    }
}

fn supervisor(args: &[String], batch: bool) -> i32 {
    let configs: Vec<&String> = {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--out-dir"
                | "--timeout-s"
                | "--retries"
                | "--backoff-ms"
                | "--checkpoint-every-ms"
                | "--jobs"
                | "--metrics"
                | "--die-after-checkpoints"
                | "--stall-after-checkpoints" => i += 1,
                "--keep-going" => {}
                a if !a.starts_with("--") => out.push(&args[i]),
                other => fail(&format!("unknown option {other}\n{USAGE}")),
            }
            i += 1;
        }
        out
    };
    if configs.is_empty() {
        fail(USAGE);
    }
    let keep_going = args.iter().any(|a| a == "--keep-going");
    let out_dir = flag_value(args, "--out-dir").unwrap_or_else(|| "runs".to_string());
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("create {out_dir}: {e}")));
    let timeout = flag_u64(args, "--timeout-s").map(Duration::from_secs);
    let retries = flag_u64(args, "--retries").unwrap_or(2) as u32;
    let backoff = Duration::from_millis(flag_u64(args, "--backoff-ms").unwrap_or(200));
    let every_ms = flag_u64(args, "--checkpoint-every-ms").unwrap_or(1000);
    let die_after = flag_u64(args, "--die-after-checkpoints");
    let stall_after = flag_u64(args, "--stall-after-checkpoints");
    let slots = match flag_u64(args, "--jobs") {
        Some(0) => fail("--jobs must be at least 1"),
        Some(n) => n as usize,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));

    // One supervised job: clean stale artifacts, retry the worker to a
    // final outcome, write its report. Runs on a scheduler thread; every
    // artifact path is job-unique, so jobs never contend on files.
    let run_one = |idx: usize| {
        let cfg_path = configs[idx];
        let stem = std::path::Path::new(cfg_path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "job".to_string());
        let result = format!("{out_dir}/{stem}.result.json");
        let ckpt = format!("{out_dir}/{stem}.ckpt");
        let report_path = format!("{out_dir}/{stem}.report.json");
        // A fresh supervision run starts clean: stale checkpoints or
        // results from an earlier batch must not leak into this one.
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&result);

        let outcome = supervise::retry(
            |attempt| {
                let mut c = Command::new(&exe);
                c.arg("worker")
                    .arg(cfg_path)
                    .arg("--result")
                    .arg(&result)
                    .arg("--ckpt")
                    .arg(&ckpt)
                    .arg("--checkpoint-every-ms")
                    .arg(every_ms.to_string());
                if attempt == 0 {
                    // Failure-injection hooks fire on the first attempt
                    // only, so the relaunch path is what gets tested.
                    if let Some(n) = die_after {
                        c.arg("--die-after-checkpoints").arg(n.to_string());
                    }
                    if let Some(n) = stall_after {
                        c.arg("--stall-after-checkpoints").arg(n.to_string());
                    }
                }
                c
            },
            timeout,
            retries,
            // Per-job jitter stream: parallel jobs whose workers die
            // together de-phase their retries instead of re-colliding.
            supervise::RetryPolicy::new(backoff).with_seed(idx as u64),
        );
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => fail(&format!("spawn worker for {cfg_path}: {e}")),
        };

        let mut fields = vec![
            ("job", Json::from(stem.as_str())),
            ("config", Json::from(cfg_path.as_str())),
            ("status", Json::from(status_label(outcome.last))),
            ("exit_code", Json::from(outcome.exit_code() as u64)),
            ("attempts", Json::from(outcome.attempts as u64)),
            ("wall_ms", Json::from(outcome.wall.as_millis() as u64)),
        ];
        if outcome.exit_code() == EXIT_OK {
            fields.push(("result", Json::from(result.as_str())));
        } else {
            // Partial-result salvage: report how far the last good
            // checkpoint got, so the work is resumable/attributable.
            let salvage = match Checkpoint::load(&ckpt) {
                Ok(c) => {
                    let meta = c.meta();
                    Json::obj(vec![
                        ("checkpoint", Json::from(ckpt.as_str())),
                        ("t_ns", Json::from(meta.now)),
                        ("events", Json::from(meta.events_processed)),
                    ])
                }
                Err(e) => Json::from(format!("no usable checkpoint: {e}").as_str()),
            };
            fields.push(("salvage", salvage));
        }
        let mut body = Json::obj(fields).pretty();
        body.push('\n');
        write_atomic(&report_path, body.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write report {report_path}: {e}")));
        eprintln!(
            "dcnrun: {stem}: {} (attempts {}, {:.1}s) -> {report_path}",
            status_label(outcome.last),
            outcome.attempts,
            outcome.wall.as_secs_f64()
        );
        let keep_dispatching = outcome.exit_code() == EXIT_OK || keep_going;
        ((stem, outcome), keep_dispatching)
    };

    // Work-stealing dispatch across `--jobs` supervisor slots (a single
    // slot for `dcnrun run`): idle slots claim the next config, a failure
    // without --keep-going stops dispatch, and the summary below is
    // always emitted in job order regardless of completion order.
    let (finished, skipped_idx) =
        supervise::run_queue(configs.len(), if batch { slots } else { 1 }, run_one);

    let mut worst = EXIT_OK;
    let mut per_job: Vec<Json> = Vec::new();
    let mut counts = (0u64, 0u64); // (ok, failed)
    for (i, (stem, outcome)) in &finished {
        worst = worst.max(outcome.exit_code());
        per_job.push(Json::obj(vec![
            ("job", Json::from(stem.as_str())),
            ("config", Json::from(configs[*i].as_str())),
            ("status", Json::from(status_label(outcome.last))),
            ("exit_code", Json::from(outcome.exit_code() as u64)),
            ("attempts", Json::from(outcome.attempts as u64)),
        ]));
        if outcome.exit_code() == EXIT_OK {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }

    // Operational metrics for the whole supervision run, in the same
    // Prometheus text format `dcnserve metrics` exposes — one registry,
    // one render, one atomic write.
    if let Some(path) = flag_value(args, "--metrics") {
        let reg = Registry::new();
        let jobs_total = reg.counter("dcnrun_jobs_total", "Jobs dispatched or skipped.");
        let jobs_ok = reg.counter("dcnrun_jobs_ok_total", "Jobs that finished with exit 0.");
        let jobs_degraded = reg.counter(
            "dcnrun_jobs_degraded_total",
            "Jobs that finished correctly but without durable checkpointing.",
        );
        let jobs_failed = reg.counter("dcnrun_jobs_failed_total", "Jobs that exhausted retries.");
        let jobs_skipped = reg.counter(
            "dcnrun_jobs_skipped_total",
            "Jobs never launched after a fail-fast abort.",
        );
        let attempts = reg.counter(
            "dcnrun_worker_attempts_total",
            "Worker launches, including relaunches.",
        );
        let relaunches = reg.counter(
            "dcnrun_worker_relaunches_total",
            "Worker launches beyond each job's first attempt.",
        );
        let worst_gauge = reg.gauge("dcnrun_worst_exit_code", "Worst exit code across the run.");
        let wall = reg.histogram("dcnrun_job_wall_ms", "Per-job supervised wall time, ms.");
        jobs_total.add(configs.len() as u64);
        jobs_ok.add(counts.0);
        jobs_failed.add(counts.1);
        jobs_skipped.add(skipped_idx.len() as u64);
        for (_i, (_stem, outcome)) in &finished {
            attempts.add(outcome.attempts as u64);
            relaunches.add(outcome.attempts.saturating_sub(1) as u64);
            wall.observe(outcome.wall.as_millis() as u64);
            if outcome.last.degraded() {
                jobs_degraded.inc();
            }
        }
        worst_gauge.set(worst as u64);
        write_atomic(&path, reg.render_text().as_bytes())
            .unwrap_or_else(|e| fail(&format!("write metrics {path}: {e}")));
    }

    // The per-batch summary: every job's fate in one artifact, including
    // the ones a fail-fast abort never launched.
    if batch {
        let skipped: Vec<&String> = skipped_idx.iter().map(|&i| configs[i]).collect();
        for cfg_path in &skipped {
            let stem = std::path::Path::new(cfg_path.as_str())
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "job".to_string());
            per_job.push(Json::obj(vec![
                ("job", Json::from(stem.as_str())),
                ("config", Json::from(cfg_path.as_str())),
                ("status", Json::from("skipped")),
            ]));
        }
        if !skipped.is_empty() {
            eprintln!(
                "dcnrun: batch aborted after first failure; {} job(s) skipped \
                 (use --keep-going to run them all)",
                skipped.len()
            );
        }
        let summary = Json::obj(vec![
            ("jobs", Json::from(configs.len() as u64)),
            ("ok", Json::from(counts.0)),
            ("failed", Json::from(counts.1)),
            ("skipped", Json::from(skipped.len() as u64)),
            ("keep_going", Json::from(keep_going)),
            ("worst_exit", Json::from(worst as u64)),
            ("per_job", Json::Arr(per_job)),
        ]);
        let mut body = summary.pretty();
        body.push('\n');
        let summary_path = format!("{out_dir}/batch.summary.json");
        write_atomic(&summary_path, body.as_bytes())
            .unwrap_or_else(|e| fail(&format!("write summary {summary_path}: {e}")));
        eprintln!(
            "dcnrun: batch: {} ok, {} failed, {} skipped -> {summary_path}",
            counts.0,
            counts.1,
            skipped.len()
        );
    }
    worst
}

// ----------------------------------------------------------------- chaos

/// One chaos case: a seeded adversarial fault plan driven to completion
/// under one transport, with every run-level invariant checked. Returns
/// the violations found (empty = clean).
fn chaos_case(topo: &Topology, plan: &FaultPlan, cfg: SimConfig, seed: u64) -> Vec<String> {
    let window = (0, 4 * MS);
    let max_time = 40 * MS;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let pattern = AllToAll::new(topo, topo.tors_with_servers());
        let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 400.0, 0.0052, seed);
        let mut sim = Run {
            faults: Some(plan),
            tracer: Some(Box::new(CountingTracer::new())),
            ..Run::new(topo, Routing::Ecmp, cfg, &flows, window, max_time)
        }
        .build();
        let records = sim.run(max_time);
        let conservation = check_conservation(&sim).map(|_| ());
        let regressions = sim.trace_time_regressions().unwrap_or(0);
        let m = compute_metrics(&records, window.0, window.1);
        (conservation, regressions, m.flows, m.completed, m.failed)
    }));
    let mut violations = Vec::new();
    match run {
        Err(_) => violations.push("simulator panicked (deadlock watchdog or invariant)".into()),
        Ok((conservation, regressions, flows, completed, failed)) => {
            if let Err(e) = conservation {
                violations.push(format!("conservation: {e}"));
            }
            if regressions > 0 {
                violations.push(format!("monotone clock: {regressions} regressions"));
            }
            if completed + failed != flows {
                violations.push(format!(
                    "accounting: completed {completed} + failed {failed} != flows {flows}"
                ));
            }
        }
    }
    violations
}

fn chaos(args: &[String]) -> i32 {
    let plans = flag_u64(args, "--plans").unwrap_or(20);
    let seed0 = flag_u64(args, "--seed").unwrap_or(1);
    let which = flag_value(args, "--transport").unwrap_or_else(|| "all".to_string());
    let transports: Vec<(&str, SimConfig)> = match which.as_str() {
        "dctcp" => vec![("dctcp", SimConfig::default())],
        "newreno" => vec![("newreno", SimConfig::default().with_newreno())],
        "pfabric" => vec![("pfabric", SimConfig::default().with_pfabric())],
        "all" => vec![
            ("dctcp", SimConfig::default()),
            ("newreno", SimConfig::default().with_newreno()),
            ("pfabric", SimConfig::default().with_pfabric()),
        ],
        other => fail(&format!("unknown transport \"{other}\"")),
    };

    let topo = FatTree::full(4).build();
    let max_time = 40 * MS;
    let mut bad = 0u64;
    let mut cases = 0u64;
    for p in 0..plans {
        let seed = seed0.wrapping_add(p);
        let plan = FaultPlan::chaos(&topo, 4 * MS, seed);
        if let Err(e) = plan.validate_schedule(&topo, max_time) {
            eprintln!("dcnrun: chaos seed {seed}: generated plan invalid: {e}");
            bad += 1;
            continue;
        }
        for (name, base) in &transports {
            cases += 1;
            let mut cfg = *base;
            // Runaway watchdog: an adversarial schedule must never make a
            // small run process unbounded events (livelock).
            cfg.max_events = 50_000_000;
            for v in chaos_case(&topo, &plan, cfg, seed) {
                eprintln!("dcnrun: chaos seed {seed} transport {name}: VIOLATION: {v}");
                bad += 1;
            }
        }
    }
    println!(
        "chaos: {plans} plans x {} transports = {cases} runs, {bad} violations",
        transports.len()
    );
    if bad == 0 {
        EXIT_OK
    } else {
        EXIT_CRASH
    }
}
