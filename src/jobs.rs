//! The supervised-worker job runner shared by `dcnrun` and `dcnserve`.
//!
//! Both binaries execute experiments in disposable worker processes so a
//! crash, OOM kill, or live-lock loses at most one checkpoint interval.
//! This module is the worker's body: drive a materialized
//! [`Experiment`](crate::config::Experiment) in simulated-time chunks,
//! checkpoint full simulator state on a wall-clock cadence, resume
//! automatically from an existing checkpoint, and render the final result
//! as deterministic JSON bytes — a crashed-and-resumed job produces bytes
//! identical to an uninterrupted one, which is what lets `dcnserve` cache
//! results and serve them interchangeably with fresh computations.
//!
//! Failures carry the `dcn_bench::supervise` exit-code taxonomy so the
//! supervising parent (either binary) classifies them without parsing
//! stderr: config problems are final, crashes are retryable, corrupt
//! checkpoints break the resume chain and are final.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::config::Experiment;
use crate::prelude::*;
use dcn_bench::supervise::{EXIT_CKPT_CORRUPT, EXIT_CONFIG, EXIT_CRASH, EXIT_OK_DEGRADED};

/// Failure-injection hooks threaded from hidden CLI flags; they make the
/// supervision paths testable against genuinely unclean deaths.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashHooks {
    /// SIGKILL the process right after writing the Nth checkpoint.
    pub die_after_checkpoints: Option<u64>,
    /// Hang forever right after writing the Nth checkpoint.
    pub stall_after_checkpoints: Option<u64>,
}

/// Why a job could not produce result bytes, carrying the exit code the
/// worker process should die with.
#[derive(Debug)]
pub struct JobFailure {
    pub exit_code: i32,
    pub message: String,
}

impl JobFailure {
    fn config(message: String) -> Self {
        JobFailure {
            exit_code: EXIT_CONFIG,
            message,
        }
    }

    fn corrupt(message: String) -> Self {
        JobFailure {
            exit_code: EXIT_CKPT_CORRUPT,
            message,
        }
    }
}

/// Kills the current process without running destructors or exit
/// handlers — the crash-injection hook, so resume is exercised against a
/// genuinely unclean death.
fn die_uncleanly() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    std::process::abort() // no `kill` binary: SIGABRT is unclean enough
}

/// Builds a fresh (non-resumed) simulator for `exp`, with the config's
/// trace and telemetry destinations attached (a worker writes no
/// manifest).
fn fresh_simulator(tool: &str, exp: &Experiment) -> Result<Simulator, JobFailure> {
    let mut run = exp.run();
    let sinks = Sinks {
        manifest: None,
        ..exp.sinks.clone()
    };
    sinks
        .attach(&mut run, tool, exp.seed)
        .map_err(JobFailure::config)?;
    Ok(run.build())
}

/// A finished job: the result bytes plus whether durable persistence was
/// lost along the way (checkpoint writes failing — e.g. a full disk —
/// downgrade the run to compute-without-persist instead of killing it).
#[derive(Debug)]
pub struct JobResult {
    pub bytes: Vec<u8>,
    pub degraded: bool,
}

/// Runs `exp` to completion with periodic checkpoints and returns the
/// result JSON bytes. If `ckpt_path` already holds a checkpoint, the run
/// resumes from it (the supervisor removes stale ones before a fresh
/// job); `every_ms` is the wall-clock checkpoint cadence, 0 meaning every
/// simulated-time chunk (the deterministic test mode).
///
/// The result is derived from simulator state only, so a crashed-and-
/// resumed job returns byte-identical bytes to an uninterrupted one.
///
/// A checkpoint that cannot be *saved* (ENOSPC, injected fault) does not
/// fail the job: the run continues without crash protection and the
/// result is flagged [`JobResult::degraded`] — losing a safety net is
/// strictly better than losing the computation. A checkpoint that cannot
/// be *loaded* is still fatal (`EXIT_CKPT_CORRUPT`): resuming from bad
/// state could silently produce wrong bytes.
pub fn run_job(
    tool: &str,
    exp: &Experiment,
    ckpt_path: &str,
    every_ms: u64,
    hooks: CrashHooks,
) -> Result<JobResult, JobFailure> {
    // Route checkpoint persistence through the failpoint registry. The
    // hook is a OnceLock — repeated installs are no-ops — and costs one
    // disarmed atomic load per site when no faults are armed.
    dcn_sim::install_io_hook(dcn_core::failpoint::fail_io);
    let mut sim = if std::fs::metadata(ckpt_path).is_ok() {
        let ckpt = Checkpoint::load(ckpt_path)
            .map_err(|e| JobFailure::corrupt(format!("load checkpoint {ckpt_path}: {e}")))?;
        let s = Simulator::restore(&exp.topo, exp.routing.selector(&exp.topo), exp.sim, &ckpt)
            .map_err(|e| JobFailure::corrupt(format!("restore {ckpt_path}: {e}")))?;
        eprintln!(
            "{tool}: resumed from {ckpt_path} at t={} ns ({} events)",
            s.now(),
            s.events_processed()
        );
        s
    } else {
        fresh_simulator(tool, exp)?
    };

    // Drive in simulated-time chunks; between chunks, checkpoint on the
    // wall-clock cadence (0 = every chunk, the deterministic test mode).
    let chunk = (exp.max_time / 200).max(1);
    let mut written = 0u64;
    let mut degraded = false;
    let mut last_ckpt = Instant::now();
    let mut done = false;
    // First chunk boundary strictly ahead of the clock (resume lands
    // exactly on one).
    let mut stop = (sim.now() / chunk + 1) * chunk;
    while stop < exp.max_time {
        done = sim.run_until(stop);
        stop += chunk;
        if done {
            break;
        }
        if !degraded && (every_ms == 0 || last_ckpt.elapsed() >= Duration::from_millis(every_ms)) {
            let ckpt = sim
                .checkpoint()
                .map_err(|e| JobFailure::config(format!("checkpoint: {e}")))?;
            match ckpt.save(ckpt_path) {
                Ok(()) => written += 1,
                Err(e) => {
                    // Persistence failed (full disk, injected fault):
                    // degrade to compute-without-persist. The result is
                    // still exact; only crash protection is lost. Any
                    // partial checkpoint on disk is removed so a later
                    // resume cannot read it — the `.tmp` never became
                    // `ckpt_path`, but a *stale complete* checkpoint from
                    // an earlier save would rewind a resumed run, which
                    // is correct but wasteful; keep it.
                    eprintln!(
                        "{tool}: warning: checkpoint save failed ({e}); \
                         continuing without crash protection"
                    );
                    degraded = true;
                }
            }
            last_ckpt = Instant::now();
            if hooks.die_after_checkpoints == Some(written) && written > 0 {
                die_uncleanly();
            }
            if hooks.stall_after_checkpoints == Some(written) && written > 0 {
                loop {
                    std::thread::sleep(Duration::from_secs(3600)); // hang forever
                }
            }
        }
    }
    if !done {
        sim.run_until(exp.max_time);
    }
    let records = sim.finish();
    let m = compute_metrics(&records, exp.window.0, exp.window.1);
    let drops = sim.drop_breakdown();

    let report = dcn_json::Json::obj(vec![
        ("seed", dcn_json::Json::from(exp.seed)),
        ("topology", dcn_json::Json::from(exp.topo.name())),
        ("flows_measured", dcn_json::Json::from(m.flows)),
        ("completed", dcn_json::Json::from(m.completed)),
        ("failed", dcn_json::Json::from(m.failed)),
        ("avg_fct_ms", dcn_json::Json::from(m.avg_fct_ms)),
        ("p99_short_fct_ms", dcn_json::Json::from(m.p99_short_fct_ms)),
        (
            "avg_long_tput_gbps",
            dcn_json::Json::from(m.avg_long_tput_gbps),
        ),
        (
            "congestion_drops",
            dcn_json::Json::from(drops.congestion + drops.eviction),
        ),
        (
            "fault_drops",
            dcn_json::Json::from(drops.fault + drops.noroute),
        ),
        ("ecn_marks", dcn_json::Json::from(sim.total_marks())),
        ("events", dcn_json::Json::from(sim.events_processed())),
    ]);
    let mut body = report.pretty();
    body.push('\n');
    Ok(JobResult {
        bytes: body.into_bytes(),
        degraded,
    })
}

/// The full hidden-`worker`-subcommand body shared by `dcnrun` and
/// `dcnserve`: load the config, run the job (resuming if a checkpoint
/// exists), write the result atomically, clean up the checkpoint, and
/// return the process exit code from the supervise taxonomy.
pub fn worker_main(
    tool: &str,
    cfg_path: &str,
    result_path: &str,
    ckpt_path: &str,
    every_ms: u64,
    hooks: CrashHooks,
) -> i32 {
    let exp = match crate::config::load_experiment(cfg_path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{tool}: error: {e}");
            return EXIT_CONFIG;
        }
    };
    let result = match run_job(tool, &exp, ckpt_path, every_ms, hooks) {
        Ok(r) => r,
        Err(f) => {
            eprintln!("{tool}: error: {}", f.message);
            return f.exit_code;
        }
    };
    if let Err(e) = dcn_core::write_atomic(result_path, &result.bytes) {
        eprintln!("{tool}: error: write result {result_path}: {e}");
        return EXIT_CRASH;
    }
    let _ = std::fs::remove_file(ckpt_path); // job done; nothing to resume
    if result.degraded {
        // The bytes are correct and durably written; only checkpoint
        // persistence was lost mid-run. Report that out-of-band via the
        // taxonomy so the supervisor can count it without parsing stderr.
        return EXIT_OK_DEGRADED;
    }
    dcn_bench::supervise::EXIT_OK
}
