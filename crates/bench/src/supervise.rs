//! Child-process supervision primitives for the `dcnrun` harness: a
//! wall-clock watchdog around one attempt, an exponential retry backoff,
//! and the exit-code taxonomy shared between the supervisor and its
//! workers.
//!
//! The supervisor/worker split exists so a crash — OOM kill, panic,
//! `SIGKILL` — loses at most one checkpoint interval of work: the
//! supervisor stays alive, notices the child's fate via [`run_attempt`],
//! and relaunches it with [`retry`] resuming from the last good
//! checkpoint. A *hung* child (live-locked, or stuck on I/O) is handled by
//! the same path: the watchdog kills it after `timeout` and reports
//! [`Attempt::TimedOut`].

use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Exit-code taxonomy. Workers exit with these; the supervisor's own exit
/// code is the worst outcome across its batch.
pub const EXIT_OK: i32 = 0;
/// The config is invalid — retrying cannot help.
pub const EXIT_CONFIG: i32 = 1;
/// The worker died (panic, signal, OOM): retry from the last checkpoint.
pub const EXIT_CRASH: i32 = 2;
/// The watchdog killed a hung worker.
pub const EXIT_TIMEOUT: i32 = 3;
/// A checkpoint failed to load (corrupt or mismatched) — the resume chain
/// is broken.
pub const EXIT_CKPT_CORRUPT: i32 = 4;
/// The worker finished and its result is correct, but durable persistence
/// (checkpointing) was lost along the way — e.g. the checkpoint disk
/// filled. A success for the caller, a degraded-mode signal for the
/// supervisor: the run completed without crash protection.
pub const EXIT_OK_DEGRADED: i32 = 7;

/// What happened to one supervised attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// The child exited on its own with this code.
    Exited(i32),
    /// The child was killed by a signal (no exit code).
    Signaled,
    /// The watchdog killed the child at the wall-clock deadline.
    TimedOut,
    /// The child could not even be launched (fork/exec failure — fd or
    /// PID exhaustion, a vanished binary). Transient on a loaded host,
    /// so retryable like a crash.
    SpawnFailed,
}

impl Attempt {
    /// Whether another attempt could change the outcome: crashes,
    /// timeouts, and spawn failures are retryable; success (degraded or
    /// not) and config/checkpoint errors are final.
    pub fn retryable(self) -> bool {
        match self {
            Attempt::Exited(EXIT_OK)
            | Attempt::Exited(EXIT_CONFIG)
            | Attempt::Exited(EXIT_CKPT_CORRUPT)
            | Attempt::Exited(EXIT_OK_DEGRADED) => false,
            Attempt::Exited(_) | Attempt::Signaled | Attempt::TimedOut | Attempt::SpawnFailed => {
                true
            }
        }
    }

    /// The supervisor-side exit code this attempt maps to. A degraded
    /// success is still a success — degradation is reported out-of-band
    /// (counters, logs), not through the batch exit code.
    pub fn exit_code(self) -> i32 {
        match self {
            Attempt::Exited(EXIT_OK_DEGRADED) => EXIT_OK,
            Attempt::Exited(c @ (EXIT_OK | EXIT_CONFIG | EXIT_CKPT_CORRUPT)) => c,
            Attempt::Exited(_) | Attempt::Signaled | Attempt::SpawnFailed => EXIT_CRASH,
            Attempt::TimedOut => EXIT_TIMEOUT,
        }
    }

    /// Whether this attempt is a success that lost durable persistence.
    pub fn degraded(self) -> bool {
        self == Attempt::Exited(EXIT_OK_DEGRADED)
    }
}

/// Outcome of a full supervised job: the final attempt plus how much
/// supervision it took to get there.
#[derive(Clone, Copy, Debug)]
pub struct JobOutcome {
    pub last: Attempt,
    /// Attempts launched (≥ 1).
    pub attempts: u32,
    pub wall: Duration,
}

impl JobOutcome {
    pub fn exit_code(&self) -> i32 {
        self.last.exit_code()
    }
}

/// Retry pacing for `dcnrun`'s worker relaunches: exponential growth from
/// `base`, capped at `cap`, with **deterministic jitter** — each delay is
/// drawn into `[d/2, d)` by a splitmix64 hash of `(jitter_seed, attempt)`.
///
/// The jitter matters at the fleet level: when a shared dependency
/// hiccups, N clients whose workers died simultaneously would otherwise
/// all retry on the same doubling schedule and arrive as one thundering
/// herd, forever in phase. Seeding per job (e.g. by job index or cache
/// key) de-phases them while keeping every run bit-reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First delay (before jitter).
    pub base: Duration,
    /// Upper bound on the un-jittered delay.
    pub cap: Duration,
    /// Seed for the jitter draw; same seed → same delays.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The conventional policy: `base` growing to a 10 s cap, jitter
    /// stream 0.
    pub fn new(base: Duration) -> RetryPolicy {
        RetryPolicy {
            base,
            cap: Duration::from_secs(10),
            jitter_seed: 0,
        }
    }

    /// Same schedule shape, different jitter stream — give each job its
    /// own seed so coexisting retry loops de-phase.
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Delay before retry `attempt` (0-based): `base · 2^attempt` capped
    /// at `cap`, then jittered into `[d/2, d)`. Deterministic in
    /// `(jitter_seed, attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        let d = self.base.saturating_mul(factor).min(self.cap);
        let nanos = d.as_nanos() as u64;
        if nanos < 2 {
            return d;
        }
        let mut s = self.jitter_seed ^ (u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let draw = dcn_rng::splitmix64(&mut s);
        let half = nanos / 2;
        Duration::from_nanos(half + draw % (nanos - half))
    }
}

/// Polling cadence for the watchdog loop. Coarse enough to cost nothing,
/// fine enough that a timeout lands within ~25 ms of the deadline.
const POLL: Duration = Duration::from_millis(25);

fn wait_outcome(child: &mut Child, timeout: Option<Duration>) -> std::io::Result<Attempt> {
    let deadline = timeout.map(|t| Instant::now() + t);
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(match status.code() {
                Some(c) => Attempt::Exited(c),
                None => Attempt::Signaled,
            });
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            child.kill()?;
            child.wait()?;
            return Ok(Attempt::TimedOut);
        }
        std::thread::sleep(POLL);
    }
}

/// Launches `cmd` and supervises it to completion: returns how the child
/// ended, killing it first if it outlives `timeout` (the hung-job
/// watchdog). `None` means no deadline. A failed `spawn` — including one
/// injected through the `supervise.spawn` failpoint — is
/// [`Attempt::SpawnFailed`], an outcome like any other, so retry loops
/// treat it as transient instead of aborting the whole job.
pub fn run_attempt(cmd: &mut Command, timeout: Option<Duration>) -> std::io::Result<Attempt> {
    let mut child = match dcn_core::failpoint::fail_io("supervise.spawn").and_then(|()| cmd.spawn())
    {
        Ok(c) => c,
        Err(_) => return Ok(Attempt::SpawnFailed),
    };
    wait_outcome(&mut child, timeout)
}

/// Full retry loop: launches the command built by `make_cmd(attempt)` up
/// to `1 + max_retries` times, pacing attempts by `policy`, until an
/// attempt is non-retryable (success, config error, corrupt checkpoint)
/// or the budget is spent. The builder sees the attempt index so retries
/// can add resume flags.
pub fn retry(
    mut make_cmd: impl FnMut(u32) -> Command,
    timeout: Option<Duration>,
    max_retries: u32,
    policy: RetryPolicy,
) -> std::io::Result<JobOutcome> {
    let t0 = Instant::now();
    let mut attempt = 0;
    loop {
        let last = run_attempt(&mut make_cmd(attempt), timeout)?;
        attempt += 1;
        if !last.retryable() || attempt > max_retries {
            return Ok(JobOutcome {
                last,
                attempts: attempt,
                wall: t0.elapsed(),
            });
        }
        std::thread::sleep(policy.delay(attempt - 1));
    }
}

/// Work-stealing dispatch for a batch of independent indexed jobs.
///
/// `workers` OS threads share one take-a-number queue: an idle worker
/// claims the next undispatched index, runs `run(i)`, and comes back for
/// more — so job durations load-balance themselves with no up-front
/// partitioning. `run` returns `(result, keep_dispatching)`; returning
/// `false` stops the queue (the batch fail-fast), letting in-flight jobs
/// finish but dispatching nothing further.
///
/// Returns the completed `(index, result)` pairs **sorted by index** —
/// callers emit summaries in job order, independent of which worker
/// finished when — plus the indexes never dispatched, also in order.
pub fn run_queue<R: Send>(
    jobs: usize,
    workers: usize,
    run: impl Fn(usize) -> (R, bool) + Sync,
) -> (Vec<(usize, R)>, Vec<usize>) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs));
    let workers = workers.clamp(1, jobs.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= jobs {
                    return;
                }
                let (r, keep_dispatching) = run(i);
                if !keep_dispatching {
                    stop.store(true, Ordering::SeqCst);
                }
                done.lock().unwrap().push((i, r));
            });
        }
    });
    let mut results = done.into_inner().unwrap();
    results.sort_by_key(|&(i, _)| i);
    let mut ran = vec![false; jobs];
    for &(i, _) in &results {
        ran[i] = true;
    }
    let skipped = (0..jobs).filter(|&i| !ran[i]).collect();
    (results, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that spawns through [`run_attempt`]: the
    /// `supervise.spawn` failpoint is process-global, so a test that arms
    /// it must not share the window with one that spawns.
    static SPAWN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn spawn_lock() -> std::sync::MutexGuard<'static, ()> {
        SPAWN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn clean_exit_is_reported() {
        let _g = spawn_lock();
        let a = run_attempt(&mut sh("exit 0"), None).unwrap();
        assert_eq!(a, Attempt::Exited(0));
        assert_eq!(a.exit_code(), EXIT_OK);
        assert!(!a.retryable());
    }

    #[test]
    fn crash_codes_map_to_crash() {
        let _g = spawn_lock();
        let a = run_attempt(&mut sh("exit 9"), None).unwrap();
        assert_eq!(a, Attempt::Exited(9));
        assert_eq!(a.exit_code(), EXIT_CRASH);
        assert!(a.retryable());
    }

    #[test]
    fn degraded_success_is_success_not_retryable() {
        let _g = spawn_lock();
        let a = run_attempt(&mut sh("exit 7"), None).unwrap();
        assert_eq!(a, Attempt::Exited(EXIT_OK_DEGRADED));
        assert!(a.degraded());
        assert!(
            !a.retryable(),
            "the result is correct; retrying wastes work"
        );
        assert_eq!(
            a.exit_code(),
            EXIT_OK,
            "degradation is out-of-band, not an error"
        );
        assert!(!Attempt::Exited(EXIT_OK).degraded());
    }

    #[test]
    fn spawn_failure_is_a_retryable_outcome_not_an_error() {
        let _g = spawn_lock();
        let a = run_attempt(&mut Command::new("/no/such/binary/anywhere"), None).unwrap();
        assert_eq!(a, Attempt::SpawnFailed);
        assert!(a.retryable());
        assert_eq!(a.exit_code(), EXIT_CRASH);
    }

    #[test]
    fn injected_spawn_failure_retries_to_success() {
        let _g = spawn_lock();
        dcn_core::failpoint::configure("supervise.spawn", "2*err");
        let out = retry(
            |_| sh("exit 0"),
            None,
            3,
            RetryPolicy::new(Duration::from_millis(1)),
        )
        .unwrap();
        dcn_core::failpoint::disarm("supervise.spawn");
        assert_eq!(out.last, Attempt::Exited(0));
        assert_eq!(out.attempts, 3, "two injected spawn failures, then success");
    }

    #[test]
    fn config_and_checkpoint_errors_are_final() {
        assert!(!Attempt::Exited(EXIT_CONFIG).retryable());
        assert_eq!(Attempt::Exited(EXIT_CONFIG).exit_code(), EXIT_CONFIG);
        assert!(!Attempt::Exited(EXIT_CKPT_CORRUPT).retryable());
        assert_eq!(
            Attempt::Exited(EXIT_CKPT_CORRUPT).exit_code(),
            EXIT_CKPT_CORRUPT
        );
    }

    #[test]
    fn watchdog_kills_a_hung_child() {
        let _g = spawn_lock();
        let t0 = Instant::now();
        let a = run_attempt(&mut sh("sleep 30"), Some(Duration::from_millis(100))).unwrap();
        assert_eq!(a, Attempt::TimedOut);
        assert_eq!(a.exit_code(), EXIT_TIMEOUT);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "watchdog did not fire"
        );
    }

    #[test]
    fn sigkilled_child_is_a_crash() {
        let _g = spawn_lock();
        // The shell kills itself with SIGKILL: no exit code.
        let a = run_attempt(&mut sh("kill -9 $$"), None).unwrap();
        assert_eq!(a, Attempt::Signaled);
        assert_eq!(a.exit_code(), EXIT_CRASH);
        assert!(a.retryable());
    }

    #[test]
    fn retry_policy_doubles_caps_and_jitters_within_bounds() {
        let p = RetryPolicy::new(Duration::from_millis(100));
        // Un-jittered schedule: 100, 200, 400, ..., capped at 10 s. Each
        // jittered delay lands in [d/2, d).
        for (attempt, ms) in [(0u32, 100u64), (1, 200), (3, 800), (30, 10_000)] {
            let d = p.delay(attempt);
            let lo = Duration::from_millis(ms / 2);
            let hi = Duration::from_millis(ms);
            assert!(
                d >= lo && d < hi,
                "attempt {attempt}: {d:?} outside [{lo:?}, {hi:?})"
            );
        }
        assert!(p.delay(u32::MAX) < Duration::from_secs(10));
    }

    #[test]
    fn retry_policy_jitter_is_deterministic_and_seed_dependent() {
        let base = RetryPolicy::new(Duration::from_millis(100));
        let a: Vec<_> = (0..8).map(|i| base.with_seed(7).delay(i)).collect();
        let b: Vec<_> = (0..8).map(|i| base.with_seed(7).delay(i)).collect();
        let c: Vec<_> = (0..8).map(|i| base.with_seed(8).delay(i)).collect();
        assert_eq!(a, b, "same seed must replay the same delays");
        assert_ne!(a, c, "different seeds must de-phase (anti-thundering-herd)");
    }

    #[test]
    fn retry_policy_handles_degenerate_bases() {
        // Zero and one-nanosecond bases must not divide by zero or panic.
        let p = RetryPolicy::new(Duration::ZERO);
        assert_eq!(p.delay(0), Duration::ZERO);
        let p = RetryPolicy::new(Duration::from_nanos(1));
        assert!(p.delay(0) <= Duration::from_nanos(1));
    }

    #[test]
    fn retry_recovers_from_a_crash() {
        let _g = spawn_lock();
        let marker = std::env::temp_dir().join(format!("supervise_retry_{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let script = format!(
            "test -f {m} && exit 0; touch {m}; exit 9",
            m = marker.display()
        );
        let out = retry(
            |_| sh(&script),
            None,
            3,
            RetryPolicy::new(Duration::from_millis(1)),
        )
        .unwrap();
        assert_eq!(out.last, Attempt::Exited(0));
        assert_eq!(out.attempts, 2, "first attempt crashes, second succeeds");
        assert_eq!(out.exit_code(), EXIT_OK);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn retry_budget_is_finite() {
        let _g = spawn_lock();
        let out = retry(
            |_| sh("exit 9"),
            None,
            2,
            RetryPolicy::new(Duration::from_millis(1)),
        )
        .unwrap();
        assert_eq!(out.attempts, 3, "initial + 2 retries");
        assert_eq!(out.exit_code(), EXIT_CRASH);
    }

    #[test]
    fn retry_stops_at_config_errors() {
        let _g = spawn_lock();
        let out = retry(
            |_| sh("exit 1"),
            None,
            5,
            RetryPolicy::new(Duration::from_millis(1)),
        )
        .unwrap();
        assert_eq!(out.attempts, 1, "config errors must not be retried");
        assert_eq!(out.exit_code(), EXIT_CONFIG);
    }

    #[test]
    fn run_queue_returns_results_in_job_order() {
        // Uneven job durations: later jobs finish first under parallelism,
        // yet results must come back index-ordered.
        let (results, skipped) = run_queue(8, 4, |i| {
            std::thread::sleep(Duration::from_millis((8 - i as u64) * 3));
            (i * 10, true)
        });
        assert_eq!(skipped, Vec::<usize>::new());
        let idx: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
        for &(i, r) in &results {
            assert_eq!(r, i * 10);
        }
    }

    #[test]
    fn run_queue_actually_runs_jobs_concurrently() {
        // Two jobs rendezvous: each waits (bounded) for the other to have
        // started. Only possible when both are in flight at once.
        let started = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let (results, _) = run_queue(2, 2, |i| {
            started[i].store(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while started[1 - i].load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < deadline, "peer job never started");
                std::thread::yield_now();
            }
            (i, true)
        });
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn run_queue_fail_fast_skips_undispatched_jobs() {
        // Single worker, job 1 pulls the plug: 2..6 are never dispatched.
        let (results, skipped) = run_queue(6, 1, |i| (i, i != 1));
        let idx: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![0, 1]);
        assert_eq!(skipped, vec![2, 3, 4, 5]);
    }

    #[test]
    fn run_queue_clamps_workers_and_handles_empty_batches() {
        let (results, skipped) = run_queue(3, 64, |i| (i, true));
        assert_eq!(results.len(), 3);
        assert!(skipped.is_empty());
        let (results, skipped) = run_queue(0, 4, |_| ((), true));
        assert!(results.is_empty());
        assert!(skipped.is_empty());
    }
}
