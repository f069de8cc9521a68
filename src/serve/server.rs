//! The `dcnserve` daemon: accept loop, per-connection protocol driver,
//! request coalescing, worker supervision, and graceful drain.
//!
//! Robustness posture, layer by layer:
//!
//! - **Workers are disposable.** Every `run` request executes in a child
//!   process through the `dcn_bench::supervise` machinery — the same
//!   auto-checkpoint / watchdog / retry-from-checkpoint loop `dcnrun`
//!   uses — so a SIGKILLed or hung worker costs one checkpoint interval,
//!   not the request. Resumed results are byte-identical to
//!   uninterrupted ones (the PR-5 checkpoint guarantee), so retries are
//!   invisible to clients.
//! - **Deadlines propagate.** A request's `deadline_ms` bounds queue
//!   wait, every worker attempt (as the watchdog timeout), and retry
//!   backoff; when it expires the worker is killed and the client gets
//!   `deadline_exceeded`, never silence.
//! - **Load sheds, never stalls.** Admission control
//!   ([`super::admission`]) fronts the worker pool with a bounded queue
//!   and explicit `overloaded` rejections.
//! - **Slow or vanished clients cannot wedge the daemon.** Sockets carry
//!   write timeouts, idle connections are reaped, and a client
//!   disconnecting mid-frame just ends its connection thread.
//! - **The cache heals itself.** Entries are checksummed on read;
//!   corruption is quarantined and the result recomputed
//!   ([`super::cache`]).
//! - **Identical concurrent requests coalesce.** One worker computes; the
//!   followers wait (bounded by their deadlines) and serve the cached
//!   bytes — also what keeps two workers from racing on one checkpoint
//!   path.
//! - **SIGTERM drains.** The listener stops accepting, open connections
//!   get `draining` for new requests, in-flight jobs finish (or hit
//!   their deadlines), and the process exits with a code from the
//!   taxonomy below.
//!
//! Exit codes extend `dcnrun`'s 0–4 (see [`dcn_bench::supervise`]):
//! [`EXIT_SOCKET`] (5) — could not bind/listen; [`EXIT_DRAIN_TIMEOUT`]
//! (6) — SIGTERM received but connections outlived the drain budget.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dcn_bench::supervise::{self, Attempt, EXIT_CKPT_CORRUPT, EXIT_CONFIG, EXIT_OK};
use dcn_json::Json;
use dcn_rng::Fnv1a;

use super::admission::{Admission, Admit};
use super::cache::{self, ArtifactCache, CacheKey, Lookup};
use super::protocol::{self, envelope, FrameError, ParseError, Request};
use crate::config::Experiment;
use crate::metrics::{Counter, Gauge, Histogram, Registry};
use dcn_sim::config_fingerprint;

/// Could not bind or listen on the requested socket.
pub const EXIT_SOCKET: i32 = 5;
/// Drain deadline passed with connections still open.
pub const EXIT_DRAIN_TIMEOUT: i32 = 6;

/// Everything the daemon is configured with; `Default` is a sane
/// production-ish shape, the CLI layers flags on top.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP listen address (`"127.0.0.1:0"` picks a free port).
    pub tcp: Option<String>,
    /// Unix-domain socket path (alternative or addition to TCP).
    pub unix: Option<String>,
    /// Root for `cache/`, `jobs/` spool, and worker checkpoints.
    pub state_dir: String,
    /// Written (atomically) with the bound address once listening —
    /// how tests and scripts find an ephemeral port.
    pub addr_file: Option<String>,
    pub max_workers: usize,
    pub max_queue: usize,
    /// Applied when a request carries no `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Reap a connection idle longer than this.
    pub idle_timeout_ms: u64,
    /// Slow-client guard on every socket write.
    pub write_timeout_ms: u64,
    /// How long SIGTERM waits for connections to finish.
    pub drain_timeout_ms: u64,
    /// Worker auto-checkpoint cadence (0 = every chunk).
    pub checkpoint_every_ms: u64,
    /// Worker relaunch budget per request.
    pub retries: u32,
    /// Base retry backoff; grows exponentially with deterministic jitter
    /// (see [`supervise::RetryPolicy`]), capped at 10 s.
    pub backoff_ms: u64,
    /// LRU bound on total cache entry bytes (`None` = unbounded). On
    /// overflow, least-recently-used entries are evicted atomically after
    /// each store.
    pub cache_max_bytes: Option<u64>,
    /// Chaos hook: first worker attempt of every job SIGKILLs itself
    /// after its first checkpoint, so retry-from-checkpoint is exercised
    /// on live traffic.
    pub inject_worker_crash: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tcp: Some("127.0.0.1:7440".to_string()),
            unix: None,
            state_dir: "dcnserve-state".to_string(),
            addr_file: None,
            max_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queue: 16,
            default_deadline_ms: 120_000,
            idle_timeout_ms: 30_000,
            write_timeout_ms: 5_000,
            drain_timeout_ms: 30_000,
            checkpoint_every_ms: 1_000,
            retries: 2,
            backoff_ms: 200,
            cache_max_bytes: None,
            inject_worker_crash: false,
        }
    }
}

/// Daemon-wide counters, served by the `stats` op and exposed through
/// the `metrics` op. Each field is a [`Registry`] handle, so the JSON
/// stats response and the Prometheus exposition read the same cells —
/// there is one source of truth for every count.
#[derive(Debug)]
pub struct Stats {
    pub requests: Counter,
    pub run_ok: Counter,
    pub served_cached: Counter,
    pub recomputed_after_quarantine: Counter,
    pub coalesced: Counter,
    pub overloaded: Counter,
    pub deadline_exceeded: Counter,
    pub errors_config: Counter,
    pub errors_unknown_op: Counter,
    pub errors_crash: Counter,
    pub errors_ckpt_corrupt: Counter,
    pub errors_internal: Counter,
    pub draining_refused: Counter,
    pub worker_relaunches: Counter,
    pub protocol_errors: Counter,
    pub disconnects: Counter,
    pub conns: Counter,
    /// Requests answered correctly but without durable persistence —
    /// the worker lost checkpointing (ENOSPC) or the result could not be
    /// cached. Correctness held; durability degraded.
    pub degraded: Counter,
}

impl Stats {
    fn new(reg: &Registry) -> Stats {
        let c = |name, help| reg.counter(name, help);
        Stats {
            requests: c("dcnserve_requests_total", "Requests received, any op."),
            run_ok: c(
                "dcnserve_run_ok_total",
                "Run requests computed successfully (cache misses).",
            ),
            served_cached: c(
                "dcnserve_cache_served_total",
                "Run requests answered from the verified cache.",
            ),
            recomputed_after_quarantine: c(
                "dcnserve_recomputed_after_quarantine_total",
                "Runs recomputed because the cached entry was corrupt.",
            ),
            coalesced: c(
                "dcnserve_coalesced_total",
                "Followers served from a leader's freshly cached result.",
            ),
            overloaded: c(
                "dcnserve_shed_overloaded_total",
                "Run requests shed by admission control.",
            ),
            deadline_exceeded: c(
                "dcnserve_deadline_exceeded_total",
                "Requests that ran out of deadline budget.",
            ),
            errors_config: c(
                "dcnserve_errors_config_total",
                "Requests rejected for a malformed frame or config.",
            ),
            errors_unknown_op: c(
                "dcnserve_errors_unknown_op_total",
                "Requests with an op this server does not implement.",
            ),
            errors_crash: c(
                "dcnserve_errors_crash_total",
                "Runs that exhausted the worker relaunch budget.",
            ),
            errors_ckpt_corrupt: c(
                "dcnserve_errors_checkpoint_corrupt_total",
                "Runs aborted on a corrupt checkpoint (chain discarded).",
            ),
            errors_internal: c(
                "dcnserve_errors_internal_total",
                "Daemon-side failures (spawn, spool, panic).",
            ),
            draining_refused: c(
                "dcnserve_draining_refused_total",
                "Requests refused because the daemon was draining.",
            ),
            worker_relaunches: c(
                "dcnserve_worker_relaunches_total",
                "Worker processes relaunched after a retryable failure.",
            ),
            protocol_errors: c(
                "dcnserve_protocol_errors_total",
                "Frames that could not be parsed as requests.",
            ),
            disconnects: c(
                "dcnserve_disconnects_total",
                "Clients that vanished mid-conversation.",
            ),
            conns: c("dcnserve_connections_total", "Connections accepted."),
            degraded: c(
                "dcnserve_degraded_total",
                "Requests served correctly but without durable persistence.",
            ),
        }
    }
}

/// SIGTERM/SIGINT flag. Signal handlers may only touch statics, so the
/// drain switch is process-global; `dcnserve` runs one server per
/// process.
static DRAIN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_drain_handler() {
    extern "C" fn on_signal(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_signal); // SIGTERM
        signal(2, on_signal); // SIGINT
    }
}

/// Test hook: trip the drain switch in-process.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

fn draining() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

// ------------------------------------------------------------ coalescing

/// Single-flight registry: at most one worker computes a given cache key
/// at a time; identical concurrent requests wait and then read the cache.
#[derive(Default)]
struct InFlight {
    keys: Mutex<HashSet<String>>,
    done: Condvar,
}

enum Flight {
    /// This request computes; the guard releases the key on drop (even on
    /// panic, so a dying leader never strands its followers).
    Leader(FlightGuard),
    /// Another request was computing and has now finished (one way or the
    /// other): re-check the cache.
    Followed,
    DeadlineExceeded,
}

struct FlightGuard {
    reg: Arc<InFlight>,
    key: String,
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.reg.keys.lock().unwrap().remove(&self.key);
        self.reg.done.notify_all();
    }
}

impl InFlight {
    fn begin(self: &Arc<Self>, key: &str, deadline: Instant) -> Flight {
        let mut keys = self.keys.lock().unwrap();
        if keys.insert(key.to_string()) {
            return Flight::Leader(FlightGuard {
                reg: Arc::clone(self),
                key: key.to_string(),
            });
        }
        while keys.contains(key) {
            let now = Instant::now();
            if now >= deadline {
                return Flight::DeadlineExceeded;
            }
            let (k, _) = self
                .done
                .wait_timeout(keys, deadline.duration_since(now))
                .unwrap();
            keys = k;
        }
        Flight::Followed
    }
}

// -------------------------------------------------------------- sockets

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn configure(&self, read_ms: u64, write_ms: u64) {
        let r = Some(Duration::from_millis(read_ms.max(1)));
        let w = Some(Duration::from_millis(write_ms.max(1)));
        match self {
            Conn::Tcp(s) => {
                let _ = s.set_read_timeout(r);
                let _ = s.set_write_timeout(w);
            }
            Conn::Unix(s) => {
                let _ = s.set_read_timeout(r);
                let _ = s.set_write_timeout(w);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------- shared state

struct Server {
    opts: ServeOptions,
    cache: ArtifactCache,
    gate: Arc<Admission>,
    inflight: Arc<InFlight>,
    registry: Registry,
    stats: Stats,
    /// Liveness gauges synced from their sources at render time (the
    /// admission gate and the cache own the live values).
    workers_running: Gauge,
    workers_queued: Gauge,
    cache_entries: Gauge,
    cache_bytes: Gauge,
    uptime_ms: Gauge,
    /// End-to-end `run` handling wall time, cached hits included.
    run_latency_ms: Histogram,
    started: Instant,
    active_conns: AtomicUsize,
    /// Uniquifies spool paths for non-coalescable (`no_cache`) jobs.
    job_serial: AtomicU64,
    jobs_dir: PathBuf,
    worker_exe: PathBuf,
}

impl Server {
    /// Version identity reported by `stats`: the crate plus the on-disk
    /// format versions a state dir depends on.
    fn version_json() -> Json {
        Json::obj(vec![
            ("crate", Json::from(env!("CARGO_PKG_VERSION"))),
            (
                "checkpoint_format",
                Json::from(dcn_sim::checkpoint::VERSION),
            ),
            ("schedule_version", Json::from(dcn_sim::SCHEDULE_VERSION)),
            ("cache_format", Json::from(cache::FORMAT_VERSION)),
        ])
    }

    /// Refreshes the gauges whose truth lives elsewhere (admission gate
    /// occupancy, cache directory, the clock). Called before every
    /// `stats`/`metrics` render so both views are consistent.
    fn sync_gauges(&self) {
        let (running, queued) = self.gate.occupancy();
        self.workers_running.set(running as u64);
        self.workers_queued.set(queued as u64);
        let (entries, bytes) = self.cache.disk_usage();
        self.cache_entries.set(entries);
        self.cache_bytes.set(bytes);
        self.uptime_ms
            .set(self.started.elapsed().as_millis() as u64);
    }

    fn stats_json(&self) -> Vec<u8> {
        self.sync_gauges();
        let s = &self.stats;
        let c = &self.cache.stats;
        let a = |v: &AtomicU64| Json::from(v.load(Ordering::Relaxed));
        let g = |v: &Counter| Json::from(v.get());
        envelope::ok_fields(vec![
            ("version", Self::version_json()),
            ("uptime_ms", Json::from(self.uptime_ms.get())),
            ("requests", g(&s.requests)),
            ("run_ok", g(&s.run_ok)),
            ("served_cached", g(&s.served_cached)),
            (
                "recomputed_after_quarantine",
                g(&s.recomputed_after_quarantine),
            ),
            ("coalesced", g(&s.coalesced)),
            ("overloaded", g(&s.overloaded)),
            ("deadline_exceeded", g(&s.deadline_exceeded)),
            ("errors_config", g(&s.errors_config)),
            ("errors_unknown_op", g(&s.errors_unknown_op)),
            ("errors_crash", g(&s.errors_crash)),
            ("errors_ckpt_corrupt", g(&s.errors_ckpt_corrupt)),
            ("errors_internal", g(&s.errors_internal)),
            ("draining_refused", g(&s.draining_refused)),
            ("worker_relaunches", g(&s.worker_relaunches)),
            ("protocol_errors", g(&s.protocol_errors)),
            ("disconnects", g(&s.disconnects)),
            ("conns", g(&s.conns)),
            ("degraded", g(&s.degraded)),
            ("cache_hits", a(&c.hits)),
            ("cache_misses", a(&c.misses)),
            ("cache_stores", a(&c.stores)),
            ("cache_quarantined", a(&c.quarantined)),
            ("cache_evicted", a(&c.evicted)),
            ("cache_quarantine_pruned", a(&c.quarantine_pruned)),
            ("cache_entries", Json::from(self.cache_entries.get())),
            ("cache_bytes", Json::from(self.cache_bytes.get())),
            ("workers_running", Json::from(self.workers_running.get())),
            ("workers_queued", Json::from(self.workers_queued.get())),
        ])
    }

    /// The Prometheus-style plaintext exposition body. Cache read-side
    /// counters live in [`cache::CacheStats`] atomics, so they are
    /// appended here rather than registered.
    fn metrics_text(&self) -> String {
        self.sync_gauges();
        let mut text = self.registry.render_text();
        let c = &self.cache.stats;
        for (name, help, v) in [
            (
                "dcnserve_cache_hits_total",
                "Verified cache reads.",
                c.hits.load(Ordering::Relaxed),
            ),
            (
                "dcnserve_cache_misses_total",
                "Cache lookups that found no entry.",
                c.misses.load(Ordering::Relaxed),
            ),
            (
                "dcnserve_cache_stores_total",
                "Results written to the cache.",
                c.stores.load(Ordering::Relaxed),
            ),
            (
                "dcnserve_cache_quarantined_total",
                "Corrupt entries moved to quarantine.",
                c.quarantined.load(Ordering::Relaxed),
            ),
            (
                "dcnserve_cache_evicted_total",
                "Entries evicted by the cache size bound (LRU).",
                c.evicted.load(Ordering::Relaxed),
            ),
            (
                "dcnserve_cache_quarantine_pruned_total",
                "Quarantined files pruned by the count cap.",
                c.quarantine_pruned.load(Ordering::Relaxed),
            ),
        ] {
            text.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        }
        text
    }
}

/// A finished `run` request, ready to frame back.
enum RunReply {
    Ok {
        cached: bool,
        key: String,
        attempts: u32,
        payload: Vec<u8>,
    },
    Envelope(Vec<u8>),
}

/// Derives the cache key for a materialized experiment + its canonical
/// config bytes.
fn cache_key(exp: &Experiment, canonical: &[u8]) -> CacheKey {
    CacheKey {
        topo: exp.topo.fingerprint(),
        sim_cfg: config_fingerprint(&exp.sim),
        faults: exp.faults.as_ref().map(|p| p.digest()).unwrap_or(0),
        request: Fnv1a::hash(canonical),
    }
}

/// Runs one job in supervised worker processes until success, a final
/// error, the retry budget, or the deadline — whichever first.
fn run_supervised_job(
    srv: &Server,
    cfg_path: &Path,
    result_path: &Path,
    ckpt_path: &Path,
    deadline: Instant,
) -> RunReplyKind {
    // Jitter stream seeded per job (by spool path), so N coalesced keys
    // whose workers died together retry out of phase instead of as one
    // thundering herd — while any single job replays deterministically.
    let policy = supervise::RetryPolicy::new(Duration::from_millis(srv.opts.backoff_ms))
        .with_seed(Fnv1a::hash(cfg_path.as_os_str().as_encoded_bytes()));
    let mut attempts = 0u32;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return RunReplyKind::DeadlineExceeded;
        }
        let mut cmd = Command::new(&srv.worker_exe);
        cmd.arg("worker")
            .arg(cfg_path)
            .arg("--result")
            .arg(result_path)
            .arg("--ckpt")
            .arg(ckpt_path)
            .arg("--checkpoint-every-ms")
            .arg(srv.opts.checkpoint_every_ms.to_string());
        if attempts == 0 && srv.opts.inject_worker_crash {
            cmd.arg("--die-after-checkpoints").arg("1");
        }
        let attempt = match supervise::run_attempt(&mut cmd, Some(remaining)) {
            Ok(a) => a,
            Err(e) => return RunReplyKind::Internal(format!("supervise worker: {e}")),
        };
        attempts += 1;
        match attempt {
            Attempt::Exited(EXIT_OK) => {
                return RunReplyKind::Ok {
                    attempts,
                    degraded: false,
                }
            }
            a if a.degraded() => {
                // Correct result, no durable checkpointing along the way.
                return RunReplyKind::Ok {
                    attempts,
                    degraded: true,
                };
            }
            Attempt::TimedOut => return RunReplyKind::DeadlineExceeded,
            Attempt::Exited(EXIT_CONFIG) => return RunReplyKind::Config,
            Attempt::Exited(EXIT_CKPT_CORRUPT) => return RunReplyKind::CkptCorrupt,
            a if a.retryable() && attempts <= srv.opts.retries => {
                srv.stats.worker_relaunches.inc();
                let pause = policy
                    .delay(attempts - 1)
                    .min(deadline.saturating_duration_since(Instant::now()));
                std::thread::sleep(pause);
            }
            _ => return RunReplyKind::Crash { attempts },
        }
    }
}

enum RunReplyKind {
    Ok { attempts: u32, degraded: bool },
    DeadlineExceeded,
    Config,
    CkptCorrupt,
    Crash { attempts: u32 },
    Internal(String),
}

fn handle_run(srv: &Server, config: Json, deadline_ms: Option<u64>, no_cache: bool) -> RunReply {
    let deadline =
        Instant::now() + Duration::from_millis(deadline_ms.unwrap_or(srv.opts.default_deadline_ms));

    // Materialize to validate and to derive the content-addressed key.
    // Config mistakes answer immediately; nothing is spawned or queued.
    let exp = match Experiment::from_json(&config) {
        Ok(e) => e,
        Err(e) => {
            srv.stats.errors_config.inc();
            return RunReply::Envelope(envelope::error("config", &e));
        }
    };
    let mut canonical = config.pretty();
    canonical.push('\n');
    let key = cache_key(&exp, canonical.as_bytes());
    let hex = key.hex();
    drop(exp); // the worker re-materializes; no need to hold flows here

    let mut recovered_from_quarantine = false;
    let mut waited_on_leader = false;
    // Coalescing loop: serve from cache, or compute as the single leader
    // for this key. `no_cache` requests skip both the cache read and the
    // registry (their spool paths are uniquified below instead).
    let _guard = loop {
        if !no_cache {
            match srv.cache.load(&key) {
                Lookup::Hit(payload) => {
                    srv.stats.served_cached.inc();
                    if waited_on_leader {
                        srv.stats.coalesced.inc();
                    }
                    return RunReply::Ok {
                        cached: true,
                        key: hex,
                        attempts: 0,
                        payload,
                    };
                }
                Lookup::Quarantined(why) => {
                    eprintln!("dcnserve: cache entry {hex}: {why}");
                    recovered_from_quarantine = true;
                }
                Lookup::Miss => {}
            }
        }
        if no_cache {
            break None;
        }
        match srv.inflight.begin(&hex, deadline) {
            Flight::Leader(g) => break Some(g),
            Flight::Followed => waited_on_leader = true, // re-check the cache
            Flight::DeadlineExceeded => {
                srv.stats.deadline_exceeded.inc();
                return RunReply::Envelope(envelope::status("deadline_exceeded"));
            }
        }
    };

    // Bounded admission into the worker pool.
    let _permit = match srv.gate.acquire(deadline) {
        Admit::Granted(p) => p,
        Admit::Overloaded => {
            srv.stats.overloaded.inc();
            return RunReply::Envelope(envelope::status("overloaded"));
        }
        Admit::DeadlineExceeded => {
            srv.stats.deadline_exceeded.inc();
            return RunReply::Envelope(envelope::status("deadline_exceeded"));
        }
    };

    // Spool the canonical config; the worker loads it by path. `no_cache`
    // jobs get unique paths so concurrent ones never share a checkpoint.
    let stem = if no_cache {
        format!("{hex}-u{}", srv.job_serial.fetch_add(1, Ordering::Relaxed))
    } else {
        hex.clone()
    };
    let cfg_path = srv.jobs_dir.join(format!("{stem}.json"));
    let result_path = srv.jobs_dir.join(format!("{stem}.result.json"));
    let ckpt_path = srv.jobs_dir.join(format!("{stem}.ckpt"));
    if let Err(e) = dcn_core::write_atomic(&cfg_path, canonical.as_bytes()) {
        srv.stats.errors_internal.inc();
        return RunReply::Envelope(envelope::error("internal", &format!("spool config: {e}")));
    }
    let _ = std::fs::remove_file(&result_path); // never serve a stale file

    let outcome = run_supervised_job(srv, &cfg_path, &result_path, &ckpt_path, deadline);
    match outcome {
        RunReplyKind::Ok { attempts, degraded } => {
            let payload = match std::fs::read(&result_path) {
                Ok(b) => b,
                Err(e) => {
                    srv.stats.errors_internal.inc();
                    return RunReply::Envelope(envelope::error(
                        "internal",
                        &format!("worker succeeded but result unreadable: {e}"),
                    ));
                }
            };
            let mut degraded = degraded;
            if let Err(e) = srv.cache.store(&key, &payload) {
                // Serving beats caching: log, count the lost durability,
                // and answer anyway.
                eprintln!("dcnserve: cache store {hex}: {e}");
                degraded = true;
            }
            if degraded {
                srv.stats.degraded.inc();
            }
            let _ = std::fs::remove_file(&cfg_path);
            let _ = std::fs::remove_file(&result_path);
            srv.stats.run_ok.inc();
            if recovered_from_quarantine {
                srv.stats.recomputed_after_quarantine.inc();
            }
            RunReply::Ok {
                cached: false,
                key: hex,
                attempts,
                payload,
            }
        }
        RunReplyKind::DeadlineExceeded => {
            srv.stats.deadline_exceeded.inc();
            // The checkpoint stays: an identical future request resumes
            // from it instead of starting over.
            RunReply::Envelope(envelope::status("deadline_exceeded"))
        }
        RunReplyKind::Config => {
            srv.stats.errors_config.inc();
            RunReply::Envelope(envelope::error("config", "worker rejected the config"))
        }
        RunReplyKind::CkptCorrupt => {
            srv.stats.errors_ckpt_corrupt.inc();
            // Break the poisoned resume chain so the next identical
            // request starts clean instead of failing forever.
            let _ = std::fs::remove_file(&ckpt_path);
            RunReply::Envelope(envelope::error(
                "checkpoint_corrupt",
                "resume chain broken; checkpoint discarded — retry the request",
            ))
        }
        RunReplyKind::Crash { attempts } => {
            srv.stats.errors_crash.inc();
            RunReply::Envelope(envelope::error(
                "crash",
                &format!("worker kept crashing ({attempts} attempts)"),
            ))
        }
        RunReplyKind::Internal(msg) => {
            srv.stats.errors_internal.inc();
            RunReply::Envelope(envelope::error("internal", &msg))
        }
    }
}

// ---------------------------------------------------- connection driver

/// Read poll granularity: short enough that drain and idle checks are
/// responsive, long enough to cost nothing.
const READ_POLL_MS: u64 = 250;

fn handle_conn(srv: &Server, mut conn: Conn) {
    conn.configure(
        srv.opts.idle_timeout_ms.min(READ_POLL_MS),
        srv.opts.write_timeout_ms,
    );
    let mut idle_deadline = Instant::now() + Duration::from_millis(srv.opts.idle_timeout_ms);
    loop {
        let frame = match protocol::read_frame(&mut conn) {
            Ok(f) => f,
            Err(FrameError::TimedOut) => {
                if draining() || Instant::now() >= idle_deadline {
                    return; // reap: drain in progress or client idle
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Truncated) => {
                srv.stats.disconnects.inc();
                return;
            }
            Err(FrameError::TooLarge(_)) | Err(FrameError::Io(_)) => {
                srv.stats.protocol_errors.inc();
                return;
            }
        };
        srv.stats.requests.inc();
        if draining() {
            srv.stats.draining_refused.inc();
            let _ = protocol::write_frame(&mut conn, &envelope::status("draining"));
            return;
        }
        let request = match Request::parse(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Unknown ops get their own structured error (protocol
                // skew is diagnosable); everything else is `config`.
                let env = match &e {
                    ParseError::UnknownOp(_) => {
                        srv.stats.errors_unknown_op.inc();
                        envelope::error("unknown_op", &e.to_string())
                    }
                    ParseError::Invalid(msg) => {
                        srv.stats.protocol_errors.inc();
                        envelope::error("config", msg)
                    }
                };
                if protocol::write_frame(&mut conn, &env).is_err() {
                    return;
                }
                idle_deadline = Instant::now() + Duration::from_millis(srv.opts.idle_timeout_ms);
                continue;
            }
        };
        let write_ok = match request {
            Request::Ping => protocol::write_frame(&mut conn, &envelope::status("ok")).is_ok(),
            Request::Stats => protocol::write_frame(&mut conn, &srv.stats_json()).is_ok(),
            Request::Metrics => {
                let text = srv.metrics_text();
                protocol::write_frame(&mut conn, &envelope::status("ok"))
                    .and_then(|()| protocol::write_frame(&mut conn, text.as_bytes()))
                    .is_ok()
            }
            Request::Run {
                config,
                deadline_ms,
                no_cache,
            } => {
                let t0 = Instant::now();
                let reply = handle_run(srv, config, deadline_ms, no_cache);
                srv.run_latency_ms.observe(t0.elapsed().as_millis() as u64);
                match reply {
                    RunReply::Ok {
                        cached,
                        key,
                        attempts,
                        payload,
                    } => {
                        protocol::write_frame(&mut conn, &envelope::ok_run(cached, &key, attempts))
                            .and_then(|()| protocol::write_frame(&mut conn, &payload))
                            .is_ok()
                    }
                    RunReply::Envelope(env) => protocol::write_frame(&mut conn, &env).is_ok(),
                }
            }
        };
        if !write_ok {
            // Slow or gone client: its problem, not the daemon's.
            srv.stats.disconnects.inc();
            return;
        }
        idle_deadline = Instant::now() + Duration::from_millis(srv.opts.idle_timeout_ms);
    }
}

// ------------------------------------------------------------ accept loop

/// Runs the daemon until SIGTERM/SIGINT, then drains. Returns the process
/// exit code.
pub fn serve(opts: ServeOptions) -> i32 {
    #[cfg(unix)]
    install_drain_handler();
    DRAIN.store(false, Ordering::SeqCst);

    let state = PathBuf::from(&opts.state_dir);
    let jobs_dir = state.join("jobs");
    if let Err(e) = std::fs::create_dir_all(&jobs_dir) {
        eprintln!("dcnserve: error: create {}: {e}", jobs_dir.display());
        return EXIT_CONFIG;
    }
    let cache = match ArtifactCache::open_bounded(state.join("cache"), opts.cache_max_bytes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dcnserve: error: open cache: {e}");
            return EXIT_CONFIG;
        }
    };
    let worker_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dcnserve: error: current_exe: {e}");
            return EXIT_CONFIG;
        }
    };

    let mut listeners: Vec<Listener> = Vec::new();
    let mut bound = Vec::new();
    if let Some(addr) = &opts.tcp {
        match TcpListener::bind(addr) {
            Ok(l) => {
                let local = l
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| addr.clone());
                let _ = l.set_nonblocking(true);
                listeners.push(Listener::Tcp(l));
                bound.push(local);
            }
            Err(e) => {
                eprintln!("dcnserve: error: bind {addr}: {e}");
                return EXIT_SOCKET;
            }
        }
    }
    if let Some(path) = &opts.unix {
        let _ = std::fs::remove_file(path); // stale socket from a crash
        match UnixListener::bind(path) {
            Ok(l) => {
                let _ = l.set_nonblocking(true);
                listeners.push(Listener::Unix(l));
                bound.push(path.clone());
            }
            Err(e) => {
                eprintln!("dcnserve: error: bind {path}: {e}");
                return EXIT_SOCKET;
            }
        }
    }
    if listeners.is_empty() {
        eprintln!("dcnserve: error: nothing to listen on (need --tcp and/or --unix)");
        return EXIT_CONFIG;
    }
    if let Some(f) = &opts.addr_file {
        let body = format!("{}\n", bound.join("\n"));
        if let Err(e) = dcn_core::write_atomic(f, body.as_bytes()) {
            eprintln!("dcnserve: error: write addr file {f}: {e}");
            return EXIT_CONFIG;
        }
    }
    for b in &bound {
        eprintln!("dcnserve: listening on {b}");
    }

    let registry = Registry::new();
    let stats = Stats::new(&registry);
    let workers_running = registry.gauge(
        "dcnserve_workers_running",
        "Worker processes currently executing.",
    );
    let workers_queued = registry.gauge(
        "dcnserve_workers_queued",
        "Admitted requests waiting for a worker slot.",
    );
    let cache_entries = registry.gauge(
        "dcnserve_cache_entries",
        "Result artifacts on disk in the cache.",
    );
    let cache_bytes = registry.gauge(
        "dcnserve_cache_bytes",
        "Bytes of result artifacts on disk in the cache.",
    );
    let uptime_ms = registry.gauge(
        "dcnserve_uptime_ms",
        "Milliseconds since the daemon started.",
    );
    let run_latency_ms = registry.histogram(
        "dcnserve_run_latency_ms",
        "End-to-end run request handling time, cache hits included.",
    );
    let srv = Arc::new(Server {
        gate: Admission::new(opts.max_workers, opts.max_queue),
        inflight: Arc::new(InFlight::default()),
        registry,
        stats,
        workers_running,
        workers_queued,
        cache_entries,
        cache_bytes,
        uptime_ms,
        run_latency_ms,
        started: Instant::now(),
        active_conns: AtomicUsize::new(0),
        job_serial: AtomicU64::new(0),
        jobs_dir,
        worker_exe,
        cache,
        opts,
    });

    while !draining() {
        let mut accepted = false;
        for l in &listeners {
            let conn = match l {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match conn {
                Ok(conn) => {
                    accepted = true;
                    srv.stats.conns.inc();
                    srv.active_conns.fetch_add(1, Ordering::SeqCst);
                    let srv2 = Arc::clone(&srv);
                    std::thread::spawn(move || {
                        // Permit/flight guards release on unwind, so one
                        // bad connection cannot poison the daemon.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle_conn(&srv2, conn)
                        }));
                        srv2.active_conns.fetch_sub(1, Ordering::SeqCst);
                        if r.is_err() {
                            srv2.stats.errors_internal.inc();
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => eprintln!("dcnserve: accept: {e}"),
            }
        }
        if !accepted {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Drain: stop accepting (loop exited), wait for connection threads —
    // which finish or checkpoint their in-flight jobs — up to the budget.
    eprintln!("dcnserve: draining (refusing new work)");
    if let Some(path) = &srv.opts.unix {
        let _ = std::fs::remove_file(path);
    }
    let drain_deadline = Instant::now() + Duration::from_millis(srv.opts.drain_timeout_ms);
    while srv.active_conns.load(Ordering::SeqCst) > 0 {
        if Instant::now() >= drain_deadline {
            eprintln!(
                "dcnserve: drain timeout with {} connections still open",
                srv.active_conns.load(Ordering::SeqCst)
            );
            return EXIT_DRAIN_TIMEOUT;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("dcnserve: drained cleanly");
    EXIT_OK
}
