//! Deterministic failpoints: a hermetic, dependency-free fault-injection
//! registry for the durability and I/O boundaries of the stack.
//!
//! The paper's robustness claim is about *network* component failure; the
//! run harness around the simulator additionally has to survive
//! *infrastructure* failure — full disks, torn renames, failed fsyncs,
//! workers that cannot even be spawned. Failpoints
//! make those ugly partial-failure modes reproducible: every durability
//! boundary declares a **named site** (the full catalog is [`SITES`]),
//! and a site can be *armed* with a spec describing when and how to fail.
//!
//! ## Arming
//!
//! From the environment (read once, on the first check):
//!
//! ```text
//! DCN_FAILPOINTS="fsio.rename=err;cache.store=enospc;ckpt.save.write=50%kill"
//! DCN_FAILPOINTS_SEED=7        # seeds the probabilistic triggers
//! ```
//!
//! or programmatically — [`configure`] / [`disarm`] / [`disarm_all`] —
//! which is what the unit tests and the crash-consistency harness use.
//!
//! ## Spec grammar
//!
//! ```text
//! SPEC   := [skip(K):][P%][N*]ACTION
//! ACTION := off | err | enospc | eof | partial(N) | kill
//! ```
//!
//! - `skip(K):` — pass the first `K` hits untouched, then start evaluating;
//! - `P%` — trip with probability `P` per hit, drawn from a per-site
//!   deterministic RNG ([`dcn_rng`] xoshiro seeded from
//!   `DCN_FAILPOINTS_SEED ^ fnv1a(site)`), so a seeded run replays exactly;
//! - `N*` — trip at most `N` times, then the site goes quiet;
//! - `err` — a generic injected [`io::Error`] (kind `Other`);
//! - `enospc` — `ENOSPC`, the disk-full error (`StorageFull`);
//! - `eof` — `UnexpectedEof`, a peer vanishing mid-conversation;
//! - `partial(N)` — at write-shaped sites: persist only `N` bytes, then
//!   fail (a torn write); at sites with no partial interpretation it
//!   degrades to `err`;
//! - `kill` — terminate the process *without* unwinding (SIGKILL, falling
//!   back to abort), modelling power loss at exactly this boundary.
//!
//! ## Zero cost when disabled
//!
//! The disarmed fast path is one relaxed atomic load and a compare — no
//! locks, no allocation, no map lookup. `bench perf --check` gates this:
//! its `failpoint_disarmed/atomic_u8_load` case times disarmed checks
//! against raw relaxed loads in the same process, the ratio is blessed in
//! `BENCH_sim.json` beside the engine cases, and a regression fails CI.
//!
//! ## Recovery invariants
//!
//! Arming a site must never be able to produce a *corrupt* artifact that
//! is later trusted: `write_atomic` leaves the old file intact for every
//! pre-rename failure, checkpoints are checksummed and validated on load,
//! cache entries are verified on read and quarantined on mismatch. The
//! crash-consistency harness (`tests/crash_consistency.rs`) enumerates
//! [`SITES`] and asserts those invariants site by site.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use dcn_rng::{Fnv1a, Rng};

/// The full catalog of compiled-in failpoint sites. The crash-consistency
/// harness enumerates this list; adding a site without extending the
/// harness fails its coverage test.
pub const SITES: &[&str] = &[
    // fsio::write_atomic — the atomic-write ladder, in order.
    "fsio.tmp_create",
    "fsio.tmp_write",
    "fsio.tmp_fsync",
    "fsio.rename",
    "fsio.dir_fsync",
    // dcn-sim checkpoint save/load (threaded via checkpoint::install_io_hook).
    "ckpt.save.write",
    "ckpt.save.fsync",
    "ckpt.save.rename",
    "ckpt.load",
    // dcnrun result memo (the root crate's `cache` module).
    "cache.read",
    "cache.store",
    "cache.quarantine",
    // worker process management.
    "supervise.spawn",
];

/// What an armed site does when it trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Generic injected I/O error.
    Err,
    /// `ENOSPC` — the disk is full.
    Enospc,
    /// `UnexpectedEof` — the peer vanished.
    Eof,
    /// Persist only this many bytes, then fail (a torn write).
    Partial(u64),
    /// Die without unwinding, like power loss at this exact boundary.
    Kill,
}

impl Action {
    /// The `io::Error` this action injects (not meaningful for `Kill`).
    fn to_io_error(self) -> io::Error {
        match self {
            Action::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                "injected failpoint: no space left on device",
            ),
            Action::Eof => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "injected failpoint: peer vanished",
            ),
            Action::Err | Action::Partial(_) | Action::Kill => {
                io::Error::other("injected failpoint")
            }
        }
    }
}

/// One armed site: the parsed spec plus its trigger state.
#[derive(Debug)]
struct Site {
    action: Action,
    /// Pass this many hits before evaluating at all.
    skip: u64,
    /// Trip probability in [0, 1]; 1.0 = always.
    prob: f64,
    /// Remaining trips (`u64::MAX` = unlimited).
    budget: u64,
    /// Per-site deterministic stream for probabilistic triggers.
    rng: Rng,
    hits: u64,
    trips: u64,
}

#[derive(Default)]
struct RegistryInner {
    sites: HashMap<String, Site>,
}

/// Tri-state arming flag: the only thing the disarmed fast path reads.
const ST_UNINIT: u8 = 2;
const ST_OFF: u8 = 0;
const ST_ON: u8 = 1;
static STATE: AtomicU8 = AtomicU8::new(ST_UNINIT);
static REGISTRY: Mutex<Option<RegistryInner>> = Mutex::new(None);
/// Process-wide trip counter, readable without the lock.
static TOTAL_TRIPS: AtomicU64 = AtomicU64::new(0);

/// Whether any site is currently armed. One relaxed load; this is the
/// cost every disarmed check pays.
#[inline]
pub fn armed() -> bool {
    STATE.load(Ordering::Relaxed) == ST_ON
}

/// Evaluates `site`. `None` = proceed normally; `Some(action)` = the site
/// tripped and the caller must apply `action`. `Kill` never returns.
#[inline]
pub fn check(site: &'static str) -> Option<Action> {
    match STATE.load(Ordering::Relaxed) {
        ST_OFF => None,
        _ => check_slow(site),
    }
}

#[cold]
fn check_slow(site: &str) -> Option<Action> {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let inner = ensure_init(&mut guard);
    let s = inner.sites.get_mut(site)?;
    s.hits += 1;
    if s.hits <= s.skip {
        return None;
    }
    if s.budget == 0 {
        return None;
    }
    if s.prob < 1.0 && s.rng.next_f64() >= s.prob {
        return None;
    }
    if s.budget != u64::MAX {
        s.budget -= 1;
    }
    s.trips += 1;
    TOTAL_TRIPS.fetch_add(1, Ordering::Relaxed);
    let action = s.action;
    drop(guard); // never die or unwind while holding the registry lock
    if action == Action::Kill {
        die();
    }
    Some(action)
}

/// Parses the environment on first use; returns the live registry.
fn ensure_init(guard: &mut Option<RegistryInner>) -> &mut RegistryInner {
    if guard.is_none() {
        let mut inner = RegistryInner::default();
        let seed = std::env::var("DCN_FAILPOINTS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0u64);
        if let Ok(spec) = std::env::var("DCN_FAILPOINTS") {
            for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
                match part.split_once('=') {
                    Some((site, spec)) => match parse_spec(spec.trim(), site.trim(), seed) {
                        Ok(Some(s)) => {
                            inner.sites.insert(site.trim().to_string(), s);
                        }
                        Ok(None) => {}
                        Err(e) => {
                            // Loud but non-fatal: a typo in the env must
                            // not take down a production daemon.
                            eprintln!("failpoint: ignoring {part:?}: {e}");
                        }
                    },
                    None => eprintln!("failpoint: ignoring {part:?}: expected SITE=SPEC"),
                }
            }
        }
        STATE.store(
            if inner.sites.is_empty() {
                ST_OFF
            } else {
                ST_ON
            },
            Ordering::SeqCst,
        );
        *guard = Some(inner);
    }
    guard.as_mut().unwrap()
}

/// Parses one spec: `[skip(K):][P%][N*]ACTION`. `Ok(None)` means `off`.
fn parse_spec(spec: &str, site: &str, seed: u64) -> Result<Option<Site>, String> {
    let mut rest = spec;
    let mut skip = 0u64;
    if let Some(tail) = rest.strip_prefix("skip(") {
        let (k, after) = tail
            .split_once("):")
            .ok_or_else(|| format!("malformed skip() in {spec:?}"))?;
        skip = k.parse().map_err(|_| format!("bad skip count {k:?}"))?;
        rest = after;
    }
    let mut prob = 1.0f64;
    if let Some((p, after)) = rest.split_once('%') {
        if p.chars().all(|c| c.is_ascii_digit() || c == '.') && !p.is_empty() {
            let pct: f64 = p.parse().map_err(|_| format!("bad percentage {p:?}"))?;
            prob = (pct / 100.0).clamp(0.0, 1.0);
            rest = after;
        }
    }
    let mut budget = u64::MAX;
    if let Some((n, after)) = rest.split_once('*') {
        if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() {
            budget = n.parse().map_err(|_| format!("bad trip limit {n:?}"))?;
            rest = after;
        }
    }
    let action = match rest {
        "off" => return Ok(None),
        "err" => Action::Err,
        "enospc" => Action::Enospc,
        "eof" => Action::Eof,
        "kill" => Action::Kill,
        _ => {
            if let Some(arg) = rest
                .strip_prefix("partial(")
                .and_then(|r| r.strip_suffix(')'))
            {
                Action::Partial(
                    arg.parse()
                        .map_err(|_| format!("bad partial() arg {arg:?}"))?,
                )
            } else {
                return Err(format!("unknown action {rest:?}"));
            }
        }
    };
    let mut stream = seed ^ Fnv1a::hash(site.as_bytes());
    let site_seed = dcn_rng::splitmix64(&mut stream);
    Ok(Some(Site {
        action,
        skip,
        prob,
        budget,
        rng: Rng::seed_from_u64(site_seed),
        hits: 0,
        trips: 0,
    }))
}

/// Arms (or re-arms) one site programmatically. Panics on a malformed
/// spec — programmatic callers are tests and harnesses, where a typo
/// should fail loudly.
pub fn configure(site: &str, spec: &str) {
    configure_seeded(site, spec, 0)
}

/// [`configure`] with an explicit seed for probabilistic triggers.
pub fn configure_seeded(site: &str, spec: &str, seed: u64) {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let inner = ensure_init(&mut guard);
    match parse_spec(spec, site, seed).unwrap_or_else(|e| panic!("failpoint {site}: {e}")) {
        Some(s) => {
            inner.sites.insert(site.to_string(), s);
            STATE.store(ST_ON, Ordering::SeqCst);
        }
        None => {
            inner.sites.remove(site);
            if inner.sites.is_empty() {
                STATE.store(ST_OFF, Ordering::SeqCst);
            }
        }
    }
}

/// Disarms one site.
pub fn disarm(site: &str) {
    configure(site, "off")
}

/// Disarms everything (harness teardown).
pub fn disarm_all() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let inner = ensure_init(&mut guard);
    inner.sites.clear();
    STATE.store(ST_OFF, Ordering::SeqCst);
}

/// How many times `site` has tripped since it was armed.
pub fn trips(site: &str) -> u64 {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let inner = ensure_init(&mut guard);
    inner.sites.get(site).map(|s| s.trips).unwrap_or(0)
}

/// Process-wide trip count across all sites (cheap: no lock).
pub fn total_trips() -> u64 {
    TOTAL_TRIPS.load(Ordering::Relaxed)
}

/// Terminates the process without unwinding — SIGKILL via `/proc/self`
/// semantics (the `kill` binary), falling back to abort. Mirrors the
/// crash-injection hook `jobs::die_uncleanly` so resume paths are tested
/// against genuinely unclean deaths.
fn die() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::abort()
}

// ------------------------------------------------------------ I/O helpers

/// The standard error-site check: `Ok(())` to proceed, `Err` when the
/// site trips with any error-shaped action (`partial(n)` degrades to a
/// plain error here — the caller has no byte stream to tear).
pub fn fail_io(site: &'static str) -> io::Result<()> {
    match check(site) {
        None => Ok(()),
        Some(a) => Err(a.to_io_error()),
    }
}

/// The write-site check: `Ok(None)` to proceed, `Ok(Some(n))` when the
/// site tripped `partial(n)` — the caller must persist exactly `n` bytes
/// and then fail — and `Err` for error-shaped actions.
pub fn partial_write(site: &'static str) -> io::Result<Option<u64>> {
    match check(site) {
        None => Ok(None),
        Some(Action::Partial(n)) => Ok(Some(n)),
        Some(a) => Err(a.to_io_error()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global; tests that arm sites serialize
    /// on this lock and use distinct site names for belt and braces.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_sites_pass() {
        let _g = locked();
        disarm_all();
        assert!(!armed());
        assert_eq!(check("fsio.rename"), None);
        assert!(fail_io("fsio.rename").is_ok());
        assert_eq!(partial_write("fsio.tmp_write").unwrap(), None);
    }

    #[test]
    fn err_and_enospc_and_eof_inject_the_right_kinds() {
        let _g = locked();
        disarm_all();
        configure("t.err", "err");
        configure("t.enospc", "enospc");
        configure("t.eof", "eof");
        assert!(armed());
        assert_eq!(
            fail_io_static("t.err").unwrap_err().kind(),
            io::ErrorKind::Other
        );
        assert_eq!(
            fail_io_static("t.enospc").unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );
        assert_eq!(
            fail_io_static("t.eof").unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        disarm_all();
    }

    // `fail_io` wants &'static str; tests use these fixed names.
    fn fail_io_static(site: &'static str) -> io::Result<()> {
        fail_io(site)
    }

    #[test]
    fn trip_budget_is_finite() {
        let _g = locked();
        disarm_all();
        configure("t.budget", "2*err");
        assert!(check_n("t.budget"));
        assert!(check_n("t.budget"));
        assert!(!check_n("t.budget"), "third hit must pass");
        assert_eq!(trips("t.budget"), 2);
        disarm_all();
    }

    fn check_n(site: &'static str) -> bool {
        check(site).is_some()
    }

    #[test]
    fn skip_passes_early_hits() {
        let _g = locked();
        disarm_all();
        configure("t.skip", "skip(2):err");
        assert!(!check_n("t.skip"));
        assert!(!check_n("t.skip"));
        assert!(check_n("t.skip"), "third hit must trip");
        disarm_all();
    }

    #[test]
    fn partial_reports_byte_budget() {
        let _g = locked();
        disarm_all();
        configure("t.partial", "partial(3)");
        assert_eq!(partial_write("t.partial").unwrap(), Some(3));
        // At an error-shaped site, partial degrades to a plain error.
        assert!(fail_io_static("t.partial").is_err());
        disarm_all();
    }

    #[test]
    fn probability_is_seeded_and_deterministic() {
        let _g = locked();
        disarm_all();
        let draw = |seed: u64| -> Vec<bool> {
            configure_seeded("t.prob", "50%err", seed);
            let v = (0..32).map(|_| check_n("t.prob")).collect();
            disarm("t.prob");
            v
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "same seed must replay the same trigger sequence");
        assert_ne!(a, c, "different seeds must diverge");
        let fired = a.iter().filter(|&&x| x).count();
        assert!(
            (4..=28).contains(&fired),
            "50% of 32 should be near half, got {fired}"
        );
        disarm_all();
    }

    #[test]
    fn spec_parse_errors_are_described() {
        assert!(parse_spec("dance", "s", 0)
            .unwrap_err()
            .contains("unknown action"));
        assert!(parse_spec("partial(x)", "s", 0).is_err());
        assert!(parse_spec("skip(:err", "s", 0).is_err());
        assert!(parse_spec("off", "s", 0).unwrap().is_none());
        // Modifiers compose.
        let s = parse_spec("skip(1):50%3*enospc", "s", 0).unwrap().unwrap();
        assert_eq!(s.skip, 1);
        assert_eq!(s.budget, 3);
        assert!((s.prob - 0.5).abs() < 1e-9);
        assert_eq!(s.action, Action::Enospc);
    }

    #[test]
    fn site_catalog_is_sorted_groups_and_nonempty() {
        assert!(SITES.len() >= 13);
        let unique: std::collections::HashSet<_> = SITES.iter().collect();
        assert_eq!(unique.len(), SITES.len(), "duplicate site name");
    }
}
