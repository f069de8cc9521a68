//! The crash-consistency harness: every compiled-in failpoint site
//! (`dcn_core::failpoint::SITES`) is armed in turn and the recovery
//! invariant at that boundary is asserted —
//!
//! * an atomic write that fails at any rung of its ladder leaves the
//!   target either the old content whole or the new content whole, never
//!   torn, and a retry after the fault clears succeeds;
//! * a worker killed at any checkpoint-save rung relaunches to
//!   byte-identical results; a checkpoint that cannot be *loaded* is a
//!   clean documented exit (`EXIT_CKPT_CORRUPT`), and clearing the fault
//!   heals; checkpoint saves hitting ENOSPC degrade to
//!   compute-without-persist (`EXIT_OK_DEGRADED`) with exact results;
//! * a corrupt or unreadable cache entry is never served — it is
//!   quarantined (or removed when even quarantine fails) and the next
//!   store heals it;
//! * a failed worker spawn is retryable, not fatal.
//!
//! The final assertion is completeness: the matrix above must exercise
//! every name in `SITES`, so adding a site without a recovery story here
//! fails the build's tests.
//!
//! Everything runs in ONE `#[test]`: failpoint state is process-global,
//! and a single test keeps this binary free of cross-thread arming races.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use beyond_fattrees::cache::{ArtifactCache, CacheKey, Lookup};
use dcn_bench::supervise::{self, Attempt, RetryPolicy, EXIT_CKPT_CORRUPT, EXIT_OK};
use dcn_core::failpoint::{self, SITES};
use dcn_core::write_atomic;

const OLD: &[u8] = b"{\"version\": 1, \"the old artifact\": true}\n";
const NEW: &[u8] = b"{\"version\": 2, \"the replacement, longer than the old one\": true}\n";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash_consistency_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

// ------------------------------------------------------------------ fsio

/// Arms each rung of the `write_atomic` ladder and asserts the atomicity
/// invariant: a failure anywhere leaves the target old-and-whole or
/// new-and-whole (only a completed rename exposes new bytes), and a retry
/// once the fault clears lands the new content.
fn fsio_matrix(covered: &mut BTreeSet<&'static str>) {
    let dir = scratch("fsio");
    let target = dir.join("artifact.json");
    let target_s = target.to_str().unwrap();
    let fsio_sites = [
        "fsio.tmp_create",
        "fsio.tmp_write",
        "fsio.tmp_fsync",
        "fsio.rename",
        "fsio.dir_fsync",
    ];
    for site in fsio_sites {
        std::fs::write(&target, OLD).expect("seed old content");
        failpoint::configure(site, "1*err");
        let err = write_atomic(target_s, NEW).expect_err(site);
        assert!(err.to_string().contains("injected"), "{site}: {err}");
        let now = std::fs::read(&target).expect("target must still exist");
        if site == "fsio.dir_fsync" {
            // The rename already happened; only its durable ordering was
            // lost. The visible content is the new bytes, whole.
            assert_eq!(
                now, NEW,
                "{site}: post-rename failure must expose NEW whole"
            );
        } else {
            assert_eq!(now, OLD, "{site}: pre-rename failure must leave OLD whole");
        }
        assert!(
            now == OLD || now == NEW,
            "{site}: target is torn — neither old nor new content"
        );
        failpoint::disarm(site);
        write_atomic(target_s, NEW).expect("retry after fault clears");
        assert_eq!(
            std::fs::read(&target).unwrap(),
            NEW,
            "{site}: retry must heal"
        );
        covered.insert(site);
    }

    // A torn write: only a prefix of the payload reaches the temporary;
    // the target must be untouched and the temporary visibly truncated.
    std::fs::write(&target, OLD).expect("seed old content");
    failpoint::configure("fsio.tmp_write", "1*partial(5)");
    write_atomic(target_s, NEW).expect_err("torn write must fail");
    assert_eq!(
        std::fs::read(&target).unwrap(),
        OLD,
        "torn write must not touch target"
    );
    let tmp = dir.join("artifact.json.tmp");
    assert_eq!(
        std::fs::read(&tmp)
            .expect("truncated temporary left behind")
            .len(),
        5,
        "partial(5) must persist exactly 5 bytes"
    );
    failpoint::disarm("fsio.tmp_write");
    write_atomic(target_s, NEW).expect("retry after torn write");
    assert_eq!(std::fs::read(&target).unwrap(), NEW);

    // ENOSPC surfaces with the real error kind, so callers can branch on
    // a full disk exactly like they would outside the harness.
    std::fs::write(&target, OLD).unwrap();
    failpoint::configure("fsio.tmp_fsync", "1*enospc");
    let err = write_atomic(target_s, NEW).expect_err("enospc must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    assert_eq!(std::fs::read(&target).unwrap(), OLD);
    failpoint::disarm_all();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- checkpoints (workers)

/// A config whose activity spans enough simulated-time chunks that a
/// `--checkpoint-every-ms 0` worker writes several checkpoints (lighter
/// workloads drain inside the first chunk and never checkpoint at all —
/// the kill-at-save matrix needs at least three saves to bite).
fn config_json(seed: u64) -> String {
    format!(
        r#"{{
  "topology": {{ "kind": "fat_tree", "k": 4 }},
  "routing": {{ "kind": "ecmp" }},
  "workload": {{ "pattern": {{ "kind": "all_to_all" }} }},
  "lambda": 1000.0,
  "window_ms": [0, 2],
  "seed": {seed}
}}
"#
    )
}

/// One `dcnrun worker` run with an optional `DCN_FAILPOINTS` env; returns
/// the exit code (`None` = killed by signal).
fn run_worker(cfg: &Path, result: &Path, ckpt: &Path, failpoints: Option<&str>) -> Option<i32> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcnrun"));
    cmd.arg("worker")
        .arg(cfg)
        .arg("--result")
        .arg(result)
        .arg("--ckpt")
        .arg(ckpt)
        .args(["--checkpoint-every-ms", "0"]) // checkpoint every chunk
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .env_remove("DCN_FAILPOINTS");
    if let Some(fp) = failpoints {
        cmd.env("DCN_FAILPOINTS", fp);
    }
    cmd.status().expect("spawn worker").code()
}

/// The subprocess matrix over the checkpoint sites: power loss at each
/// save rung resumes byte-identical, an unreadable checkpoint is the
/// documented clean exit, ENOSPC on saves degrades without losing the
/// result, and death during the result write recomputes to the same
/// bytes.
fn checkpoint_matrix(covered: &mut BTreeSet<&'static str>) {
    let dir = scratch("ckpt");
    let cfg = dir.join("exp.json");
    std::fs::write(&cfg, config_json(42)).expect("write config");

    // Ground truth: one clean, uninterrupted worker.
    let result = dir.join("baseline.json");
    let ckpt = dir.join("baseline.ckpt");
    assert_eq!(run_worker(&cfg, &result, &ckpt, None), Some(EXIT_OK));
    let want = std::fs::read(&result).expect("baseline result");
    assert!(!ckpt.exists(), "clean worker must remove its checkpoint");

    // Power loss at every save rung: the worker is SIGKILLed mid-ladder
    // (after two good checkpoints, so the relaunch genuinely *resumes*),
    // and the relaunch must land byte-identical results.
    for site in ["ckpt.save.write", "ckpt.save.fsync", "ckpt.save.rename"] {
        let result = dir.join(format!("{site}.json"));
        let ckpt = dir.join(format!("{site}.ckpt"));
        let spec = format!("{site}=skip(2):1*kill");
        assert_eq!(
            run_worker(&cfg, &result, &ckpt, Some(&spec)),
            None,
            "{site}: kill action must die by signal"
        );
        assert!(!result.exists(), "{site}: no result from a killed worker");
        assert!(
            ckpt.exists(),
            "{site}: two completed checkpoints must survive the kill"
        );
        assert_eq!(
            run_worker(&cfg, &result, &ckpt, None),
            Some(EXIT_OK),
            "{site}: relaunch must succeed"
        );
        assert_eq!(
            std::fs::read(&result).unwrap(),
            want,
            "{site}: resumed result diverges from the uninterrupted run"
        );
        covered.insert(site);
    }

    // An unreadable checkpoint: resuming from bad state could silently
    // produce wrong bytes, so the worker must refuse with the documented
    // exit code — and once the fault clears, the same checkpoint resumes
    // to the right bytes.
    let result = dir.join("load.json");
    let ckpt = dir.join("load.ckpt");
    assert_eq!(
        run_worker(
            &cfg,
            &result,
            &ckpt,
            Some("ckpt.save.rename=skip(2):1*kill")
        ),
        None
    );
    assert!(ckpt.exists());
    assert_eq!(
        run_worker(&cfg, &result, &ckpt, Some("ckpt.load=err")),
        Some(EXIT_CKPT_CORRUPT),
        "an unreadable checkpoint must be the clean documented exit"
    );
    assert!(
        !result.exists(),
        "no result may be produced from a refused resume"
    );
    assert_eq!(run_worker(&cfg, &result, &ckpt, None), Some(EXIT_OK));
    assert_eq!(
        std::fs::read(&result).unwrap(),
        want,
        "healed resume diverges"
    );
    covered.insert("ckpt.load");

    // A full disk under the checkpoint directory: the run must NOT die —
    // it completes without crash protection (exit 7, `EXIT_OK_DEGRADED`)
    // and the result is still exact.
    let result = dir.join("enospc.json");
    let ckpt = dir.join("enospc.ckpt");
    assert_eq!(
        run_worker(&cfg, &result, &ckpt, Some("ckpt.save.write=enospc")),
        Some(supervise::EXIT_OK_DEGRADED),
        "ENOSPC on checkpoint saves must degrade, not fail"
    );
    assert_eq!(
        std::fs::read(&result).unwrap(),
        want,
        "degraded run must still produce exact bytes"
    );

    // Power loss while writing the *result*: the relaunch recomputes (or
    // resumes) to the same bytes — fsio sites under a real worker, not
    // just the in-process matrix.
    let result = dir.join("result_kill.json");
    let ckpt = dir.join("result_kill.ckpt");
    assert_eq!(
        run_worker(&cfg, &result, &ckpt, Some("fsio.rename=1*kill")),
        None
    );
    assert!(
        !result.exists(),
        "killed before the rename: no artifact may appear"
    );
    assert_eq!(run_worker(&cfg, &result, &ckpt, None), Some(EXIT_OK));
    assert_eq!(std::fs::read(&result).unwrap(), want);

    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------- cache

/// Cache-site matrix: a store that hits a full disk fails loudly without
/// touching existing entries; an unreadable entry is quarantined, never
/// served; a quarantine that itself fails falls back to removal. In every
/// case the next store heals.
fn cache_matrix(covered: &mut BTreeSet<&'static str>) {
    let dir = scratch("cache");
    let cache = ArtifactCache::open(dir.join("cache")).expect("open cache");
    let key = CacheKey {
        build: 7,
        config: 9,
    };

    // Store under ENOSPC: loud failure, no entry appears.
    failpoint::configure("cache.store", "1*enospc");
    let err = cache.store(&key, OLD).expect_err("store must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    assert_eq!(
        cache.load(&key),
        Lookup::Miss,
        "failed store must leave no entry"
    );
    failpoint::disarm("cache.store");
    cache.store(&key, OLD).expect("retry store");
    assert_eq!(cache.load(&key), Lookup::Hit(OLD.to_vec()));
    covered.insert("cache.store");

    // Transiently unreadable entry: never served while unreadable (the
    // caller recomputes), and the entry itself is untouched — once the
    // fault clears it serves again. Unreadable is NOT corrupt.
    failpoint::configure("cache.read", "1*err");
    match cache.load(&key) {
        Lookup::Quarantined(why) => assert!(why.contains("injected"), "{why}"),
        other => panic!("unreadable entry must force recompute, got {other:?}"),
    }
    assert_eq!(
        cache.load(&key),
        Lookup::Hit(OLD.to_vec()),
        "a transient read fault must heal by itself"
    );
    covered.insert("cache.read");

    // A genuinely corrupt entry whose quarantine move ALSO fails: the
    // entry must still never be served — the fallback is outright
    // removal — and the next store heals.
    let entry = cache.entry_path(&key);
    let mut rot = std::fs::read(&entry).expect("read entry to corrupt");
    let mid = rot.len() / 2;
    rot[mid] ^= 0xff;
    std::fs::write(&entry, &rot).expect("plant corruption");
    failpoint::configure("cache.quarantine", "1*err");
    match cache.load(&key) {
        Lookup::Quarantined(why) => assert!(why.contains("entry removed"), "{why}"),
        other => panic!("corrupt entry must never be served, got {other:?}"),
    }
    assert_eq!(cache.load(&key), Lookup::Miss, "removed entry must be gone");
    cache.store(&key, NEW).expect("store heals again");
    assert_eq!(cache.load(&key), Lookup::Hit(NEW.to_vec()));
    covered.insert("cache.quarantine");

    failpoint::disarm_all();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- supervise

/// A failed spawn is a retryable attempt, not a crash of the supervisor:
/// the retry loop absorbs it and the next attempt succeeds.
fn supervise_matrix(covered: &mut BTreeSet<&'static str>) {
    failpoint::configure("supervise.spawn", "1*err");
    let outcome = supervise::retry(
        |_| {
            let mut c = Command::new("true");
            c.stdout(Stdio::null());
            c
        },
        None,
        2,
        RetryPolicy::new(Duration::from_millis(1)),
    )
    .expect("retry loop");
    assert_eq!(outcome.last, Attempt::Exited(EXIT_OK));
    assert_eq!(outcome.attempts, 2, "one spawn failure, one success");
    failpoint::disarm("supervise.spawn");
    covered.insert("supervise.spawn");
}

#[test]
fn every_failpoint_site_has_a_recovery_story() {
    failpoint::disarm_all();
    let mut covered: BTreeSet<&'static str> = BTreeSet::new();

    fsio_matrix(&mut covered);
    checkpoint_matrix(&mut covered);
    cache_matrix(&mut covered);
    supervise_matrix(&mut covered);

    failpoint::disarm_all();
    let all: BTreeSet<&'static str> = SITES.iter().copied().collect();
    let missing: Vec<_> = all.difference(&covered).collect();
    assert!(
        missing.is_empty(),
        "failpoint sites with no crash-consistency coverage: {missing:?} — \
         every registered site needs a recovery story in this harness"
    );
    let unknown: Vec<_> = covered.difference(&all).collect();
    assert!(
        unknown.is_empty(),
        "harness exercises unregistered sites: {unknown:?}"
    );
}
