//! Integration: `dcnrun`'s result memo (`<out-dir>/cache/`). A job whose
//! content-addressed key already has a verified result is answered from
//! it without a worker; a damaged entry is quarantined and recomputed,
//! never served; a memo that cannot store still serves the result.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dcn_json::Json;

/// A small valid experiment: k=4 fat-tree, a 2 ms window, `lambda` flow
/// starts/s. At [`BUSY`] a worker checkpointing every chunk writes
/// checkpoints before it finishes, so `--die-after-checkpoints` fires;
/// at [`LIGHT`] it finishes first, in a fraction of the time.
fn config(seed: u64, lambda: f64) -> String {
    format!(
        r#"{{
  "topology": {{ "kind": "fat_tree", "k": 4 }},
  "routing": {{ "kind": "ecmp" }},
  "workload": {{ "pattern": {{ "kind": "all_to_all" }} }},
  "lambda": {lambda:.1},
  "window_ms": [0, 2],
  "seed": {seed}
}}
"#
    )
}

const BUSY: f64 = 20000.0;
const LIGHT: f64 = 300.0;

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("batch_memo_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn write_cfg(dir: &Path, stem: &str, body: &str) -> String {
    let p = dir.join(format!("{stem}.json"));
    std::fs::write(&p, body).expect("write config");
    p.to_string_lossy().into_owned()
}

/// Runs `dcnrun batch <cfgs> --out-dir <out> <extra>` with `env` set.
fn batch(cfgs: &[String], out: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcnrun"));
    cmd.arg("batch")
        .args(cfgs)
        .arg("--out-dir")
        .arg(out)
        .args(["--checkpoint-every-ms", "0"])
        .args(extra)
        .env_remove("DCN_FAILPOINTS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn dcnrun batch")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn report(out: &Path, stem: &str) -> Json {
    let body = String::from_utf8(read(&out.join(format!("{stem}.report.json")))).unwrap();
    Json::parse(&body).expect("report parses")
}

fn status_and_attempts(out: &Path, stem: &str) -> (String, u64) {
    let r = report(out, stem);
    (
        r.get("status")
            .and_then(|x| x.as_str())
            .unwrap()
            .to_string(),
        r.get("attempts").and_then(|x| x.as_u64()).unwrap(),
    )
}

fn memo_entries(out: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(out.join("cache"))
        .expect("memo dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    v.sort();
    v
}

/// A second batch over the same out-dir answers every job from the memo
/// with byte-identical results. Every first worker attempt would SIGKILL
/// itself and no retry is allowed, so a spawned worker would fail the
/// job: `cached` with 0 attempts means none was spawned.
#[test]
fn second_batch_is_served_from_the_memo_byte_identical() {
    let dir = tmp_dir("warm");
    let out = dir.join("out");
    let cfgs = vec![
        write_cfg(&dir, "a", &config(7, BUSY)),
        write_cfg(&dir, "b", &config(8, BUSY)),
    ];
    let cold = batch(&cfgs, &out, &["--jobs", "2"], &[]);
    assert!(cold.status.success(), "cold batch: {cold:?}");
    let cold_bytes: Vec<Vec<u8>> = ["a", "b"]
        .iter()
        .map(|s| read(&out.join(format!("{s}.result.json"))))
        .collect();
    assert_eq!(memo_entries(&out).len(), 2, "one memo entry per job");

    let prom = dir.join("warm.prom");
    let warm = batch(
        &cfgs,
        &out,
        &[
            "--jobs",
            "2",
            "--retries",
            "0",
            "--die-after-checkpoints",
            "1",
            "--metrics",
            prom.to_str().unwrap(),
        ],
        &[],
    );
    assert!(warm.status.success(), "warm batch: {warm:?}");
    for (s, cold) in ["a", "b"].iter().zip(&cold_bytes) {
        assert_eq!(
            &read(&out.join(format!("{s}.result.json"))),
            cold,
            "{s}: warm result differs from cold"
        );
        assert_eq!(status_and_attempts(&out, s), ("cached".to_string(), 0));
    }
    let summary = String::from_utf8(read(&out.join("batch.summary.json"))).unwrap();
    assert!(summary.contains("\"ok\": 2"), "{summary}");
    let prom = String::from_utf8(read(&prom)).unwrap();
    assert!(prom.contains("\ndcnrun_jobs_cached_total 2\n"), "{prom}");
    assert!(
        prom.contains("\ndcnrun_worker_attempts_total 0\n"),
        "{prom}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The memo holds exactly what a SIGKILLed-and-resumed worker wrote, and
/// that equals an uninterrupted run.
#[test]
fn memo_of_a_killed_and_resumed_run_equals_a_straight_run() {
    let dir = tmp_dir("resume");
    let cfgs = vec![write_cfg(&dir, "job", &config(9, BUSY))];
    let crashed = dir.join("crashed");
    let run = batch(&cfgs, &crashed, &["--die-after-checkpoints", "1"], &[]);
    assert!(run.status.success(), "crashed batch: {run:?}");
    assert_eq!(status_and_attempts(&crashed, "job"), ("ok".to_string(), 2));
    let straight = dir.join("straight");
    let run = batch(&cfgs, &straight, &[], &[]);
    assert!(run.status.success(), "straight batch: {run:?}");
    let truth = read(&straight.join("job.result.json"));
    assert_eq!(read(&crashed.join("job.result.json")), truth);

    let warm = batch(&cfgs, &crashed, &[], &[]);
    assert!(warm.status.success(), "warm batch: {warm:?}");
    assert_eq!(
        status_and_attempts(&crashed, "job"),
        ("cached".to_string(), 0)
    );
    assert_eq!(read(&crashed.join("job.result.json")), truth);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash or hang hook that the job finishes before reaching is a
/// config error naming the hook and the checkpoints written, not a quiet
/// success: at [`LIGHT`] and seed 10 the job ends before its first
/// checkpoint. A hook count of 0 is refused up front.
#[test]
fn a_hook_the_job_cannot_reach_is_a_config_error() {
    let dir = tmp_dir("unreached");
    let cfgs = vec![write_cfg(&dir, "job", &config(10, LIGHT))];
    for flag in ["--die-after-checkpoints", "--stall-after-checkpoints"] {
        let out = dir.join(&flag[2..]);
        let run = batch(&cfgs, &out, &[flag, "1", "--timeout-s", "60"], &[]);
        assert_eq!(run.status.code(), Some(1), "{flag}: {run:?}");
        assert_eq!(
            status_and_attempts(&out, "job"),
            ("config_error".to_string(), 1),
            "{flag}: never retried"
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        let want = format!("{flag} 1: the job finished after writing 0 checkpoint(s)");
        assert!(stderr.contains(&want), "{flag}: {stderr}");
        assert!(!out.join("job.result.json").exists());
        assert!(memo_entries(&out).is_empty());
        // A count of 0 could never fire: refused before any job runs.
        let zero = batch(&cfgs, &dir.join("zero"), &[flag, "0"], &[]);
        assert_eq!(zero.status.code(), Some(1), "{flag} 0: {zero:?}");
        let stderr = String::from_utf8_lossy(&zero.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated entry is moved to `cache/quarantine/` and recomputed to
/// the same bytes; the recomputed result is memoized again.
#[test]
fn truncated_entry_is_quarantined_and_recomputed() {
    let dir = tmp_dir("rot");
    let out = dir.join("out");
    let cfgs = vec![write_cfg(&dir, "job", &config(10, LIGHT))];
    assert!(batch(&cfgs, &out, &[], &[]).status.success());
    let truth = read(&out.join("job.result.json"));
    let entries = memo_entries(&out);
    assert_eq!(entries.len(), 1);
    let entry = read(&entries[0]);
    std::fs::write(&entries[0], &entry[..entry.len() - 2]).unwrap();

    let healed = batch(&cfgs, &out, &[], &[]);
    assert!(healed.status.success(), "healing batch: {healed:?}");
    assert_eq!(status_and_attempts(&out, "job"), ("ok".to_string(), 1));
    assert_eq!(read(&out.join("job.result.json")), truth);
    let quarantined: Vec<_> = std::fs::read_dir(out.join("cache/quarantine"))
        .unwrap()
        .collect();
    assert_eq!(
        quarantined.len(),
        1,
        "the damaged entry is kept as evidence"
    );
    assert_eq!(read(&entries[0]), entry, "the recomputed result is stored");
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert!(stderr.contains("quarantined"), "{stderr}");

    assert!(batch(&cfgs, &out, &[], &[]).status.success());
    assert_eq!(status_and_attempts(&out, "job"), ("cached".to_string(), 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Another seed is another experiment: it misses, runs, and gets its own
/// entry.
#[test]
fn a_different_seed_misses() {
    let dir = tmp_dir("seed");
    let out = dir.join("out");
    let first = vec![write_cfg(&dir, "job", &config(11, LIGHT))];
    assert!(batch(&first, &out, &[], &[]).status.success());
    let a = read(&out.join("job.result.json"));

    let other = dir.join("other");
    std::fs::create_dir_all(&other).unwrap();
    let second = vec![write_cfg(&other, "job", &config(12, LIGHT))];
    assert!(batch(&second, &out, &[], &[]).status.success());
    assert_eq!(status_and_attempts(&out, "job"), ("ok".to_string(), 1));
    assert_ne!(read(&out.join("job.result.json")), a);
    assert_eq!(memo_entries(&out).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose config names a trace file always runs: a memo hit would
/// not write the trace.
#[test]
fn configs_with_a_trace_file_skip_the_memo() {
    let dir = tmp_dir("trace");
    let out = dir.join("out");
    let trace = dir.join("job.trace.jsonl");
    let body = config(13, LIGHT).replacen(
        "\"seed\"",
        &format!("\"trace\": \"{}\",\n  \"seed\"", trace.display()),
        1,
    );
    let cfgs = vec![write_cfg(&dir, "job", &body)];
    for _ in 0..2 {
        let _ = std::fs::remove_file(&trace);
        assert!(batch(&cfgs, &out, &[], &[]).status.success());
        assert_eq!(status_and_attempts(&out, "job"), ("ok".to_string(), 1));
        assert!(trace.exists(), "the trace is written on every run");
    }
    assert!(memo_entries(&out).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A memo that cannot store (disk full) still serves the exact result;
/// the job is reported `ok_degraded`, and the next batch recomputes.
#[test]
fn a_failed_store_serves_the_result_degraded() {
    let dir = tmp_dir("enospc");
    let cfgs = vec![write_cfg(&dir, "job", &config(14, LIGHT))];
    let truth_dir = dir.join("truth");
    assert!(batch(&cfgs, &truth_dir, &[], &[]).status.success());
    let out = dir.join("out");
    let run = batch(
        &cfgs,
        &out,
        &[],
        &[("DCN_FAILPOINTS", "cache.store=enospc")],
    );
    assert!(run.status.success(), "degraded is still success: {run:?}");
    assert_eq!(
        status_and_attempts(&out, "job"),
        ("ok_degraded".to_string(), 1)
    );
    assert_eq!(
        read(&out.join("job.result.json")),
        read(&truth_dir.join("job.result.json"))
    );
    assert!(memo_entries(&out).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose topology is loaded from a file always runs: the config
/// text, and so the key, does not cover that file's contents.
#[test]
fn configs_with_a_file_topology_skip_the_memo() {
    let dir = tmp_dir("topofile");
    let out = dir.join("out");
    let topo = dir.join("fat_tree_k4.json");
    let mut body = beyond_fattrees::prelude::FatTree::full(4)
        .build()
        .to_json()
        .pretty();
    body.push('\n');
    std::fs::write(&topo, body).unwrap();
    let cfg = config(15, LIGHT).replacen(
        r#"{ "kind": "fat_tree", "k": 4 }"#,
        &format!(r#"{{ "kind": "file", "path": "{}" }}"#, topo.display()),
        1,
    );
    let cfgs = vec![write_cfg(&dir, "job", &cfg)];
    for _ in 0..2 {
        let run = batch(&cfgs, &out, &[], &[]);
        assert!(run.status.success(), "{run:?}");
        assert_eq!(status_and_attempts(&out, "job"), ("ok".to_string(), 1));
    }
    assert!(memo_entries(&out).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
