//! Integration: the `dcnrun batch` work-stealing scheduler. Jobs are
//! dispatched to parallel supervisor slots (`--jobs`), so completion
//! order is nondeterministic — but `batch.summary.json` must list
//! `per_job` in the order the configs were given, count outcomes
//! correctly, and record fail-fast skips deterministically.

use std::process::Command;

use dcn_json::Json;

/// A tiny valid experiment: k=4 fat-tree, 1 ms window, low arrival rate —
/// a worker finishes it in well under a second.
fn good_config(seed: u64) -> String {
    format!(
        r#"{{
  "topology": {{ "kind": "fat_tree", "k": 4 }},
  "routing": {{ "kind": "ecmp" }},
  "workload": {{ "pattern": {{ "kind": "all_to_all" }} }},
  "lambda": 100.0,
  "window_ms": [0, 1],
  "seed": {seed}
}}
"#
    )
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("batch_summary_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn write_cfg(dir: &std::path::Path, stem: &str, body: &str) -> String {
    let p = dir.join(format!("{stem}.json"));
    std::fs::write(&p, body).expect("write config");
    p.to_string_lossy().into_owned()
}

fn read_summary(dir: &std::path::Path) -> Json {
    let p = dir.join("out/batch.summary.json");
    let body = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    Json::parse(&body).expect("summary parses")
}

fn per_job(summary: &Json) -> Vec<(String, String)> {
    summary
        .get("per_job")
        .and_then(|x| x.as_array())
        .expect("per_job array")
        .iter()
        .map(|row| {
            let job = row
                .get("job")
                .and_then(|x| x.as_str())
                .expect("job")
                .to_string();
            let status = row
                .get("status")
                .and_then(|x| x.as_str())
                .expect("status")
                .to_string();
            (job, status)
        })
        .collect()
}

/// Four jobs on four parallel slots finish in arbitrary order; the
/// summary still lists them in submission order, all ok.
#[test]
fn summary_is_ordered_by_job_id_under_parallel_dispatch() {
    let dir = tmp_dir("parallel");
    let stems = ["j0", "j1", "j2", "j3"];
    let cfgs: Vec<String> = stems
        .iter()
        .enumerate()
        .map(|(i, s)| write_cfg(&dir, s, &good_config(7 + i as u64)))
        .collect();

    let out = dir.join("out").to_string_lossy().into_owned();
    let status = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .arg("batch")
        .args(&cfgs)
        .args([
            "--out-dir",
            &out,
            "--jobs",
            "4",
            "--retries",
            "0",
            "--keep-going",
        ])
        .status()
        .expect("spawn dcnrun batch");
    assert!(status.success(), "all-good batch must exit 0");

    let summary = read_summary(&dir);
    assert_eq!(summary.get("jobs").and_then(|x| x.as_u64()), Some(4));
    assert_eq!(summary.get("ok").and_then(|x| x.as_u64()), Some(4));
    assert_eq!(summary.get("failed").and_then(|x| x.as_u64()), Some(0));
    assert_eq!(summary.get("skipped").and_then(|x| x.as_u64()), Some(0));
    let rows = per_job(&summary);
    assert_eq!(
        rows.iter().map(|(j, _)| j.as_str()).collect::<Vec<_>>(),
        stems,
        "per_job must follow submission order, not completion order"
    );
    assert!(rows.iter().all(|(_, s)| s == "ok"), "rows: {rows:?}");
    for s in &stems {
        assert!(
            dir.join(format!("out/{s}.report.json")).exists(),
            "{s} report missing"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail-fast on one slot: the job after the failure never launches, and
/// the summary records it (and everything behind it) as skipped, still
/// in submission order.
#[test]
fn fail_fast_records_skipped_jobs_in_order() {
    let dir = tmp_dir("failfast");
    let cfgs = vec![
        write_cfg(&dir, "a_ok", &good_config(1)),
        write_cfg(
            &dir,
            "b_bad",
            r#"{ "topology": { "kind": "moebius_strip" } }"#,
        ),
        write_cfg(&dir, "c_never", &good_config(2)),
        write_cfg(&dir, "d_never", &good_config(3)),
    ];

    let out = dir.join("out").to_string_lossy().into_owned();
    // One slot makes dispatch order sequential, so the skip set is exact.
    let status = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .arg("batch")
        .args(&cfgs)
        .args(["--out-dir", &out, "--jobs", "1", "--retries", "0"])
        .status()
        .expect("spawn dcnrun batch");
    assert!(
        !status.success(),
        "batch with a failing job must not exit 0"
    );

    let summary = read_summary(&dir);
    assert_eq!(summary.get("jobs").and_then(|x| x.as_u64()), Some(4));
    assert_eq!(summary.get("ok").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(summary.get("failed").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(summary.get("skipped").and_then(|x| x.as_u64()), Some(2));
    assert_eq!(
        summary.get("keep_going").and_then(|x| x.as_bool()),
        Some(false)
    );
    let rows = per_job(&summary);
    assert_eq!(
        rows,
        vec![
            ("a_ok".into(), "ok".into()),
            ("b_bad".into(), "config_error".into()),
            ("c_never".into(), "skipped".into()),
            ("d_never".into(), "skipped".into()),
        ]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--keep-going` with parallel slots runs everything despite failures;
/// nothing is skipped and counts add up.
#[test]
fn keep_going_runs_every_job_despite_failures() {
    let dir = tmp_dir("keepgoing");
    let cfgs = vec![
        write_cfg(&dir, "ok0", &good_config(11)),
        write_cfg(&dir, "bad1", r#"{ "this is": "not an experiment" }"#),
        write_cfg(&dir, "ok2", &good_config(12)),
    ];

    let out = dir.join("out").to_string_lossy().into_owned();
    let status = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .arg("batch")
        .args(&cfgs)
        .args([
            "--out-dir",
            &out,
            "--jobs",
            "2",
            "--retries",
            "0",
            "--keep-going",
        ])
        .status()
        .expect("spawn dcnrun batch");
    assert!(!status.success());

    let summary = read_summary(&dir);
    assert_eq!(summary.get("ok").and_then(|x| x.as_u64()), Some(2));
    assert_eq!(summary.get("failed").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(summary.get("skipped").and_then(|x| x.as_u64()), Some(0));
    let rows = per_job(&summary);
    assert_eq!(
        rows.iter().map(|(j, _)| j.as_str()).collect::<Vec<_>>(),
        ["ok0", "bad1", "ok2"]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two configs with one file stem would write the same
/// `<stem>.result.json`/`.report.json`/`.ckpt`: the batch is refused
/// with exit 1, naming both paths, before any job runs.
#[test]
fn colliding_job_stems_are_refused_before_dispatch() {
    let dir = tmp_dir("collide");
    for sub in ["a", "b"] {
        std::fs::create_dir_all(dir.join(sub)).expect("create config dir");
    }
    let cfgs = vec![
        write_cfg(&dir.join("a"), "job", &good_config(21)),
        write_cfg(&dir.join("b"), "job", &good_config(22)),
    ];

    let out = dir.join("out");
    let run = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .arg("batch")
        .args(&cfgs)
        .arg("--out-dir")
        .arg(&out)
        .args(["--jobs", "1"])
        .output()
        .expect("spawn dcnrun batch");
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    for cfg in &cfgs {
        assert!(stderr.contains(cfg.as_str()), "{cfg} not named: {stderr}");
    }
    assert!(
        !out.join("job.result.json").exists() && !out.join("batch.summary.json").exists(),
        "nothing may run or be summarized"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A config that parses but panics while materializing (a k=3 fat-tree)
/// fails in its worker, never in the supervisor: the batch still runs
/// its other jobs and writes its summary, with that one job failed.
#[test]
fn a_config_that_panics_in_its_constructor_fails_only_its_job() {
    let dir = tmp_dir("ctorpanic");
    let cfgs = vec![
        write_cfg(
            &dir,
            "bad",
            &good_config(31).replace("\"k\": 4", "\"k\": 3"),
        ),
        write_cfg(&dir, "ok", &good_config(32)),
    ];

    let out = dir.join("out").to_string_lossy().into_owned();
    let run = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .arg("batch")
        .args(&cfgs)
        .args(["--out-dir", &out, "--retries", "0", "--keep-going"])
        .output()
        .expect("spawn dcnrun batch");
    assert!(!run.status.success(), "{run:?}");

    let summary = read_summary(&dir);
    assert_eq!(summary.get("ok").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(summary.get("failed").and_then(|x| x.as_u64()), Some(1));
    let rows = per_job(&summary);
    assert_eq!(rows[0].0, "bad");
    assert!(rows[0].1 != "ok" && rows[0].1 != "cached", "{rows:?}");
    assert_eq!(rows[1], ("ok".to_string(), "ok".to_string()));

    let _ = std::fs::remove_dir_all(&dir);
}
