//! Observability integration tests: same-seed telemetry streams are
//! byte-identical, the JSONL schema is integer-only with monotone sample
//! boundaries, run manifests agree with the engine's intrinsic
//! conservation counters, and the `dcnsim` / `dcnstat` binaries fail
//! cleanly and detect (only real) drift.

use std::path::PathBuf;
use std::process::Command;

use beyond_fattrees::prelude::*;
use dcn_json::Json;

/// One telemetry-enabled run; returns the raw JSONL bytes and the
/// engine's intrinsic conservation summary.
fn telemetry_run(seed: u64) -> (Vec<u8>, Conservation) {
    let xp = Xpander::for_switches(5, 24, 2, seed).build();
    let pattern = Skew::new(&xp, xp.tors_with_servers(), 0.1, 0.7, seed);
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.01, seed);
    assert!(!flows.is_empty());

    let mut sim = Simulator::new(&xp, Routing::PAPER_HYB.selector(&xp), SimConfig::default());
    sim.set_window(0, 10 * MS);
    sim.inject(&flows);
    sim.set_tracer(Box::new(CountingTracer::new()));
    let buf = SharedBuf::new();
    sim.set_telemetry(Telemetry::new(
        Box::new(buf.clone()),
        DEFAULT_SAMPLE_EVERY_NS,
    ));
    sim.run(20 * SEC);
    check_conservation(&sim).expect("conservation with telemetry enabled");
    (buf.contents(), sim.conservation())
}

#[test]
fn same_seed_telemetry_is_byte_identical() {
    let (a, _) = telemetry_run(42);
    let (b, _) = telemetry_run(42);
    assert!(!a.is_empty(), "telemetry stream is empty");
    assert_eq!(a, b, "same-seed telemetry streams differ");
}

/// No `Json::Num` (float) anywhere in a telemetry line.
fn assert_integer_only(v: &Json, line: &str) {
    match v {
        Json::Num(_) => panic!("float in telemetry line: {line}"),
        Json::Arr(items) => items.iter().for_each(|i| assert_integer_only(i, line)),
        Json::Obj(fields) => fields
            .iter()
            .for_each(|(_, i)| assert_integer_only(i, line)),
        _ => {}
    }
}

#[test]
fn telemetry_schema_is_integer_only_with_monotone_boundaries() {
    let (bytes, _) = telemetry_run(42);
    let body = String::from_utf8(bytes).expect("telemetry is UTF-8");
    let mut prev_t = 0u64;
    let mut lines = 0u64;
    for line in body.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad telemetry line {line}: {e}"));
        assert_eq!(v.get("ev").and_then(|e| e.as_str()), Some("sample"));
        assert_integer_only(&v, line);
        let t = v.get("t").and_then(|t| t.as_u64()).expect("integer t");
        assert_eq!(t % DEFAULT_SAMPLE_EVERY_NS, 0, "t off the sample grid");
        assert!(t > prev_t, "sample times not strictly increasing");
        prev_t = t;
        for row in v.get("ch").and_then(|c| c.as_array()).unwrap_or(&[]) {
            assert_eq!(row.as_array().map(|r| r.len()), Some(4), "ch row shape");
        }
        lines += 1;
    }
    assert!(lines > 10, "expected a real sample stream, got {lines}");
}

#[test]
fn manifest_agrees_with_intrinsic_conservation() {
    let seed = 42;
    let (_, cons) = telemetry_run(seed);

    let xp = Xpander::for_switches(5, 24, 2, seed).build();
    let pattern = Skew::new(&xp, xp.tors_with_servers(), 0.1, 0.7, seed);
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.01, seed);
    let buf = SharedBuf::new();
    let run = Run {
        tracer: Some(Box::new(CountingTracer::new())),
        telemetry: Some(Telemetry::new(
            Box::new(buf.clone()),
            DEFAULT_SAMPLE_EVERY_NS,
        )),
        manifest: Some(ManifestSpec::new("telemetry-test", seed)),
        ..Run::new(
            &xp,
            Routing::PAPER_HYB,
            SimConfig::default(),
            &flows,
            (0, 10 * MS),
            20 * SEC,
        )
    };
    let man = run.execute().manifest.expect("manifest requested");

    // The manifest's conservation block is the engine's own accounting —
    // identical to what a direct simulator run reports for the same seed.
    let c = man.get("conservation").expect("conservation block");
    assert_eq!(c.get("sent").unwrap().as_u64(), Some(cons.sent));
    assert_eq!(c.get("delivered").unwrap().as_u64(), Some(cons.delivered));
    assert_eq!(c.get("dropped").unwrap().as_u64(), Some(cons.dropped));
    assert_eq!(c.get("in_flight").unwrap().as_u64(), Some(cons.in_flight));

    assert_eq!(man.get("schema").unwrap().as_u64(), Some(1));
    assert_eq!(man.get("seed").unwrap().as_u64(), Some(seed));
    let fp = man
        .get("topology")
        .and_then(|t| t.get("fingerprint"))
        .and_then(|f| f.as_str())
        .expect("topology fingerprint");
    assert_eq!(fp.len(), 16, "fingerprint is fixed-width hex");
    let tel = man.get("telemetry").expect("telemetry block");
    assert!(tel.get("samples").unwrap().as_u64().unwrap() > 0);
    assert_eq!(
        tel.get("sample_every_ns").unwrap().as_u64(),
        Some(DEFAULT_SAMPLE_EVERY_NS)
    );

    // The rendered document round-trips.
    let round = Json::parse(&man.render()).expect("manifest parses");
    assert_eq!(round.get("seed").unwrap().as_u64(), Some(seed));
}

/// Unique scratch path for one test (no wall clock: pid + label).
fn tmp_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dcn_obs_{}_{label}", std::process::id()))
}

#[test]
fn dcnsim_missing_config_is_a_one_line_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcnsim"))
        .arg("examples/configs/does_not_exist.json")
        .output()
        .expect("spawn dcnsim");
    assert!(!out.status.success(), "missing config must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("dcnsim: error:"), "stderr: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn dcnsim_unknown_config_key_is_a_one_line_error() {
    let cfg = tmp_path("bad_key.json");
    std::fs::write(
        &cfg,
        r#"{"topology": {"kind": "fat_tree", "k": 4}, "lambda_typo": 2000.0}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dcnsim"))
        .arg(&cfg)
        .output()
        .expect("spawn dcnsim");
    std::fs::remove_file(&cfg).ok();
    assert!(!out.status.success(), "unknown key must exit non-zero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("dcnsim: error:"), "stderr: {err}");
    assert!(err.contains("unknown key \"lambda_typo\""), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn dcnstat_diff_sees_zero_drift_between_same_seed_runs() {
    let man_a = tmp_path("man_a.json");
    let man_b = tmp_path("man_b.json");
    let ts_a = tmp_path("ts_a.jsonl");
    let ts_b = tmp_path("ts_b.jsonl");
    for (man, ts) in [(&man_a, &ts_a), (&man_b, &ts_b)] {
        let out = Command::new(env!("CARGO_BIN_EXE_dcnsim"))
            .arg("examples/configs/trace_tiny.json")
            .arg("--manifest")
            .arg(man)
            .arg("--telemetry")
            .arg(ts)
            .output()
            .expect("spawn dcnsim");
        assert!(
            out.status.success(),
            "dcnsim failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Same seed, same config ⇒ byte-identical telemetry streams.
    let (a, b) = (std::fs::read(&ts_a).unwrap(), std::fs::read(&ts_b).unwrap());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed dcnsim telemetry files differ");

    let diff = Command::new(env!("CARGO_BIN_EXE_dcnstat"))
        .args(["diff", man_a.to_str().unwrap(), man_b.to_str().unwrap()])
        .output()
        .expect("spawn dcnstat");
    assert!(
        diff.status.success(),
        "dcnstat diff reported drift: {}",
        String::from_utf8_lossy(&diff.stdout)
    );
    assert!(String::from_utf8_lossy(&diff.stdout).contains("zero drift"));

    // Tamper with one simulated field — diff must catch it and exit 1.
    let man_c = tmp_path("man_c.json");
    let body = std::fs::read_to_string(&man_a).unwrap();
    let tampered = body.replacen("\"seed\": 1", "\"seed\": 2", 1);
    assert_ne!(body, tampered, "expected a seed field to tamper with");
    std::fs::write(&man_c, tampered).unwrap();
    let diff = Command::new(env!("CARGO_BIN_EXE_dcnstat"))
        .args(["diff", man_a.to_str().unwrap(), man_c.to_str().unwrap()])
        .output()
        .expect("spawn dcnstat");
    assert!(!diff.status.success(), "tampered manifest must drift");
    assert!(String::from_utf8_lossy(&diff.stdout).contains("seed"));

    for p in [man_a, man_b, man_c, ts_a, ts_b] {
        std::fs::remove_file(p).ok();
    }
}
