//! Golden-trace regression tests: a tiny fixed scenario per transport,
//! traced with [`JsonlTracer`], diffed byte-for-byte against committed
//! fixtures in `tests/golden/`. Any change to event ordering, schema,
//! protocol behavior, or RNG consumption shows up as a trace diff.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_regression
//! ```
//!
//! and review the fixture diff like any other code change.

use beyond_fattrees::prelude::*;

/// The fixed scenario: a 4-to-1 incast onto one server of a k=4 fat-tree
/// plus one cross-rack flow, through shallow queues (10 packets, ECN at
/// 4) so the trace exercises enqueues, marks, and congestion drops while
/// staying a few hundred KB.
fn scenario(cfg: SimConfig) -> Vec<u8> {
    let t = FatTree::full(4).build();
    let tors = t.tors_with_servers();
    let ep = |rack: usize, server: u32| Endpoint {
        rack: tors[rack],
        server,
    };
    let mut flows = Vec::new();
    for (i, &src_rack) in [1usize, 2, 3, 4].iter().enumerate() {
        flows.push(FlowEvent {
            start_s: i as f64 * 2e-6,
            src: ep(src_rack, 0),
            dst: ep(0, 0),
            bytes: 15_000,
        });
    }
    flows.push(FlowEvent {
        start_s: 1e-6,
        src: ep(5, 1),
        dst: ep(6, 0),
        bytes: 30_000,
    });

    let mut cfg = cfg;
    cfg.queue_pkts = 10;
    cfg.ecn_k_pkts = 4;
    let mut sim = Simulator::new(&t, Routing::Ecmp.selector(&t), cfg);
    sim.set_window(0, 5 * MS);
    sim.inject(&flows);
    let buf = SharedBuf::new();
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let rec = sim.run(SEC);
    assert!(
        rec.iter().all(|r| r.fct_ns.is_some()),
        "scenario flow failed to finish"
    );
    buf.contents()
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.jsonl"))
}

fn check_golden(name: &str, cfg: SimConfig) {
    let trace = scenario(cfg);
    assert!(!trace.is_empty(), "{name}: empty trace");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &trace).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (bless fixtures with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    if trace != golden {
        // Find the first diverging line for a readable failure.
        let got = String::from_utf8_lossy(&trace);
        let want = String::from_utf8_lossy(&golden);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{name}: trace diverges at line {}", i + 1);
        }
        panic!(
            "{name}: trace length changed: {} vs golden {} lines",
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn dctcp_trace_matches_golden() {
    check_golden("dctcp", SimConfig::default());
}

#[test]
fn newreno_trace_matches_golden() {
    check_golden("newreno", SimConfig::default().with_newreno());
}

#[test]
fn pfabric_trace_matches_golden() {
    check_golden("pfabric", SimConfig::default().with_pfabric());
}

/// The reproducibility contract behind the fixtures: the same seed and
/// config give byte-identical traces on back-to-back runs.
#[test]
fn traces_are_byte_identical_across_runs() {
    for cfg in [
        SimConfig::default(),
        SimConfig::default().with_newreno(),
        SimConfig::default().with_pfabric(),
    ] {
        let a = scenario(cfg);
        let b = scenario(cfg);
        assert_eq!(a, b, "same scenario produced different traces");
    }
}

/// Every golden line parses and follows the `{"t": ..., "ev": ...}`
/// schema with monotonically non-decreasing timestamps.
#[test]
fn golden_traces_are_valid_jsonl() {
    for name in ["dctcp", "newreno", "pfabric"] {
        let path = golden_path(name);
        let body =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut last_t = 0u64;
        for (i, line) in body.lines().enumerate() {
            let v = dcn_json::Json::parse(line)
                .unwrap_or_else(|e| panic!("{name}:{}: bad JSON: {e}", i + 1));
            let t = v
                .get("t")
                .and_then(|x| x.as_u64())
                .unwrap_or_else(|| panic!("{name}:{}: missing \"t\"", i + 1));
            assert!(t >= last_t, "{name}:{}: time went backwards", i + 1);
            last_t = t;
            let ev = v
                .get("ev")
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("{name}:{}: missing \"ev\"", i + 1));
            assert!(
                ev.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name}:{}: bad event tag {ev:?}",
                i + 1
            );
        }
    }
}
