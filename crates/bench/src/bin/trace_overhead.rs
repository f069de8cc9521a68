//! Measures what the observability layer costs: the same tiny experiment
//! under the default `NopTracer`, a `CountingTracer`, a `JsonlTracer`
//! writing to memory, and time-series telemetry sampling, reported as
//! simulator events per wall-clock second.
//!
//! The point of the design is that `NopTracer` reports itself disabled,
//! so untraced runs never construct trace events — this binary is the
//! regression guard for that property:
//!
//! ```text
//! cargo run --release -p dcn-bench --bin trace_overhead              # report
//! cargo run --release -p dcn-bench --bin trace_overhead -- --bless  # write baseline
//! cargo run --release -p dcn-bench --bin trace_overhead -- --check  # assert vs baseline
//! ```
//!
//! `--check` fails if the NopTracer rate drops below half the blessed
//! baseline in `results/trace_overhead_baseline.json` (a deliberately
//! loose bound: it catches "tracing made untraced runs slow", not CI
//! machine jitter). The same gate covers the disarmed-failpoint check
//! rate: fault-injection sites are compiled into every durability
//! boundary, and this proves they cost nothing while no faults are
//! armed.

use dcn_bench::parse_cli;
use dcn_core::{paper_networks, Routing, Scale};
use dcn_json::Json;
use dcn_sim::{
    CountingTracer, JsonlTracer, SharedBuf, SimConfig, Simulator, Telemetry, Tracer,
    DEFAULT_SAMPLE_EVERY_NS, MS, SEC,
};
use dcn_workloads::{generate_flows, AllToAll, PFabricWebSearch};

const BASELINE: &str = "trace_overhead_baseline.json";

/// One full experiment; returns (events processed, wall seconds).
fn run_once(tracer: Option<Box<dyn Tracer>>, telemetry: bool, seed: u64) -> (u64, f64) {
    let pair = paper_networks(Scale::Tiny, seed);
    let xp = &pair.xpander;
    let pattern = AllToAll::new(xp, xp.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.02, seed);
    let mut sim = Simulator::new(xp, Routing::PAPER_HYB.selector(xp), SimConfig::default());
    sim.set_window(0, 10 * MS);
    sim.inject(&flows);
    if let Some(t) = tracer {
        sim.set_tracer(t);
    }
    if telemetry {
        sim.set_telemetry(Telemetry::new(
            Box::new(SharedBuf::new()),
            DEFAULT_SAMPLE_EVERY_NS,
        ));
    }
    let t0 = std::time::Instant::now();
    sim.run(20 * SEC);
    (sim.events_processed(), t0.elapsed().as_secs_f64())
}

/// Disarmed-failpoint check throughput (checks/s): the price every
/// durability boundary pays when no faults are armed. The whole point of
/// the registry design is that this is one relaxed atomic load, so the
/// rate should sit within a small factor of raw memory-load throughput —
/// the `--check` gate proves "failpoints compiled in but off" costs
/// nothing measurable.
fn failpoint_rate(reps: u32) -> f64 {
    dcn_core::failpoint::disarm_all();
    const ITERS: u64 = 50_000_000;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let mut trips = 0u64;
        for _ in 0..ITERS {
            if std::hint::black_box(dcn_core::failpoint::check("fsio.tmp_write")).is_some() {
                trips += 1;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(trips, 0, "disarmed failpoint tripped");
        best = best.max(ITERS as f64 / secs);
    }
    best
}

/// Best-of-`reps` event rate (events/s) for one observability
/// configuration.
fn rate(reps: u32, seed: u64, telemetry: bool, mk: impl Fn() -> Option<Box<dyn Tracer>>) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let (events, secs) = run_once(mk(), telemetry, seed);
        best = best.max(events as f64 / secs);
    }
    best
}

fn main() {
    let cli = parse_cli(&["check", "bless"]);
    let dir = cli.out_dir.clone().unwrap_or_else(|| "results".to_string());
    let path = format!("{dir}/{BASELINE}");

    let nop = rate(3, cli.seed, false, || None);
    let counting = rate(3, cli.seed, false, || Some(Box::new(CountingTracer::new())));
    let jsonl = rate(3, cli.seed, false, || {
        Some(Box::new(JsonlTracer::new(SharedBuf::new())))
    });
    // Informational only — the --check gate stays on the nop rate (the
    // deterministic engine counter set is always on and priced into nop
    // itself).
    let telemetry = rate(3, cli.seed, true, || None);
    let failpoint = failpoint_rate(3);

    println!("tracer\tevents_per_sec");
    println!("nop\t{nop:.0}");
    println!("counting\t{counting:.0}");
    println!("jsonl\t{jsonl:.0}");
    println!("telemetry\t{telemetry:.0}");
    println!("failpoint_checks\t{failpoint:.0}");

    if cli.has_flag("bless") {
        std::fs::create_dir_all(&dir).expect("create results dir");
        let report = Json::obj(vec![
            ("nop_events_per_sec", Json::from(nop.round() as u64)),
            (
                "counting_events_per_sec",
                Json::from(counting.round() as u64),
            ),
            ("jsonl_events_per_sec", Json::from(jsonl.round() as u64)),
            (
                "failpoint_checks_per_sec",
                Json::from(failpoint.round() as u64),
            ),
        ]);
        dcn_core::write_atomic(&path, report.pretty().as_bytes()).expect("write baseline");
        eprintln!("blessed {path}");
    } else if cli.has_flag("check") {
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {path}: {e} (run with --bless first)"));
        let v = Json::parse(&body).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let base = v
            .get("nop_events_per_sec")
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("{path}: missing nop_events_per_sec"));
        let floor = 0.5 * base;
        assert!(
            nop >= floor,
            "untraced simulator regressed: {nop:.0} events/s < half the blessed \
             baseline {base:.0} (floor {floor:.0}) — tracing must stay free when off"
        );
        eprintln!("ok: nop {nop:.0} events/s >= floor {floor:.0} (baseline {base:.0})");
        // Same loose half-the-baseline bound for the disarmed-failpoint
        // fast path; tolerated absent in pre-failpoint baselines so an
        // old blessed file does not break --check.
        if let Some(fp_base) = v.get("failpoint_checks_per_sec").and_then(|x| x.as_f64()) {
            let fp_floor = 0.5 * fp_base;
            assert!(
                failpoint >= fp_floor,
                "disarmed failpoint check regressed: {failpoint:.0} checks/s < half the \
                 blessed baseline {fp_base:.0} (floor {fp_floor:.0}) — failpoints must \
                 stay free when off"
            );
            eprintln!(
                "ok: disarmed failpoint {failpoint:.0} checks/s >= floor {fp_floor:.0} \
                 (baseline {fp_base:.0})"
            );
        }
    }
}
