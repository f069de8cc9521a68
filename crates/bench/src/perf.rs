//! The performance suite behind `bench perf` and the committed
//! `BENCH_sim.json` baseline: the one place the packet engine is timed.
//!
//! A row is a flat JSON object. Its leading string fields name it (joined
//! with `/` they form its label, e.g. `fat_tree_k4/dctcp`); everything
//! else is a measurement of one of two kinds:
//!
//! - **simulated** — flow counts, events processed, drops, queue peak,
//!   and the engine's deterministic self-observability counters (calendar
//!   spills/fallbacks, arena high-water); for set-up rows, the fabric's
//!   size, fingerprint and distance checksum. Same binary, same seed ⇒
//!   byte-identical values; `--check` compares them exactly, so an
//!   accidental behavior change in the hot path fails CI even if it is
//!   *faster*.
//! - **wall-clock** — `wall_ms` and `events_per_sec_wall`, which
//!   [`dcn_core::WALL_CLOCK_FIELDS`] already names, so
//!   [`dcn_core::diff_json`] skips them exactly as it does for manifests.
//!   `--check` only asserts a loose floor ([`PERF_RATE_FLOOR`] of the
//!   blessed rate), which catches "the engine got slow" without tripping
//!   on CI machine jitter.
//!
//! The rows: three transports on two fat-tree sizes under all-to-all
//! load; one 10 MB flow on the k=4 fat-tree; the tiny Xpander under HYB
//! with each observer (none, a counting tracer, a JSONL tracer into
//! memory, telemetry sampling), which must agree with each other on every
//! simulated field; the disarmed failpoint check (see
//! [`failpoint_case`]); and the set-up of the 65,536-host Xpander, lift
//! generation, ECMP table and simulator construction (see
//! [`xpander_2048_cases`]).
//!
//! [`compare_cases`] is the one comparer: `--check` ([`check_perf`]) and
//! `dcnstat bench old new` both read its verdicts. Re-bless with
//! `bench perf --bless` after a deliberate engine change and the diff
//! shows up in review next to the code that caused it. A bless runs the
//! suite [`BLESS_RUNS`] times and keeps each case's median-rate run
//! ([`median_runs`]), so the baseline records the code more than the
//! machine's spell.

use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcn_core::{diff_json, failpoint, hex64, paper_networks, Routing, Run, Scale};
use dcn_json::Json;
use dcn_routing::{EcmpSelector, EcmpTable};
use dcn_sim::{
    compute_metrics, CountingTracer, JsonlTracer, SharedBuf, SimConfig, Simulator, Telemetry,
    DEFAULT_SAMPLE_EVERY_NS, MS, SEC,
};
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_topology::NodeId;
use dcn_workloads::tm::Endpoint;
use dcn_workloads::{generate_flows, AllToAll, FlowEvent, PFabricWebSearch};

/// Schema tag every `BENCH_sim.json` leads with.
pub const PERF_SCHEMA: &str = "dcn-bench-perf-v1";

/// `--check` fails when a case's measured rate drops below this fraction
/// of the blessed baseline.
pub const PERF_RATE_FLOOR: f64 = 0.5;

/// Suite runs a bless takes each case's median from. Single runs of a
/// case spread by about ±20% on a 2-vCPU box.
pub const BLESS_RUNS: usize = 5;

/// An engine or set-up case repeats its run until the timed runs add up
/// to this much wall time, and reports the fastest. A multi-second case
/// runs once; a millisecond case runs often enough that one slow run (a
/// cold cache, a noisy neighbour) cannot fail the floor.
const MIN_TIMED: Duration = Duration::from_millis(500);

/// One all-to-all web-search case: a transport on a fat-tree size, loaded
/// enough that the hot path (not setup) dominates.
struct Case {
    topology: &'static str,
    transport: &'static str,
    k: u32,
    /// Flow arrivals per second across all servers.
    lambda: f64,
    /// Arrival window length (seconds); measurement window matches.
    span_s: f64,
}

const fn case(
    topology: &'static str,
    transport: &'static str,
    k: u32,
    lambda: f64,
    span_s: f64,
) -> Case {
    Case {
        topology,
        transport,
        k,
        lambda,
        span_s,
    }
}

const CASES: &[Case] = &[
    case("fat_tree_k4", "dctcp", 4, 16_000.0, 0.05),
    case("fat_tree_k4", "newreno", 4, 16_000.0, 0.05),
    case("fat_tree_k4", "pfabric", 4, 16_000.0, 0.05),
    case("fat_tree_k8", "dctcp", 8, 21_376.0, 0.03),
    case("fat_tree_k8", "newreno", 8, 21_376.0, 0.03),
    case("fat_tree_k8", "pfabric", 8, 21_376.0, 0.03),
];

fn config_for(transport: &str) -> SimConfig {
    match transport {
        "dctcp" => SimConfig::default(),
        "newreno" => SimConfig::default().with_newreno(),
        "pfabric" => SimConfig::default().with_pfabric(),
        other => panic!("unknown transport {other}"),
    }
}

/// What watches the Xpander case's run besides the engine's own counters.
const OBSERVERS: &[&str] = &["none", "counting_tracer", "jsonl_tracer", "telemetry"];

fn observe(run: &mut Run, observer: &str) {
    match observer {
        "none" => {}
        "counting_tracer" => run.tracer = Some(Box::new(CountingTracer::new())),
        "jsonl_tracer" => run.tracer = Some(Box::new(JsonlTracer::new(SharedBuf::new()))),
        "telemetry" => {
            run.telemetry = Some(Telemetry::new(
                Box::new(SharedBuf::new()),
                DEFAULT_SAMPLE_EVERY_NS,
            ))
        }
        other => panic!("unknown observer {other}"),
    }
}

/// Times `sim.run` of the runs `make` describes, built by [`Run::build`],
/// until [`MIN_TIMED`] is spent, and returns the case row: `labels`, then
/// the simulated fields (which every repeat must reproduce exactly), then
/// the fastest run's wall-clock fields.
fn engine_case<'a>(labels: &[(&str, &str)], seed: u64, mut make: impl FnMut() -> Run<'a>) -> Json {
    let mut simulated: Option<Vec<(&str, Json)>> = None;
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut events = 0;
    while spent < MIN_TIMED {
        let mut run = make();
        let mut sim = run.build();
        let t0 = Instant::now();
        let rec = sim.run(run.max_time);
        let wall = t0.elapsed();
        spent += wall;
        best = best.min(wall);
        events = sim.events_processed();
        let m = compute_metrics(&rec, run.window.0, run.window.1);
        let eng = sim.engine_counters();
        let fields = vec![
            ("seed", Json::from(seed)),
            ("flows", Json::from(run.flows.len())),
            ("completed", Json::from(m.completed)),
            ("events", Json::from(events)),
            ("drops", Json::from(sim.total_drops())),
            ("queue_peak", Json::from(sim.heap_peak())),
            ("ladder_spills", Json::from(eng.ladder_spills)),
            ("arena_hwm", Json::from(eng.arena_high_water)),
        ];
        match &simulated {
            Some(first) => assert_eq!(first, &fields, "a repeated run diverged"),
            None => simulated = Some(fields),
        }
    }
    let mut row: Vec<(&str, Json)> = labels.iter().map(|&(k, v)| (k, Json::from(v))).collect();
    row.extend(simulated.expect("at least one run"));
    row.push(("wall_ms", Json::from(best.as_millis() as u64)));
    let rate = events as f64 / best.as_secs_f64();
    row.push(("events_per_sec_wall", Json::from(rate.round() as u64)));
    Json::obj(row)
}

/// One case of [`CASES`]: ECMP, all-to-all web-search flows, a 2 ms
/// warm-up before the measurement window.
fn fat_tree_case(c: &Case, seed: u64) -> Json {
    let t = FatTree::full(c.k).build();
    let pattern = AllToAll::new(&t, t.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), c.lambda, c.span_s, seed);
    let warmup = 2 * MS;
    let window = (warmup, warmup + (c.span_s * 1e9) as u64);
    let labels = [("topology", c.topology), ("transport", c.transport)];
    engine_case(&labels, seed, || {
        Run::new(
            &t,
            Routing::Ecmp,
            config_for(c.transport),
            &flows,
            window,
            20 * SEC,
        )
    })
}

/// One 10 MB DCTCP flow across the k=4 fat-tree with no cross traffic:
/// the per-packet cost of a single long flow.
fn single_flow_case(seed: u64) -> Json {
    let t = FatTree::full(4).build();
    let flow = FlowEvent {
        start_s: 0.0,
        src: Endpoint { rack: 0, server: 0 },
        dst: Endpoint {
            rack: 12,
            server: 0,
        },
        bytes: 10_000_000,
    };
    let labels = [
        ("topology", "fat_tree_k4"),
        ("transport", "dctcp"),
        ("workload", "single_10MB_flow"),
    ];
    engine_case(&labels, seed, || {
        Run::new(
            &t,
            Routing::Ecmp,
            SimConfig::default(),
            std::slice::from_ref(&flow),
            (0, 10 * SEC),
            10 * SEC,
        )
    })
}

/// The tiny Xpander of [`paper_networks`] under HYB, all-to-all
/// web-search flows at 2000 flows/s for 20 ms, window 0–10 ms: one case
/// per observer. Observing must not change the simulation, so the cases
/// differ only in their rates.
fn xpander_cases(seed: u64) -> Vec<Json> {
    let pair = paper_networks(Scale::Tiny, seed);
    let xp = &pair.xpander;
    let pattern = AllToAll::new(xp, xp.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.02, seed);
    OBSERVERS
        .iter()
        .map(|&observer| {
            let labels = [
                ("topology", "xpander_tiny"),
                ("transport", "dctcp"),
                ("routing", "hyb"),
                ("observer", observer),
            ];
            engine_case(&labels, seed, || {
                let mut run = Run::new(
                    xp,
                    Routing::PAPER_HYB,
                    SimConfig::default(),
                    &flows,
                    (0, 10 * MS),
                    20 * SEC,
                );
                observe(&mut run, observer);
                run
            })
        })
        .collect()
}

/// Iterations per timed chunk of [`failpoint_case`].
const FAILPOINT_ITERS: u64 = 2_500_000;
/// Rounds of [`failpoint_case`]; each times one chunk of checks and one of
/// raw loads.
const FAILPOINT_ROUNDS: u64 = 30;

/// What the disarmed failpoint check is measured against: a relaxed load
/// of an atomic that is never set, the floor of what a check can cost.
static RAW_LOAD: AtomicU8 = AtomicU8::new(0);

/// Times `FAILPOINT_ITERS` calls of `f`; returns the time and how many
/// returned `true`. Never inlined and calling through `dyn`, it is one
/// loop of machine code for the check and the raw load alike, so the two
/// differ only in the closure it calls, whatever the build's code layout.
#[inline(never)]
fn time_chunk(f: &dyn Fn() -> bool) -> (Duration, u64) {
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..FAILPOINT_ITERS {
        if black_box(f()) {
            hits += 1;
        }
    }
    (t0.elapsed(), hits)
}

/// The disarmed failpoint check: the price every durability boundary pays
/// when no faults are armed, which should be one relaxed atomic load and
/// a compare.
///
/// Chunks of checks alternate with equally long chunks of raw loads of
/// [`RAW_LOAD`] in the same process, both timed by [`time_chunk`]. Both
/// closures reduce their answer to a `bool`, as a call site's
/// `if let Some(..)` does, so they differ only in what the check adds.
/// The case's rate is the fastest check chunk's rate as a fraction of the
/// fastest load chunk's, scaled by 1e9: checks per second on a core that
/// makes one raw-load call per nanosecond. The machine's speed cancels
/// out of that ratio, so the floor gates what the check costs, not how
/// busy the box is. Both chunks pay the same indirect call, so the ratio
/// stays near 1 (0.74–0.83 on a 2-vCPU box) and falls under the floor
/// when a check costs about one more call than a raw load.
fn failpoint_case() -> Json {
    failpoint::disarm_all();
    let (mut check, mut load) = (Duration::MAX, Duration::MAX);
    let mut wall = Duration::ZERO;
    for _ in 0..FAILPOINT_ROUNDS {
        let (t, trips) = time_chunk(&|| failpoint::check("fsio.tmp_write").is_some());
        assert_eq!(trips, 0, "disarmed failpoint tripped");
        check = check.min(t);
        wall += t;
        let (t, set) = time_chunk(&|| RAW_LOAD.load(Ordering::Relaxed) != 0);
        assert_eq!(set, 0);
        load = load.min(t);
        wall += t;
    }
    let ratio = load.as_secs_f64() / check.as_secs_f64();
    Json::obj(vec![
        ("probe", Json::from("failpoint_disarmed")),
        ("reference", Json::from("atomic_u8_load")),
        ("events", Json::from(FAILPOINT_ROUNDS * FAILPOINT_ITERS)),
        ("wall_ms", Json::from(wall.as_millis() as u64)),
        (
            "events_per_sec_wall",
            Json::from((ratio * 1e9).round() as u64),
        ),
    ])
}

/// Calls `f` until [`MIN_TIMED`] is spent; returns the fastest call's
/// time and the last call's result.
fn fastest<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let out = black_box(f());
        let wall = t0.elapsed();
        best = best.min(wall);
        spent += wall;
        if spent >= MIN_TIMED {
            return (best, out);
        }
    }
}

/// The set-up layers of the 65,536-host Xpander (d = 31, 2048 switches,
/// 32 servers each), one row each: generating the best-of-4 lift
/// (`build`), the ECMP table over it (`ecmp_table`), and the packet
/// simulator over both (`sim_build`: [`Simulator::new`] under the default
/// configuration, which sizes its 194,560-channel table). Each row pins
/// the fabric by its fingerprint, the table row also by a checksum
/// (FNV-1a over 32-bit words) of every `distance(node, dst)`, and the
/// simulator row by its channel and channel-class counts; the rate is
/// builds per second of the fastest build.
fn xpander_2048_cases(seed: u64) -> Vec<Json> {
    let x = Xpander::for_switches(31, 2048, 32, seed);
    let (build, t) = fastest(|| x.build());
    let (table_build, table) = fastest(|| EcmpTable::new(&t));
    let n = t.num_nodes() as NodeId;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for dst in 0..n {
        for node in 0..n {
            checksum = (checksum ^ table.distance(node, dst) as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    let table = Arc::new(table);
    let (sim_build, sim) = fastest(|| {
        let ecmp = EcmpSelector {
            table: Arc::clone(&table),
        };
        Simulator::new(&t, Box::new(ecmp), SimConfig::default())
    });
    let (channels, classes) = sim.channel_counts();
    drop(sim);
    let row = |stage: &str, extra: Vec<(&str, Json)>, best: Duration| {
        let mut row = vec![
            ("topology", Json::from("xpander_2048")),
            ("stage", Json::from(stage)),
            ("seed", Json::from(seed)),
            ("switches", Json::from(t.num_nodes())),
            ("links", Json::from(t.num_links())),
            ("fingerprint", hex64(t.fingerprint())),
        ];
        row.extend(extra);
        row.push(("wall_ms", Json::from(best.as_millis() as u64)));
        let rate = 1.0 / best.as_secs_f64();
        row.push(("events_per_sec_wall", Json::from(rate.round() as u64)));
        Json::obj(row)
    };
    vec![
        row("build", Vec::new(), build),
        row(
            "ecmp_table",
            vec![("distance_checksum", hex64(checksum))],
            table_build,
        ),
        row(
            "sim_build",
            vec![
                ("channels", Json::from(channels)),
                ("channel_classes", Json::from(classes)),
            ],
            sim_build,
        ),
    ]
}

/// Runs every case of the suite; the returned document is what `--bless`
/// commits as `BENCH_sim.json`.
pub fn run_perf_suite(seed: u64) -> Json {
    let mut cases: Vec<Json> = CASES.iter().map(|c| fat_tree_case(c, seed)).collect();
    cases.push(single_flow_case(seed));
    cases.extend(xpander_cases(seed));
    cases.push(failpoint_case());
    cases.extend(xpander_2048_cases(seed));
    Json::obj(vec![
        ("schema", Json::from(PERF_SCHEMA)),
        ("cases", Json::Arr(cases)),
    ])
}

/// The case rows of a perf document, once its schema tag checks out.
pub fn perf_cases(doc: &Json) -> Result<&[Json], String> {
    if doc.get("schema").and_then(|s| s.as_str()) != Some(PERF_SCHEMA) {
        return Err(format!("schema tag is not {PERF_SCHEMA}"));
    }
    doc.get("cases")
        .and_then(|c| c.as_array())
        .ok_or_else(|| "missing cases array".to_string())
}

/// A case's label: its leading string fields, in order, joined with `/`.
/// String fields after the first other field are measurements.
fn case_label(case: &Json) -> String {
    let names: Vec<&str> = case
        .as_object()
        .unwrap_or(&[])
        .iter()
        .map_while(|(_, v)| v.as_str())
        .collect();
    names.join("/")
}

/// How a case of a fresh run compares with the blessed case of the same
/// label.
pub struct Verdict {
    pub label: String,
    /// The blessed rate; `None` when the baseline has no such case.
    pub blessed: Option<f64>,
    /// The fresh rate; `None` when this run has no such case.
    pub current: Option<f64>,
    /// Drifted simulated fields, `field: blessed vs current` as
    /// [`diff_json`] writes them.
    pub drift: Vec<String>,
}

impl Verdict {
    /// Fresh over blessed rate, when both sides have the case.
    pub fn speedup(&self) -> Option<f64> {
        match (self.blessed, self.current) {
            (Some(b), Some(c)) if b > 0.0 => Some(c / b),
            _ => None,
        }
    }

    /// Whether the fresh rate fell under [`PERF_RATE_FLOOR`] of the
    /// blessed one.
    pub fn below_floor(&self) -> bool {
        matches!((self.blessed, self.current), (Some(b), Some(c)) if c < PERF_RATE_FLOOR * b)
    }

    /// Why the case fails `--check`, one line each; empty when it passes.
    pub fn failures(&self) -> Vec<String> {
        let label = &self.label;
        let (Some(b), Some(c)) = (self.blessed, self.current) else {
            let side = if self.current.is_none() {
                "is missing from this run"
            } else {
                "is not in the blessed baseline"
            };
            return vec![format!(
                "{label}: case {side} (re-bless after changing the suite)"
            )];
        };
        let mut errs: Vec<String> = self
            .drift
            .iter()
            .map(|d| {
                let (field, values) = d.split_once(": ").unwrap_or((d, ""));
                format!("{label}: simulated field \"{field}\" drifted: {values} (blessed vs now)")
            })
            .collect();
        if self.below_floor() {
            errs.push(format!(
                "{label}: rate regressed: {c:.0}/s < floor {:.0}/s ({:.0}% of blessed {b:.0}/s)",
                PERF_RATE_FLOOR * b,
                100.0 * PERF_RATE_FLOOR
            ));
        }
        errs
    }
}

/// The one comparer: matches fresh cases to blessed ones by label, diffs
/// their simulated fields with [`diff_json`] (which skips the wall-clock
/// fields), and keeps both rates for the floor. Blessed cases come first
/// in baseline order, then cases only the fresh run has.
pub fn compare_cases(current: &[Json], blessed: &[Json]) -> Vec<Verdict> {
    let mut verdicts: Vec<Verdict> = blessed
        .iter()
        .map(|b| {
            let label = case_label(b);
            let c = current.iter().find(|c| case_label(c) == label);
            let mut drift = Vec::new();
            if let Some(c) = c {
                diff_json(b, c, "", &mut drift);
            }
            Verdict {
                label,
                blessed: Some(rate(b)),
                current: c.map(rate),
                drift,
            }
        })
        .collect();
    for c in current {
        let label = case_label(c);
        if !blessed.iter().any(|b| case_label(b) == label) {
            verdicts.push(Verdict {
                label,
                blessed: None,
                current: Some(rate(c)),
                drift: Vec::new(),
            });
        }
    }
    verdicts
}

/// A case's measured rate (0 when it has none).
fn rate(case: &Json) -> f64 {
    case.get("events_per_sec_wall")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// The baseline `--bless` writes from several runs of the suite: each
/// case of the first run, as the run with that case's median rate (the
/// upper median of an even count) reported it. Refuses, listing why,
/// when the runs do not share their cases or disagree on any simulated
/// field, since then no run speaks for the others.
pub fn median_runs(runs: &[Json]) -> Result<Json, String> {
    let runs: Vec<&[Json]> = runs.iter().map(perf_cases).collect::<Result<_, _>>()?;
    let Some(&first) = runs.first() else {
        return Err("no runs to bless from".to_string());
    };
    let mut errs = Vec::new();
    for (i, run) in runs.iter().enumerate().skip(1) {
        for v in compare_cases(run, first) {
            if v.current.is_none() || v.blessed.is_none() {
                errs.push(format!(
                    "{}: case is in only one of runs 1 and {}",
                    v.label,
                    i + 1
                ));
            }
            for d in &v.drift {
                errs.push(format!("{}: runs 1 and {} differ on {d}", v.label, i + 1));
            }
        }
    }
    if !errs.is_empty() {
        return Err(errs.join("\n"));
    }
    let picked = first
        .iter()
        .map(|case| {
            let label = case_label(case);
            let mut rows: Vec<&Json> = runs
                .iter()
                .filter_map(|run| run.iter().find(|c| case_label(c) == label))
                .collect();
            rows.sort_by(|a, b| rate(a).total_cmp(&rate(b)));
            rows[rows.len() / 2].clone()
        })
        .collect();
    Ok(Json::obj(vec![
        ("schema", Json::from(PERF_SCHEMA)),
        ("cases", Json::Arr(picked)),
    ]))
}

/// Compares a fresh run against the blessed baseline: every simulated
/// field must match exactly; every rate must clear [`PERF_RATE_FLOOR`].
/// Returns human-readable failures (empty = pass).
pub fn check_perf(current: &Json, baseline: &Json) -> Vec<String> {
    match (perf_cases(current), perf_cases(baseline)) {
        (Ok(cur), Ok(base)) => compare_cases(cur, base)
            .iter()
            .flat_map(Verdict::failures)
            .collect(),
        (Err(e), _) | (_, Err(e)) => vec![e],
    }
}

/// The measured columns of [`write_table`], after the case label.
const TABLE_COLUMNS: &[&str] = &[
    "events",
    "wall_ms",
    "events_per_sec_wall",
    "flows",
    "completed",
    "drops",
    "queue_peak",
    "ladder_spills",
    "arena_hwm",
    "switches",
    "links",
    "fingerprint",
    "distance_checksum",
];

/// Writes cases as a TSV table: the label, then every measured column
/// (`-` where a case has no such field).
pub fn write_table(cases: &[Json], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "case\t{}", TABLE_COLUMNS.join("\t"))?;
    for c in cases {
        write!(out, "{}", case_label(c))?;
        for col in TABLE_COLUMNS {
            match c.get(col) {
                Some(v) => write!(out, "\t{v}")?,
                None => write!(out, "\t-")?,
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(events: u64, rate: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            (
                "cases",
                Json::Arr(vec![Json::obj(vec![
                    ("topology", Json::from("fat_tree_k4")),
                    ("transport", Json::from("dctcp")),
                    ("events", Json::from(events)),
                    ("wall_ms", Json::from(10u64)),
                    ("events_per_sec_wall", Json::from(rate)),
                ])]),
            ),
        ])
    }

    /// Two cases whose rates order the runs differently: each case keeps
    /// its own median run, whole (its `wall_ms` comes along).
    #[test]
    fn bless_keeps_each_cases_median_run() {
        let run = |a: u64, b: u64| {
            let row = |transport: &str, rate: u64| {
                Json::obj(vec![
                    ("topology", Json::from("fat_tree_k4")),
                    ("transport", Json::from(transport)),
                    ("events", Json::from(100u64)),
                    ("wall_ms", Json::from(rate * 10)),
                    ("events_per_sec_wall", Json::from(rate)),
                ])
            };
            Json::obj(vec![
                ("schema", Json::from(PERF_SCHEMA)),
                ("cases", Json::Arr(vec![row("dctcp", a), row("newreno", b)])),
            ])
        };
        let runs = [run(5, 1), run(1, 9), run(4, 3), run(2, 7), run(3, 5)];
        let blessed = median_runs(&runs).unwrap();
        let cases = perf_cases(&blessed).unwrap();
        let got: Vec<(String, f64, u64)> = cases
            .iter()
            .map(|c| {
                let wall = c.get("wall_ms").and_then(|v| v.as_u64()).unwrap();
                (case_label(c), rate(c), wall)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("fat_tree_k4/dctcp".to_string(), 3.0, 30),
                ("fat_tree_k4/newreno".to_string(), 5.0, 50),
            ]
        );
        assert!(check_perf(&runs[4], &blessed).is_empty());
        // An even count takes the upper median.
        let two = median_runs(&runs[..2]).unwrap();
        assert_eq!(rate(&perf_cases(&two).unwrap()[0]), 5.0);
    }

    #[test]
    fn bless_refuses_runs_that_disagree() {
        let errs = median_runs(&[doc(100, 1000), doc(100, 900), doc(101, 950)]).unwrap_err();
        assert_eq!(
            errs,
            "fat_tree_k4/dctcp: runs 1 and 3 differ on events: 100 vs 101"
        );
        let case = |d: Json| perf_cases(&d).unwrap()[0].clone();
        let extra = Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            (
                "cases",
                Json::Arr(vec![case(doc(100, 1000)), case(failpoint_doc(5))]),
            ),
        ]);
        let errs = median_runs(&[doc(100, 1000), extra]).unwrap_err();
        assert!(
            errs.contains("case is in only one of runs 1 and 2"),
            "{errs}"
        );
        assert!(median_runs(&[]).is_err());
    }

    #[test]
    fn identical_docs_pass() {
        assert!(check_perf(&doc(100, 1000), &doc(100, 1000)).is_empty());
    }

    #[test]
    fn wall_clock_fields_may_differ() {
        assert!(check_perf(&doc(100, 999_999), &doc(100, 1000)).is_empty());
        // Faster is fine; only the floor matters.
        assert!(check_perf(&doc(100, 501), &doc(100, 1000)).is_empty());
    }

    #[test]
    fn simulated_drift_fails() {
        let errs = check_perf(&doc(101, 1000), &doc(100, 1000));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("\"events\" drifted"), "{errs:?}");
    }

    #[test]
    fn rate_below_floor_fails() {
        let errs = check_perf(&doc(100, 499), &doc(100, 1000));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("regressed"), "{errs:?}");
    }

    #[test]
    fn case_count_mismatch_fails() {
        let empty = Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            ("cases", Json::Arr(vec![])),
        ]);
        assert!(!check_perf(&empty, &doc(100, 1000)).is_empty());
    }

    fn failpoint_doc(rate: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            (
                "cases",
                Json::Arr(vec![Json::obj(vec![
                    ("probe", Json::from("failpoint_disarmed")),
                    ("reference", Json::from("atomic_u8_load")),
                    ("events", Json::from(FAILPOINT_ROUNDS * FAILPOINT_ITERS)),
                    ("wall_ms", Json::from(300u64)),
                    ("events_per_sec_wall", Json::from(rate)),
                ])]),
            ),
        ])
    }

    /// A check that got slow relative to a raw load fails the same floor
    /// as an engine case.
    #[test]
    fn failpoint_ratio_below_floor_fails() {
        let blessed = failpoint_doc(480_000_000);
        assert!(check_perf(&failpoint_doc(250_000_000), &blessed).is_empty());
        let errs = check_perf(&failpoint_doc(20_000_000), &blessed);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with("failpoint_disarmed/atomic_u8_load: rate regressed"),
            "{errs:?}"
        );
    }

    /// A case on one side only is named, whichever side it is on.
    #[test]
    fn one_sided_case_is_reported() {
        let both = Json::obj(vec![
            ("schema", Json::from(PERF_SCHEMA)),
            (
                "cases",
                Json::Arr(vec![
                    perf_cases(&doc(100, 1000)).unwrap()[0].clone(),
                    perf_cases(&failpoint_doc(1000)).unwrap()[0].clone(),
                ]),
            ),
        ]);
        let errs = check_perf(&both, &doc(100, 1000));
        assert_eq!(
            errs,
            vec![
                "failpoint_disarmed/atomic_u8_load: case is not in the blessed baseline \
                 (re-bless after changing the suite)"
            ]
        );
        let errs = check_perf(&doc(100, 1000), &both);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("is missing from this run"), "{errs:?}");
    }

    /// In the committed baseline, the observed Xpander cases agree with the
    /// unobserved one on every simulated field.
    #[test]
    fn blessed_observer_cases_match_unobserved_case() {
        let doc = Json::parse(include_str!("../../../BENCH_sim.json")).unwrap();
        let cases = perf_cases(&doc).unwrap();
        let xpander = |observer: &str| {
            let label = format!("xpander_tiny/dctcp/hyb/{observer}");
            cases
                .iter()
                .find(|c| case_label(c) == label)
                .unwrap_or_else(|| panic!("no {label} case"))
        };
        for &observer in &OBSERVERS[1..] {
            let mut drift = Vec::new();
            diff_json(xpander("none"), xpander(observer), "", &mut drift);
            assert_eq!(drift, vec![format!("observer: \"none\" vs \"{observer}\"")]);
        }
    }

    /// The committed simulator set-up row counts the 65,536-host
    /// Xpander's channels: two per link (2048 · 31 / 2 links) and two per
    /// server.
    #[test]
    fn blessed_sim_build_row_counts_every_channel() {
        let doc = Json::parse(include_str!("../../../BENCH_sim.json")).unwrap();
        let cases = perf_cases(&doc).unwrap();
        let row = (cases.iter())
            .find(|c| case_label(c) == "xpander_2048/sim_build")
            .expect("no xpander_2048/sim_build case");
        let field = |k: &str| row.get(k).and_then(|v| v.as_f64());
        assert_eq!(field("channels"), Some((2 * 31_744 + 2 * 65_536) as f64));
        assert_eq!(field("channel_classes"), Some(2.0));
    }

    /// A string field after the first number is a measurement: it is
    /// not part of the label, and a change in it is drift.
    #[test]
    fn trailing_string_field_is_compared_not_labelled() {
        let setup = |fp: &str| {
            Json::obj(vec![
                ("schema", Json::from(PERF_SCHEMA)),
                (
                    "cases",
                    Json::Arr(vec![Json::obj(vec![
                        ("topology", Json::from("xpander_2048")),
                        ("stage", Json::from("build")),
                        ("seed", Json::from(1u64)),
                        ("fingerprint", Json::from(fp)),
                        ("wall_ms", Json::from(30u64)),
                        ("events_per_sec_wall", Json::from(33u64)),
                    ])]),
                ),
            ])
        };
        let blessed = setup("92a237be17d41fdb");
        assert_eq!(
            case_label(&perf_cases(&blessed).unwrap()[0]),
            "xpander_2048/build"
        );
        assert!(check_perf(&setup("92a237be17d41fdb"), &blessed).is_empty());
        let errs = check_perf(&setup("0000000000000000"), &blessed);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("\"fingerprint\" drifted"), "{errs:?}");
    }

    #[test]
    fn table_prints_every_column() {
        let doc = failpoint_doc(1000);
        let mut out = Vec::new();
        write_table(perf_cases(&doc).unwrap(), &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].split('\t').count(), 1 + TABLE_COLUMNS.len());
        assert_eq!(
            lines[1],
            "failpoint_disarmed/atomic_u8_load\t75000000\t300\t1000\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-"
        );
    }
}
