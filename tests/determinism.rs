//! Integration: the whole pipeline — topology generation, workload
//! sampling, routing, packet simulation — is byte-for-byte reproducible
//! from the seed, which is what makes the paper's "identical set of
//! flows … by fixing the seed" methodology possible.
//!
//! The randomized sweep at the bottom holds the engine to the strongest
//! form of that contract over random topologies, transports, workloads,
//! and chaos fault plans: identical flow records, JSONL traces, telemetry
//! streams, and engine counters for (a) two same-seed runs and (b) an
//! uninterrupted run versus one paused at a random time, checkpointed,
//! and resumed in a fresh simulator.

use beyond_fattrees::prelude::*;
use dcn_rng::Rng;

/// (topology edges, workload flow sizes, per-flow FCT outcomes).
type PipelineFingerprint = (Vec<(u32, u32)>, Vec<u64>, Vec<Option<u64>>);

fn pipeline(seed: u64) -> PipelineFingerprint {
    let xp = Xpander::for_switches(5, 24, 2, seed).build();
    let edges: Vec<(u32, u32)> = xp.links().iter().map(|l| (l.a, l.b)).collect();

    let pattern = Skew::new(&xp, xp.tors_with_servers(), 0.1, 0.7, seed);
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.01, seed);
    let sizes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();

    let mut sim = Simulator::new(&xp, Routing::PAPER_HYB.selector(&xp), SimConfig::default());
    sim.set_window(0, 10 * MS);
    sim.inject(&flows);
    let rec = sim.run(20 * SEC);
    (edges, sizes, rec.iter().map(|r| r.fct_ns).collect())
}

#[test]
fn same_seed_same_everything() {
    let a = pipeline(1234);
    let b = pipeline(1234);
    assert_eq!(a.0, b.0, "topologies differ");
    assert_eq!(a.1, b.1, "workloads differ");
    assert_eq!(a.2, b.2, "simulation outcomes differ");
}

#[test]
fn different_seed_different_workload() {
    let a = pipeline(1);
    let b = pipeline(2);
    assert_ne!(a.1, b.1, "different seeds produced identical workloads");
}

/// Full pipeline with an *active* fault plan — link flaps, a switch
/// outage, and a seeded gray (probabilistic-loss) failure — run twice
/// with the same seed. Every field of every [`FlowRecord`] must match:
/// the fault controller's RNG, reconvergence epochs, and recovery
/// timestamps are all part of the deterministic replay contract.
#[test]
fn same_seed_same_everything_under_faults() {
    fn faulted_run(seed: u64, with_faults: bool) -> Vec<FlowRecord> {
        let xp = Xpander::for_switches(5, 24, 2, seed).build();
        let pattern = Skew::new(&xp, xp.tors_with_servers(), 0.1, 0.7, seed);
        let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.01, seed);

        // Gray-fail every inter-switch link for a stretch (so the plan is
        // guaranteed to intersect flow paths and exercise the seeded loss
        // RNG), plus hard link/switch flaps for reconvergence epochs.
        let mut plan = FaultPlan::new()
            .with_seed(seed)
            .link_down(MS, 3)
            .switch_down(3 * MS, 1)
            .link_up(5 * MS, 3)
            .switch_up(6 * MS, 1);
        for l in 0..xp.links().len() as u32 {
            plan = plan.link_gray(2 * MS, l, 0.05).link_clear(7 * MS, l);
        }

        let mut sim = Simulator::new(&xp, Routing::PAPER_HYB.selector(&xp), SimConfig::default());
        sim.set_window(0, 10 * MS);
        sim.inject(&flows);
        if with_faults {
            sim.set_fault_plan(&plan);
        }
        sim.run(20 * SEC)
    }

    let a = faulted_run(99, true);
    let b = faulted_run(99, true);
    assert_eq!(a, b, "fault-injected runs diverged for the same seed");
    assert!(!a.is_empty(), "fault run produced no flow records");
    let clean = faulted_run(99, false);
    assert_ne!(
        a, clean,
        "fault plan had no observable effect on any flow record"
    );
}

/// The strongest form of the replay contract: not just identical flow
/// records, but an identical *event-by-event* JSONL trace — every
/// enqueue, mark, drop, RTO, and fault transition in the same order with
/// the same timestamps — for the same seed, even with an active fault
/// plan drawing from the gray-loss RNG.
#[test]
fn same_seed_same_event_trace_under_faults() {
    fn traced_run(seed: u64) -> Vec<u8> {
        let xp = Xpander::for_switches(5, 24, 2, seed).build();
        let pattern = Skew::new(&xp, xp.tors_with_servers(), 0.1, 0.7, seed);
        let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 2000.0, 0.01, seed);
        let mut plan = FaultPlan::new()
            .with_seed(seed)
            .link_down(MS, 3)
            .link_up(5 * MS, 3);
        for l in 0..xp.links().len() as u32 {
            plan = plan.link_gray(2 * MS, l, 0.05).link_clear(7 * MS, l);
        }
        let mut sim = Simulator::new(&xp, Routing::PAPER_HYB.selector(&xp), SimConfig::default());
        sim.set_window(0, 10 * MS);
        sim.inject(&flows);
        sim.set_fault_plan(&plan);
        let buf = SharedBuf::new();
        sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
        sim.run(20 * SEC);
        buf.contents()
    }

    let a = traced_run(1234);
    let b = traced_run(1234);
    assert!(!a.is_empty(), "trace is empty");
    assert_eq!(a, b, "same seed produced different event traces");
    assert_ne!(
        a,
        traced_run(4321),
        "different seeds produced identical traces"
    );
}

// ---- randomized sweep: same-seed and checkpoint/resume replay ----

/// Everything a run emits: flow records, the JSONL event trace, the
/// telemetry stream, and the engine's deterministic counter set.
#[derive(Debug, PartialEq)]
struct Artifacts {
    records: Vec<FlowRecord>,
    events: u64,
    trace: Vec<u8>,
    telemetry: Vec<u8>,
    counters: EngineCounters,
}

/// A seeded random scenario: topology family, transport, workload, and
/// (on odd seeds) a chaos fault plan all drawn from the seed.
fn scenario(seed: u64) -> (Topology, SimConfig, Vec<FlowEvent>, Option<FaultPlan>) {
    let mut meta = Rng::seed_from_u64(0x5AAD ^ seed.wrapping_mul(0x9E37_79B9));
    let topo = match meta.gen_range(0u32..3) {
        0 => FatTree::full(4).build(),
        1 => Xpander::for_switches(4, 15, 2, seed).build(),
        _ => Jellyfish::new(12, 4, 2, seed).build(),
    };
    let cfg = match meta.gen_range(0u32..3) {
        0 => SimConfig::default(),
        1 => SimConfig::default().with_newreno(),
        _ => SimConfig::default().with_pfabric(),
    };
    let lambda = 1_000.0 + meta.gen_range(0.0..2_000.0);
    let pattern = AllToAll::new(&topo, topo.tors_with_servers());
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), lambda, 0.004, seed);
    let plan = (seed % 2 == 1).then(|| FaultPlan::chaos(&topo, 4 * MS, seed));
    (topo, cfg, flows, plan)
}

const WINDOW_END: u64 = 4 * MS;
const MAX_TIME: u64 = 80 * MS;

fn build(
    topo: &Topology,
    cfg: SimConfig,
    flows: &[FlowEvent],
    plan: Option<&FaultPlan>,
) -> Simulator {
    let mut sim = Simulator::new(topo, Routing::Ecmp.selector(topo), cfg);
    sim.set_window(0, WINDOW_END);
    sim.inject(flows);
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    sim
}

/// Trace and telemetry file paths for one leg of one scenario. File sinks
/// (not in-memory buffers) so the resumed leg can checkpoint them.
fn sink_paths(seed: u64, leg: &str) -> (String, String) {
    let dir = std::env::temp_dir();
    let p = |kind: &str| {
        dir.join(format!(
            "determinism_{}_{seed}_{leg}.{kind}.jsonl",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
    };
    (p("trace"), p("tel"))
}

fn instrument(sim: &mut Simulator, trace: &str, tel: &str) {
    sim.set_tracer(Box::new(JsonlTracer::create(trace).expect("open trace")));
    sim.set_telemetry(Telemetry::to_file(tel, DEFAULT_SAMPLE_EVERY_NS).expect("open telemetry"));
}

/// Drives a simulator to the end and collects its artifacts.
fn collect(sim: &mut Simulator, trace: &str, tel: &str) -> Artifacts {
    let records = sim.run(MAX_TIME);
    let a = Artifacts {
        records,
        events: sim.events_processed(),
        trace: std::fs::read(trace).expect("read trace"),
        telemetry: std::fs::read(tel).expect("read telemetry"),
        counters: sim.engine_counters(),
    };
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(tel);
    a
}

/// One uninterrupted, fully instrumented run of scenario `seed`.
fn straight_run(seed: u64, leg: &str) -> Artifacts {
    let (topo, cfg, flows, plan) = scenario(seed);
    let (trace, tel) = sink_paths(seed, leg);
    let mut sim = build(&topo, cfg, &flows, plan.as_ref());
    instrument(&mut sim, &trace, &tel);
    collect(&mut sim, &trace, &tel)
}

/// The sweep's scenario seeds: those that draw a non-empty workload.
fn sweep_seeds() -> Vec<u64> {
    (0u64..6)
        .filter(|&seed| {
            let (topo, _, flows, plan) = scenario(seed);
            if let Some(p) = &plan {
                p.validate_schedule(&topo, MAX_TIME)
                    .expect("chaos plans must validate");
            }
            !flows.is_empty()
        })
        .collect()
}

/// Same seed, same everything: two runs of every random scenario agree
/// byte-for-byte on records, trace, telemetry, and engine counters.
#[test]
fn same_seed_sweep_is_byte_identical() {
    for seed in sweep_seeds() {
        let a = straight_run(seed, "a");
        assert!(!a.trace.is_empty(), "seed {seed}: empty trace");
        assert!(!a.telemetry.is_empty(), "seed {seed}: empty telemetry");
        let b = straight_run(seed, "b");
        assert_eq!(a.records, b.records, "seed {seed}: flow records diverge");
        assert_eq!(a.events, b.events, "seed {seed}: event counts diverge");
        assert_eq!(a.trace, b.trace, "seed {seed}: event traces diverge");
        assert_eq!(a.telemetry, b.telemetry, "seed {seed}: telemetry diverges");
        assert_eq!(
            a.counters, b.counters,
            "seed {seed}: engine counters diverge"
        );
    }
}

/// Pausing at a random time, checkpointing, and resuming in a fresh
/// simulator lands on exactly the uninterrupted run's artifacts — with
/// chaos fault plans active on odd seeds.
#[test]
fn resume_sweep_is_byte_identical() {
    for seed in sweep_seeds() {
        let want = straight_run(seed, "straight");
        let (topo, cfg, flows, plan) = scenario(seed);
        let pause = Rng::seed_from_u64(0xC4EC ^ seed).gen_range(0..WINDOW_END);
        let (trace, tel) = sink_paths(seed, "resumed");
        let mut paused = build(&topo, cfg, &flows, plan.as_ref());
        instrument(&mut paused, &trace, &tel);
        let got = if paused.run_until(pause) {
            collect(&mut paused, &trace, &tel)
        } else {
            let ckpt = paused.checkpoint().expect("checkpoint");
            drop(paused); // the original process dies after the snapshot
            let mut resumed = Simulator::restore(&topo, Routing::Ecmp.selector(&topo), cfg, &ckpt)
                .expect("restore");
            collect(&mut resumed, &trace, &tel)
        };
        assert_eq!(
            got.records, want.records,
            "seed {seed}: records diverge after resume at {pause} ns"
        );
        assert_eq!(got.events, want.events, "seed {seed}: event counts diverge");
        assert_eq!(got.trace, want.trace, "seed {seed}: traces diverge");
        assert_eq!(
            got.telemetry, want.telemetry,
            "seed {seed}: telemetry diverges"
        );
        assert_eq!(got.counters, want.counters, "seed {seed}: counters diverge");
    }
}

/// Counters are simulator state: a snapshot→restore round-trip hands the
/// resumed engine exactly the counters the paused one held.
#[test]
fn counters_survive_checkpoint_byte_exactly() {
    let (topo, cfg, flows, plan) = scenario(1); // odd seed: plan is Some
    let plan = plan.expect("odd seed draws a fault plan");
    let mut paused = build(&topo, cfg, &flows, Some(&plan));
    assert!(
        !paused.run_until(2 * MS),
        "scenario 1 must still be mid-run at its window midpoint"
    );
    let at_pause = paused.engine_counters();
    assert!(at_pause.calendar_peak > 0, "pause point saw no events");
    let ckpt = paused.checkpoint().expect("checkpoint");
    drop(paused);
    let resumed =
        Simulator::restore(&topo, Routing::Ecmp.selector(&topo), cfg, &ckpt).expect("restore");
    assert_eq!(
        resumed.engine_counters(),
        at_pause,
        "engine counters did not survive the checkpoint round-trip"
    );
}
