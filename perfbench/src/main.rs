//! One repetition of one benchmark workload, in a process of its own so
//! that the peak RSS it reports belongs to that workload alone.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--trace]
//! perfbench --reference
//! ```
//!
//! Builds the workload's input from the seed, runs it to completion,
//! checks the outputs, and prints one JSON object on stdout: the
//! end-to-end timings, the op counts, a digest of the simulated outcome,
//! and with `--trace` the per-layer metrics. Exits 1 when an invariant
//! breaks. `--reference` instead times the fixed computation of
//! `reference.rs`. `run.py` drives the repetitions and aggregates them.

mod layers;
mod reference;

use dcn_flowsim::{FlowSim, FlowSimConfig};
use dcn_maxflow::{max_concurrent_flow, Commodity, FlowNetwork, GkOptions, GkResult};
use dcn_rng::{Rng, SliceRandom};
use dcn_routing::{PathSelector, RoutingSuite, PAPER_Q_BYTES};
use dcn_sim::host::transport_for;
use dcn_sim::{
    compute_metrics, CountingTracer, FlowRecord, Metrics, Ns, SimConfig, Simulator, MS, SEC,
};
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_topology::Topology;
use dcn_workloads::{
    generate_flows, longest_matching, AllToAll, FlowEvent, FlowSizeDist, PFabricWebSearch, Skew,
    TrafficPattern,
};
use layers::{self_time, CountedQueue, CountedSelector, CountedTransport, SelectSpan, Span};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric a traced repetition reports, in output order.
/// Layers a workload does not exercise report 0.
const LAYER_METRICS: &[&str] = &[
    "topology.build_s",
    "topology.switches",
    "topology.servers",
    "topology.links",
    "routing.tables_s",
    "routing.select_calls",
    "routing.select_s",
    "routing.path_hops_mean",
    "workloads.gen_s",
    "workloads.flows",
    "sim.build_s",
    "sim.run_s",
    "sim.events",
    "sim.events_per_s",
    "sim.events_per_pkt",
    "sim.engine_self_s",
    "sim.transport_calls",
    "sim.transport_s",
    "sim.queue_ops",
    "sim.queue_s",
    "sim.queue_peak",
    "sim.pkts_sent",
    "sim.drops",
    "sim.ecn_marks",
    "sim.rtos",
    "sim.flowlet_switches",
    "sim.delivered_share",
    "stats.metrics_s",
    "stats.avg_fct_ms",
    "stats.p99_short_fct_ms",
    "stats.long_tput_gbps",
    "maxflow.network_s",
    "maxflow.gk_s",
    "maxflow.phases",
    "maxflow.dijkstra_calls",
    "maxflow.dijkstra_per_s",
    "maxflow.throughput",
    "maxflow.upper_bound",
    "flowsim.run_s",
    "flowsim.flows",
    "flowsim.flows_per_s",
];

/// A traffic pattern on a topology, with its aggregate arrival rate.
type PatternFn = fn(&Topology, u64) -> (Box<dyn TrafficPattern>, f64);

/// A packet-level workload: a topology, a routing scheme, a traffic
/// pattern at an aggregate Poisson rate, and the measurement window whose
/// flows must all complete.
struct PacketSpec {
    topology: fn(u64) -> Topology,
    hyb: bool,
    pattern: PatternFn,
    window: (Ns, Ns),
}

/// Fat-tree k=8 with ECMP: the fabric fits in cache and routing is
/// trivial, so per-event engine cost dominates.
const FT8_A2A_DCTCP: PacketSpec = PacketSpec {
    topology: |_| FatTree::full(8).build(),
    hyb: false,
    pattern: |t, _| {
        let p = AllToAll::new(t, t.tors_with_servers());
        (Box::new(p), 21_376.0)
    },
    window: (2 * MS, 12 * MS),
};

/// The 65,536-host Xpander (2048 switches, d = 31) under all-to-all with
/// HYB: routing tables dominate setup and the engine's working set is far
/// beyond cache.
const XP65K_A2A_HYB: PacketSpec = PacketSpec {
    topology: |seed| Xpander::for_switches(31, 2048, 32, seed).build(),
    hyb: true,
    pattern: |t, _| {
        let p = AllToAll::new(t, t.tors_with_servers());
        (Box::new(p), 400_000.0)
    },
    window: (0, MS),
};

/// Longest-matching fraction of the Garg–Könemann instance.
const FLUID_GK_FRACTION: f64 = 0.5;
/// Flow arrivals per second of the flow-level run, and the horizon whose
/// expected number of arrivals is its flow count.
const FLUID_FLOWSIM_LAMBDA: f64 = 20_000.0;
const FLUID_FLOWSIM_HORIZON_S: f64 = 0.28;

/// The step size the repository's fluid figures use for instances above
/// 128 racks, run for a fixed number of phases to a certified bracket.
/// Their throughput target and gap rule stopped this instance after 31 to
/// 49 phases depending on the seed, moving its time by ±20%; every phase
/// makes the same number of Dijkstra calls, so a fixed budget fixes the
/// work.
const GK_OPTIONS: GkOptions = GkOptions {
    epsilon: 0.2,
    target: None,
    gap: 0.0,
    max_phases: 24,
};

/// A flow size distribution sampled by stratification: the i-th draw is
/// the quantile of `dist` at (π(i) + 0.5) / n, for a seeded permutation π
/// of 0..n. Every input of n flows then carries the same multiset of
/// sizes, and so the same offered volume, while the seed still picks
/// which flow gets which size. Heavy-tailed web-search sizes otherwise
/// move one input's work by ±20% with the seed.
struct StratifiedSizes {
    sizes: Vec<u64>,
    next: Cell<usize>,
}

impl StratifiedSizes {
    fn new(dist: &dyn FlowSizeDist, n: usize, seed: u64) -> Self {
        let mut sizes: Vec<u64> = (0..n)
            .map(|i| quantile(dist, (i as f64 + 0.5) / n as f64))
            .collect();
        sizes.shuffle(&mut Rng::seed_from_u64(seed ^ 0x5153_495a_4553));
        StratifiedSizes {
            sizes,
            next: Cell::new(0),
        }
    }
}

impl FlowSizeDist for StratifiedSizes {
    /// Draws no random numbers, so arrival times and endpoints are those
    /// `generate_flows` would draw for a constant size.
    fn sample(&self, _rng: &mut Rng) -> u64 {
        let i = self.next.get();
        self.next.set(i + 1);
        self.sizes[i % self.sizes.len()]
    }

    fn mean(&self) -> f64 {
        self.sizes.iter().sum::<u64>() as f64 / self.sizes.len() as f64
    }

    fn name(&self) -> &'static str {
        "stratified"
    }

    fn cdf(&self, bytes: u64) -> f64 {
        self.sizes.iter().filter(|&&s| s <= bytes).count() as f64 / self.sizes.len() as f64
    }
}

/// The smallest size whose CDF reaches `u`, for `u` < 1.
fn quantile(dist: &dyn FlowSizeDist, u: f64) -> u64 {
    let (mut lo, mut hi) = (1u64, 2u64);
    while dist.cdf(hi) < u {
        hi *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if dist.cdf(mid) >= u {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The first `n` arrivals of a Poisson process at `lambda` flows/s, with
/// web-search sizes stratified over the `n` flows.
fn first_flows(pattern: &dyn TrafficPattern, lambda: f64, n: usize, seed: u64) -> Vec<FlowEvent> {
    let sizes = StratifiedSizes::new(&PFabricWebSearch::new(), n, seed);
    // Twice the expected time to the n-th arrival holds n arrivals for
    // every n used here, except with negligible probability.
    let mut flows = generate_flows(pattern, &sizes, lambda, 2.0 * n as f64 / lambda, seed);
    flows.truncate(n);
    flows
}

/// Times `f`, adding its duration to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    run_s: f64,
    ops: u64,
    ops_failed: u64,
    digest: u64,
    events: u64,
    pkts_sent: u64,
    errors: Vec<String>,
    layers: Vec<(&'static str, f64)>,
}

impl Rep {
    fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.contains(&name), "unlisted metric {name}");
        self.layers.push((name, value));
    }
}

/// FNV-1a over the flow records, so a change that alters simulated
/// behaviour shows up beside the timings.
fn digest(records: &[FlowRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        let fields = [
            r.start_ns,
            r.size_bytes,
            r.fct_ns.unwrap_or(u64::MAX),
            r.failed as u64,
        ];
        for b in fields.iter().flat_map(|v| v.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn topology_layers(rep: &mut Rep, topos: &[&Topology], build_s: f64) {
    rep.layer("topology.build_s", build_s);
    let sum = |f: fn(&Topology) -> usize| topos.iter().map(|t| f(t)).sum::<usize>() as f64;
    rep.layer("topology.switches", sum(|t| t.num_nodes()));
    rep.layer("topology.servers", sum(|t| t.num_servers()));
    rep.layer("topology.links", sum(|t| t.num_links()));
}

fn stats_layers(rep: &mut Rep, m: &Metrics, metrics_s: f64) {
    rep.layer("stats.metrics_s", metrics_s);
    rep.layer("stats.avg_fct_ms", m.avg_fct_ms);
    rep.layer("stats.p99_short_fct_ms", m.p99_short_fct_ms);
    rep.layer("stats.long_tput_gbps", m.avg_long_tput_gbps);
}

fn run_packet(spec: &PacketSpec, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let (mut topo_s, mut tables_s, mut gen_s, mut build_s) = (0.0, 0.0, 0.0, 0.0);
    let setup = Instant::now();
    let topo = timed(&mut topo_s, || (spec.topology)(seed));
    let suite = timed(&mut tables_s, || RoutingSuite::new(&topo));
    let (w0, w1) = spec.window;
    let flows: Vec<FlowEvent> = timed(&mut gen_s, || {
        let (pattern, lambda) = (spec.pattern)(&topo, seed);
        // As many flows as arrive on average before 1.3 × the window end.
        let n = (lambda * w1 as f64 / 1e9 * 1.3).round() as usize;
        first_flows(pattern.as_ref(), lambda, n, seed)
    });
    let selector: Box<dyn PathSelector> = if spec.hyb {
        Box::new(suite.hyb(PAPER_Q_BYTES))
    } else {
        Box::new(suite.ecmp())
    };
    let cfg = SimConfig::default();
    let select = Arc::new(SelectSpan::default());
    let transport = Arc::new(Span::default());
    let queue = Arc::new(Span::default());
    let mut sim = timed(&mut build_s, || {
        let mut sim = if traced {
            let selector = CountedSelector {
                inner: selector,
                stats: select.clone(),
            };
            let tr = CountedTransport {
                inner: transport_for(cfg.transport),
                span: transport.clone(),
            };
            let kind = cfg.queue_disc;
            let factory = |cap, ecn| -> Box<dyn dcn_sim::QueueDiscipline> {
                Box::new(CountedQueue {
                    inner: kind.build(cap, ecn),
                    span: queue.clone(),
                })
            };
            let mut sim =
                Simulator::with_parts(&topo, Box::new(selector), cfg, Box::new(tr), &factory);
            sim.set_tracer(Box::new(CountingTracer::new()));
            sim
        } else {
            Simulator::new(&topo, selector, cfg)
        };
        sim.set_window(w0, w1);
        sim.inject(&flows);
        sim
    });
    rep.setup_s = setup.elapsed().as_secs_f64();

    let run = Instant::now();
    let records = sim.run(w1.saturating_mul(40).max(SEC));
    rep.run_s = run.elapsed().as_secs_f64();

    let mut metrics_s = 0.0;
    let m = timed(&mut metrics_s, || compute_metrics(&records, w0, w1));
    rep.ops = m.flows as u64;
    rep.ops_failed = (m.flows - m.completed) as u64;
    let c = sim.conservation();
    if c.sent != c.delivered + c.dropped + c.in_flight {
        rep.errors
            .push(format!("packet conservation broken: {c:?}"));
    }
    rep.digest = digest(&records);
    rep.events = sim.events_processed();
    rep.pkts_sent = c.sent;
    if traced {
        let tc = sim
            .trace_counters()
            .expect("a counting tracer is installed");
        if let Err(e) = dcn_sim::check_conservation(&sim) {
            rep.errors.push(e);
        }
        topology_layers(&mut rep, &[&topo], topo_s);
        rep.layer("routing.tables_s", tables_s);
        rep.layer("routing.select_calls", select.span.calls() as f64);
        rep.layer("routing.select_s", select.span.seconds());
        rep.layer("routing.path_hops_mean", select.hops_mean());
        rep.layer("workloads.gen_s", gen_s);
        rep.layer("workloads.flows", flows.len() as f64);
        rep.layer("sim.build_s", build_s);
        rep.layer("sim.run_s", rep.run_s);
        rep.layer("sim.events", rep.events as f64);
        rep.layer("sim.events_per_s", rep.events as f64 / rep.run_s);
        rep.layer("sim.events_per_pkt", rep.events as f64 / c.sent as f64);
        let children = [select.span.seconds(), transport.seconds(), queue.seconds()];
        rep.layer("sim.engine_self_s", self_time(rep.run_s, &children));
        rep.layer("sim.transport_calls", transport.calls() as f64);
        rep.layer("sim.transport_s", transport.seconds());
        rep.layer("sim.queue_ops", queue.calls() as f64);
        rep.layer("sim.queue_s", queue.seconds());
        rep.layer("sim.queue_peak", sim.heap_peak() as f64);
        rep.layer("sim.pkts_sent", c.sent as f64);
        rep.layer("sim.drops", sim.total_drops() as f64);
        rep.layer("sim.ecn_marks", sim.total_marks() as f64);
        rep.layer("sim.rtos", tc.rtos as f64);
        rep.layer("sim.flowlet_switches", tc.flowlet_switches as f64);
        rep.layer(
            "sim.delivered_share",
            tc.delivered_data as f64 / tc.sent_data.max(1) as f64,
        );
        stats_layers(&mut rep, &m, metrics_s);
        for name in LAYER_METRICS
            .iter()
            .filter(|n| n.starts_with("maxflow.") || n.starts_with("flowsim."))
        {
            rep.layer(name, 0.0);
        }
    }
    rep
}

/// Whether a solve brackets the optimum: a positive feasible throughput
/// at most its dual bound. A solve that routes nothing is a failed op.
fn gk_bracketed(r: &GkResult) -> bool {
    r.throughput > 0.0 && r.throughput <= r.upper_bound
}

fn run_fluid(seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let (mut topo_s, mut tables_s, mut gen_s, mut network_s) = (0.0, 0.0, 0.0, 0.0);
    let setup = Instant::now();
    // (a) Garg–Könemann on the §6 Xpander under longest matching.
    let gk_topo = timed(&mut topo_s, || Xpander::paper_sec6(seed).build());
    let commodities: Vec<Commodity> = timed(&mut gen_s, || {
        let racks = gk_topo.tors_with_servers();
        longest_matching(&gk_topo, &racks, FLUID_GK_FRACTION, seed)
            .into_iter()
            .map(|(a, b)| Commodity {
                src: a,
                dst: b,
                demand: gk_topo.servers_at(a) as f64,
            })
            .collect()
    });
    let net = timed(&mut network_s, || FlowNetwork::from_topology(&gk_topo));
    // (b) the flow-level simulator on Fig 15's Xpander with HYB.
    let fs_topo = timed(&mut topo_s, || Xpander::paper_fig15(seed).build());
    let suite = timed(&mut tables_s, || RoutingSuite::new(&fs_topo));
    let flows = timed(&mut gen_s, || {
        let pattern = Skew::projector_like(&fs_topo, fs_topo.tors_with_servers(), seed);
        let n = (FLUID_FLOWSIM_LAMBDA * FLUID_FLOWSIM_HORIZON_S).round() as usize;
        first_flows(&pattern, FLUID_FLOWSIM_LAMBDA, n, seed)
    });
    let select = Arc::new(SelectSpan::default());
    let selector: Box<dyn PathSelector> = if traced {
        Box::new(CountedSelector {
            inner: Box::new(suite.hyb(PAPER_Q_BYTES)),
            stats: select.clone(),
        })
    } else {
        Box::new(suite.hyb(PAPER_Q_BYTES))
    };
    let mut fsim = FlowSim::new(&fs_topo, selector, FlowSimConfig::default());
    fsim.inject(&flows);
    rep.setup_s = setup.elapsed().as_secs_f64();

    let (mut gk_s, mut flowsim_s) = (0.0, 0.0);
    let gk = timed(&mut gk_s, || {
        max_concurrent_flow(&net, &commodities, GK_OPTIONS)
    });
    let records = timed(&mut flowsim_s, || fsim.run(1e3));
    rep.run_s = gk_s + flowsim_s;

    let mut metrics_s = 0.0;
    let m = timed(&mut metrics_s, || compute_metrics(&records, 0, Ns::MAX));
    let gk_failed = !gk_bracketed(&gk);
    if gk.throughput > gk.upper_bound {
        rep.errors.push(format!(
            "GK throughput {} above its dual bound {}",
            gk.throughput, gk.upper_bound
        ));
    }
    rep.ops = 1 + records.len() as u64;
    rep.ops_failed =
        gk_failed as u64 + records.iter().filter(|r| r.fct_ns.is_none()).count() as u64;
    let mut h = digest(&records);
    for v in [
        gk.throughput.to_bits(),
        gk.upper_bound.to_bits(),
        gk.phases as u64,
    ] {
        h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    }
    rep.digest = h;
    if traced {
        topology_layers(&mut rep, &[&gk_topo, &fs_topo], topo_s);
        rep.layer("routing.tables_s", tables_s);
        rep.layer("routing.select_calls", select.span.calls() as f64);
        rep.layer("routing.select_s", select.span.seconds());
        rep.layer("routing.path_hops_mean", select.hops_mean());
        rep.layer("workloads.gen_s", gen_s);
        rep.layer("workloads.flows", flows.len() as f64);
        for name in LAYER_METRICS.iter().filter(|n| n.starts_with("sim.")) {
            rep.layer(name, 0.0);
        }
        stats_layers(&mut rep, &m, metrics_s);
        rep.layer("maxflow.network_s", network_s);
        rep.layer("maxflow.gk_s", gk_s);
        rep.layer("maxflow.phases", gk.phases as f64);
        rep.layer("maxflow.dijkstra_calls", gk.dijkstra_calls as f64);
        rep.layer("maxflow.dijkstra_per_s", gk.dijkstra_calls as f64 / gk_s);
        rep.layer("maxflow.throughput", gk.throughput);
        rep.layer("maxflow.upper_bound", gk.upper_bound);
        rep.layer("flowsim.run_s", flowsim_s);
        rep.layer("flowsim.flows", records.len() as f64);
        rep.layer("flowsim.flows_per_s", records.len() as f64 / flowsim_s);
    }
    rep
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number; the metrics are finite by construction, and a
/// non-finite one is reported as an error instead of printed.
fn num(name: &str, v: f64, errors: &mut Vec<String>) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        errors.push(format!("{name} is not finite"));
        "0.0".into()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <ft8_a2a_dctcp|xp65k_a2a_hyb|fluid> \
         --seed <n> [--trace]\n       perfbench --reference"
    );
    std::process::exit(2)
}

fn main() {
    let start = Instant::now();
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced) = (None, None, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--trace" => traced = true,
            "--reference" => {
                std::hint::black_box(reference::run());
                println!("{{\"reference_s\": {:?}}}", start.elapsed().as_secs_f64());
                return;
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let mut rep = match workload.as_str() {
        "ft8_a2a_dctcp" => run_packet(&FT8_A2A_DCTCP, seed, traced),
        "xp65k_a2a_hyb" => run_packet(&XP65K_A2A_HYB, seed, traced),
        "fluid" => run_fluid(seed, traced),
        _ => usage(),
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut errors = std::mem::take(&mut rep.errors);
    let mut fields = vec![
        format!("\"wall_s\": {}", num("wall_s", wall_s, &mut errors)),
        format!("\"setup_s\": {}", num("setup_s", rep.setup_s, &mut errors)),
        format!("\"run_s\": {}", num("run_s", rep.run_s, &mut errors)),
        format!(
            "\"peak_rss_mb\": {}",
            num("peak_rss_mb", peak_rss_mb(), &mut errors)
        ),
        format!("\"ops\": {}", rep.ops),
        format!("\"ops_failed\": {}", rep.ops_failed),
        format!("\"digest\": \"{:016x}\"", rep.digest),
        format!("\"events\": {}", rep.events),
        format!("\"pkts_sent\": {}", rep.pkts_sent),
    ];
    if traced {
        let layers: Vec<String> = rep
            .layers
            .iter()
            .map(|&(name, v)| format!("\"{name}\": {}", num(name, v, &mut errors)))
            .collect();
        fields.push(format!("\"layers\": {{{}}}", layers.join(", ")));
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("perfbench: {workload} seed {seed}: {e}");
        }
        std::process::exit(1);
    }
    println!("{{{}}}", fields.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_workloads::FixedSize;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        let mut seen = std::collections::HashSet::new();
        for name in LAYER_METRICS {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn digest_sees_every_record_field() {
        let a = FlowRecord::basic(10, 1500, Some(700));
        let base = digest(&[a]);
        assert_ne!(base, digest(&[FlowRecord::basic(10, 1500, Some(701))]));
        assert_ne!(base, digest(&[FlowRecord::basic(10, 1500, None)]));
        assert_ne!(base, digest(&[FlowRecord { failed: true, ..a }]));
        assert_eq!(base, digest(&[a]));
    }

    #[test]
    fn quantile_inverts_the_cdf() {
        let ws = PFabricWebSearch::new();
        for u in [0.01, 0.15, 0.5, 0.7, 0.99] {
            let q = quantile(&ws, u);
            assert!(ws.cdf(q) >= u && ws.cdf(q - 1) < u, "{u} -> {q}");
        }
    }

    #[test]
    fn stratified_inputs_share_their_sizes_and_arrivals() {
        let topo = FatTree::full(4).build();
        let pattern = AllToAll::new(&topo, topo.tors_with_servers());
        let a = first_flows(&pattern, 1000.0, 200, 7);
        let b = first_flows(&pattern, 1000.0, 200, 8);
        assert_eq!((a.len(), b.len()), (200, 200));
        let sizes = |f: &[FlowEvent]| {
            let mut s: Vec<u64> = f.iter().map(|e| e.bytes).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes(&a), sizes(&b));
        assert_ne!(a[0].start_s, b[0].start_s);
        // The sizes draw no random numbers: arrivals and endpoints are
        // those of constant-size flows on the same seed.
        let fixed = generate_flows(&pattern, &FixedSize(1), 1000.0, 0.4, 7);
        for (x, y) in a.iter().zip(&fixed) {
            assert_eq!((x.start_s, x.src, x.dst), (y.start_s, y.src, y.dst));
        }
    }

    #[test]
    fn gk_fails_only_without_a_bracket() {
        let r = |throughput, upper_bound| GkResult {
            throughput,
            upper_bound,
            phases: GK_OPTIONS.max_phases,
            dijkstra_calls: 1,
        };
        assert!(gk_bracketed(&r(0.5, 0.65)));
        assert!(gk_bracketed(&r(1.0, f64::INFINITY)));
        assert!(!gk_bracketed(&r(0.0, 0.65)));
        assert!(!gk_bracketed(&r(0.7, 0.65)));
    }
}
