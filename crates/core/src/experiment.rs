//! Shared experiment plumbing for the per-figure harness binaries: the
//! equal-cost network pairs of §6.4, routing-scheme selection, and the
//! one packet-level FCT experiment description, [`Run`].

use crate::manifest::{ManifestInputs, ManifestSpec, RunManifest};
use dcn_routing::{KspSelector, PathSelector, RoutingSuite, PAPER_Q_BYTES};
use dcn_sim::{
    compute_metrics_with_dists, FaultPlan, JsonlTracer, Metrics, Ns, SimConfig, Simulator,
    Telemetry, Tracer, DEFAULT_SAMPLE_EVERY_NS, SEC,
};
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_topology::Topology;
use dcn_workloads::FlowEvent;

/// Experiment scale: `Paper` is the configuration reported in the paper;
/// the smaller scales preserve oversubscription ratios and protocol
/// constants so curve *shapes* carry over (DESIGN.md §4, substitution 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// k=4 fat-tree (16 servers) — unit tests.
    Tiny,
    /// k=8 fat-tree (128 servers) — default for the harness.
    Small,
    /// k=16 fat-tree (1024 servers) — the paper's §6.4 configuration.
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The equal-cost network pair the paper compares throughout §6: a
/// full-bandwidth fat-tree and an Xpander at ~2/3 its cost supporting at
/// least as many servers.
pub struct NetworkPair {
    pub fat_tree: Topology,
    pub xpander: Topology,
    pub ft_config: FatTree,
    pub xp_config: Xpander,
}

/// Builds the §6.4 pair at a given scale:
///
/// | scale | fat-tree          | Xpander                          |
/// |-------|-------------------|----------------------------------|
/// | Tiny  | k=4: 20 sw, 16 srv| 16 sw × 4 ports (3 net + 1 srv)  |
/// | Small | k=8: 80 sw, 128 srv| 54 sw × 8 ports (5 net + 3 srv) |
/// | Paper | k=16: 320 sw, 1024 srv | 216 sw × 16 ports (11 net + 5 srv) |
pub fn paper_networks(scale: Scale, seed: u64) -> NetworkPair {
    let (ft_config, xp_config) = match scale {
        Scale::Tiny => (FatTree::full(4), Xpander::for_switches(3, 16, 1, seed)),
        Scale::Small => (FatTree::full(8), Xpander::for_switches(5, 54, 3, seed)),
        Scale::Paper => (FatTree::full(16), Xpander::paper_sec6(seed)),
    };
    NetworkPair {
        fat_tree: ft_config.build(),
        xpander: xp_config.build(),
        ft_config,
        xp_config,
    }
}

/// Routing scheme under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    Ecmp,
    Vlb,
    /// HYB with the given Q threshold in bytes.
    Hyb(u64),
    /// Congestion-aware hybrid: ECMP until the flow has seen this many
    /// ECN-marked ACKs, then VLB (§6.3's non-simplified design).
    AdaptiveHyb(u64),
    /// Flowlet-hashed k-shortest-paths (the MPTCP-era baseline).
    Ksp(usize),
}

impl Routing {
    pub const PAPER_HYB: Routing = Routing::Hyb(PAPER_Q_BYTES);

    pub fn selector(&self, t: &Topology) -> Box<dyn PathSelector> {
        if let Routing::Ksp(k) = *self {
            return Box::new(KspSelector::new(t, k));
        }
        let suite = RoutingSuite::new(t);
        match *self {
            Routing::Ecmp => Box::new(suite.ecmp()),
            Routing::Vlb => Box::new(suite.vlb()),
            Routing::Hyb(q) => Box::new(suite.hyb(q)),
            Routing::AdaptiveHyb(marks) => Box::new(suite.adaptive_hyb(marks)),
            Routing::Ksp(_) => unreachable!(),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Routing::Ecmp => "ECMP",
            Routing::Vlb => "VLB",
            Routing::Hyb(_) => "HYB",
            Routing::AdaptiveHyb(_) => "HYB-adaptive",
            Routing::Ksp(_) => "KSP",
        }
    }
}

/// Extra outcome counters alongside the FCT metrics. Drops are split by
/// cause: `congestion_drops` are queue tail drops, `fault_drops` are
/// losses on failed or gray links (plus no-route drops at the source).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounters {
    pub congestion_drops: u64,
    pub fault_drops: u64,
    pub ecn_marks: u64,
    pub events: u64,
}

impl SimCounters {
    /// All drops regardless of cause.
    pub fn drops(&self) -> u64 {
        self.congestion_drops + self.fault_drops
    }
}

/// Where a run's observability artifacts go: the JSONL event trace, the
/// telemetry time series (sampled every `telemetry_every_ns`), and the
/// run manifest. `None` leaves that sink off.
#[derive(Clone, Debug)]
pub struct Sinks {
    pub trace: Option<String>,
    pub telemetry: Option<String>,
    pub telemetry_every_ns: Ns,
    pub manifest: Option<String>,
}

impl Default for Sinks {
    fn default() -> Self {
        Sinks {
            trace: None,
            telemetry: None,
            telemetry_every_ns: DEFAULT_SAMPLE_EVERY_NS,
            manifest: None,
        }
    }
}

impl Sinks {
    /// Opens the trace and telemetry files onto `run` and, when a manifest
    /// path is set, asks the run for a manifest recorded under `tool` and
    /// `seed`. The one place a sink path becomes a sink: errors name the
    /// sink and path (`open trace <path>: <cause>`).
    pub fn attach(&self, run: &mut Run, tool: &str, seed: u64) -> Result<(), String> {
        if let Some(p) = &self.trace {
            eprintln!("tracing events to {p}");
            let tracer = JsonlTracer::create(p).map_err(|e| format!("open trace {p}: {e}"))?;
            run.tracer = Some(Box::new(tracer));
        }
        if let Some(p) = &self.telemetry {
            eprintln!("telemetry to {p} every {} ns", self.telemetry_every_ns);
            let tel = Telemetry::to_file(p, self.telemetry_every_ns)
                .map_err(|e| format!("open telemetry {p}: {e}"))?;
            run.telemetry = Some(tel);
        }
        if self.manifest.is_some() {
            let mut spec = ManifestSpec::new(tool, seed);
            spec.trace_path = self.trace.clone();
            run.manifest = Some(spec);
        }
        Ok(())
    }

    /// Writes the manifest of a run this attached to (a no-op without a
    /// manifest path).
    pub fn write_manifest(&self, out: &RunOutput) -> Result<(), String> {
        if let (Some(p), Some(man)) = (&self.manifest, &out.manifest) {
            man.write(p)
                .map_err(|e| format!("write manifest {p}: {e}"))?;
            eprintln!("wrote {p}");
        }
        Ok(())
    }
}

/// One packet-level FCT experiment: inject `flows`, measure over
/// `window`, and run until every window flow completes (or fails, under
/// faults) — `max_time` caps runaway runs, matching the paper's "run until
/// all flows in the interval finish". The optional fault plan, tracer,
/// telemetry sampler, and manifest request ride along; [`Run::new`] leaves
/// them all off (the default [`dcn_sim::NopTracer`] costs nothing and
/// keeps outputs byte-identical).
///
/// [`Run::execute`] builds and runs in one call. Callers that need the
/// [`Simulator`] itself — to drive it in checkpointed chunks, switch on
/// oracle routing, or inspect it after the run — call [`Run::build`] and
/// then either drive it themselves or hand it to [`Run::execute_on`].
pub struct Run<'a> {
    pub topology: &'a Topology,
    pub routing: Routing,
    pub cfg: SimConfig,
    pub flows: &'a [FlowEvent],
    pub window: (Ns, Ns),
    pub max_time: Ns,
    pub faults: Option<&'a FaultPlan>,
    pub tracer: Option<Box<dyn Tracer>>,
    pub telemetry: Option<Telemetry>,
    /// When set, the run returns a provenance-complete [`RunManifest`].
    pub manifest: Option<ManifestSpec>,
}

/// What [`Run::execute`] returns.
pub struct RunOutput {
    pub metrics: Metrics,
    pub counters: SimCounters,
    pub manifest: Option<RunManifest>,
}

impl<'a> Run<'a> {
    pub fn new(
        topology: &'a Topology,
        routing: Routing,
        cfg: SimConfig,
        flows: &'a [FlowEvent],
        window: (Ns, Ns),
        max_time: Ns,
    ) -> Self {
        Run {
            topology,
            routing,
            cfg,
            flows,
            window,
            max_time,
            faults: None,
            tracer: None,
            telemetry: None,
            manifest: None,
        }
    }

    /// The build step: a simulator with the window set, the flows and
    /// fault plan injected, and the tracer and telemetry sampler moved in.
    pub fn build(&mut self) -> Simulator {
        let mut sim = Simulator::new(
            self.topology,
            self.routing.selector(self.topology),
            self.cfg,
        );
        sim.set_window(self.window.0, self.window.1);
        sim.inject(self.flows);
        if let Some(plan) = self.faults {
            sim.set_fault_plan(plan);
        }
        if let Some(tr) = self.tracer.take() {
            sim.set_tracer(tr);
        }
        if let Some(tel) = self.telemetry.take() {
            sim.set_telemetry(tel);
        }
        sim
    }

    /// Builds and runs.
    pub fn execute(mut self) -> RunOutput {
        let sim = self.build();
        self.execute_on(sim)
    }

    /// The execute step: runs `sim` (from [`Run::build`]) to completion and
    /// aggregates its metrics, counters, and, when requested, manifest.
    pub fn execute_on(self, mut sim: Simulator) -> RunOutput {
        let start = std::time::Instant::now();
        let records = sim.run(self.max_time);
        let wall = start.elapsed();
        let (metrics, dists) = compute_metrics_with_dists(&records, self.window.0, self.window.1);
        let metrics = metrics.with_transport(sim.transport_name());
        let counters = SimCounters {
            congestion_drops: sim.total_congestion_drops(),
            fault_drops: sim.total_fault_drops(),
            ecn_marks: sim.total_marks(),
            events: sim.events_processed(),
        };
        let engine = sim.engine_counters();
        let manifest = self.manifest.as_ref().map(|spec| {
            RunManifest::build(&ManifestInputs {
                spec,
                topology: self.topology,
                routing_label: self.routing.label(),
                cfg: &self.cfg,
                window: self.window,
                faults: self.faults,
                injected: self.flows.len(),
                metrics: &metrics,
                dists: &dists,
                counters: &counters,
                engine: &engine,
                conservation: sim.conservation(),
                peak_heap: sim.heap_peak(),
                wall,
                telemetry: sim
                    .telemetry()
                    .map(|t| (t.samples(), t.every_ns(), t.path().map(str::to_string))),
            })
        });
        RunOutput {
            metrics,
            counters,
            manifest,
        }
    }
}

/// Default measurement window per scale, mirroring the paper's
/// [0.5 s, 1.5 s) at `Paper` scale and shrinking with it.
pub fn default_window(scale: Scale) -> (Ns, Ns) {
    match scale {
        Scale::Tiny => (SEC / 100, SEC / 20),     // [10 ms, 50 ms)
        Scale::Small => (SEC / 20, 3 * SEC / 20), // [50 ms, 150 ms)
        Scale::Paper => (SEC / 2, 3 * SEC / 2),   // [0.5 s, 1.5 s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::MS;
    use dcn_workloads::{fsize::FixedSize, generate_flows, tm::AllToAll};

    #[test]
    fn tiny_pair_shapes() {
        let p = paper_networks(Scale::Tiny, 1);
        assert_eq!(p.fat_tree.num_nodes(), 20);
        assert_eq!(p.xpander.num_nodes(), 16);
        assert_eq!(p.fat_tree.num_servers(), 16);
        assert_eq!(p.xpander.num_servers(), 16);
    }

    #[test]
    fn small_pair_cost_ratio() {
        let p = paper_networks(Scale::Small, 1);
        let ratio = p.xpander.num_nodes() as f64 / p.fat_tree.num_nodes() as f64;
        assert!((ratio - 0.675).abs() < 0.01, "switch ratio {ratio}");
        assert!(p.xpander.num_servers() >= p.fat_tree.num_servers());
    }

    #[test]
    fn paper_pair_matches_section_6_4() {
        let p = paper_networks(Scale::Paper, 1);
        assert_eq!(p.fat_tree.num_nodes(), 320);
        assert_eq!(p.fat_tree.num_servers(), 1024);
        assert_eq!(p.xpander.num_nodes(), 216);
        assert_eq!(p.xpander.num_servers(), 1080);
    }

    #[test]
    fn end_to_end_experiment_runs() {
        let p = paper_networks(Scale::Tiny, 1);
        let pattern = AllToAll::new(&p.fat_tree, p.fat_tree.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(20_000), 2000.0, 0.02, 3);
        let window = (5 * MS, 15 * MS);
        let out = Run::new(
            &p.fat_tree,
            Routing::Ecmp,
            SimConfig::default(),
            &flows,
            window,
            10 * SEC,
        )
        .execute();
        let (m, c) = (out.metrics, out.counters);
        assert!(m.flows > 0);
        assert_eq!(m.completed, m.flows, "all window flows must finish");
        assert!(m.avg_fct_ms > 0.0);
        assert!(c.events > 0);
    }

    #[test]
    fn hyb_runs_on_xpander() {
        let p = paper_networks(Scale::Tiny, 1);
        let pattern = AllToAll::new(&p.xpander, p.xpander.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(200_000), 1000.0, 0.02, 3);
        let m = Run::new(
            &p.xpander,
            Routing::PAPER_HYB,
            SimConfig::default(),
            &flows,
            (0, 20 * MS),
            10 * SEC,
        )
        .execute()
        .metrics;
        assert_eq!(m.completed, m.flows);
        assert!(m.avg_long_tput_gbps > 0.0);
    }

    #[test]
    fn extended_routings_run() {
        let p = paper_networks(Scale::Tiny, 1);
        let pattern = AllToAll::new(&p.xpander, p.xpander.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(150_000), 800.0, 0.01, 5);
        for routing in [Routing::AdaptiveHyb(5), Routing::Ksp(4)] {
            let m = Run::new(
                &p.xpander,
                routing,
                SimConfig::default(),
                &flows,
                (0, 10_000_000),
                10 * SEC,
            )
            .execute()
            .metrics;
            assert_eq!(m.completed, m.flows, "{routing:?}");
        }
    }

    #[test]
    fn fault_experiment_accounts_every_flow() {
        let p = paper_networks(Scale::Tiny, 1);
        let pattern = AllToAll::new(&p.xpander, p.xpander.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(100_000), 1500.0, 0.02, 7);
        let plan = FaultPlan::random_link_outages(&p.xpander, 3, 2 * MS, Some(10 * MS), 5);
        let out = Run {
            faults: Some(&plan),
            ..Run::new(
                &p.xpander,
                Routing::PAPER_HYB,
                SimConfig::default(),
                &flows,
                (0, 15 * MS),
                60 * SEC,
            )
        }
        .execute();
        let (m, c) = (out.metrics, out.counters);
        assert!(m.flows > 0);
        assert_eq!(m.completed + m.failed, m.flows, "flow in limbo");
        assert_eq!(c.drops(), c.congestion_drops + c.fault_drops);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }
}
