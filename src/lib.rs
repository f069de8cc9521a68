//! # beyond-fattrees
//!
//! A from-scratch Rust reproduction of **"Beyond fat-trees without
//! antennae, mirrors, and disco-balls"** (Kassing, Valadarsky, Shahaf,
//! Schapira, Singla — SIGCOMM 2017): static expander-based data center
//! networks evaluated against abstract dynamic (reconfigurable) topologies
//! and full-bandwidth fat-trees, in both a fluid-flow throughput model and
//! a packet-level simulator with simple oblivious routing (ECMP / VLB /
//! the paper's HYB hybrid) over DCTCP.
//!
//! This crate is a facade re-exporting the workspace's libraries:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`topology`] | `dcn-topology` | fat-tree, Xpander, Jellyfish, SlimFly, Longhop, metrics |
//! | [`maxflow`] | `dcn-maxflow` | Garg–Könemann concurrent flow, Dinic, simplex LP, bounds |
//! | [`workloads`] | `dcn-workloads` | pFabric / Pareto-HULL sizes, A2A / Permute / Skew TMs |
//! | [`routing`] | `dcn-routing` | ECMP, VLB, HYB, k-shortest paths |
//! | [`sim`] | `dcn-sim` | packet-level DCTCP simulator |
//! | [`flowsim`] | `dcn-flowsim` | flow-level max-min fair simulator |
//! | [`core`] | `dcn-core` | TP metric, dynamic models, cost model, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use beyond_fattrees::prelude::*;
//!
//! // The paper's §6.4 comparison at test scale: a full-bandwidth fat-tree
//! // vs an Xpander at ~2/3 the cost.
//! let pair = paper_networks(Scale::Tiny, 42);
//! let pattern = AllToAll::new(&pair.xpander, pair.xpander.tors_with_servers());
//! let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 500.0, 0.01, 7);
//! let run = Run::new(
//!     &pair.xpander, Routing::PAPER_HYB, SimConfig::default(),
//!     &flows, (0, 10_000_000), 10_000_000_000,
//! );
//! let metrics = run.execute().metrics;
//! assert_eq!(metrics.completed, metrics.flows);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod jobs;
pub mod metrics;

pub use dcn_core as core;
pub use dcn_flowsim as flowsim;
pub use dcn_maxflow as maxflow;
pub use dcn_routing as routing;
pub use dcn_sim as sim;
pub use dcn_topology as topology;
pub use dcn_workloads as workloads;

/// Everything needed for typical experiments, in one import.
pub mod prelude {
    pub use dcn_core::{
        default_window, delta_lowest, diff_json, equal_cost_xpander, fat_tree_throughput,
        paper_networks, tp_throughput, FlexCurve, ManifestSpec, NetworkPair, RestrictedDynamic,
        Routing, Run, RunManifest, RunOutput, Scale, SimCounters, Sinks, UnrestrictedDynamic,
        WALL_CLOCK_FIELDS,
    };
    pub use dcn_flowsim::{FlowSim, FlowSimConfig};
    pub use dcn_maxflow::{max_concurrent_flow, per_server_throughput, Commodity, GkOptions};
    pub use dcn_routing::{EcmpTable, PathSelector, RoutingSuite, Vlb, PAPER_Q_BYTES};
    pub use dcn_sim::{
        check_conservation, compute_metrics, compute_metrics_with_dists, config_fingerprint,
        ChannelCounters, Checkpoint, CheckpointMeta, Conservation, CountingTracer, DropCounters,
        EngineCounters, FaultEvent, FaultKind, FaultPlan, FctDistributions, FlowRecord,
        JsonlTracer, Metrics, NopTracer, QueueDiscKind, QueueDiscipline, Sample, SharedBuf,
        SimConfig, Simulator, StreamingHistogram, Telemetry, TraceCounters, TraceEvent, Tracer,
        Transport, TransportKind, DEFAULT_SAMPLE_EVERY_NS, MS, SEC, US,
    };
    pub use dcn_topology::{
        fattree::FatTree, jellyfish::Jellyfish, longhop::Longhop, slimfly::SlimFly, toy::ToyFig4,
        xpander::Xpander, NodeId, NodeKind, Topology,
    };
    pub use dcn_workloads::{
        active_fraction, active_racks_for_servers, generate_flows, longest_matching, AllToAll,
        Endpoint, ExplicitServers, FixedSize, FlowEvent, FlowSizeDist, PFabricWebSearch, PairSkew,
        ParetoHull, Permutation, Skew, TrafficPattern,
    };
}
