//! # dcn-sim
//!
//! A packet-level discrete-event data center network simulator — the Rust
//! replacement for the netbench framework used by *"Beyond fat-trees
//! without antennae, mirrors, and disco-balls"* (SIGCOMM 2017, §6).
//!
//! The simulator is layered (see `DESIGN.md` for the full contract):
//!
//! - [`engine`] — calendar event queue, clock, and dispatch loop
//!   ([`Simulator`]), with in-flight packets in a [`PacketArena`] slab
//!   and their routes interned as [`PathId`]s ([`path`]);
//! - [`host`] — per-flow state behind the pluggable [`Transport`] trait
//!   ([`Dctcp`] by default; [`NewReno`] and [`PFabric`] ship too);
//! - [`switch`] — per-port queues behind the [`QueueDiscipline`] trait
//!   ([`TailDropEcn`] by default, [`PFabricQueue`] for strict priority);
//! - [`fault`] — deterministic link/switch failure schedules;
//! - [`trace`] — the observability layer: structured event tracing
//!   ([`Tracer`]; [`NopTracer`]/[`CountingTracer`]/[`JsonlTracer`]),
//!   per-channel counters, and the packet-conservation checker.
//!
//! Model: output-queued switches with tail-drop queues and DCTCP-style ECN
//! marking, full-duplex links with serialization + propagation delay,
//! per-flow DCTCP senders, and flowlet-granularity path selection through
//! any [`dcn_routing::PathSelector`] (ECMP / VLB / HYB).
//!
//! The default constructor reads the transport and queue discipline from
//! [`SimConfig`]; [`Simulator::with_transport`] and
//! [`Simulator::with_parts`] accept custom trait objects:
//!
//! ```
//! use dcn_sim::{Simulator, SimConfig, compute_metrics, SEC};
//! use dcn_routing::RoutingSuite;
//! use dcn_topology::fattree::FatTree;
//! use dcn_workloads::{tm::AllToAll, fsize::FixedSize, generate_flows};
//!
//! let t = FatTree::full(4).build();
//! let pattern = AllToAll::new(&t, t.tors_with_servers());
//! let flows = generate_flows(&pattern, &FixedSize(10_000), 500.0, 0.01, 7);
//!
//! // DCTCP over tail-drop+ECN switches (the paper's setup) ...
//! let suite = RoutingSuite::new(&t);
//! let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
//! sim.inject(&flows);
//! let m = compute_metrics(&sim.run(SEC), 0, SEC);
//! assert_eq!(m.completed, m.flows);
//!
//! // ... or any transport/queue-discipline pair, e.g. pFabric:
//! let suite = RoutingSuite::new(&t);
//! let mut sim = Simulator::new(
//!     &t,
//!     Box::new(suite.ecmp()),
//!     SimConfig::default().with_pfabric(),
//! );
//! assert_eq!(sim.transport_name(), "pfabric");
//! sim.inject(&flows);
//! let m = compute_metrics(&sim.run(SEC), 0, SEC);
//! assert_eq!(m.completed, m.flows);
//! ```

#![forbid(unsafe_code)]

pub mod calendar;
pub mod channel;
pub mod checkpoint;
#[cfg(test)]
mod checkpoint_pin;
pub mod counters;
pub mod engine;
pub mod fault;
pub mod host;
pub mod path;
pub mod slab;
pub mod stats;
pub mod switch;
pub mod telemetry;
pub mod trace;
pub mod types;

pub use checkpoint::{config_fingerprint, install_io_hook, Checkpoint, CheckpointMeta};
pub use counters::{EngineCounters, EventCounts};
pub use engine::{Simulator, SCHEDULE_VERSION};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RemappedSelector};
pub use host::{AckActions, Dctcp, Flow, NewReno, PFabric, Transport};
pub use path::PathId;
pub use slab::{PacketArena, PktId};
pub use stats::{
    compute_metrics, compute_metrics_with_dists, percentile, ChannelCounters, DropCounters,
    FctDistributions, FlowRecord, Metrics, StreamingHistogram, TraceCounters, SHORT_FLOW_BYTES,
};
pub use switch::{DisciplineFactory, EnqueueOutcome, PFabricQueue, QueueDiscipline, TailDropEcn};
pub use telemetry::{Sample, Telemetry, TelemetrySnapshot, DEFAULT_SAMPLE_EVERY_NS};
pub use trace::{
    check_conservation, Conservation, CountingTracer, JsonlTracer, NopTracer, SharedBuf,
    TraceEvent, Tracer, TracerSnapshot,
};
pub use types::{Ns, Packet, QueueDiscKind, SimConfig, TransportKind, MS, SEC, US};
