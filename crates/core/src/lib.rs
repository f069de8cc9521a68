//! # dcn-core
//!
//! The core contribution of *"Beyond fat-trees without antennae, mirrors,
//! and disco-balls"* (SIGCOMM 2017) as a library:
//!
//! - [`flex`] — the throughput-proportionality (TP) flexibility metric (§2.2);
//! - [`theory`] — numeric checks of Observation 1 and the Theorem 2.1
//!   scaling direction;
//! - [`dynamicnet`] — the abstract unrestricted/restricted dynamic-topology
//!   models (§4) compared against static networks in §5;
//! - [`cost`] — the Table 1 port-cost model, δ = 1.5, and equal-cost
//!   network configuration;
//! - [`experiment`] — the §6.4 equal-cost network pairs and [`Run`], the
//!   one packet-level FCT experiment every harness, CLI, and test drives.
//!
//! ```
//! use dcn_core::flex::tp_throughput;
//! use dcn_core::cost::delta_lowest;
//!
//! assert_eq!(tp_throughput(0.5, 0.5), 1.0);
//! assert!((delta_lowest() - 1.5).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod dynamicnet;
pub mod experiment;
pub mod failpoint;
pub mod flex;
pub mod fsio;
pub mod manifest;
pub mod theory;

pub use cost::{delta_lowest, equal_cost_xpander, table1};
pub use dynamicnet::{RestrictedDynamic, UnrestrictedDynamic};
pub use experiment::{
    default_window, paper_networks, NetworkPair, Routing, Run, RunOutput, Scale, SimCounters, Sinks,
};
pub use flex::{fat_tree_throughput, tp_throughput, FlexCurve};
pub use fsio::{fsync_parent_dir, write_atomic};
pub use manifest::{diff_json, hex64, ManifestSpec, RunManifest, WALL_CLOCK_FIELDS};
