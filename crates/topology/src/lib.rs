//! # dcn-topology
//!
//! Data center network topologies for the reproduction of *"Beyond
//! fat-trees without antennae, mirrors, and disco-balls"* (SIGCOMM 2017).
//!
//! Provides the static topologies the paper evaluates —
//! [`fattree::FatTree`] (full and oversubscribed), [`xpander::Xpander`],
//! [`jellyfish::Jellyfish`], [`slimfly::SlimFly`], [`longhop::Longhop`] —
//! plus the §4.1 toy example ([`toy::ToyFig4`]) and the metrics used for
//! the paper's cabling and floor-plan arguments ([`metrics`]).
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use dcn_topology::{fattree::FatTree, xpander::Xpander, metrics::path_stats};
//!
//! let ft = FatTree::full(8).build();
//! let xp = Xpander::for_switches(7, 80, 4, 1).build();
//! assert!(path_stats(&xp).avg_path_length < path_stats(&ft).avg_path_length);
//! ```

#![forbid(unsafe_code)]

pub mod dragonfly;
pub mod export;
pub mod fattree;
pub mod graph;
pub mod jellyfish;
pub mod longhop;
pub mod metrics;
pub mod slimfly;
pub mod toy;
pub mod xpander;

pub use graph::{HopDistances, Link, LinkId, NodeId, NodeKind, Topology};
