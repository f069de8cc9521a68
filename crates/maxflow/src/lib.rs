//! # dcn-maxflow
//!
//! Fluid-flow throughput evaluation for the SIGCOMM 2017 paper *"Beyond
//! fat-trees without antennae, mirrors, and disco-balls"*: the machinery
//! behind its §5 comparison of static and dynamic topologies.
//!
//! - [`concurrent`] — Garg–Könemann maximum concurrent flow (the paper's
//!   LP-based throughput, as a (1−ε)³ FPTAS).
//! - [`lp`] — exact two-phase simplex used as ground truth on small cases.
//! - [`dinic`] — exact single-commodity max flow.
//! - [`bound`] — the capacity/path-length throughput upper bounds of
//!   Singla et al. (NSDI'14) used for the *restricted dynamic* model.
//!
//! ```
//! use dcn_maxflow::concurrent::{per_server_throughput, GkOptions};
//! use dcn_topology::fattree::FatTree;
//!
//! let t = FatTree::full(4).build();
//! // ToR 0 (pod 0) to ToR 4 (pod 1): a full fat-tree supports line rate
//! // (the FPTAS reports a value within its (1−ε)³ guarantee of 1.0).
//! let lam = per_server_throughput(&t, &[(0, 4)], GkOptions::default());
//! assert!(lam >= 0.857 && lam <= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod bound;
pub mod concurrent;
pub mod dinic;
pub mod lp;
pub mod network;

pub use concurrent::{max_concurrent_flow, per_server_throughput, Commodity, GkOptions, GkResult};
pub use network::{Arc, FlowNetwork};
