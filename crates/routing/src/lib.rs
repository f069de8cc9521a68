//! # dcn-routing
//!
//! Routing for static data center networks, per §6 of *"Beyond fat-trees
//! without antennae, mirrors, and disco-balls"*:
//!
//! - [`ecmp`] — per-hop hashed equal-cost multi-path over all shortest paths;
//! - [`vlb`] — Valiant load balancing via a random intermediate switch;
//! - [`hyb`] — the paper's HYB scheme (ECMP until a flow passes Q = 100 KB,
//!   then VLB, switching at flowlet granularity) and the [`hyb::PathSelector`]
//!   trait the packet simulator consumes;
//! - [`ksp`] — Yen's k-shortest loopless paths for diversity audits.
//!
//! ```
//! use dcn_topology::xpander::Xpander;
//! use dcn_routing::hyb::{RoutingSuite, PathSelector, PAPER_Q_BYTES};
//!
//! let t = Xpander::new(6, 8, 3, 2).build();
//! let suite = RoutingSuite::new(&t);
//! let hyb = suite.hyb(PAPER_Q_BYTES);
//! let path = hyb.select(0, 9, 1234, 0);
//! assert!(!path.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod ecmp;
pub mod hyb;
pub mod ksp;
pub mod kspsel;
pub mod vlb;

pub use ecmp::EcmpTable;
pub use hyb::{
    AdaptiveHybSelector, EcmpSelector, HybSelector, PathSelector, RoutingSuite, VlbSelector,
    PAPER_Q_BYTES,
};
pub use ksp::k_shortest_paths;
pub use kspsel::KspSelector;
pub use vlb::Vlb;
