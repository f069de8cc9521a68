//! # dcn-workloads
//!
//! Workload generation for the SIGCOMM 2017 reproduction: the paper's
//! flow-size distributions (pFabric web search, Pareto-HULL — Fig 8),
//! traffic patterns (A2A(x), Permute(x), Skew(θ,ϕ) — §6.4/§6.7), the
//! longest-matching traffic matrices of the fluid-flow evaluation (§5),
//! and seeded Poisson flow arrivals.
//!
//! ```
//! use dcn_topology::fattree::FatTree;
//! use dcn_workloads::{fsize::PFabricWebSearch, tm::AllToAll, arrivals::generate_flows};
//!
//! let t = FatTree::full(4).build();
//! let pattern = AllToAll::new(&t, t.tors_with_servers());
//! let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 1000.0, 0.1, 42);
//! assert!(!flows.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod fluid;
pub mod fsize;
pub mod tm;

pub use arrivals::{generate_flows, FlowEvent};
pub use fsize::{FixedSize, FlowSizeDist, PFabricWebSearch, ParetoHull};
pub use tm::{
    active_fraction, active_racks_for_servers, longest_matching, AllToAll, Endpoint,
    ExplicitServers, PairSkew, Permutation, Skew, TrafficPattern,
};
