//! # dcn-flowsim
//!
//! A fast flow-level FCT simulator: flows hold fixed paths and share link
//! bandwidth max-min fairly (progressive filling), recomputed at every
//! flow arrival and departure. It abstracts away congestion control and
//! queueing, making paper-scale configurations (Fig 15's 3400+ servers)
//! tractable, and serves as a fluid cross-check of `dcn-sim`'s results.
//!
//! Routing uses the same [`dcn_routing::PathSelector`] implementations as
//! the packet simulator, with one semantic shift documented in DESIGN.md:
//! a flow's path is fixed at arrival, so HYB becomes "ECMP if the flow is
//! smaller than Q, VLB otherwise" (the per-flowlet switch cannot be
//! expressed in a fluid model).
//!
//! ```
//! use dcn_flowsim::{FlowSim, FlowSimConfig};
//! use dcn_routing::RoutingSuite;
//! use dcn_topology::fattree::FatTree;
//! use dcn_workloads::{tm::AllToAll, fsize::FixedSize, generate_flows};
//!
//! let t = FatTree::full(4).build();
//! let suite = RoutingSuite::new(&t);
//! let mut sim = FlowSim::new(&t, Box::new(suite.ecmp()), FlowSimConfig::default());
//! let pattern = AllToAll::new(&t, t.tors_with_servers());
//! sim.inject(&generate_flows(&pattern, &FixedSize(100_000), 200.0, 0.05, 3));
//! let records = sim.run(10.0);
//! assert!(records.iter().all(|r| r.fct_ns.is_some()));
//! ```

#![forbid(unsafe_code)]

use dcn_routing::ecmp::hash3;
use dcn_routing::PathSelector;
use dcn_sim::stats::FlowRecord;
use dcn_topology::{Link, NodeId, Topology};
use dcn_workloads::FlowEvent;
use waterfill::Waterfill;

mod waterfill;

/// Flow-level simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowSimConfig {
    /// Switch-to-switch link rate in Gbps.
    pub link_gbps: f64,
    /// Server-to-ToR link rate in Gbps (set high to ignore server
    /// bottlenecks, as in the paper's ProjecToR comparison).
    pub server_link_gbps: f64,
}

impl Default for FlowSimConfig {
    fn default() -> Self {
        FlowSimConfig {
            link_gbps: 10.0,
            server_link_gbps: 10.0,
        }
    }
}

struct ActiveFlow {
    id: usize,
    remaining_bits: f64,
    /// Directed channel indices this flow occupies.
    path: Vec<u32>,
    rate_gbps: f64,
}

struct PendingFlow {
    start_s: f64,
    src_rack: NodeId,
    dst_rack: NodeId,
    src_server: u32,
    dst_server: u32,
    bytes: u64,
}

/// The flow-level simulator.
pub struct FlowSim {
    /// Directed channel capacities in Gbps: 2 per topology link, then 2 per
    /// server (up, down).
    cap: Vec<f64>,
    links: Vec<Link>,
    host_base: u32,
    rack_base: Vec<u32>,
    num_servers: u32,
    selector: Box<dyn PathSelector>,
    pending: Vec<PendingFlow>,
}

impl FlowSim {
    pub fn new(topo: &Topology, selector: Box<dyn PathSelector>, cfg: FlowSimConfig) -> Self {
        let mut cap = Vec::with_capacity(topo.num_links() * 2);
        for l in topo.links() {
            cap.push(cfg.link_gbps * l.capacity);
            cap.push(cfg.link_gbps * l.capacity);
        }
        let host_base = cap.len() as u32;
        let mut rack_base = vec![u32::MAX; topo.num_nodes()];
        let mut num_servers = 0u32;
        for rack in 0..topo.num_nodes() as NodeId {
            let s = topo.servers_at(rack);
            if s == 0 {
                continue;
            }
            rack_base[rack as usize] = num_servers;
            for _ in 0..s {
                cap.push(cfg.server_link_gbps);
                cap.push(cfg.server_link_gbps);
                num_servers += 1;
            }
        }
        FlowSim {
            cap,
            links: topo.links().to_vec(),
            host_base,
            rack_base,
            num_servers,
            selector,
            pending: Vec::new(),
        }
    }

    /// Queues workload flows; call once before [`FlowSim::run`].
    pub fn inject(&mut self, events: &[FlowEvent]) {
        for e in events {
            let sb = self.rack_base[e.src.rack as usize];
            let db = self.rack_base[e.dst.rack as usize];
            assert!(
                sb != u32::MAX && db != u32::MAX,
                "endpoint rack has no servers"
            );
            self.pending.push(PendingFlow {
                start_s: e.start_s,
                src_rack: e.src.rack,
                dst_rack: e.dst.rack,
                src_server: sb + e.src.server,
                dst_server: db + e.dst.server,
                bytes: e.bytes,
            });
        }
        self.pending
            .sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
    }

    fn build_path(&self, f: &PendingFlow, id: usize) -> Vec<u32> {
        let mut path = vec![self.host_base + 2 * f.src_server];
        if f.src_rack != f.dst_rack {
            let key = hash3(id as u64, 0, 0xF10_1E7);
            // Fixed-at-arrival routing: HYB sees the flow's full size as
            // "bytes sent", picking ECMP for short flows, VLB for long.
            let links = self.selector.select(f.src_rack, f.dst_rack, key, f.bytes);
            let mut u = f.src_rack;
            for l in links {
                let link = self.links[l as usize];
                if link.a == u {
                    path.push(2 * l);
                    u = link.b;
                } else {
                    debug_assert_eq!(link.b, u);
                    path.push(2 * l + 1);
                    u = link.a;
                }
            }
            debug_assert_eq!(u, f.dst_rack);
        }
        path.push(self.host_base + 2 * f.dst_server + 1);
        path
    }

    /// Runs to completion (or `max_time_s`). Returns per-flow records in
    /// arrival order.
    pub fn run(&mut self, max_time_s: f64) -> Vec<FlowRecord> {
        let pending = std::mem::take(&mut self.pending);
        let mut fill = Waterfill::new(&self.cap);
        self.simulate(&pending, max_time_s, |active| fill.fill(active))
    }

    /// The event loop of [`FlowSim::run`], generic over the water-filling
    /// step so the unit tests can drive it with a reference solver.
    fn simulate(
        &self,
        pending: &[PendingFlow],
        max_time_s: f64,
        mut waterfill: impl FnMut(&mut [ActiveFlow]),
    ) -> Vec<FlowRecord> {
        let n = pending.len();
        let mut records: Vec<FlowRecord> = pending
            .iter()
            .map(|p| FlowRecord::basic((p.start_s * 1e9) as u64, p.bytes, None))
            .collect();
        let mut active: Vec<ActiveFlow> = Vec::new();
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;

        while now <= max_time_s && (next_arrival < n || !active.is_empty()) {
            waterfill(&mut active);
            let mut t_dep = f64::INFINITY;
            for f in &active {
                if f.rate_gbps > 1e-12 {
                    t_dep = t_dep.min(now + f.remaining_bits / (f.rate_gbps * 1e9));
                }
            }
            let t_arr = if next_arrival < n {
                pending[next_arrival].start_s
            } else {
                f64::INFINITY
            };
            let t_next = t_dep.min(t_arr);
            if !t_next.is_finite() {
                break; // active flows with zero rate and no arrivals left
            }
            if t_next > max_time_s {
                break; // next event lies beyond the horizon
            }
            let dt = (t_next - now).max(0.0);
            for f in &mut active {
                f.remaining_bits -= f.rate_gbps * 1e9 * dt;
            }
            now = t_next;
            if t_arr <= t_dep {
                let p = &pending[next_arrival];
                let path = self.build_path(p, next_arrival);
                active.push(ActiveFlow {
                    id: next_arrival,
                    remaining_bits: (p.bytes as f64) * 8.0,
                    path,
                    rate_gbps: 0.0,
                });
                next_arrival += 1;
            } else {
                let mut i = 0;
                while i < active.len() {
                    if active[i].remaining_bits <= 1e-6 {
                        let id = active[i].id;
                        records[id].fct_ns =
                            Some(((now - records[id].start_ns as f64 / 1e9) * 1e9).round() as u64);
                        active.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        records
    }

    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_routing::RoutingSuite;
    use dcn_topology::fattree::FatTree;
    use dcn_workloads::tm::Endpoint;

    fn flow(start_s: f64, src: (u32, u32), dst: (u32, u32), bytes: u64) -> FlowEvent {
        FlowEvent {
            start_s,
            src: Endpoint {
                rack: src.0,
                server: src.1,
            },
            dst: Endpoint {
                rack: dst.0,
                server: dst.1,
            },
            bytes,
        }
    }

    fn sim() -> FlowSim {
        let t = FatTree::full(4).build();
        let suite = RoutingSuite::new(&t);
        FlowSim::new(&t, Box::new(suite.ecmp()), FlowSimConfig::default())
    }

    #[test]
    fn lone_flow_gets_line_rate() {
        let mut s = sim();
        s.inject(&[flow(0.0, (0, 0), (12, 0), 10_000_000)]);
        let rec = s.run(100.0);
        // 10 MB at 10 Gbps = 8 ms exactly in the fluid model.
        let fct = rec[0].fct_ns.unwrap();
        assert!((fct as f64 - 8e6).abs() < 1e3, "fct {fct} ns");
    }

    #[test]
    fn two_flows_share_host_downlink() {
        let mut s = sim();
        s.inject(&[
            flow(0.0, (0, 0), (12, 0), 5_000_000),
            flow(0.0, (4, 0), (12, 0), 5_000_000),
        ]);
        let rec = s.run(100.0);
        // Shared 10 G downlink: each gets 5 Gbps → 8 ms.
        for r in &rec {
            let fct = r.fct_ns.unwrap();
            assert!((fct as f64 - 8e6).abs() < 1e3, "fct {fct} ns");
        }
    }

    #[test]
    fn short_flow_unaffected_by_disjoint_traffic() {
        let mut s = sim();
        s.inject(&[
            flow(0.0, (0, 0), (4, 0), 1_000_000),
            flow(0.0, (8, 1), (12, 1), 1_000_000),
        ]);
        let rec = s.run(100.0);
        for r in &rec {
            let fct = r.fct_ns.unwrap();
            assert!((fct as f64 - 0.8e6).abs() < 1e3, "fct {fct} ns");
        }
    }

    #[test]
    fn departure_releases_bandwidth() {
        // A 1 MB flow and a 5 MB flow share a downlink; after the short one
        // leaves, the long one speeds up: FCT < sequential, > fair-share.
        let mut s = sim();
        s.inject(&[
            flow(0.0, (0, 0), (12, 0), 1_000_000),
            flow(0.0, (4, 0), (12, 0), 5_000_000),
        ]);
        let rec = s.run(100.0);
        let f_short = rec[0].fct_ns.unwrap() as f64 / 1e6;
        let f_long = rec[1].fct_ns.unwrap() as f64 / 1e6;
        assert!((f_short - 1.6).abs() < 0.01, "short {f_short} ms"); // 1MB at 5G
                                                                     // Long: 1.6 ms at 5 G (1 MB done) + remaining 4 MB at 10 G = 4.8 ms.
        assert!((f_long - 4.8).abs() < 0.01, "long {f_long} ms");
    }

    #[test]
    fn late_arrival_preempts_fair_share() {
        let mut s = sim();
        s.inject(&[
            flow(0.0, (0, 0), (12, 0), 10_000_000),
            flow(0.004, (4, 0), (12, 0), 1_000_000),
        ]);
        let rec = s.run(100.0);
        // First is alone until 4 ms (5 MB done); they then share the
        // downlink at 5 Gbps each until the 1 MB flow leaves at 5.6 ms
        // (first now at 6 MB); the last 4 MB at 10 Gbps ends at 8.8 ms.
        let f1 = rec[1].fct_ns.unwrap() as f64 / 1e6;
        assert!((f1 - 1.6).abs() < 0.01, "second flow {f1} ms");
        let f0 = rec[0].fct_ns.unwrap() as f64 / 1e6;
        assert!((f0 - 8.8).abs() < 0.01, "first flow {f0} ms");
    }

    #[test]
    fn unfinished_flows_when_horizon_short() {
        let mut s = sim();
        s.inject(&[flow(0.0, (0, 0), (12, 0), 100_000_000)]);
        let rec = s.run(0.001);
        assert!(rec[0].fct_ns.is_none());
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut s = sim();
            s.inject(&[
                flow(0.0, (0, 0), (12, 0), 3_000_000),
                flow(0.001, (4, 1), (8, 0), 700_000),
            ]);
            s.run(100.0).iter().map(|r| r.fct_ns).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
