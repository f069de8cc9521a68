//! Sparse max-min water-filling (progressive filling) over the channels
//! that active flows actually cross.
//!
//! Each call touches only the channels on active flows' paths (`used`)
//! and, per round, only the flows that are still rising (`live`). Its
//! rates are bit-identical to dense progressive filling over every
//! channel: every live flow adds the same `inc` to its rate and subtracts
//! it from each channel it crosses, so a channel's residual after `k`
//! subtractions does not depend on flow order; a float minimum does not
//! depend on scan order; and the freeze pass reads `residual` without
//! writing it. The unit tests keep the dense version as an oracle.

use super::ActiveFlow;

/// Water-filling state reused across every call of one run. `residual`
/// and `flows_on` are sized to the channel count once; a call seeds and
/// resets only the entries listed in `used`.
pub(crate) struct Waterfill<'a> {
    cap: &'a [f64],
    residual: Vec<f64>,
    /// Unfrozen flows crossing each channel; zero outside `used`.
    flows_on: Vec<u32>,
    /// Channels that active flows cross, in first-touch order.
    used: Vec<u32>,
    /// Indices into `active` of the flows not yet frozen.
    live: Vec<u32>,
}

impl<'a> Waterfill<'a> {
    pub(crate) fn new(cap: &'a [f64]) -> Self {
        Waterfill {
            cap,
            residual: vec![0.0; cap.len()],
            flows_on: vec![0; cap.len()],
            used: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Sets every flow's `rate_gbps` to its max-min fair share: raise all
    /// unfrozen flows' rates together; freeze flows crossing a saturated
    /// channel; repeat. Costs rounds × (used channels + Σ live path
    /// lengths), independent of the fabric's size.
    pub(crate) fn fill(&mut self, active: &mut [ActiveFlow]) {
        for &c in &self.used {
            self.flows_on[c as usize] = 0;
        }
        self.used.clear();
        self.live.clear();
        for (i, f) in active.iter_mut().enumerate() {
            f.rate_gbps = 0.0;
            self.live.push(i as u32);
            for &c in &f.path {
                let c = c as usize;
                if self.flows_on[c] == 0 {
                    self.used.push(c as u32);
                    self.residual[c] = self.cap[c];
                }
                self.flows_on[c] += 1;
            }
        }
        while !self.live.is_empty() {
            let mut inc = f64::INFINITY;
            for &c in &self.used {
                let n = self.flows_on[c as usize];
                if n > 0 {
                    inc = inc.min(self.residual[c as usize] / n as f64);
                }
            }
            if !inc.is_finite() {
                break;
            }
            for &i in &self.live {
                let f = &mut active[i as usize];
                f.rate_gbps += inc;
                for &c in &f.path {
                    self.residual[c as usize] -= inc;
                }
            }
            let (residual, flows_on) = (&self.residual, &mut self.flows_on);
            self.live.retain(|&i| {
                let path = &active[i as usize].path;
                let saturated = path.iter().any(|&c| residual[c as usize] <= 1e-9);
                if saturated {
                    for &c in path {
                        flows_on[c as usize] -= 1;
                    }
                }
                !saturated
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowSim, FlowSimConfig, PendingFlow};
    use dcn_rng::Rng;
    use dcn_routing::{PathSelector, RoutingSuite, PAPER_Q_BYTES};
    use dcn_topology::fattree::FatTree;
    use dcn_topology::xpander::Xpander;
    use dcn_topology::Topology;
    use dcn_workloads::{generate_flows, PFabricWebSearch, Skew};

    /// The reference: dense progressive filling that clones the capacity
    /// vector and scans every channel each round.
    fn dense_waterfill(cap: &[f64], active: &mut [ActiveFlow]) {
        let mut residual = cap.to_vec();
        let mut flows_on = vec![0u32; cap.len()];
        for f in active.iter() {
            for &c in &f.path {
                flows_on[c as usize] += 1;
            }
        }
        let mut frozen = vec![false; active.len()];
        for f in active.iter_mut() {
            f.rate_gbps = 0.0;
        }
        let mut remaining = active.len();
        while remaining > 0 {
            let mut inc = f64::INFINITY;
            for (c, &n) in flows_on.iter().enumerate() {
                if n > 0 {
                    inc = inc.min(residual[c] / n as f64);
                }
            }
            if !inc.is_finite() {
                break;
            }
            for (i, f) in active.iter_mut().enumerate() {
                if !frozen[i] {
                    f.rate_gbps += inc;
                    for &c in &f.path {
                        residual[c as usize] -= inc;
                    }
                }
            }
            for i in 0..active.len() {
                if frozen[i] {
                    continue;
                }
                if active[i].path.iter().any(|&c| residual[c as usize] <= 1e-9) {
                    frozen[i] = true;
                    remaining -= 1;
                    for &c in &active[i].path {
                        flows_on[c as usize] -= 1;
                    }
                }
            }
        }
    }

    /// The topologies and routings the differential tests sweep.
    fn cases() -> Vec<(&'static str, Topology, u8)> {
        let ft4 = FatTree::full(4).build();
        let ft8 = FatTree::full(8).build();
        let xp = Xpander::for_switches(6, 77, 6, 1).build();
        vec![
            ("fat-tree k=4 ecmp", ft4, 0),
            ("fat-tree k=8 ecmp", ft8, 0),
            ("xpander(6,77,6) vlb", xp.clone(), 1),
            ("xpander(6,77,6) hyb", xp, 2),
        ]
    }

    fn selector(t: &Topology, routing: u8) -> Box<dyn PathSelector> {
        let suite = RoutingSuite::new(t);
        match routing {
            0 => Box::new(suite.ecmp()),
            1 => Box::new(suite.vlb()),
            _ => Box::new(suite.hyb(PAPER_Q_BYTES)),
        }
    }

    /// A random flow. Some share a rack (a 2-channel path) and some reuse
    /// an active flow's source or destination server (a shared server
    /// channel).
    fn random_flow(
        rng: &mut Rng,
        t: &Topology,
        sim: &FlowSim,
        active: &[ActiveFlow],
        id: usize,
    ) -> ActiveFlow {
        let racks = t.tors_with_servers();
        let server = |rng: &mut Rng, rack: u32| {
            sim.rack_base[rack as usize] + rng.gen_range(0..t.servers_at(rack))
        };
        let src_rack = racks[rng.gen_range(0..racks.len())];
        let src_server = server(rng, src_rack);
        let dst_rack = if rng.gen_bool(0.15) {
            src_rack
        } else {
            racks[rng.gen_range(0..racks.len())]
        };
        let dst_server = server(rng, dst_rack);
        let p = PendingFlow {
            start_s: 0.0,
            src_rack,
            dst_rack,
            src_server,
            dst_server,
            bytes: rng.gen_range(1_000..10_000_000),
        };
        let mut path = sim.build_path(&p, id);
        if !active.is_empty() && rng.gen_bool(0.3) {
            // Share an active flow's first or last server channel.
            let other = &active[rng.gen_range(0..active.len())].path;
            if rng.gen_bool(0.5) {
                path[0] = other[0];
            } else {
                *path.last_mut().unwrap() = *other.last().unwrap();
            }
        }
        ActiveFlow {
            id,
            remaining_bits: 0.0,
            path,
            rate_gbps: 0.0,
        }
    }

    /// Random arrival/departure sequences over one reused `Waterfill`:
    /// after every change, calls `check` with the sparse rates in place.
    fn sweep(seed: u64, mut check: impl FnMut(&str, &[f64], &[ActiveFlow], &[u64])) {
        let mut rng = Rng::seed_from_u64(seed);
        for (name, t, routing) in cases() {
            let sim = FlowSim::new(&t, selector(&t, routing), FlowSimConfig::default());
            let mut fill = Waterfill::new(&sim.cap);
            let mut active: Vec<ActiveFlow> = Vec::new();
            for step in 0..150 {
                if active.is_empty() || rng.gen_bool(0.6) {
                    let f = random_flow(&mut rng, &t, &sim, &active, step);
                    active.push(f);
                } else {
                    active.swap_remove(rng.gen_range(0..active.len()));
                }
                dense_waterfill(&sim.cap, &mut active);
                let dense: Vec<u64> = active.iter().map(|f| f.rate_gbps.to_bits()).collect();
                fill.fill(&mut active);
                check(name, &sim.cap, &active, &dense);
            }
        }
    }

    #[test]
    fn sparse_rates_match_dense_bit_for_bit() {
        let mut sets = 0;
        sweep(0x5A7E, |name, _, active, dense| {
            sets += 1;
            for (f, &d) in active.iter().zip(dense) {
                assert_eq!(
                    f.rate_gbps.to_bits(),
                    d,
                    "{name}: flow {} sparse {} vs dense {}",
                    f.id,
                    f.rate_gbps,
                    f64::from_bits(d)
                );
            }
        });
        assert_eq!(sets, 600);
    }

    /// Max-min fairness: no channel is over its capacity, and every flow
    /// crosses a saturated channel on which no other flow is faster.
    #[test]
    fn rates_are_max_min_fair() {
        sweep(0xFA1E, |name, cap, active, _| {
            let mut load = vec![0.0f64; cap.len()];
            let mut fastest = vec![0.0f64; cap.len()];
            for f in active {
                assert!(f.rate_gbps > 0.0, "{name}: flow {} starved", f.id);
                for &c in &f.path {
                    load[c as usize] += f.rate_gbps;
                    fastest[c as usize] = fastest[c as usize].max(f.rate_gbps);
                }
            }
            for f in active {
                for &c in &f.path {
                    let c = c as usize;
                    assert!(
                        load[c] <= cap[c] + 1e-9,
                        "{name}: channel {c} over capacity"
                    );
                }
                let bottleneck = f.path.iter().any(|&c| {
                    let c = c as usize;
                    load[c] >= cap[c] - 1e-9 && f.rate_gbps >= fastest[c]
                });
                assert!(bottleneck, "{name}: flow {} has no bottleneck", f.id);
            }
        });
    }

    /// Whole runs on a seeded Skew workload: the sparse solver's records
    /// equal the dense solver's.
    #[test]
    fn run_records_match_dense() {
        for (name, t, routing) in cases() {
            let pattern = Skew::projector_like(&t, t.tors_with_servers(), 3);
            // About 400 arrivals at 40 flow starts per server per second.
            let rate = 40.0 * t.num_servers() as f64;
            let flows = generate_flows(&pattern, &PFabricWebSearch::new(), rate, 400.0 / rate, 3);
            let mut sim = FlowSim::new(&t, selector(&t, routing), FlowSimConfig::default());
            sim.inject(&flows);
            let pending = std::mem::take(&mut sim.pending);
            let dense = sim.simulate(&pending, 100.0, |a| dense_waterfill(&sim.cap, a));
            sim.pending = pending;
            let sparse = sim.run(100.0);
            assert!(sparse.len() > 300, "{name}: only {} flows", sparse.len());
            assert!(
                sparse.iter().all(|r| r.fct_ns.is_some()),
                "{name}: unfinished"
            );
            assert_eq!(sparse, dense, "{name}");
        }
    }
}
