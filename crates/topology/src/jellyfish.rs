//! Jellyfish: a random regular graph of top-of-rack switches
//! (Singla et al., NSDI 2012), built with the paper's incremental
//! construction plus the rewiring step that absorbs leftover free ports.

use crate::graph::{NodeId, NodeKind, Topology};
use dcn_rng::{Rng, SliceRandom};

/// Configuration of a Jellyfish network.
#[derive(Clone, Copy, Debug)]
pub struct Jellyfish {
    /// Number of ToR switches.
    pub switches: u32,
    /// Network ports per switch (target degree of the random regular graph).
    pub net_degree: u32,
    /// Servers attached to each switch.
    pub servers_per_switch: u32,
    /// RNG seed; same seed ⇒ identical topology.
    pub seed: u64,
}

impl Jellyfish {
    pub fn new(switches: u32, net_degree: u32, servers_per_switch: u32, seed: u64) -> Self {
        assert!(
            switches as u64 > net_degree as u64,
            "need more switches than degree"
        );
        assert!(
            (switches as u64 * net_degree as u64).is_multiple_of(2),
            "switches * degree must be even"
        );
        Jellyfish {
            switches,
            net_degree,
            servers_per_switch,
            seed,
        }
    }

    /// Builds the random regular graph. Guaranteed simple (no parallel
    /// links, no self loops) and, for the parameter ranges used in the
    /// paper (degree ≥ 3), connected with overwhelming probability; the
    /// builder retries with a derived seed in the rare failure case.
    pub fn build(&self) -> Topology {
        for attempt in 0..64u64 {
            if let Some(t) = self.try_build(self.seed.wrapping_add(attempt * 0x9E37_79B9)) {
                if t.is_connected() {
                    return t;
                }
            }
        }
        panic!("jellyfish construction failed for {self:?}");
    }

    fn try_build(&self, seed: u64) -> Option<Topology> {
        let n = self.switches;
        let d = self.net_degree;
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = Topology::new(format!(
            "jellyfish(n={n}, d={d}, s={}, seed={})",
            self.servers_per_switch, self.seed
        ));
        for _ in 0..n {
            t.add_node(NodeKind::Tor, self.servers_per_switch);
        }

        let mut free: Vec<u32> = vec![d; n as usize];
        // Candidate pool of nodes with free ports.
        let mut pool: Vec<NodeId> = (0..n).collect();

        // Phase 1: randomly join free-port pairs until no progress.
        let mut stall = 0usize;
        while pool.len() > 1 && stall < 200 {
            let i = rng.gen_range(0..pool.len());
            let mut j = rng.gen_range(0..pool.len() - 1);
            if j >= i {
                j += 1;
            }
            let (u, v) = (pool[i], pool[j]);
            if !t.are_adjacent(u, v) {
                t.add_link(u, v);
                for x in [u, v] {
                    free[x as usize] -= 1;
                }
                pool.retain(|&x| free[x as usize] > 0);
                stall = 0;
            } else {
                stall += 1;
            }
        }

        // Phase 2: Jellyfish rewiring — a node with ≥2 free ports steals a
        // random existing edge (u,v), connecting itself to both endpoints.
        let mut guard = 0usize;
        loop {
            pool = (0..n).filter(|&x| free[x as usize] > 0).collect();
            let two_free: Vec<NodeId> = pool
                .iter()
                .copied()
                .filter(|&x| free[x as usize] >= 2)
                .collect();
            if two_free.is_empty() {
                break;
            }
            guard += 1;
            if guard > 100_000 {
                return None;
            }
            let &w = two_free.choose(&mut rng).unwrap();
            // Rebuild is easier than in-place deletion: collect edges, drop
            // one not incident to w, reconstruct.
            let mut edges: Vec<(NodeId, NodeId)> = t.links().iter().map(|l| (l.a, l.b)).collect();
            let candidates: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| {
                    a != w && b != w && !t.are_adjacent(w, a) && !t.are_adjacent(w, b)
                })
                .map(|(i, _)| i)
                .collect();
            let &idx = candidates.choose(&mut rng)?;
            let (a, b) = edges.remove(idx);
            edges.push((w, a));
            edges.push((w, b));
            free[w as usize] -= 2;

            let mut nt = Topology::new(t.name().to_string());
            for _ in 0..n {
                nt.add_node(NodeKind::Tor, self.servers_per_switch);
            }
            for (x, y) in edges {
                nt.add_link(x, y);
            }
            t = nt;
        }

        // At most one node may keep a single dangling free port (odd cases
        // are excluded by the evenness assertion; a single leftover can
        // remain when phase 1 ends with two adjacent nodes).
        if free.iter().filter(|&&f| f > 0).count() > 1 {
            return None;
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_and_connected() {
        let t = Jellyfish::new(50, 5, 4, 7).build();
        assert_eq!(t.num_nodes(), 50);
        assert!(t.is_connected());
        let mut deficient = 0;
        for n in 0..50u32 {
            assert!(t.degree(n) <= 5);
            if t.degree(n) < 5 {
                deficient += 1;
            }
            assert!(t.multiplicity(n, (n + 1) % 50) <= 1);
        }
        assert!(deficient <= 1, "{deficient} switches below target degree");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Jellyfish::new(40, 4, 2, 99).build();
        let b = Jellyfish::new(40, 4, 2, 99).build();
        let ea: Vec<_> = a.links().iter().map(|l| (l.a, l.b)).collect();
        let eb: Vec<_> = b.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Jellyfish::new(40, 4, 2, 1).build();
        let b = Jellyfish::new(40, 4, 2, 2).build();
        let ea: Vec<_> = a.links().iter().map(|l| (l.a, l.b)).collect();
        let eb: Vec<_> = b.links().iter().map(|l| (l.a, l.b)).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn simple_graph_no_parallel_edges() {
        let t = Jellyfish::new(30, 6, 3, 3).build();
        for a in 0..30u32 {
            for b in (a + 1)..30u32 {
                assert!(t.multiplicity(a, b) <= 1);
            }
        }
    }

    #[test]
    fn low_diameter_like_an_expander() {
        // 100 nodes at degree 8: expander diameter should be tiny.
        let t = Jellyfish::new(100, 8, 4, 11).build();
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert!(diam <= 4, "diameter {diam} too large for an expander");
    }
}
