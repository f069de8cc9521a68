//! Longhop: Cayley graphs over F₂^m derived from error-correcting codes
//! (Tomic, ANCS 2013). A hypercube's m "short hop" generators are augmented
//! with "long hop" generators that slash the diameter.
//!
//! The paper's Fig 5b instance has 512 ToRs with 10 network ports and 8
//! servers each: F₂⁹ with the 9 unit vectors plus one long hop. With a
//! single long hop the optimal choice is the all-ones vector (the folded
//! hypercube); for more ports we pick long hops greedily to minimize the
//! average shortest path, mirroring Tomic's code-derived optimal sets.

use crate::graph::{NodeKind, Topology};
use std::collections::VecDeque;

/// A Cayley-graph topology on F₂^m with an explicit generator set.
#[derive(Clone, Debug)]
pub struct Longhop {
    /// Dimension: the network has 2^m switches.
    pub m: u32,
    /// Generator set (nonzero bitmasks). x ~ x⊕g for every g.
    pub generators: Vec<u32>,
    pub servers_per_switch: u32,
}

impl Longhop {
    /// Plain m-dimensional hypercube.
    pub fn hypercube(m: u32, servers_per_switch: u32) -> Self {
        Longhop {
            m,
            generators: (0..m).map(|i| 1 << i).collect(),
            servers_per_switch,
        }
    }

    /// Folded hypercube: hypercube plus the all-ones long hop.
    pub fn folded_hypercube(m: u32, servers_per_switch: u32) -> Self {
        let mut g = Self::hypercube(m, servers_per_switch);
        g.generators.push((1u32 << m) - 1);
        g
    }

    /// Longhop network with `degree ≥ m` generators: the m unit vectors
    /// plus greedily chosen long hops minimizing average shortest path.
    pub fn greedy(m: u32, degree: u32, servers_per_switch: u32) -> Self {
        assert!(degree >= m, "degree {degree} below hypercube dimension {m}");
        let mut gens: Vec<u32> = (0..m).map(|i| 1 << i).collect();
        let all = 1u32 << m;
        while (gens.len() as u32) < degree {
            let mut best: Option<(f64, u32)> = None;
            for cand in 1..all {
                if gens.contains(&cand) {
                    continue;
                }
                let mut trial = gens.clone();
                trial.push(cand);
                let apl = cayley_avg_path(m, &trial);
                if best.is_none_or(|(b, _)| apl < b) {
                    best = Some((apl, cand));
                }
            }
            gens.push(best.expect("no candidate generator").1);
        }
        Longhop {
            m,
            generators: gens,
            servers_per_switch,
        }
    }

    /// The paper's Fig 5b instance: 512 ToRs, 10 network ports, 8 servers.
    pub fn paper_fig5b() -> Self {
        Self::folded_hypercube(9, 8)
    }

    pub fn num_switches(&self) -> usize {
        1usize << self.m
    }

    pub fn build(&self) -> Topology {
        let n = 1u32 << self.m;
        for &g in &self.generators {
            assert!(
                g != 0 && g < n,
                "generator {g:#x} out of range for m={}",
                self.m
            );
        }
        let mut t = Topology::new(format!(
            "longhop(m={}, d={}, s={})",
            self.m,
            self.generators.len(),
            self.servers_per_switch
        ));
        for _ in 0..n {
            t.add_node(NodeKind::Tor, self.servers_per_switch);
        }
        for x in 0..n {
            for &g in &self.generators {
                let y = x ^ g;
                if x < y {
                    t.add_link(x, y);
                }
            }
        }
        t
    }
}

/// Average shortest-path length of the Cayley graph on F₂^m with the given
/// generators, using vertex transitivity: one BFS from 0 suffices.
pub fn cayley_avg_path(m: u32, generators: &[u32]) -> f64 {
    let n = 1usize << m;
    let mut dist = vec![u32::MAX; n];
    dist[0] = 0;
    let mut q = VecDeque::new();
    q.push_back(0u32);
    while let Some(x) = q.pop_front() {
        let dx = dist[x as usize];
        for &g in generators {
            let y = (x ^ g) as usize;
            if dist[y] == u32::MAX {
                dist[y] = dx + 1;
                q.push_back(y as u32);
            }
        }
    }
    let sum: u64 = dist.iter().map(|&d| d as u64).sum();
    sum as f64 / (n as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_shape() {
        let t = Longhop::hypercube(4, 2).build();
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_links(), 32); // 16 * 4 / 2
        for n in 0..16u32 {
            assert_eq!(t.degree(n), 4);
        }
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 4);
    }

    #[test]
    fn folded_hypercube_halves_diameter() {
        let t = Longhop::folded_hypercube(4, 1).build();
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 2); // ceil(4/2)
    }

    #[test]
    fn paper_fig5b_config() {
        let lh = Longhop::paper_fig5b();
        assert_eq!(lh.num_switches(), 512);
        assert_eq!(lh.generators.len(), 10);
        let t = lh.build();
        assert_eq!(t.num_servers(), 512 * 8);
        for n in 0..512u32 {
            assert_eq!(t.degree(n), 10);
        }
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 5); // folded 9-cube: ceil(9/2)
    }

    #[test]
    fn greedy_beats_hypercube() {
        let hyper = cayley_avg_path(5, &Longhop::hypercube(5, 1).generators);
        let greedy = Longhop::greedy(5, 7, 1);
        let better = cayley_avg_path(5, &greedy.generators);
        assert!(
            better < hyper,
            "greedy {better} not below hypercube {hyper}"
        );
        assert_eq!(greedy.generators.len(), 7);
    }

    #[test]
    fn greedy_first_pick_is_all_ones() {
        // With one extra generator the folded hypercube is optimal, and
        // greedy should find it.
        let g = Longhop::greedy(4, 5, 1);
        assert!(g.generators.contains(&0b1111));
    }

    #[test]
    fn vertex_transitive_bfs_matches_full_apsp() {
        let lh = Longhop::folded_hypercube(5, 1);
        let t = lh.build();
        let apsp = t.hop_distances();
        let n = t.num_nodes();
        let total: u64 = apsp.as_slice().iter().map(|&d| d as u64).sum();
        let apl = total as f64 / (n as f64 * (n as f64 - 1.0));
        let fast = cayley_avg_path(5, &lh.generators);
        assert!((apl - fast).abs() < 1e-9);
    }
}
