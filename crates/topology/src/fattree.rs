//! k-ary fat-tree construction (Al-Fares et al., SIGCOMM 2008) with the
//! oversubscription variants used in the paper's §2.1 and §6.
//!
//! A full-bandwidth fat-tree with parameter `k` (even) has `k` pods, each
//! with `k/2` edge (ToR) and `k/2` aggregation switches, plus `(k/2)^2` core
//! switches; each edge switch hosts `k/2` servers. Total: `5k^2/4` switches
//! and `k^3/4` servers, all switches with `k` ports.

use crate::graph::{NodeId, NodeKind, Topology};

/// Builder for full and oversubscribed fat-trees.
#[derive(Clone, Copy, Debug)]
pub struct FatTree {
    /// Port count `k` of every switch; must be even and ≥ 4.
    pub k: u32,
    /// Core switches kept per aggregation group (≤ k/2). `k/2` = full
    /// bandwidth; fewer oversubscribes the agg→core stage (Fig 1 removes
    /// one root switch this way).
    pub core_per_group: u32,
    /// Servers attached to each edge switch (default `k/2`). More than
    /// `k/2` oversubscribes at the ToR.
    pub servers_per_edge: u32,
    /// Aggregation switches kept per pod (≤ k/2). Trimming this (together
    /// with the core) is how the paper's "77% fat-tree" reaches a target
    /// cost: each edge switch then uses only this many of its uplinks.
    pub aggs_per_pod: u32,
}

impl FatTree {
    /// Full-bandwidth fat-tree with parameter `k`.
    pub fn full(k: u32) -> Self {
        assert!(
            k >= 4 && k.is_multiple_of(2),
            "fat-tree requires even k >= 4, got {k}"
        );
        FatTree {
            k,
            core_per_group: k / 2,
            servers_per_edge: k / 2,
            aggs_per_pod: k / 2,
        }
    }

    /// Fat-tree oversubscribed at the core: each aggregation group keeps
    /// only `core_per_group` of its `k/2` core switches.
    pub fn oversubscribed_core(k: u32, core_per_group: u32) -> Self {
        let mut ft = Self::full(k);
        assert!(core_per_group >= 1 && core_per_group <= k / 2);
        ft.core_per_group = core_per_group;
        ft
    }

    /// Fat-tree oversubscribed at the ToR: `servers_per_edge` servers share
    /// the edge switch's `k/2` uplinks.
    pub fn oversubscribed_tor(k: u32, servers_per_edge: u32) -> Self {
        let mut ft = Self::full(k);
        assert!(servers_per_edge >= 1);
        ft.servers_per_edge = servers_per_edge;
        ft
    }

    /// Oversubscribed fat-tree hitting (approximately) `fraction` of the
    /// full fat-tree's switch cost by trimming aggregation and core
    /// layers — the construction behind Fig 11's "77%-fat-tree". Panics if
    /// the target is below the cheapest valid configuration.
    pub fn at_cost_fraction(k: u32, fraction: f64) -> Self {
        let full = Self::full(k);
        let target = full.num_switches() as f64 * fraction;
        let mut best: Option<(f64, FatTree)> = None;
        for a in 1..=k / 2 {
            for c in 1..=k / 2 {
                let mut ft = Self::full(k);
                ft.aggs_per_pod = a;
                ft.core_per_group = c;
                let err = (ft.num_switches() as f64 - target).abs();
                // Never exceed the budget; pick the closest under it.
                if ft.num_switches() as f64 <= target + 0.5
                    && best.as_ref().is_none_or(|(e, _)| err < *e)
                {
                    best = Some((err, ft));
                }
            }
        }
        best.expect("no fat-tree configuration under the cost target")
            .1
    }

    /// Number of switches this configuration instantiates.
    pub fn num_switches(&self) -> usize {
        let k = self.k as usize;
        k * (k / 2) // edge
            + k * self.aggs_per_pod as usize
            + self.aggs_per_pod as usize * self.core_per_group as usize
    }

    /// Number of servers this configuration supports.
    pub fn num_servers(&self) -> usize {
        let k = self.k as usize;
        k * (k / 2) * self.servers_per_edge as usize
    }

    /// Fraction of full core capacity retained (the `x` of Observation 1
    /// when oversubscribing at the core).
    pub fn core_capacity_fraction(&self) -> f64 {
        self.core_per_group as f64 / (self.k as f64 / 2.0)
    }

    /// Builds the topology. Node layout: for each pod `p`, its `k/2` edge
    /// switches then its `aggs_per_pod` aggregation switches; core switches
    /// last. Edge and aggregation switches carry `group = pod index`.
    pub fn build(&self) -> Topology {
        let k = self.k;
        let h = k / 2; // half of the ports
        let mut t = Topology::new(format!(
            "fat-tree(k={k}, aggs/pod={}, core/group={}, servers/edge={})",
            self.aggs_per_pod, self.core_per_group, self.servers_per_edge
        ));

        let mut edges: Vec<Vec<NodeId>> = Vec::with_capacity(k as usize);
        let mut aggs: Vec<Vec<NodeId>> = Vec::with_capacity(k as usize);
        for pod in 0..k {
            let e: Vec<NodeId> = (0..h)
                .map(|_| {
                    let n = t.add_node(NodeKind::Tor, self.servers_per_edge);
                    t.set_group(n, pod);
                    n
                })
                .collect();
            let a: Vec<NodeId> = (0..self.aggs_per_pod)
                .map(|_| {
                    let n = t.add_node(NodeKind::Aggregation, 0);
                    t.set_group(n, pod);
                    n
                })
                .collect();
            for &ei in &e {
                for &ai in &a {
                    t.add_link(ei, ai);
                }
            }
            edges.push(e);
            aggs.push(a);
        }

        // Core group g serves aggregation switch g of every pod.
        for g in 0..self.aggs_per_pod {
            for _ in 0..self.core_per_group {
                let c = t.add_node(NodeKind::Core, 0);
                for pod_aggs in aggs.iter().take(k as usize) {
                    t.add_link(c, pod_aggs[g as usize]);
                }
            }
        }
        t
    }
}

/// Edge-switch ids of a *full* fat-tree built by [`FatTree::build`],
/// grouped by pod. For trimmed variants use [`FatTree::edge_switches`].
pub fn edge_switches_by_pod(k: u32) -> Vec<Vec<NodeId>> {
    FatTree::full(k).edge_switches()
}

impl FatTree {
    /// Edge-switch ids grouped by pod, matching [`FatTree::build`]'s layout.
    pub fn edge_switches(&self) -> Vec<Vec<NodeId>> {
        let h = self.k / 2;
        let per_pod = h + self.aggs_per_pod;
        (0..self.k)
            .map(|pod| {
                let base = pod * per_pod;
                (0..h).map(|i| base + i).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    #[test]
    fn full_k4_shape() {
        let ft = FatTree::full(4);
        let t = ft.build();
        assert_eq!(t.num_nodes(), 20); // 8 edge + 8 agg + 4 core
        assert_eq!(t.num_servers(), 16);
        assert_eq!(ft.num_switches(), 20);
        assert_eq!(ft.num_servers(), 16);
        // Every switch uses exactly k ports (links + servers).
        for n in 0..t.num_nodes() as u32 {
            let ports = t.degree(n) + t.servers_at(n) as usize;
            assert_eq!(ports, 4, "switch {n} has {ports} ports used");
        }
        assert!(t.is_connected());
    }

    #[test]
    fn full_k8_counts() {
        let t = FatTree::full(8).build();
        assert_eq!(t.num_nodes(), 80);
        assert_eq!(t.num_servers(), 128);
        assert_eq!(t.num_links(), 8 * 4 * 4 + 16 * 8); // edge-agg + core-agg
    }

    #[test]
    fn paper_k16_baseline() {
        // §6.4: "k=16, 1024 servers, 320 switches, each with 16 10 Gbps ports"
        let ft = FatTree::full(16);
        assert_eq!(ft.num_switches(), 320);
        assert_eq!(ft.num_servers(), 1024);
    }

    #[test]
    fn diameter_is_six_hops_server_to_server() {
        // Switch-level diameter of a fat-tree is 4 (edge-agg-core-agg-edge).
        let t = FatTree::full(4).build();
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 4);
    }

    #[test]
    fn oversubscribed_core_removes_roots() {
        // Fig 1: k=4 fat-tree with one root removed retains >75% capacity.
        let ft = FatTree::oversubscribed_core(4, 1);
        let t = ft.build();
        assert_eq!(t.num_nodes(), 18);
        let full = FatTree::full(4).build();
        // Counting server links as the paper does, >75% of capacity remains
        // (switch-switch capacity alone is exactly 75%).
        let frac = (t.total_capacity() + t.num_servers() as f64)
            / (full.total_capacity() + full.num_servers() as f64);
        assert!(frac > 0.75, "capacity fraction {frac}");
        assert_eq!(ft.core_capacity_fraction(), 0.5);
    }

    #[test]
    fn oversubscribed_tor_adds_servers() {
        let ft = FatTree::oversubscribed_tor(4, 4);
        let t = ft.build();
        assert_eq!(t.num_servers(), 32);
        assert_eq!(ft.core_capacity_fraction(), 1.0);
    }

    #[test]
    fn edge_switch_lookup_matches_build() {
        let t = FatTree::full(6).build();
        for (pod, edges) in edge_switches_by_pod(6).into_iter().enumerate() {
            for e in edges {
                assert_eq!(t.kind(e), NodeKind::Tor);
                assert_eq!(t.group(e), Some(pod as u32));
            }
        }
    }

    #[test]
    fn cost_fraction_fat_tree() {
        // Fig 11's 77%-fat-tree at k=16: 6 aggs/pod + 4 cores/group
        // reaches 248 of 320 switches (77.5%).
        let ft = FatTree::at_cost_fraction(16, 0.78);
        assert!(ft.num_switches() <= 250);
        assert!(ft.num_switches() >= 240, "{}", ft.num_switches());
        let t = ft.build();
        assert_eq!(t.num_nodes(), ft.num_switches());
        assert_eq!(t.num_servers(), 1024); // servers untouched
        assert!(t.is_connected());
        // No switch exceeds its port budget.
        for n in 0..t.num_nodes() as u32 {
            assert!(t.degree(n) + t.servers_at(n) as usize <= 16);
        }
    }

    #[test]
    fn trimmed_edge_switch_lookup() {
        let ft = FatTree::at_cost_fraction(8, 0.8);
        let t = ft.build();
        for (pod, edges) in ft.edge_switches().into_iter().enumerate() {
            assert_eq!(edges.len(), 4);
            for e in edges {
                assert_eq!(t.kind(e), NodeKind::Tor);
                assert_eq!(t.group(e), Some(pod as u32));
            }
        }
    }

    #[test]
    fn core_connects_every_pod() {
        let t = FatTree::full(6).build();
        for n in 0..t.num_nodes() as u32 {
            if t.kind(n) == NodeKind::Core {
                let mut pods: Vec<_> = t
                    .neighbors(n)
                    .iter()
                    .map(|&(v, _)| t.group(v).unwrap())
                    .collect();
                pods.sort_unstable();
                assert_eq!(pods, (0..6).collect::<Vec<_>>());
            }
        }
    }
}
