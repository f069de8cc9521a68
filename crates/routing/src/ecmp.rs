//! Equal-cost multi-path routing over all shortest paths, with
//! deterministic per-hop hashing — the behavior of a commodity switch
//! hashing a flow(let) onto one of its equal-cost ports.
//!
//! The table stores the n×n hop-distance matrix of
//! [`Topology::hop_distances`] (n² bytes) and a flat copy of the
//! adjacency; next hops are derived per walk. At node `u`
//! toward `dst` the equal-cost choices are `u`'s neighbours `v` with
//! `dist(v, dst) + 1 == dist(u, dst)`, in adjacency order.

use dcn_topology::{HopDistances, LinkId, NodeId, Topology};

/// ECMP routing state: hop distances from every node to every
/// destination, plus the adjacency the next hops are derived from.
/// Parallel links appear once each among the choices, so hashing over
/// them load-balances parallel links too.
pub struct EcmpTable {
    /// Hop distances; row `dst` holds every node's distance to `dst`
    /// (the matrix is symmetric), one byte per pair.
    dist: HopDistances,
    /// CSR adjacency: `node`'s `(neighbour, link)` pairs are
    /// `adj[offsets[node]..offsets[node + 1]]`, in topology order.
    offsets: Vec<u32>,
    adj: Vec<(NodeId, LinkId)>,
}

impl EcmpTable {
    /// Builds the table from the bit-parallel all-pairs kernel:
    /// O(D·(V+2E)·V/64) time for diameter D, V² bytes of distances.
    pub fn new(t: &Topology) -> Self {
        let n = t.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        offsets.push(0);
        for u in 0..n as NodeId {
            adj.extend_from_slice(t.neighbors(u));
            offsets.push(adj.len() as u32);
        }
        EcmpTable {
            dist: t.hop_distances(),
            offsets,
            adj,
        }
    }

    fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        let u = node as usize;
        &self.adj[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// All equal-cost `(next node, link)` choices at `node` toward `dst`,
    /// in adjacency order — empty when `node == dst` or `dst` is
    /// unreachable.
    pub fn choices(
        &self,
        node: NodeId,
        dst: NodeId,
    ) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        let row = self.dist.row(dst);
        let du = row[node as usize];
        let nbrs = if du == 0 || du == HopDistances::UNREACHABLE {
            &[][..]
        } else {
            self.neighbors(node)
        };
        nbrs.iter()
            .copied()
            .filter(move |&(v, _)| row[v as usize] == du - 1)
    }

    /// Hop distance from `node` to `dst`.
    pub fn distance(&self, node: NodeId, dst: NodeId) -> u32 {
        self.dist.get(dst, node)
    }

    /// Walks the per-hop hash-selected shortest path from `src` to `dst`.
    /// `key` identifies the flow(let); every switch hashes `(key, node)`
    /// independently, like real ECMP. Returns the traversed links, or an
    /// empty vector when `dst` is unreachable (a partitioned survivor
    /// topology) — callers treat that as "no route", not "zero hops".
    pub fn path(&self, src: NodeId, dst: NodeId, key: u64) -> Vec<LinkId> {
        let hops = self.distance(src, dst);
        if hops == u32::MAX {
            return Vec::new();
        }
        let mut links = Vec::with_capacity(hops as usize);
        let mut u = src;
        while u != dst {
            // Count the choices, keeping the first so pick 0 needs no
            // second scan.
            let mut choices = self.choices(u, dst);
            let first = choices.next().expect("a reachable node has a next hop");
            let count = 1 + choices.count() as u64;
            let (v, l) = match hash3(key, u as u64, dst as u64) % count {
                0 => first,
                pick => self
                    .choices(u, dst)
                    .nth(pick as usize)
                    .expect("pick < count"),
            };
            links.push(l);
            u = v;
        }
        links
    }

    /// Number of distinct equal-cost *first hops* from `src` toward `dst`
    /// (Fig 7a's "ECMP uses only the direct link" audit).
    pub fn first_hop_diversity(&self, src: NodeId, dst: NodeId) -> usize {
        self.choices(src, dst).count()
    }
}

/// splitmix64-style mix of three words — stable across platforms.
pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17) ^ 0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::FatTree;
    use dcn_topology::xpander::Xpander;

    #[test]
    fn paths_are_shortest() {
        let t = FatTree::full(4).build();
        let table = EcmpTable::new(&t);
        let apsp = t.hop_distances();
        for src in [0u32, 1, 4] {
            for dst in [8u32, 12, 13] {
                for key in 0..20u64 {
                    let p = table.path(src, dst, key);
                    assert_eq!(p.len() as u32, apsp.get(src, dst));
                    // Verify link continuity.
                    let mut u = src;
                    for &l in &p {
                        u = t.link(l).other(u);
                    }
                    assert_eq!(u, dst);
                }
            }
        }
    }

    #[test]
    fn same_key_same_path() {
        let t = FatTree::full(4).build();
        let table = EcmpTable::new(&t);
        assert_eq!(table.path(0, 12, 5), table.path(0, 12, 5));
    }

    #[test]
    fn different_keys_spread_over_paths() {
        let t = FatTree::full(8).build();
        let table = EcmpTable::new(&t);
        let mut distinct = std::collections::HashSet::new();
        for key in 0..200u64 {
            distinct.insert(table.path(0, 40, key));
        }
        // k=8 fat-tree has 16 shortest paths between cross-pod ToRs.
        assert!(distinct.len() > 8, "only {} distinct paths", distinct.len());
    }

    #[test]
    fn adjacent_tors_have_single_ecmp_path() {
        // Fig 7a: between directly connected ToRs in an expander, ECMP
        // collapses to the single direct link.
        let t = Xpander::new(6, 8, 3, 2).build();
        let table = EcmpTable::new(&t);
        let l = t.link(0);
        assert_eq!(table.first_hop_diversity(l.a, l.b), 1);
        for key in 0..50u64 {
            assert_eq!(table.path(l.a, l.b, key), vec![0]);
        }
    }

    #[test]
    fn fat_tree_cross_pod_diversity() {
        let t = FatTree::full(4).build();
        let table = EcmpTable::new(&t);
        // ToR 0 toward a different pod: both aggs are equal-cost.
        assert_eq!(table.first_hop_diversity(0, 12), 2);
    }

    #[test]
    fn distance_lookup() {
        let t = FatTree::full(4).build();
        let table = EcmpTable::new(&t);
        assert_eq!(table.distance(0, 0), 0);
        assert_eq!(table.distance(0, 1), 2); // same pod via agg
        assert_eq!(table.distance(0, 12), 4); // cross pod
    }

    #[test]
    fn unreachable_pair_yields_empty_path() {
        use dcn_topology::{NodeKind, Topology};
        let mut t = Topology::new("islands");
        let a = t.add_node(NodeKind::Tor, 1);
        let b = t.add_node(NodeKind::Tor, 1);
        t.add_node(NodeKind::Tor, 1);
        t.add_link(a, b);
        let table = EcmpTable::new(&t);
        assert!(table.path(0, 2, 5).is_empty());
        assert_eq!(table.distance(0, 2), u32::MAX);
        assert!(!table.path(0, 1, 5).is_empty());
    }

    #[test]
    fn hash_is_stable() {
        // Regression pin so routing (and thus experiments) never silently
        // change across refactors.
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(1, 2, 4));
        assert_ne!(hash3(1, 2, 3), hash3(2, 1, 3));
    }
}
