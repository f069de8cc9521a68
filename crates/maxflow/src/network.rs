//! Directed flow-network view of an undirected [`Topology`].
//!
//! Every undirected link becomes two directed arcs (full-duplex links, as in
//! the paper's fluid-flow model). Arcs are stored in CSR form for fast
//! shortest-path computation inside the Garg–Könemann solver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dcn_topology::Topology;

/// A directed arc with capacity.
#[derive(Clone, Copy, Debug)]
pub struct Arc {
    pub from: u32,
    pub to: u32,
    pub capacity: f64,
}

/// One CSR adjacency slot: an arc leaving the slot's node, stored with
/// its head so that relaxing it reads no [`Arc`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutArc {
    /// Index into [`FlowNetwork::arcs`].
    pub arc: u32,
    /// `arcs[arc].to`.
    pub head: u32,
}

/// CSR directed graph derived from a [`Topology`].
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    pub num_nodes: usize,
    pub arcs: Vec<Arc>,
    /// `out_start[v]..out_start[v+1]` indexes `out_arcs` for node v.
    out_start: Vec<u32>,
    /// Arcs ordered by source node; within a node, by arc index.
    out_arcs: Vec<OutArc>,
}

impl FlowNetwork {
    /// Builds the bidirected network: arcs 2i and 2i+1 are the two
    /// directions of topology link i.
    pub fn from_topology(t: &Topology) -> Self {
        let mut arcs = Vec::with_capacity(t.num_links() * 2);
        for l in t.links() {
            arcs.push(Arc {
                from: l.a,
                to: l.b,
                capacity: l.capacity,
            });
            arcs.push(Arc {
                from: l.b,
                to: l.a,
                capacity: l.capacity,
            });
        }
        Self::from_arcs(t.num_nodes(), arcs)
    }

    /// Builds from explicit arcs (used by tests and the LP verifier).
    pub fn from_arcs(num_nodes: usize, arcs: Vec<Arc>) -> Self {
        let mut counts = vec![0u32; num_nodes + 1];
        for a in &arcs {
            assert!((a.from as usize) < num_nodes && (a.to as usize) < num_nodes);
            assert!(a.capacity > 0.0);
            counts[a.from as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let out_start = counts.clone();
        let mut cursor = counts;
        let mut out_arcs = vec![OutArc { arc: 0, head: 0 }; arcs.len()];
        for (i, a) in arcs.iter().enumerate() {
            out_arcs[cursor[a.from as usize] as usize] = OutArc {
                arc: i as u32,
                head: a.to,
            };
            cursor[a.from as usize] += 1;
        }
        FlowNetwork {
            num_nodes,
            arcs,
            out_start,
            out_arcs,
        }
    }

    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Arcs leaving `v`, in arc-index order.
    pub(crate) fn out(&self, v: u32) -> &[OutArc] {
        let s = self.out_start[v as usize] as usize;
        let e = self.out_start[v as usize + 1] as usize;
        &self.out_arcs[s..e]
    }

    /// Early-exit Dijkstra from `src` over per-arc lengths `len` (each
    /// finite and ≥ 0): stops as soon as `dst` is settled and writes the
    /// arc path, source to destination, into `scratch.path`. Returns
    /// `false` if `dst` is unreachable. This is the hot path of the
    /// Garg–Könemann solver (thousands to millions of calls per instance).
    ///
    /// Nodes settle in increasing `(distance, node id)` order: among equal
    /// distances the lowest id goes first. A node's parent is the first
    /// arc, in settle order and then in arc-index order, that reaches it
    /// at its final distance. Every path is therefore a fixed function of
    /// `len`, ties included.
    pub fn shortest_path_to(
        &self,
        src: u32,
        dst: u32,
        len: &[f64],
        scratch: &mut DijkstraScratch,
    ) -> bool {
        scratch.ensure(self.num_nodes);
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        let labels = &mut scratch.labels[..self.num_nodes];
        let heap = &mut scratch.heap;
        heap.clear();
        labels[src as usize] = Label {
            dist: 0.0,
            parent: u32::MAX,
            stamp: epoch,
        };
        heap.push(Reverse(heap_key(0.0, src)));
        while let Some(Reverse(key)) = heap.pop() {
            let (d, u) = (f64::from_bits((key >> 32) as u64), key as u32);
            if d > labels[u as usize].dist {
                continue; // stale: `u` was re-pushed at a shorter distance
            }
            if u == dst {
                scratch.path.clear();
                let mut v = dst;
                while v != src {
                    let ai = labels[v as usize].parent;
                    scratch.path.push(ai);
                    v = self.arcs[ai as usize].from;
                }
                scratch.path.reverse();
                return true;
            }
            for &OutArc { arc, head } in self.out(u) {
                let nd = d + len[arc as usize];
                let l = &mut labels[head as usize];
                if l.stamp != epoch || nd < l.dist {
                    *l = Label {
                        dist: nd,
                        parent: arc,
                        stamp: epoch,
                    };
                    heap.push(Reverse(heap_key(nd, head)));
                }
            }
        }
        false
    }
}

/// The Dijkstra heap key: the distance's bit pattern above the node id.
/// For non-negative finite doubles the bit pattern, read as an unsigned
/// integer, sorts the same way the value does, so integer order is
/// `(distance, node id)` order.
#[inline]
fn heap_key(dist: f64, node: u32) -> u128 {
    (u128::from(dist.to_bits()) << 32) | u128::from(node)
}

/// A node's tentative distance and parent arc, valid only when `stamp`
/// equals the scratch's current epoch.
#[derive(Clone, Copy, Default)]
struct Label {
    dist: f64,
    parent: u32,
    stamp: u32,
}

/// Reusable buffers for [`FlowNetwork::shortest_path_to`]. Epoch stamping
/// avoids clearing the labels between calls.
#[derive(Default)]
pub struct DijkstraScratch {
    labels: Vec<Label>,
    epoch: u32,
    /// Min-heap of [`heap_key`]s; stale entries are skipped on pop.
    heap: BinaryHeap<Reverse<u128>>,
    /// Arc path of the last successful query, source→destination order.
    pub path: Vec<u32>,
}

impl DijkstraScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.labels.len() < n {
            self.labels.resize(n, Label::default());
        }
        if self.epoch == u32::MAX {
            self.labels.iter_mut().for_each(|l| l.stamp = 0);
            self.epoch = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_rng::Rng;
    use dcn_topology::fattree::FatTree;
    use dcn_topology::jellyfish::Jellyfish;
    use dcn_topology::xpander::Xpander;
    use dcn_topology::{NodeKind, Topology};

    fn diamond() -> FlowNetwork {
        // 0 -> {1,2} -> 3 with unit capacities.
        let mut t = Topology::new("diamond");
        for _ in 0..4 {
            t.add_node(NodeKind::Tor, 1);
        }
        t.add_link(0, 1);
        t.add_link(0, 2);
        t.add_link(1, 3);
        t.add_link(2, 3);
        FlowNetwork::from_topology(&t)
    }

    fn path_len(path: &[u32], len: &[f64]) -> f64 {
        path.iter().map(|&ai| len[ai as usize]).sum()
    }

    #[test]
    fn csr_adjacency() {
        let net = diamond();
        assert_eq!(net.num_arcs(), 8);
        assert_eq!(net.out(0).len(), 2);
        assert_eq!(net.out(3).len(), 2);
        for v in 0..4 {
            for s in net.out(v) {
                assert_eq!(net.arcs[s.arc as usize].from, v);
                assert_eq!(net.arcs[s.arc as usize].to, s.head);
            }
        }
    }

    #[test]
    fn dijkstra_unit_lengths() {
        let net = diamond();
        let len = vec![1.0; net.num_arcs()];
        let mut scratch = DijkstraScratch::new();
        assert!(net.shortest_path_to(0, 3, &len, &mut scratch));
        let path = &scratch.path;
        assert_eq!(path.len(), 2);
        assert_eq!(path_len(path, &len), 2.0);
        assert_eq!(net.arcs[path[0] as usize].from, 0);
        assert_eq!(net.arcs[path[1] as usize].to, 3);
        // The tie between 0→1→3 and 0→2→3 goes to the lower node id.
        assert_eq!(net.arcs[path[0] as usize].to, 1);
    }

    #[test]
    fn dijkstra_weighted_prefers_cheap_path() {
        let net = diamond();
        let mut len = vec![1.0; net.num_arcs()];
        // Make 0->1 expensive; path must go through 2.
        len[0] = 10.0;
        let mut scratch = DijkstraScratch::new();
        assert!(net.shortest_path_to(0, 3, &len, &mut scratch));
        assert_eq!(net.arcs[scratch.path[0] as usize].to, 2);
        assert_eq!(path_len(&scratch.path, &len), 2.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let net = FlowNetwork::from_arcs(
            3,
            vec![Arc {
                from: 0,
                to: 1,
                capacity: 1.0,
            }],
        );
        let mut scratch = DijkstraScratch::new();
        assert!(!net.shortest_path_to(0, 2, &[1.0], &mut scratch));
        assert!(net.shortest_path_to(0, 1, &[1.0], &mut scratch));
        assert_eq!(scratch.path, [0]);
    }

    /// The kernel before integer heap keys: a `BinaryHeap` of `(f64,
    /// node)` ordered through `partial_cmp`, relaxing arcs read through
    /// [`FlowNetwork::arcs`]. Returns the arc path to `dst`, if any.
    fn oracle_path(net: &FlowNetwork, src: u32, dst: u32, len: &[f64]) -> Option<Vec<u32>> {
        use std::cmp::Ordering;

        #[derive(PartialEq)]
        struct Item(f64, u32);
        impl Eq for Item {}
        impl Ord for Item {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .0
                    .partial_cmp(&self.0)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Item {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist = vec![f64::INFINITY; net.num_nodes];
        let mut parent = vec![u32::MAX; net.num_nodes];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0.0;
        heap.push(Item(0.0, src));
        while let Some(Item(d, u)) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == dst {
                let mut path = Vec::new();
                let mut v = dst;
                while v != src {
                    let ai = parent[v as usize];
                    path.push(ai);
                    v = net.arcs[ai as usize].from;
                }
                path.reverse();
                return Some(path);
            }
            for s in net.out(u) {
                let a = net.arcs[s.arc as usize];
                let nd = d + len[s.arc as usize];
                if nd < dist[a.to as usize] {
                    dist[a.to as usize] = nd;
                    parent[a.to as usize] = s.arc;
                    heap.push(Item(nd, a.to));
                }
            }
        }
        None
    }

    /// Length vectors with many exact ties: all lengths equal, and
    /// lengths δ·1.2^k for a few small k, the shape Garg–Könemann's
    /// multiplicative updates give arcs that carried the same flows.
    fn tied_lengths(rng: &mut Rng, arcs: usize) -> Vec<Vec<f64>> {
        let delta = 1e-6;
        let mut out = vec![vec![1.0; arcs], vec![delta; arcs]];
        for max_k in [2u32, 4, 12] {
            out.push(
                (0..arcs)
                    .map(|_| delta * 1.2f64.powi(rng.gen_range(0..max_k) as i32))
                    .collect(),
            );
        }
        out
    }

    /// The kernel returns exactly the oracle's path, arc for arc, on
    /// every query: the same settle order and the same parent on every
    /// tie.
    #[test]
    fn paths_match_the_binary_heap_oracle() {
        let topologies = [
            FatTree::full(4).build(),
            FatTree::full(8).build(),
            Xpander::paper_sec6(1).build(),
            Jellyfish::new(60, 6, 4, 1).build(),
        ];
        let mut rng = Rng::seed_from_u64(0x0DA7);
        let mut scratch = DijkstraScratch::new();
        for t in &topologies {
            let net = FlowNetwork::from_topology(t);
            let n = net.num_nodes as u32;
            for len in tied_lengths(&mut rng, net.num_arcs()) {
                for _ in 0..60 {
                    let src = rng.gen_range(0..n);
                    let dst = (src + rng.gen_range(1..n)) % n;
                    let want = oracle_path(&net, src, dst, &len);
                    let found = net.shortest_path_to(src, dst, &len, &mut scratch);
                    assert_eq!(found, want.is_some(), "{}: {src} -> {dst}", t.name());
                    if let Some(want) = want {
                        assert_eq!(scratch.path, want, "{}: {src} -> {dst}", t.name());
                    }
                }
            }
        }
    }

    /// Labels from earlier queries never leak into a later one, across
    /// the epoch counter's wrap too.
    #[test]
    fn scratch_reuse_survives_epoch_wrap() {
        let net = FlowNetwork::from_topology(&FatTree::full(4).build());
        let len = vec![1.0; net.num_arcs()];
        let mut scratch = DijkstraScratch::new();
        assert!(net.shortest_path_to(0, 19, &len, &mut scratch));
        let first = scratch.path.clone();
        scratch.epoch = u32::MAX - 2;
        for _ in 0..4 {
            assert!(net.shortest_path_to(0, 19, &len, &mut scratch));
            assert_eq!(scratch.path, first);
        }
        assert_eq!(Some(first), oracle_path(&net, 0, 19, &len));
    }
}
