//! Property-style tests for routing: path validity, shortest-path
//! optimality of ECMP, VLB leg structure, HYB threshold semantics,
//! rebuild-after-failure equivalence, and bit-for-bit agreement with an
//! explicit next-hop-list reference. Seeded sweeps stand in for proptest.

use dcn_rng::Rng;
use dcn_routing::ecmp::{hash3, EcmpTable};
use dcn_routing::hyb::PathSelector;
use dcn_routing::ksp::k_shortest_paths;
use dcn_routing::{RoutingSuite, Vlb};
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::xpander::Xpander;
use dcn_topology::{LinkId, NodeId, NodeKind, Topology};

fn net(n: u32, d: u32, seed: u64) -> Topology {
    Jellyfish::new(n, d, 2, seed).build()
}

/// Walks a link path from `src`, returning the final node.
fn walk(t: &Topology, src: NodeId, links: &[u32]) -> NodeId {
    let mut u = src;
    for &l in links {
        u = t.link(l).other(u);
    }
    u
}

/// ECMP paths land at the destination and have exactly BFS length.
#[test]
fn ecmp_paths_shortest() {
    let mut meta = Rng::seed_from_u64(0xEC3);
    for _ in 0..24 {
        let n = meta.gen_range(10u32..40);
        let seed = meta.gen_range(0u64..200);
        let key = meta.gen_range(0u64..1000);
        let t = net(n, 4, seed);
        let table = EcmpTable::new(&t);
        let apsp = t.hop_distances();
        let (src, dst) = (0u32, n - 1);
        let p = table.path(src, dst, key);
        assert_eq!(p.len() as u32, apsp.get(src, dst));
        assert_eq!(walk(&t, src, &p), dst);
    }
}

/// VLB paths reach the destination and are at most the two ECMP legs
/// long; HYB respects its byte threshold exactly.
#[test]
fn vlb_and_hyb_valid() {
    let mut meta = Rng::seed_from_u64(0x71B);
    for _ in 0..24 {
        let n = meta.gen_range(10u32..40);
        let seed = meta.gen_range(0u64..100);
        let key = meta.gen_range(0u64..500);
        let q = meta.gen_range(1u64..1_000_000);
        let t = net(n, 4, seed);
        let suite = RoutingSuite::new(&t);
        let (src, dst) = (1u32, n - 2);
        if src == dst {
            continue;
        }

        let vlb = suite.vlb();
        let pv = vlb.select(src, dst, key, 0);
        assert_eq!(walk(&t, src, &pv), dst);

        let hyb = suite.hyb(q);
        let below = hyb.select(src, dst, key, q - 1);
        let at = hyb.select(src, dst, key, q);
        let ecmp = suite.ecmp().select(src, dst, key, 0);
        assert_eq!(below, ecmp);
        assert_eq!(at, pv);
    }
}

/// Yen's paths are loopless, sorted by length, pairwise distinct, and
/// the first equals the BFS distance.
#[test]
fn ksp_properties() {
    let mut meta = Rng::seed_from_u64(0x4B5);
    for _ in 0..24 {
        let n = meta.gen_range(10u32..30);
        let seed = meta.gen_range(0u64..100);
        let k = meta.gen_range(2usize..6);
        let t = net(n, 4, seed);
        let apsp = t.hop_distances();
        let paths = k_shortest_paths(&t, 0, n - 1, k);
        assert!(!paths.is_empty());
        assert_eq!(paths[0].len() as u32 - 1, apsp.get(0, n - 1));
        let mut last = 0;
        for (i, p) in paths.iter().enumerate() {
            assert!(p.len() >= last);
            last = p.len();
            let set: std::collections::HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len(), "loop in path");
            for other in paths.iter().skip(i + 1) {
                assert_ne!(p, other);
            }
        }
    }
}

/// ECMP spreads different keys across all equal-cost first hops.
#[test]
fn ecmp_covers_all_choices() {
    let mut meta = Rng::seed_from_u64(0xC0F);
    let mut cases = 0;
    while cases < 24 {
        let n = meta.gen_range(12u32..30);
        let seed = meta.gen_range(0u64..50);
        let t = net(n, 4, seed);
        let table = EcmpTable::new(&t);
        let (src, dst) = (0u32, n - 1);
        let choices = table.choices(src, dst).count();
        if choices < 2 {
            continue;
        }
        cases += 1;
        let mut seen = std::collections::HashSet::new();
        for key in 0..400u64 {
            seen.insert(table.path(src, dst, key)[0]);
        }
        assert_eq!(seen.len(), choices, "hash misses some equal-cost links");
    }
}

/// Control-plane reconvergence: rebuilding a selector on the same
/// topology is behavior-preserving, and rebuilding on a degraded view
/// then again on the full view restores the original path set exactly
/// (the LinkUp-recovery invariant the simulator relies on).
#[test]
fn rebuild_restores_paths_after_link_up() {
    let mut meta = Rng::seed_from_u64(0x4EB1);
    for _ in 0..8 {
        let n = 2 * meta.gen_range(8u32..16);
        let seed = meta.gen_range(0u64..100);
        let t = net(n, 4, seed);
        let suite = RoutingSuite::new(&t);
        let selectors: Vec<Box<dyn PathSelector>> = vec![
            Box::new(suite.ecmp()),
            Box::new(suite.vlb()),
            Box::new(suite.hyb(100_000)),
            Box::new(dcn_routing::kspsel::KspSelector::new(&t, 4)),
        ];
        let degraded = t.with_random_failures(0.2, seed ^ 0xF411);
        for sel in &selectors {
            let down = sel.rebuild(&degraded);
            let up = down.rebuild(&t);
            assert_eq!(up.name(), sel.name());
            for key in 0..50u64 {
                for &(src, dst) in &[(0u32, n - 1), (1, n / 2)] {
                    let before = sel.select(src, dst, key, 0);
                    let after = up.select(src, dst, key, 0);
                    assert_eq!(
                        before,
                        after,
                        "{}: path set changed across down/up rebuild",
                        sel.name()
                    );
                    // The degraded selector still routes (the sampler keeps
                    // the survivor connected) and its paths are valid there.
                    let p = down.select(src, dst, key, 0);
                    assert_eq!(walk(&degraded, src, &p), dst, "{}", sel.name());
                }
            }
        }
    }
}

/// Reference ECMP routing with explicit next-hop lists: for every
/// (destination, node) the `(next node, link)` pairs on a shortest path,
/// in adjacency order, derived from one `Topology::bfs_distances` per
/// destination (independent of the all-pairs kernel) and walked with the
/// same per-hop `hash3` pick. The distance-matrix table must reproduce it
/// bit for bit.
struct NextHopLists {
    /// `nexthops[dst][node]`.
    nexthops: Vec<Vec<Vec<(NodeId, LinkId)>>>,
    /// `dist[dst][node]` (APSP is symmetric on undirected graphs).
    dist: Vec<Vec<u32>>,
}

impl NextHopLists {
    fn new(t: &Topology) -> Self {
        let dist: Vec<Vec<u32>> = t.nodes().map(|d| t.bfs_distances(d)).collect();
        let nexthops = dist
            .iter()
            .map(|dd| {
                t.nodes()
                    .map(|u| {
                        if dd[u as usize] == u32::MAX {
                            return Vec::new();
                        }
                        t.neighbors(u)
                            .iter()
                            .copied()
                            .filter(|&(v, _)| dd[v as usize] + 1 == dd[u as usize])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        NextHopLists { nexthops, dist }
    }

    fn path(&self, src: NodeId, dst: NodeId, key: u64) -> Vec<LinkId> {
        if self.dist[dst as usize][src as usize] == u32::MAX {
            return Vec::new();
        }
        let mut links = Vec::new();
        let mut u = src;
        while u != dst {
            let c = &self.nexthops[dst as usize][u as usize];
            let (v, l) = c[(hash3(key, u as u64, dst as u64) % c.len() as u64) as usize];
            links.push(l);
            u = v;
        }
        links
    }

    /// `Vlb::path` over the reference lists: two ECMP legs through a
    /// keyed intermediate, rehashed while it is unreachable.
    fn vlb_path(&self, vlb: &Vlb, src: NodeId, dst: NodeId, key: u64) -> Vec<LinkId> {
        let mut h = key;
        for _ in 0..16 {
            let via = vlb.intermediate(src, dst, h);
            if self.dist[via as usize][src as usize] != u32::MAX
                && self.dist[dst as usize][via as usize] != u32::MAX
            {
                let mut p = self.path(src, via, hash3(key, 1, via as u64));
                p.extend(self.path(via, dst, hash3(key, 2, via as u64)));
                return p;
            }
            h = hash3(h, 0x0DD_5EED, key);
        }
        self.path(src, dst, key)
    }
}

/// Asserts that `EcmpTable` agrees with the reference on every
/// (node, destination) pair's choices and distance, and on ECMP and VLB
/// paths for sampled pairs and many keys.
fn assert_matches_next_hop_lists(t: &Topology, seed: u64) {
    let table = EcmpTable::new(t);
    let reference = NextHopLists::new(t);
    let n = t.num_nodes() as u32;
    for dst in 0..n {
        for u in 0..n {
            let want = &reference.nexthops[dst as usize][u as usize];
            let got: Vec<_> = table.choices(u, dst).collect();
            assert_eq!(&got, want, "{}: choices({u}, {dst})", t.name());
            assert_eq!(table.first_hop_diversity(u, dst), want.len());
            assert_eq!(
                table.distance(u, dst),
                reference.dist[dst as usize][u as usize],
                "{}: distance({u}, {dst})",
                t.name()
            );
        }
    }
    let vlb = Vlb::new(t);
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..200 {
        let src = rng.gen_range(0..n);
        let dst = rng.gen_range(0..n);
        for _ in 0..16 {
            let key = rng.gen_range(0u64..u64::MAX);
            assert_eq!(
                table.path(src, dst, key),
                reference.path(src, dst, key),
                "{}: path({src}, {dst}, {key})",
                t.name()
            );
            if src != dst && n > 2 {
                assert_eq!(
                    vlb.path(&table, src, dst, key),
                    reference.vlb_path(&vlb, src, dst, key),
                    "{}: vlb path({src}, {dst}, {key})",
                    t.name()
                );
            }
        }
    }
}

/// The distance-matrix table routes bit-for-bit like explicit next-hop
/// lists on fat-trees, Xpanders, a Jellyfish, and a partitioned network.
#[test]
fn ecmp_matches_next_hop_lists() {
    assert_matches_next_hop_lists(&FatTree::full(4).build(), 1);
    assert_matches_next_hop_lists(&FatTree::full(8).build(), 2);
    assert_matches_next_hop_lists(&Xpander::paper_sec6(1).build(), 3);
    assert_matches_next_hop_lists(&Xpander::new(6, 8, 3, 2).build(), 4);
    assert_matches_next_hop_lists(&net(40, 5, 9), 5);

    // Two triangles joined by a path (one link doubled), plus an
    // isolated switch: pairs with the isolated node have no route.
    let mut t = Topology::new("partitioned");
    for _ in 0..7 {
        t.add_node(NodeKind::Tor, 1);
    }
    for (a, b) in [
        (0, 1),
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 3),
    ] {
        t.add_link(a, b);
    }
    let table = EcmpTable::new(&t);
    assert!(table.path(0, 6, 7).is_empty());
    assert!(table.path(6, 0, 7).is_empty());
    assert_eq!(table.distance(0, 6), u32::MAX);
    assert_eq!(table.choices(6, 0).count(), 0);
    assert_eq!(table.path(0, 5, 7).len(), 3);
    assert_matches_next_hop_lists(&t, 6);
}
