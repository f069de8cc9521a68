//! Property-style tests over the topology generators: structural
//! invariants checked across a seeded sweep of parameterizations
//! (dependency-free stand-in for the old proptest harness).

use dcn_rng::Rng;
use dcn_topology::dragonfly::Dragonfly;
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::longhop::Longhop;
use dcn_topology::metrics::path_stats;
use dcn_topology::slimfly::SlimFly;
use dcn_topology::toy::ToyFig4;
use dcn_topology::xpander::Xpander;
use dcn_topology::{NodeKind, Topology};

/// Fat-trees: size formulas, port budgets, connectivity.
#[test]
fn fat_tree_structure() {
    for k in (4u32..=16).step_by(2) {
        let ft = FatTree::full(k);
        let t = ft.build();
        assert_eq!(t.num_nodes(), (5 * k * k / 4) as usize);
        assert_eq!(t.num_servers(), (k * k * k / 4) as usize);
        assert!(t.is_connected());
        for n in 0..t.num_nodes() as u32 {
            assert!(t.degree(n) + t.servers_at(n) as usize <= k as usize);
        }
        // Switch-level diameter of a multi-pod fat-tree is exactly 4.
        assert_eq!(path_stats(&t).diameter, 4);
    }
}

/// Trimmed fat-trees stay connected and within the cost budget.
#[test]
fn fat_tree_cost_fraction() {
    let mut rng = Rng::seed_from_u64(0xFA7);
    for _ in 0..32 {
        let k = 2 * rng.gen_range(3u32..9);
        let frac = rng.gen_range(0.5f64..1.0);
        // The cheapest valid trim keeps one agg per pod and one core.
        let cheapest = (k * k / 2 + k + 1) as f64;
        let full = FatTree::full(k).num_switches() as f64;
        if frac < cheapest / full {
            continue;
        }
        let ft = FatTree::at_cost_fraction(k, frac);
        let t = ft.build();
        assert!(t.is_connected());
        assert!(ft.num_switches() as f64 <= full * frac + 0.5);
    }
}

/// Jellyfish: simple, connected, near-regular.
#[test]
fn jellyfish_structure() {
    let mut rng = Rng::seed_from_u64(0x1E11);
    let mut cases = 0;
    while cases < 32 {
        let n = rng.gen_range(12u32..60);
        let d = rng.gen_range(3u32..7);
        let seed = rng.gen_range(0u64..1000);
        if n <= d + 1 || !(n * d).is_multiple_of(2) {
            continue;
        }
        cases += 1;
        let t = Jellyfish::new(n, d, 2, seed).build();
        assert!(t.is_connected());
        let mut deficient = 0;
        for a in 0..n {
            assert!(t.degree(a) <= d as usize);
            if t.degree(a) < d as usize {
                deficient += 1;
            }
            for b in (a + 1)..n {
                assert!(t.multiplicity(a, b) <= 1, "parallel edge {a}-{b}");
            }
        }
        assert!(deficient <= 1);
    }
}

/// Xpander lifts: d-regular, connected, one matching per meta-pair.
#[test]
fn xpander_structure() {
    let mut rng = Rng::seed_from_u64(0x9A);
    for _ in 0..32 {
        let d = rng.gen_range(3u32..8);
        let lift = rng.gen_range(2u32..8);
        let seed = rng.gen_range(0u64..1000);
        let t = Xpander::new(d, lift, 2, seed).build();
        assert_eq!(t.num_nodes() as u32, (d + 1) * lift);
        assert!(t.is_connected());
        for n in 0..t.num_nodes() as u32 {
            assert_eq!(t.degree(n), d as usize);
            let g = t.group(n).unwrap();
            for &(v, _) in t.neighbors(n) {
                assert_ne!(t.group(v).unwrap(), g, "intra-meta-node edge");
            }
        }
    }
}

/// Cayley graphs on F2^m: vertex-transitive degree, connectivity when
/// the generators span the space.
#[test]
fn longhop_structure() {
    for m in 3u32..8 {
        let lh = Longhop::folded_hypercube(m, 1);
        let t = lh.build();
        assert!(t.is_connected());
        for n in 0..t.num_nodes() as u32 {
            assert_eq!(t.degree(n), (m + 1) as usize);
        }
        // Folded hypercube diameter = ceil(m/2).
        assert_eq!(path_stats(&t).diameter, m.div_ceil(2));
    }
}

/// Path stats basics: diameter bounds average, histogram sums to all
/// ordered pairs.
#[test]
fn path_stats_consistent() {
    let mut rng = Rng::seed_from_u64(0x57A75);
    for _ in 0..32 {
        let d = rng.gen_range(3u32..6);
        let lift = rng.gen_range(2u32..6);
        let seed = rng.gen_range(0u64..100);
        let t = Xpander::new(d, lift, 1, seed).build();
        let ps = path_stats(&t);
        assert!(ps.avg_path_length <= ps.diameter as f64);
        assert!(ps.avg_path_length >= 1.0);
        let n = t.num_nodes() as u64;
        assert_eq!(ps.histogram.iter().sum::<u64>(), n * (n - 1));
    }
}

/// Random link failures: deterministic per seed, never disconnect, and
/// the survivor loses at most the requested fraction.
#[test]
fn random_failures_never_disconnect() {
    let mut rng = Rng::seed_from_u64(0xDEAD);
    for _ in 0..16 {
        let d = rng.gen_range(3u32..6);
        let lift = rng.gen_range(2u32..6);
        let frac = rng.gen_range(0.05f64..0.4);
        let seed = rng.gen_range(0u64..1000);
        let t = Xpander::new(d, lift, 1, seed).build();
        let f = t.with_random_failures(frac, seed);
        assert!(
            f.is_connected(),
            "failures disconnected {} at {frac}",
            t.name()
        );
        let want_removed = (t.num_links() as f64 * frac).round() as usize;
        assert!(t.num_links() - f.num_links() <= want_removed);
        let again = t.with_random_failures(frac, seed);
        let e1: Vec<_> = f.links().iter().map(|l| (l.a, l.b)).collect();
        let e2: Vec<_> = again.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(e1, e2, "same seed must cut the same links");
    }
}

/// Asserts that the bit-parallel all-pairs kernel equals one
/// `bfs_distances` per source on every pair.
fn assert_hop_distances_match_bfs(t: &Topology) {
    let hd = t.hop_distances();
    assert_eq!(hd.as_slice().len(), t.num_nodes() * t.num_nodes());
    for s in t.nodes() {
        let bfs = t.bfs_distances(s);
        assert_eq!(hd.row(s), &bfs[..], "{}: row {s}", t.name());
        for (v, &d) in bfs.iter().enumerate() {
            assert_eq!(hd.get(s, v as u32), d, "{}: ({s}, {v})", t.name());
        }
    }
}

/// `n` nodes on a ring plus seeded random chords, parallel links
/// included; `n` = 1 has neither.
fn ring_with_chords(n: u32, chords: u32, seed: u64) -> Topology {
    let mut t = Topology::new(format!("ring{n}+{chords}"));
    for _ in 0..n {
        t.add_node(NodeKind::Tor, 1);
    }
    if n >= 2 {
        for v in 0..n {
            t.add_link(v, (v + 1) % n);
        }
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..chords {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                t.add_link(a, b);
            }
        }
    }
    t
}

/// Every generator: the kernel equals per-source BFS.
#[test]
fn hop_distances_match_bfs_on_generators() {
    for t in [
        FatTree::full(4).build(),
        FatTree::full(8).build(),
        FatTree::oversubscribed_core(8, 2).build(),
        Xpander::paper_sec6(1).build(),
        Xpander::new(4, 13, 1, 3).build(), // 65 switches
        Jellyfish::new(50, 5, 2, 7).build(),
        SlimFly::new(5, 1).build(),
        Longhop::greedy(6, 8, 1).build(),
        Dragonfly::balanced(2).build(),
        ToyFig4::build().topology,
    ] {
        assert_hop_distances_match_bfs(&t);
    }
}

/// Word-boundary sizes, parallel links, and a partitioned survivor whose
/// unreachable pairs must stay `u32::MAX`.
#[test]
fn hop_distances_match_bfs_on_edge_cases() {
    for n in [1u32, 2, 63, 64, 65, 129] {
        assert_hop_distances_match_bfs(&ring_with_chords(n, n / 4, n as u64));
    }
    let mut multi = ring_with_chords(40, 0, 0);
    for v in (0..40).step_by(3) {
        multi.add_link(v, (v + 1) % 40);
        multi.add_link(v, (v + 7) % 40);
    }
    assert!(multi.multiplicity(0, 1) >= 2);
    assert_hop_distances_match_bfs(&multi);

    // Cut every link of switches 0 and 70: they survive as isolated nodes.
    let t = Xpander::new(5, 14, 1, 2).build(); // 84 switches
    let cut: Vec<u32> = (0..t.num_links() as u32)
        .filter(|&l| [0, 70].contains(&t.link(l).a) || [0, 70].contains(&t.link(l).b))
        .collect();
    let survivor = t.without_links_largest_component(&cut);
    assert_eq!(survivor.degree(0), 0);
    assert_eq!(survivor.degree(70), 0);
    assert_hop_distances_match_bfs(&survivor);
    let hd = survivor.hop_distances();
    assert_eq!(hd.get(0, 70), u32::MAX);
    assert_eq!(hd.get(1, 0), u32::MAX);
    assert_eq!(hd.get(70, 70), 0);
    assert!(hd.get(1, 2) < u32::MAX);
}
