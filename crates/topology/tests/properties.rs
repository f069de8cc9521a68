//! Property-style tests over the topology generators: structural
//! invariants checked across a seeded sweep of parameterizations
//! (dependency-free stand-in for the old proptest harness).

use dcn_rng::Rng;
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::longhop::Longhop;
use dcn_topology::metrics::path_stats;
use dcn_topology::xpander::Xpander;

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
