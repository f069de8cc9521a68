//! Throughput upper bounds from Singla et al., *High Throughput Data Center
//! Topology Design* (NSDI 2014) — reference \[30\] of the paper. Used for the
//! *restricted dynamic* model (§4.1, §5): an upper bound on the performance
//! of **any** topology built with network degree `r` per ToR.

/// Lower bound on the average shortest-path distance of any `d`-regular
/// graph on `n` nodes (Moore-bound layering): from any node, at most `d`
/// nodes sit at distance 1, `d(d−1)` at distance 2, and so on.
pub fn moore_avg_distance(n: usize, d: usize) -> f64 {
    assert!(n >= 2, "need at least two nodes");
    assert!(d >= 1, "degree must be positive");
    let mut remaining = (n - 1) as f64;
    let mut at_dist = d as f64;
    let mut dist = 1u64;
    let mut total = 0.0;
    while remaining > 0.0 {
        let take = remaining.min(at_dist);
        total += take * dist as f64;
        remaining -= take;
        if d == 1 {
            // A 1-regular graph is a perfect matching; only one node is
            // reachable. Treat the rest as unreachable (infinite bound).
            if remaining > 0.0 {
                return f64::INFINITY;
            }
            break;
        }
        at_dist *= (d - 1) as f64;
        dist += 1;
    }
    total / (n - 1) as f64
}

/// Upper bound on per-server throughput for uniform (all-to-all) traffic
/// over `n_active` racks, each with `net_ports` network ports of unit
/// capacity and `servers` servers — for the *best possible* degree-limited
/// topology (\[30\]'s capacity/path-length argument):
///
/// `t ≤ net_ports / (servers · d̄_min(n_active, net_ports))`
///
/// The toy example of §4.1 (9 racks, 6 ports, 6 servers) yields 0.8,
/// matching the paper's "80% of full throughput".
pub fn restricted_dynamic_bound(n_active: usize, net_ports: usize, servers: usize) -> f64 {
    assert!(servers >= 1);
    if n_active < 2 {
        return 1.0;
    }
    let dbar = moore_avg_distance(n_active, net_ports);
    (net_ports as f64 / (servers as f64 * dbar)).min(1.0)
}

/// Throughput of the *unrestricted* dynamic model (§5): with `net_ports`
/// flexible ports and `servers` servers per ToR, and reconfiguration
/// overhead folded into `duty_cycle` ∈ (0, 1], per-server throughput is
/// `min(1, duty_cycle · net_ports / servers)` independent of the TM.
pub fn unrestricted_dynamic_throughput(net_ports: f64, servers: f64, duty_cycle: f64) -> f64 {
    assert!(duty_cycle > 0.0 && duty_cycle <= 1.0);
    (duty_cycle * net_ports / servers).min(1.0)
}

/// Generic capacity/path-length throughput upper bound for an arbitrary
/// topology and rack-level flows `(src, dst, demand)`: any routing spends
/// at least `dist(src,dst)` units of directed capacity per unit of flow,
/// so `t · Σ_f demand_f · dist_f ≤ 2 · Σ_links capacity`.
pub fn capacity_path_bound(t: &dcn_topology::Topology, flows: &[(u32, u32, f64)]) -> f64 {
    let dist = t.hop_distances();
    let mut weighted_dist = 0.0;
    for &(s, d, dem) in flows {
        let hops = dist.get(s, d);
        assert!(hops != u32::MAX, "flow {s}->{d} disconnected");
        weighted_dist += dem * hops as f64;
    }
    if weighted_dist == 0.0 {
        return 1.0;
    }
    (2.0 * t.total_capacity() / weighted_dist).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{NodeKind, Topology};

    #[test]
    fn moore_small_cases() {
        // 9 nodes, degree 6: 6 at distance 1, 2 at distance 2 ⇒ 10/8.
        assert!((moore_avg_distance(9, 6) - 1.25).abs() < 1e-12);
        // Complete graph: everything at distance 1.
        assert_eq!(moore_avg_distance(5, 4), 1.0);
    }

    #[test]
    fn moore_monotone_in_degree() {
        let mut last = f64::INFINITY;
        for d in 2..10 {
            let v = moore_avg_distance(100, d);
            assert!(v <= last);
            last = v;
        }
    }

    #[test]
    fn toy_example_bound_is_80_percent() {
        // §4.1: "upper bounded (computed as in [30]) at 80%".
        let b = restricted_dynamic_bound(9, 6, 6);
        assert!((b - 0.8).abs() < 1e-12, "bound {b}");
    }

    #[test]
    fn unrestricted_matches_paper_formula() {
        // §5: per-server throughput min(1, r/s).
        assert!((unrestricted_dynamic_throughput(16.0, 24.0, 1.0) - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(unrestricted_dynamic_throughput(16.0, 8.0, 1.0), 1.0);
        // ProjecToR's duty cycle: "could achieve 90% of full throughput".
        assert!((unrestricted_dynamic_throughput(6.0, 6.0, 0.9) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_ring() {
        // 4-cycle, one cross-pair flow of demand 1 at distance 2:
        // bound = 2·4 / 2 = 4 → clamped to 1.
        let mut t = Topology::new("c4");
        for _ in 0..4 {
            t.add_node(NodeKind::Tor, 1);
        }
        for i in 0..4u32 {
            t.add_link(i, (i + 1) % 4);
        }
        assert_eq!(capacity_path_bound(&t, &[(0, 2, 1.0)]), 1.0);
        // Saturate: 8 units of demand at distance 2 ⇒ bound 0.5.
        let flows: Vec<_> = (0..8).map(|_| (0u32, 2u32, 1.0)).collect();
        assert!((capacity_path_bound(&t, &flows) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moore_degree_one() {
        assert_eq!(moore_avg_distance(2, 1), 1.0);
        assert!(moore_avg_distance(4, 1).is_infinite());
    }

    #[test]
    fn bound_tightens_with_more_racks() {
        let few = restricted_dynamic_bound(9, 6, 6);
        let many = restricted_dynamic_bound(100, 6, 6);
        assert!(many < few);
    }
}
