//! Integration: the paper's headline claim end-to-end at test scale —
//! an Xpander at ~2/3 of a fat-tree's cost sustains skewed workloads
//! with simple oblivious routing.

use beyond_fattrees::prelude::*;

fn metrics(topo: &Topology, routing: Routing, lambda: f64, seed: u64) -> Metrics {
    let pattern = Skew::projector_like(topo, topo.tors_with_servers(), seed);
    let flows = generate_flows(&pattern, &PFabricWebSearch::new(), lambda, 0.03, seed);
    Run::new(
        topo,
        routing,
        SimConfig::default(),
        &flows,
        (5 * MS, 25 * MS),
        30 * SEC,
    )
    .execute()
    .metrics
}

#[test]
fn xpander_matches_fat_tree_on_skewed_traffic() {
    // Small scale: at Tiny the Xpander racks hold half the servers of the
    // fat-tree's, so hotspot concentration is not comparable.
    let pair = paper_networks(Scale::Small, 42);
    let lambda = 60.0 * pair.fat_tree.num_servers() as f64;
    let ft = metrics(&pair.fat_tree, Routing::Ecmp, lambda, 7);
    let xp = metrics(&pair.xpander, Routing::PAPER_HYB, lambda, 7);
    assert_eq!(ft.completed, ft.flows, "fat-tree flows unfinished");
    assert_eq!(xp.completed, xp.flows, "xpander flows unfinished");
    // The claim is parity, not dominance: allow the cheaper network up to
    // 2x on this tiny noisy instance.
    assert!(
        xp.avg_fct_ms <= ft.avg_fct_ms * 2.0,
        "xpander {} ms vs fat-tree {} ms",
        xp.avg_fct_ms,
        ft.avg_fct_ms
    );
}

#[test]
fn all_three_routings_complete_on_both_networks() {
    let pair = paper_networks(Scale::Tiny, 1);
    for topo in [&pair.fat_tree, &pair.xpander] {
        for routing in [Routing::Ecmp, Routing::Vlb, Routing::PAPER_HYB] {
            let m = metrics(topo, routing, 500.0, 3);
            assert_eq!(m.completed, m.flows, "{} {:?}", topo.name(), routing);
        }
    }
}

#[test]
fn equal_cost_xpander_construction_is_consistent() {
    for scale in [Scale::Tiny, Scale::Small] {
        let pair = paper_networks(scale, 9);
        assert!(pair.xpander.num_servers() >= pair.fat_tree.num_servers());
        assert!(pair.xpander.num_nodes() < pair.fat_tree.num_nodes());
        assert!(pair.xpander.is_connected());
        assert!(pair.fat_tree.is_connected());
    }
}
