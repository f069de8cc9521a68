//! Quickstart: the paper's headline experiment in miniature.
//!
//! Builds the §6.4 equal-cost pair — a full-bandwidth fat-tree and an
//! Xpander at ~2/3 the cost — runs the same skewed workload on both with
//! the paper's HYB routing on the Xpander, and prints the three headline
//! metrics. Expected outcome: the cheaper Xpander matches the fat-tree.
//!
//! Run with: `cargo run --release --example quickstart`

use beyond_fattrees::prelude::*;

fn main() {
    // Small scale (k=8 fat-tree, 128 servers) finishes in under a minute;
    // Scale::Paper is the full §6.4 configuration.
    let pair = paper_networks(Scale::Small, 42);
    println!(
        "fat-tree: {} switches / {} servers   xpander: {} switches / {} servers",
        pair.fat_tree.num_nodes(),
        pair.fat_tree.num_servers(),
        pair.xpander.num_nodes(),
        pair.xpander.num_servers(),
    );

    let window = (10 * MS, 40 * MS);
    let lambda = 100.0 * pair.fat_tree.num_servers() as f64;
    let sizes = PFabricWebSearch::new();

    for (name, topo, routing) in [
        ("fat-tree + ECMP", &pair.fat_tree, Routing::Ecmp),
        ("xpander + HYB ", &pair.xpander, Routing::PAPER_HYB),
    ] {
        // Skewed traffic: 77% of bytes between 4% of rack pairs.
        let pattern = Skew::projector_like(topo, topo.tors_with_servers(), 7);
        let flows = generate_flows(&pattern, &sizes, lambda, 0.05, 7);
        let out = Run::new(
            topo,
            routing,
            SimConfig::default(),
            &flows,
            window,
            10 * SEC,
        )
        .execute();
        let (m, c) = (out.metrics, out.counters);
        println!(
            "{name}: {} flows | avg FCT {:.3} ms | p99 short FCT {:.3} ms | long-flow tput {:.2} Gbps | drops {}",
            m.flows, m.avg_fct_ms, m.p99_short_fct_ms, m.avg_long_tput_gbps, c.drops()
        );
    }
    println!(
        "\nThe Xpander uses ~2/3 of the fat-tree's switches ({} vs {}).",
        pair.xpander.num_nodes(),
        pair.fat_tree.num_nodes()
    );
}
