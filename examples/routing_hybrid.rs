//! The §6 routing story in one run: ECMP collapses between adjacent
//! expander racks (one shortest path), VLB wastes capacity under uniform
//! load, and the HYB hybrid is robust to both.
//!
//! Run with: `cargo run --release --example routing_hybrid`

use beyond_fattrees::prelude::*;

fn run(topo: &Topology, routing: Routing, pattern: &dyn TrafficPattern, lambda: f64) -> Metrics {
    let flows = generate_flows(pattern, &PFabricWebSearch::new(), lambda, 0.06, 3);
    let run = Run::new(
        topo,
        routing,
        SimConfig::default(),
        &flows,
        (10 * MS, 50 * MS),
        20 * SEC,
    );
    run.execute().metrics
}

fn main() {
    let xp = Xpander::for_switches(5, 54, 3, 1).build();

    // Scenario A (Fig 7b): only two adjacent racks are active.
    let l = xp.link(0);
    let neighbors = ExplicitServers::first_on_racks(&xp, &[l.a, l.b], 3);
    // Scenario B (Fig 7c): uniform all-to-all over every server.
    let uniform = AllToAll::new(&xp, xp.tors_with_servers());

    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "scenario", "ECMP", "VLB", "HYB"
    );
    for (name, pattern, lambda) in [
        (
            "adjacent racks (skewed)",
            &neighbors as &dyn TrafficPattern,
            6000.0,
        ),
        (
            "all-to-all (uniform)",
            &uniform as &dyn TrafficPattern,
            160.0 * 162.0,
        ),
    ] {
        let mut row = Vec::new();
        for routing in [Routing::Ecmp, Routing::Vlb, Routing::PAPER_HYB] {
            row.push(run(&xp, routing, pattern, lambda).avg_fct_ms);
        }
        println!(
            "{:<28} {:>9.2}ms {:>9.2}ms {:>9.2}ms",
            name, row[0], row[1], row[2]
        );
    }
    println!("\nECMP loses on the skewed case, VLB on the uniform one;");
    println!("HYB (ECMP below Q=100KB, then VLB per flowlet) is close to the");
    println!("better scheme in both — the paper's §6.3 result.");
}
