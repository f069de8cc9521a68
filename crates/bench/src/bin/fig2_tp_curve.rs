//! Fig 2: the throughput-proportionality ideal versus the fat-tree's
//! flexibility curve — the conceptual figure defining the paper's metric.

use dcn_bench::{fraction_sweep, parse_cli, Series};
use dcn_core::{fat_tree_throughput, tp_throughput};

fn main() {
    let cli = parse_cli(&[]);
    // The illustrative α = 0.5 oversubscription and a k = 16 fat-tree's
    // β = 2/k bottleneck fraction.
    let alpha = 0.5;
    let beta = 2.0 / 16.0;
    let mut s = Series::new(
        "fig2_tp_curve",
        "fraction_with_demand",
        &["throughput_proportional", "fat_tree"],
    );
    for x in fraction_sweep(100) {
        s.push(
            x,
            vec![tp_throughput(alpha, x), fat_tree_throughput(alpha, beta, x)],
        );
    }
    s.finish(&cli);
}
