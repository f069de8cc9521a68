//! Ablation: HYB's Q threshold (§6.3). Q=0 is pure VLB, Q=∞ pure ECMP;
//! the paper's 100 KB sits where short flows keep shortest paths and long
//! flows get load-balanced. Permute(0.31) on the 2/3-cost Xpander.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, long_tput, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

/// The x-axis value standing in for Q = ∞.
const Q_INF: f64 = 1e12;

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let lambda = 117.0 * total as f64 * 0.5; // mid-load of the Fig 11 sweep

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Rc::new(Permutation::new(xp, racks, cli.seed));
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "q_bytes",
        &[0.0, 10_000.0, 100_000.0, 1_000_000.0, Q_INF],
        |x| {
            let q = if x == Q_INF { u64::MAX } else { x as u64 };
            vec![Line::new("xpander_hyb", xp, Routing::Hyb(q), &pat, lambda)]
        },
        &[Panel::new(
            "ablate_q",
            &[
                ("avg_fct_ms", "xpander_hyb", avg_fct),
                ("p99_short_fct_ms", "xpander_hyb", p99_short),
                ("long_tput_gbps", "xpander_hyb", long_tput),
            ],
        )],
    );
}
