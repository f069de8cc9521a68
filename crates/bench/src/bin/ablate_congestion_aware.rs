//! §7.1 exploration: "How much can performance be further improved by
//! adaptive routing?" Compares the paper's oblivious HYB against an
//! *oracle* congestion-aware router (least-queued of the k shortest
//! paths, scored on live global queue state — an upper bound no real
//! scheme can reach) on the Permute workload that stresses routing most.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, long_tput, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let rates = rate_sweep(117.0 * total as f64, 5);

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Rc::new(Permutation::new(xp, racks, cli.seed));
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "flow_starts_per_s",
        &rates,
        |rate| {
            vec![
                Line::new("hyb", xp, Routing::PAPER_HYB, &pat, rate),
                Line {
                    oracle_ksp: Some(8),
                    ..Line::new("oracle_ksp8", xp, Routing::PAPER_HYB, &pat, rate)
                },
            ]
        },
        &[Panel::new(
            "ablate_congestion_aware",
            &[
                ("hyb_avg_fct_ms", "hyb", avg_fct),
                ("oracle_ksp8_avg_fct_ms", "oracle_ksp8", avg_fct),
                ("hyb_long_tput", "hyb", long_tput),
                ("oracle_long_tput", "oracle_ksp8", long_tput),
            ],
        )],
    );
}
