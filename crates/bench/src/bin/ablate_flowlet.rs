//! Ablation: the flowlet gap (the paper fixes 50 µs). A tiny gap
//! re-routes nearly per packet (reordering risk under VLB/HYB); a huge
//! gap pins each flow to one path (per-flow routing).

use std::rc::Rc;

use dcn_bench::{avg_fct, long_tput, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_sim::{SimConfig, US};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.31).round() as u32;
    let lambda = 117.0 * total as f64 * 0.5;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Rc::new(Permutation::new(xp, racks, cli.seed));
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "flowlet_gap_us",
        &[1.0, 10.0, 50.0, 500.0, 10_000_000.0],
        |gap_us| {
            let cfg = SimConfig {
                flowlet_gap_ns: gap_us as u64 * US,
                ..Default::default()
            };
            vec![Line {
                cfg,
                ..Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &pat, lambda)
            }]
        },
        &[Panel::new(
            "ablate_flowlet",
            &[
                ("avg_fct_ms", "xpander_hyb", avg_fct),
                ("p99_short_fct_ms", "xpander_hyb", p99_short),
                ("long_tput_gbps", "xpander_hyb", long_tput),
            ],
        )],
    );
}
