//! Ablation: the DCTCP ECN marking threshold K (the paper fixes 20 full
//! packets). Small K trims queues (lower tail latency, less throughput);
//! large K behaves like plain loss-based TCP.

use std::rc::Rc;

use dcn_bench::{avg_fct, long_tput, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_sim::SimConfig;
use dcn_workloads::{active_racks_for_servers, AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;
    let total = pair.fat_tree.num_servers() as u32;
    let n_active = (total as f64 * 0.5).round() as u32;
    let lambda = 167.0 * n_active as f64;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Rc::new(AllToAll::new(xp, racks));
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "ecn_k_pkts",
        &[5.0, 10.0, 20.0, 40.0, 80.0],
        |k| {
            let cfg = SimConfig {
                ecn_k_pkts: k as u32,
                ..Default::default()
            };
            vec![Line {
                cfg,
                ..Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &pat, lambda)
            }]
        },
        &[Panel::new(
            "ablate_ecn",
            &[
                ("avg_fct_ms", "xpander_hyb", avg_fct),
                ("p99_short_fct_ms", "xpander_hyb", p99_short),
                ("long_tput_gbps", "xpander_hyb", long_tput),
                ("drops", "xpander_hyb", |o| o.counters.drops() as f64),
                ("marks", "xpander_hyb", |o| o.counters.ecn_marks as f64),
            ],
        )],
    );
}
