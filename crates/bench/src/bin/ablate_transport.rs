//! Ablation: DCTCP (the paper's transport) versus a loss-based NewReno
//! baseline and the pFabric transport/queue pair on the 2/3-cost Xpander
//! with HYB — checks that the paper's routing result does not secretly
//! depend on DCTCP's ECN reaction or on FIFO queueing.

#![forbid(unsafe_code)]

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
    let lambda = 130.0 * n_active as f64;

    let racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let pat = Rc::new(AllToAll::new(xp, racks));
    let transports = [
        SimConfig::default(),
        SimConfig::default().with_newreno(),
        SimConfig::default().with_pfabric(),
    ];
    println!("# transport order: [dctcp, newreno, pfabric]");
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "transport_index",
        &[0.0, 1.0, 2.0],
        |i| {
            vec![Line {
                cfg: transports[i as usize],
                ..Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &pat, lambda)
            }]
        },
        &[Panel::new(
            "ablate_transport",
            &[
                ("avg_fct_ms", "xpander_hyb", avg_fct),
                ("p99_short_fct_ms", "xpander_hyb", p99_short),
                ("long_tput_gbps", "xpander_hyb", long_tput),
            ],
        )],
    );
}
