//! Fig 9: A2A(x) with the fraction of active servers on the x-axis, at
//! 167 flow-arrivals/s per active server, pFabric flow sizes.
//! Emits three blocks: (a) average FCT, (b) 99th-percentile FCT of short
//! flows, (c) average throughput of long flows.

use std::rc::Rc;

use dcn_bench::{avg_fct, fraction_sweep, long_tput, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let total_servers = ft.num_servers() as f64;

    let lines = ["fat_tree", "xpander_ecmp", "xpander_hyb"];
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "fraction_active",
        &fraction_sweep(10),
        |x| {
            let n_active = (total_servers * x).round().max(4.0) as u32;
            let lambda = 167.0 * n_active as f64;
            let ft_racks =
                active_racks_for_servers(ft, &ft.tors_with_servers(), n_active, false, cli.seed);
            let xp_racks =
                active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
            let ft_pat = Rc::new(AllToAll::new(ft, ft_racks));
            let xp_pat = Rc::new(AllToAll::new(xp, xp_racks));
            vec![
                Line::new("fat_tree", ft, Routing::Ecmp, &ft_pat, lambda),
                Line::new("xpander_ecmp", xp, Routing::Ecmp, &xp_pat, lambda),
                Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &xp_pat, lambda),
            ]
        },
        &[
            Panel::per_line("fig9a_a2a_avg_fct", avg_fct, &lines),
            Panel::per_line("fig9b_a2a_p99_short_fct", p99_short, &lines),
            Panel::per_line("fig9c_a2a_long_tput", long_tput, &lines),
        ],
    );
}
