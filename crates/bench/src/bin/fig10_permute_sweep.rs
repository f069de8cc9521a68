//! Fig 10: Permute(x) — random rack-level permutation traffic restricted
//! to x of the racks — at 167 flow-arrivals/s per active server, pFabric
//! sizes. The rack-to-rack consolidation makes this the hard case for
//! ECMP on the expander; HYB recovers the fat-tree's performance for
//! skewed (small-x) matrices.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, fraction_sweep, long_tput, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

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
            let n_active = (total_servers * x).round().max(8.0) as u32;
            let lambda = 167.0 * n_active as f64;
            let ft_racks =
                active_racks_for_servers(ft, &ft.tors_with_servers(), n_active, false, cli.seed);
            let xp_racks =
                active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
            let ft_pat = Rc::new(Permutation::new(ft, ft_racks, cli.seed));
            let xp_pat = Rc::new(Permutation::new(xp, xp_racks, cli.seed));
            vec![
                Line::new("fat_tree", ft, Routing::Ecmp, &ft_pat, lambda),
                Line::new("xpander_ecmp", xp, Routing::Ecmp, &xp_pat, lambda),
                Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &xp_pat, lambda),
            ]
        },
        &[
            Panel::per_line("fig10a_permute_avg_fct", avg_fct, &lines),
            Panel::per_line("fig10b_permute_p99_short_fct", p99_short, &lines),
            Panel::per_line("fig10c_permute_long_tput", long_tput, &lines),
        ],
    );
}
