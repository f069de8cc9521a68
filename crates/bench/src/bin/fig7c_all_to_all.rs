//! Fig 7c: all-to-all traffic over every server. VLB's 2× capacity tax
//! now hurts — its average FCT deteriorates with load while ECMP matches
//! the full-bandwidth fat-tree.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_workloads::{AllToAll, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);

    // Paper sweeps to 300K flow-starts/s over 1024 servers (~293/server/s).
    let rates = rate_sweep(290.0 * ft.num_servers() as f64, 6);

    let ft_pat = Rc::new(AllToAll::new(ft, ft.tors_with_servers()));
    let xp_pat = Rc::new(AllToAll::new(xp, xp.tors_with_servers()));
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "flow_starts_per_s",
        &rates,
        |rate| {
            vec![
                Line::new("ft", ft, Routing::Ecmp, &ft_pat, rate),
                Line::new("xp_ecmp", xp, Routing::Ecmp, &xp_pat, rate),
                Line::new("xp_vlb", xp, Routing::Vlb, &xp_pat, rate),
            ]
        },
        &[Panel::new(
            "fig7c_all_to_all",
            &[
                ("fat_tree_avg_fct_ms", "ft", avg_fct),
                ("xpander_ecmp_avg_fct_ms", "xp_ecmp", avg_fct),
                ("xpander_vlb_avg_fct_ms", "xp_vlb", avg_fct),
            ],
        )],
    );
}
