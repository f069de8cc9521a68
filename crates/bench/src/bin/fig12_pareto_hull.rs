//! Fig 12: A2A(0.31) with HULL's Pareto flow sizes (mostly tiny flows):
//! 99th-percentile FCT of short flows. Xpander's shorter paths give it
//! *lower* tail latency than the full-bandwidth fat-tree.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing, RunOutput};
use dcn_workloads::{active_racks_for_servers, AllToAll, ParetoHull};

/// The figure's y-axis is µs.
fn p99_short_us(o: &RunOutput) -> f64 {
    o.metrics.p99_short_fct_ms * 1000.0
}

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);

    let total_servers = ft.num_servers() as u32;
    let n_active = (total_servers as f64 * 0.31).round() as u32;
    // Paper sweeps to 3M flow-starts/s at 1024 servers (~2930/server/s).
    let rates = rate_sweep(2900.0 * total_servers as f64, 6);

    let ft_racks = active_racks_for_servers(ft, &ft.tors_with_servers(), n_active, false, cli.seed);
    let xp_racks = active_racks_for_servers(xp, &xp.tors_with_servers(), n_active, true, cli.seed);
    let ft_pat = Rc::new(AllToAll::new(ft, ft_racks));
    let xp_pat = Rc::new(AllToAll::new(xp, xp_racks));
    sweep(
        &cli,
        &ParetoHull::new(),
        "flow_starts_per_s",
        &rates,
        |rate| {
            vec![
                Line::new("fat_tree", ft, Routing::Ecmp, &ft_pat, rate),
                Line::new("xpander_ecmp", xp, Routing::Ecmp, &xp_pat, rate),
                Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &xp_pat, rate),
            ]
        },
        &[Panel::per_line(
            "fig12_pareto_hull_p99_short_fct_us",
            p99_short_us,
            &["fat_tree", "xpander_ecmp", "xpander_hyb"],
        )],
    );
}
