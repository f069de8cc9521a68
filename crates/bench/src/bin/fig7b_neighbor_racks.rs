//! Fig 7b: only the servers on two *adjacent* Xpander racks are active
//! (two same-pod racks for the fat-tree). ECMP collapses onto the single
//! direct link and its FCT blows up with load; VLB spreads over the whole
//! fabric and keeps up with the full-bandwidth fat-tree.

use std::rc::Rc;

use dcn_bench::{avg_fct, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_topology::Topology;
use dcn_workloads::{ExplicitServers, PFabricWebSearch};

/// Two directly connected racks of an expander.
fn adjacent_racks(t: &Topology) -> Vec<u32> {
    let l = t.link(0);
    vec![l.a, l.b]
}

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);

    // The same number of active servers on both networks (the paper uses
    // 10 over two racks; here the most both racks can host).
    let xp_racks = adjacent_racks(xp);
    let ft_edges = pair.ft_config.edge_switches();
    let ft_racks = vec![ft_edges[0][0], ft_edges[0][1]];
    let per_rack = xp_racks
        .iter()
        .map(|&r| xp.servers_at(r))
        .chain(ft_racks.iter().map(|&r| ft.servers_at(r)))
        .min()
        .unwrap();
    let active_servers = 2 * per_rack;
    eprintln!("{active_servers} active servers ({per_rack} per rack)");

    // The paper sweeps to 300 flow-starts/s per active server with 5
    // servers per rack; with fewer servers per rack the direct link needs
    // a proportionally higher per-server rate to saturate.
    let rate_per_server = 300.0 * (5.0 / per_rack as f64).max(1.0);
    let rates = rate_sweep(rate_per_server * active_servers as f64, 6);

    let ft_pat = Rc::new(ExplicitServers::first_on_racks(ft, &ft_racks, per_rack));
    let xp_pat = Rc::new(ExplicitServers::first_on_racks(xp, &xp_racks, per_rack));
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
            "fig7b_neighbor_racks",
            &[
                ("fat_tree_avg_fct_ms", "ft", avg_fct),
                ("xpander_ecmp_avg_fct_ms", "xp_ecmp", avg_fct),
                ("xpander_vlb_avg_fct_ms", "xp_vlb", avg_fct),
            ],
        )],
    );
}
