//! Fig 11: Permute(0.31) with the aggregate flow arrival rate on the
//! x-axis, including the oversubscribed "77%-fat-tree". Xpander + HYB
//! tracks the full-bandwidth fat-tree; the cheap fat-tree deteriorates
//! much earlier.

use std::rc::Rc;

use dcn_bench::{avg_fct, long_tput, p99_short, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_topology::fattree::FatTree;
use dcn_topology::Topology;
use dcn_workloads::{active_racks_for_servers, PFabricWebSearch, Permutation};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let (ft, xp) = (&pair.fat_tree, &pair.xpander);
    let ft77 = FatTree::at_cost_fraction(pair.ft_config.k, 0.78).build();

    let total_servers = ft.num_servers() as u32;
    let n_active = (total_servers as f64 * 0.31).round() as u32;
    // Paper: λ up to 120K over 1024 servers ≈ 117/server/s (all servers).
    let rates = rate_sweep(117.0 * total_servers as f64, 6);

    // The 77% fat-tree has the same ToR layout indices for its first racks.
    let permute = |t: &Topology, bias: bool| {
        let racks = active_racks_for_servers(t, &t.tors_with_servers(), n_active, bias, cli.seed);
        Rc::new(Permutation::new(t, racks, cli.seed))
    };
    let ft_pat = permute(ft, false);
    let xp_pat = permute(xp, true);
    let ft77_pat = permute(&ft77, false);

    let lines = ["fat_tree", "xpander_ecmp", "xpander_hyb", "fat_tree_77pct"];
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "flow_starts_per_s",
        &rates,
        |rate| {
            vec![
                Line::new("fat_tree", ft, Routing::Ecmp, &ft_pat, rate),
                Line::new("xpander_ecmp", xp, Routing::Ecmp, &xp_pat, rate),
                Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &xp_pat, rate),
                Line::new("fat_tree_77pct", &ft77, Routing::Ecmp, &ft77_pat, rate),
            ]
        },
        &[
            Panel::per_line("fig11a_permute_load_avg_fct", avg_fct, &lines),
            Panel::per_line("fig11b_permute_load_p99_short_fct", p99_short, &lines),
            Panel::per_line("fig11c_permute_load_long_tput", long_tput, &lines),
        ],
    );
}
