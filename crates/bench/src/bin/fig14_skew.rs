//! Fig 14: Skew(0.04, 0.77) — the paper's parametric simplification of
//! the ProjecToR traffic matrix (product-form rack weights) — on exactly
//! the Fig 13 networks. Results should be "largely similar" to Fig 13.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, p99_short, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing, Scale};
use dcn_sim::SimConfig;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{PFabricWebSearch, Skew};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &match cli.scale {
        Scale::Tiny => Xpander::for_switches(3, 8, 2, cli.seed),
        Scale::Small => Xpander::for_switches(7, 32, 4, cli.seed),
        Scale::Paper => Xpander::paper_projector(cli.seed),
    }
    .build();
    let ft = &pair.fat_tree;

    // Paper: up to 25K flow starts/s over 1024 servers.
    let rates = rate_sweep(24.4 * ft.num_servers() as f64, 6);

    let ft_pat = Rc::new(Skew::projector_like(ft, ft.tors_with_servers(), cli.seed));
    let xp_pat = Rc::new(Skew::projector_like(xp, xp.tors_with_servers(), cli.seed));
    let unconstrained = SimConfig::default().unconstrained_servers();
    let unconstrained_lines = ["fat_tree", "xpander_ecmp", "xpander_hyb"];
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "flow_starts_per_s",
        &rates,
        |rate| {
            vec![
                Line {
                    cfg: unconstrained,
                    ..Line::new("fat_tree", ft, Routing::Ecmp, &ft_pat, rate)
                },
                Line {
                    cfg: unconstrained,
                    ..Line::new("xpander_ecmp", xp, Routing::Ecmp, &xp_pat, rate)
                },
                Line {
                    cfg: unconstrained,
                    ..Line::new("xpander_hyb", xp, Routing::PAPER_HYB, &xp_pat, rate)
                },
                Line::new("ft_constrained", ft, Routing::Ecmp, &ft_pat, rate),
                Line::new("xp_ecmp_constrained", xp, Routing::Ecmp, &xp_pat, rate),
                Line::new("xp_hyb_constrained", xp, Routing::PAPER_HYB, &xp_pat, rate),
            ]
        },
        &[
            Panel::per_line(
                "fig14a_skew_avg_fct_unconstrained",
                avg_fct,
                &unconstrained_lines,
            ),
            Panel::per_line(
                "fig14b_skew_p99_short_unconstrained",
                p99_short,
                &unconstrained_lines,
            ),
            Panel::new(
                "fig14c_skew_avg_fct_constrained",
                &[
                    ("fat_tree", "ft_constrained", avg_fct),
                    ("xpander_ecmp", "xp_ecmp_constrained", avg_fct),
                    ("xpander_hyb", "xp_hyb_constrained", avg_fct),
                ],
            ),
        ],
    );
}
