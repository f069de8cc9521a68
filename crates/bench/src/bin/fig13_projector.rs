//! Fig 13: the ProjecToR comparison. ProjecToR's evaluation pitted 128
//! ToRs with 16 *dynamic* ports each against a full-bandwidth fat-tree —
//! the paper swaps in an Xpander with 16 *static* ports per ToR (cheaper
//! than ProjecToR at δ=1.5) and reproduces the same gains.
//!
//! The workload is a pair-level-skewed stand-in for the proprietary
//! Microsoft trace: 77% of traffic between 4% of rack pairs (DESIGN.md §4).
//! Panels: (a) average FCT and (b) p99 short-flow FCT with server-level
//! bottlenecks ignored (ProjecToR's method); (c) average FCT with real
//! 10 Gbps server links.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, p99_short, parse_cli, rate_sweep, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing, Scale};
use dcn_sim::SimConfig;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{PFabricWebSearch, PairSkew};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    // The flat Xpander of §6.6: same ToR count as the fat-tree's edge
    // layer, double-ish network ports, no other switches.
    let xp = &match cli.scale {
        Scale::Tiny => Xpander::for_switches(3, 8, 2, cli.seed),
        Scale::Small => Xpander::for_switches(7, 32, 4, cli.seed),
        Scale::Paper => Xpander::paper_projector(cli.seed),
    }
    .build();
    let ft = &pair.fat_tree;
    assert_eq!(xp.num_servers(), ft.num_servers());

    // Paper: 2K–14K flow starts/s over 1024 servers. At small scale the
    // same per-server rate leaves every ToR idle (fewer servers behind
    // each hot rack), so sweep ~3x further to reach the contrast regime.
    let per_server = if cli.scale == Scale::Paper {
        13.7
    } else {
        150.0
    };
    let rates = rate_sweep(per_server * ft.num_servers() as f64, 6);

    let ft_pat = Rc::new(PairSkew::projector_trace(
        ft,
        ft.tors_with_servers(),
        cli.seed,
    ));
    let xp_pat = Rc::new(PairSkew::projector_trace(
        xp,
        xp.tors_with_servers(),
        cli.seed,
    ));
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
                "fig13a_projector_avg_fct_unconstrained",
                avg_fct,
                &unconstrained_lines,
            ),
            Panel::per_line(
                "fig13b_projector_p99_short_unconstrained",
                p99_short,
                &unconstrained_lines,
            ),
            Panel::new(
                "fig13c_projector_avg_fct_constrained",
                &[
                    ("fat_tree", "ft_constrained", avg_fct),
                    ("xpander_ecmp", "xp_ecmp_constrained", avg_fct),
                    ("xpander_hyb", "xp_hyb_constrained", avg_fct),
                ],
            ),
        ],
    );
}
