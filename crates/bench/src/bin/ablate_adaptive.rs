//! Ablation: the Q-threshold HYB against the congestion-aware hybrid
//! (§6.3's un-simplified design) and the KSP baseline, on both corner
//! workloads of Fig 7 — skewed neighbor-rack traffic and uniform A2A.

use std::rc::Rc;

use dcn_bench::{avg_fct, p99_short, parse_cli, sweep, Line, Panel};
use dcn_core::{paper_networks, Routing};
use dcn_routing::PAPER_Q_BYTES;
use dcn_workloads::{AllToAll, ExplicitServers, PFabricWebSearch};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(cli.scale, cli.seed);
    let xp = &pair.xpander;

    let l = xp.link(0);
    let per_rack = xp.servers_at(l.a).min(xp.servers_at(l.b));
    let neighbor = Rc::new(ExplicitServers::first_on_racks(xp, &[l.a, l.b], per_rack));
    let uniform = Rc::new(AllToAll::new(xp, xp.tors_with_servers()));
    let neighbor_lambda = 500.0 * (2 * per_rack) as f64;
    let uniform_lambda = 150.0 * xp.num_servers() as f64;

    let schemes = [
        ("hyb_q100k", Routing::Hyb(PAPER_Q_BYTES)),
        ("adaptive_m1", Routing::AdaptiveHyb(1)),
        ("adaptive_m10", Routing::AdaptiveHyb(10)),
        ("adaptive_m100", Routing::AdaptiveHyb(100)),
        ("ksp8", Routing::Ksp(8)),
    ];
    println!(
        "# scheme order: {:?}",
        schemes.iter().map(|x| x.0).collect::<Vec<_>>()
    );
    let indices: Vec<f64> = (0..schemes.len()).map(|i| i as f64).collect();
    sweep(
        &cli,
        &PFabricWebSearch::new(),
        "scheme_index",
        &indices,
        |i| {
            let routing = schemes[i as usize].1;
            vec![
                Line::new("neighbor", xp, routing, &neighbor, neighbor_lambda),
                Line::new("uniform", xp, routing, &uniform, uniform_lambda),
            ]
        },
        &[Panel::new(
            "ablate_adaptive",
            &[
                ("neighbor_avg_fct_ms", "neighbor", avg_fct),
                ("uniform_avg_fct_ms", "uniform", avg_fct),
                ("uniform_p99_short_ms", "uniform", p99_short),
            ],
        )],
    );
}
