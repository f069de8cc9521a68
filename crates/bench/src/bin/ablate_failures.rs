//! Extension experiment (not in the paper): graceful degradation under
//! link failures. Expanders are known to degrade smoothly, while a
//! fat-tree's layered structure concentrates damage; this quantifies the
//! effect with the same FCT methodology as §6.
//!
//! Two modes:
//!
//! * default (static): links are removed before the run and the routing
//!   is built on the degraded topology — steady-state damage.
//! * `--dynamic`: links fail *during* the measurement window and recover
//!   later; routing reconverges after a delay and senders reroute on RTO.
//!   Emits the fault-drop and recovery-latency columns alongside FCT.

#![forbid(unsafe_code)]

use std::rc::Rc;

use dcn_bench::{avg_fct, packet_setup, parse_cli, sweep, Cli, Line, Panel};
use dcn_core::{paper_networks, NetworkPair, Routing, RunOutput};
use dcn_sim::FaultPlan;
use dcn_workloads::{AllToAll, PFabricWebSearch};

const FRACTIONS: [f64; 5] = [0.0, 0.05, 0.1, 0.15, 0.2];

fn main() {
    let cli = parse_cli(&["dynamic"]);
    let pair = paper_networks(cli.scale, cli.seed);
    if cli.has_flag("dynamic") {
        dynamic_mode(&cli, &pair);
    } else {
        static_mode(&cli, &pair);
    }
}

/// Steady-state damage: fail a fraction of links up front, route around.
fn static_mode(cli: &Cli, pair: &NetworkPair) {
    let lambda_ft = 100.0 * pair.fat_tree.num_servers() as f64;
    let lambda_xp = 100.0 * pair.xpander.num_servers() as f64;
    let degraded: Vec<_> = FRACTIONS
        .iter()
        .map(|&frac| {
            let ft = pair.fat_tree.with_random_failures(frac, cli.seed);
            let xp = pair.xpander.with_random_failures(frac, cli.seed);
            let ft_pat = Rc::new(AllToAll::new(&ft, ft.tors_with_servers()));
            let xp_pat = Rc::new(AllToAll::new(&xp, xp.tors_with_servers()));
            (frac, ft, ft_pat, xp, xp_pat)
        })
        .collect();
    sweep(
        cli,
        &PFabricWebSearch::new(),
        "failed_link_fraction",
        &FRACTIONS,
        |frac| {
            let (_, ft, ft_pat, xp, xp_pat) = degraded
                .iter()
                .find(|d| d.0 == frac)
                .expect("one degraded pair per fraction");
            vec![
                Line::new("fat_tree", ft, Routing::Ecmp, ft_pat, lambda_ft),
                Line::new("xpander_hyb", xp, Routing::PAPER_HYB, xp_pat, lambda_xp),
            ]
        },
        &[Panel::new(
            "ablate_failures",
            &[
                ("fat_tree_avg_fct_ms", "fat_tree", avg_fct),
                ("xpander_hyb_avg_fct_ms", "xpander_hyb", avg_fct),
            ],
        )],
    );
}

/// Fail-then-recover: the fraction of links goes down a quarter into the
/// measurement window and comes back at the midpoint, so the run covers
/// outage, reconvergence, and recovery on the *same* flows.
fn dynamic_mode(cli: &Cli, pair: &NetworkPair) {
    let (w0, w1) = packet_setup(cli.scale).window;
    let span = w1 - w0;
    let down_at = w0 + span / 4;
    let up_at = w0 + span / 2;

    let networks = [
        ("fat_tree", &pair.fat_tree, Routing::Ecmp),
        ("xpander_hyb", &pair.xpander, Routing::PAPER_HYB),
    ];
    let patterns = networks.map(|(_, t, _)| Rc::new(AllToAll::new(t, t.tors_with_servers())));
    sweep(
        cli,
        &PFabricWebSearch::new(),
        "failed_link_fraction",
        &FRACTIONS,
        |frac| {
            networks
                .iter()
                .zip(&patterns)
                .map(|(&(name, t, routing), pat)| {
                    let count = (frac * t.num_links() as f64).round() as usize;
                    let plan = if count == 0 {
                        FaultPlan::new()
                    } else {
                        FaultPlan::random_link_outages(t, count, down_at, Some(up_at), cli.seed)
                    };
                    Line {
                        faults: Some(plan),
                        ..Line::new(name, t, routing, pat, 100.0 * t.num_servers() as f64)
                    }
                })
                .collect()
        },
        &[Panel::new(
            "ablate_failures_dynamic",
            &[
                ("fat_tree_avg_fct_ms", "fat_tree", avg_fct),
                ("fat_tree_fault_drops", "fat_tree", fault_drops),
                ("fat_tree_failed_flows", "fat_tree", failed_flows),
                ("fat_tree_avg_recovery_ms", "fat_tree", avg_recovery),
                ("xpander_hyb_avg_fct_ms", "xpander_hyb", avg_fct),
                ("xpander_hyb_fault_drops", "xpander_hyb", fault_drops),
                ("xpander_hyb_failed_flows", "xpander_hyb", failed_flows),
                ("xpander_hyb_avg_recovery_ms", "xpander_hyb", avg_recovery),
            ],
        )],
    );
}

fn fault_drops(o: &RunOutput) -> f64 {
    o.counters.fault_drops as f64
}

fn failed_flows(o: &RunOutput) -> f64 {
    o.metrics.failed as f64
}

fn avg_recovery(o: &RunOutput) -> f64 {
    o.metrics.avg_recovery_ms
}
