//! Fig 15: the larger-scale comparison — a k=24 fat-tree (3456 servers,
//! 720 switches) versus an Xpander at only 45% of its cost, under
//! Skew(0.04, 0.77). Run in the flow-level simulator (`dcn-flowsim`) to
//! make the scale tractable; DESIGN.md §4 documents the fidelity trade.

#![forbid(unsafe_code)]

use dcn_bench::{packet_setup, parse_cli, rate_sweep, Series};
use dcn_core::{Routing, Scale};
use dcn_flowsim::{FlowSim, FlowSimConfig};
use dcn_sim::compute_metrics;
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_topology::Topology;
use dcn_workloads::{generate_flows, PFabricWebSearch, Skew, TrafficPattern};

fn flow_point(
    t: &Topology,
    routing: Routing,
    pattern: &dyn TrafficPattern,
    rate: f64,
    setup: dcn_bench::PacketSetup,
    seed: u64,
) -> dcn_sim::Metrics {
    let sizes = PFabricWebSearch::new();
    let flows = generate_flows(pattern, &sizes, rate, setup.horizon_s, seed);
    let mut sim = FlowSim::new(t, routing.selector(t), FlowSimConfig::default());
    sim.inject(&flows);
    let records = sim.run(setup.max_time as f64 / 1e9);
    compute_metrics(&records, setup.window.0, setup.window.1)
}

fn main() {
    let cli = parse_cli(&[]);
    let (ft_cfg, xp_cfg) = match cli.scale {
        Scale::Tiny => (FatTree::full(8), Xpander::for_switches(5, 36, 4, cli.seed)),
        Scale::Small => (FatTree::full(12), Xpander::for_switches(6, 77, 6, cli.seed)),
        Scale::Paper => (FatTree::full(24), Xpander::paper_fig15(cli.seed)),
    };
    let ft = ft_cfg.build();
    let xp = xp_cfg.build();
    eprintln!(
        "fat-tree: {} switches / {} servers; xpander: {} switches ({}% cost) / {} servers",
        ft.num_nodes(),
        ft.num_servers(),
        xp.num_nodes(),
        (100.0 * xp.num_nodes() as f64 / ft.num_nodes() as f64).round(),
        xp.num_servers()
    );

    let setup = packet_setup(cli.scale);
    let servers = ft.num_servers() as f64;
    // Paper: up to 80K flow starts/s over 3456 servers (~23/server/s).
    let rates = rate_sweep(23.0 * servers, 6);

    let mut a = Series::new(
        "fig15a_large_avg_fct",
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );
    let mut b = Series::new(
        "fig15b_large_p99_short_fct",
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );
    let mut c = Series::new(
        "fig15c_large_long_tput",
        "flow_starts_per_s",
        &["fat_tree", "xpander_ecmp", "xpander_hyb"],
    );

    for &rate in &rates {
        eprintln!("λ = {rate}");
        let ft_pat = Skew::projector_like(&ft, ft.tors_with_servers(), cli.seed);
        let xp_pat = Skew::projector_like(&xp, xp.tors_with_servers(), cli.seed);
        let f = flow_point(&ft, Routing::Ecmp, &ft_pat, rate, setup, cli.seed);
        let e = flow_point(&xp, Routing::Ecmp, &xp_pat, rate, setup, cli.seed);
        let h = flow_point(&xp, Routing::PAPER_HYB, &xp_pat, rate, setup, cli.seed);
        a.push(rate, vec![f.avg_fct_ms, e.avg_fct_ms, h.avg_fct_ms]);
        b.push(
            rate,
            vec![f.p99_short_fct_ms, e.p99_short_fct_ms, h.p99_short_fct_ms],
        );
        c.push(
            rate,
            vec![
                f.avg_long_tput_gbps,
                e.avg_long_tput_gbps,
                h.avg_long_tput_gbps,
            ],
        );
    }
    a.finish(&cli);
    b.finish(&cli);
    c.finish(&cli);
}
