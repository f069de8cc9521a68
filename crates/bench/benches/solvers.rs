//! Fluid-flow solver costs — Garg–Könemann accuracy/runtime trade (the
//! ε ablation of DESIGN.md §6), the fixed-phase GK instance perfbench
//! solves, Dinic, the tiny simplex, and the flow-level simulator on Fig
//! 15's Xpander.

use dcn_bench::bench_case;
use dcn_flowsim::{FlowSim, FlowSimConfig};
use dcn_maxflow::concurrent::{max_concurrent_flow, Commodity, GkOptions};
use dcn_maxflow::dinic::topology_max_flow;
use dcn_maxflow::lp::exact_concurrent_flow;
use dcn_maxflow::network::FlowNetwork;
use dcn_routing::{RoutingSuite, PAPER_Q_BYTES};
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{generate_flows, longest_matching, PFabricWebSearch, Skew};

fn main() {
    let t = Jellyfish::new(60, 6, 4, 1).build();
    let racks = t.tors_with_servers();
    let pairs = longest_matching(&t, &racks, 1.0, 1);
    let commodities: Vec<Commodity> = pairs
        .iter()
        .map(|&(a, b)| Commodity {
            src: a,
            dst: b,
            demand: 4.0,
        })
        .collect();
    let net = FlowNetwork::from_topology(&t);
    for &eps in &[0.3, 0.1, 0.05] {
        bench_case(&format!("gk_epsilon/{eps}"), 5, || {
            max_concurrent_flow(
                &net,
                &commodities,
                GkOptions {
                    epsilon: eps,
                    target: None,
                    gap: 0.05,
                    max_phases: 2_000_000,
                },
            )
        });
    }

    // The instance perfbench's `fluid` workload solves: the §6 Xpander
    // under longest matching (x = 0.5), ε 0.2, a fixed 24 phases.
    let sec6 = Xpander::paper_sec6(1).build();
    let sec6_racks = sec6.tors_with_servers();
    let sec6_commodities: Vec<Commodity> = longest_matching(&sec6, &sec6_racks, 0.5, 1)
        .into_iter()
        .map(|(a, b)| Commodity {
            src: a,
            dst: b,
            demand: sec6.servers_at(a) as f64,
        })
        .collect();
    let sec6_net = FlowNetwork::from_topology(&sec6);
    bench_case("gk/xpander216_longest_24ph", 5, || {
        max_concurrent_flow(
            &sec6_net,
            &sec6_commodities,
            GkOptions {
                epsilon: 0.2,
                target: None,
                gap: 0.0,
                max_phases: 24,
            },
        )
    });

    let ft = FatTree::full(8).build();
    bench_case("dinic/fat_tree_k8_cross_pod", 20, || {
        topology_max_flow(&ft, 0, 40)
    });

    let mut c6 = dcn_topology::Topology::new("c6");
    for _ in 0..6 {
        c6.add_node(dcn_topology::NodeKind::Tor, 1);
    }
    for i in 0..6u32 {
        c6.add_link(i, (i + 1) % 6);
    }
    let net6 = FlowNetwork::from_topology(&c6);
    let coms = [
        Commodity {
            src: 0,
            dst: 3,
            demand: 1.0,
        },
        Commodity {
            src: 1,
            dst: 4,
            demand: 1.0,
        },
        Commodity {
            src: 2,
            dst: 5,
            demand: 1.0,
        },
    ];
    bench_case("simplex/c6_three_commodities", 50, || {
        exact_concurrent_flow(&net6, &coms)
    });

    // 5,600 web-search arrivals at 20k flow starts/s under Skew(0.04, 0.77)
    // with HYB: every arrival and departure re-runs the water-fill.
    let xp = Xpander::paper_fig15(1).build();
    let suite = RoutingSuite::new(&xp);
    let pattern = Skew::projector_like(&xp, xp.tors_with_servers(), 1);
    let mut flows = generate_flows(&pattern, &PFabricWebSearch::new(), 20_000.0, 0.56, 1);
    flows.truncate(5_600);
    assert_eq!(flows.len(), 5_600);
    bench_case("flowsim/fig15_hyb_5600", 5, || {
        let selector = Box::new(suite.hyb(PAPER_Q_BYTES));
        let mut sim = FlowSim::new(&xp, selector, FlowSimConfig::default());
        sim.inject(&flows);
        sim.run(1e3)
    });
}
