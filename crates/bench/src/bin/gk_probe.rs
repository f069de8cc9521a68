//! Timing probe for the Garg–Könemann solver on the Fig 5a instance.

#![forbid(unsafe_code)]

use dcn_maxflow::concurrent::{max_concurrent_flow, Commodity, GkOptions};
use dcn_maxflow::network::FlowNetwork;
use dcn_topology::slimfly::SlimFly;
use dcn_workloads::longest_matching;

fn main() {
    let t = SlimFly::paper_fig5a().build();
    let racks = t.tors_with_servers();
    let net = FlowNetwork::from_topology(&t);
    for &(eps, gap) in &[(0.45, 0.2), (0.3, 0.15f64)] {
        {
            let &x = &1.0f64;
            let pairs = longest_matching(&t, &racks, x, 1);
            let coms: Vec<Commodity> = pairs
                .iter()
                .map(|&(a, b)| Commodity {
                    src: a,
                    dst: b,
                    demand: t.servers_at(a) as f64,
                })
                .collect();
            let start = std::time::Instant::now();
            let r = max_concurrent_flow(
                &net,
                &coms,
                GkOptions {
                    epsilon: eps,
                    target: Some(1.0),
                    gap,
                    max_phases: 2_000_000,
                },
            );
            println!(
                "eps={eps} gap={gap} x={x} pairs={} lam={:.4} ub={:.4} phases={} dij={} wall={:?}",
                pairs.len(),
                r.throughput,
                r.upper_bound,
                r.phases,
                r.dijkstra_calls,
                start.elapsed()
            );
        }
    }
}
