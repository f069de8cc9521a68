//! Integration: the fluid-flow model (Garg–Könemann) and the packet
//! simulator must agree on what a network can carry — the fluid optimum
//! upper-bounds packet-level goodput, and a lightly loaded network
//! delivers close to it.

use beyond_fattrees::maxflow::FlowNetwork;
use beyond_fattrees::prelude::*;

/// Packet-level per-flow goodput for one long-running flow per rack pair.
fn packet_goodput(t: &Topology, pairs: &[(u32, u32)], bytes: u64) -> f64 {
    let mut flows = Vec::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        flows.push(FlowEvent {
            start_s: 0.0,
            src: Endpoint {
                rack: a,
                server: (i % 2) as u32,
            },
            dst: Endpoint {
                rack: b,
                server: (i % 2) as u32,
            },
            bytes,
        });
    }
    let m = Run::new(
        t,
        Routing::Ecmp,
        SimConfig::default(),
        &flows,
        (0, MS),
        60 * SEC,
    )
    .execute()
    .metrics;
    assert_eq!(m.completed, m.flows);
    m.avg_long_tput_gbps
}

#[test]
fn fluid_optimum_bounds_packet_goodput_on_fat_tree() {
    let t = FatTree::full(4).build();
    // Cross-pod rack permutation.
    let pairs = vec![(0u32, 4u32), (4, 8), (8, 12), (12, 0)];
    let commodities: Vec<Commodity> = pairs
        .iter()
        .map(|&(a, b)| Commodity {
            src: a,
            dst: b,
            demand: 1.0,
        })
        .collect();
    let net = FlowNetwork::from_topology(&t);
    let fluid = max_concurrent_flow(
        &net,
        &commodities,
        GkOptions {
            epsilon: 0.03,
            target: None,
            gap: 0.02,
            max_phases: 2_000_000,
        },
    );
    // One 10 Gbps-line-rate flow per pair: fluid says full rate possible.
    let fluid_gbps = (fluid.throughput * 10.0).min(10.0);
    let packet_gbps = packet_goodput(&t, &pairs, 20_000_000);
    assert!(
        packet_gbps <= fluid_gbps * 1.05,
        "packet {packet_gbps} exceeds fluid bound {fluid_gbps}"
    );
    assert!(
        packet_gbps >= fluid_gbps * 0.75,
        "packet {packet_gbps} far below fluid {fluid_gbps} — transport waste?"
    );
}

#[test]
fn oversubscription_shows_up_in_both_models() {
    let full = FatTree::full(4).build();
    let over = FatTree::oversubscribed_core(4, 1).build();
    let pairs = vec![(0u32, 4u32), (1, 5), (8, 12), (9, 13)];

    let fluid = |t: &Topology| {
        per_server_throughput(
            t,
            &pairs,
            GkOptions {
                epsilon: 0.05,
                target: None,
                gap: 0.03,
                max_phases: 2_000_000,
            },
        )
    };
    let f_full = fluid(&full);
    let f_over = fluid(&over);
    assert!(
        f_over < f_full,
        "fluid: oversubscription must cost throughput"
    );

    let p_full = packet_goodput(&full, &pairs, 10_000_000);
    let p_over = packet_goodput(&over, &pairs, 10_000_000);
    assert!(
        p_over < p_full * 0.8,
        "packet: oversubscribed {p_over} vs full {p_full}"
    );
}
