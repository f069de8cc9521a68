//! Pins Garg–Könemann's exact output on two fixed instances: the
//! throughput and dual upper bound (as bit patterns), the phase count and
//! the number of shortest-path calls must equal the committed constants.
//!
//! Every GK figure (Fig 1, 2, 5, 6) rests on the solver's shortest-path
//! kernel settling nodes in one exact order: a kernel change that claims
//! "same paths" is held to that claim here. The constants were recorded
//! with the `BinaryHeap<(f64, node)>` kernel; a deliberate change of the
//! solver's arithmetic or tie order must re-record them and say why.

use dcn_maxflow::concurrent::{max_concurrent_flow, Commodity, GkOptions, GkResult};
use dcn_maxflow::network::FlowNetwork;
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_workloads::{fluid, longest_matching};

/// (throughput bits, upper bound bits, phases, Dijkstra calls).
type Pin = (u64, u64, usize, usize);

fn pin(r: &GkResult) -> Pin {
    (
        r.throughput.to_bits(),
        r.upper_bound.to_bits(),
        r.phases,
        r.dijkstra_calls,
    )
}

/// A fixed phase budget with no early exit, so every run does the same
/// work and ends on the same phase.
fn fixed_phases(epsilon: f64, max_phases: usize) -> GkOptions {
    GkOptions {
        epsilon,
        target: None,
        gap: 0.0,
        max_phases,
    }
}

/// The instance perfbench's `fluid` workload solves: the §6 Xpander (216
/// ToRs) under longest matching with half the racks active, ε 0.2, 24
/// phases.
#[test]
fn xpander_longest_matching_is_pinned() {
    let t = Xpander::paper_sec6(1).build();
    let racks = t.tors_with_servers();
    let commodities: Vec<Commodity> = longest_matching(&t, &racks, 0.5, 1)
        .into_iter()
        .map(|(a, b)| Commodity {
            src: a,
            dst: b,
            demand: t.servers_at(a) as f64,
        })
        .collect();
    let r = max_concurrent_flow(
        &FlowNetwork::from_topology(&t),
        &commodities,
        fixed_phases(0.2, 24),
    );
    assert_eq!(pin(&r), XPANDER_PIN, "got {:?} ({r:?})", pin(&r));
}

/// A k=4 fat-tree under a seeded rack permutation.
#[test]
fn fat_tree_rack_permutation_is_pinned() {
    let t = FatTree::full(4).build();
    let tm = fluid::permutation(&t, &t.tors_with_servers(), 3);
    let commodities: Vec<Commodity> = tm
        .commodities
        .iter()
        .map(|&(src, dst, demand)| Commodity { src, dst, demand })
        .collect();
    let r = max_concurrent_flow(
        &FlowNetwork::from_topology(&t),
        &commodities,
        fixed_phases(0.1, 40),
    );
    assert_eq!(pin(&r), FAT_TREE_PIN, "got {:?} ({r:?})", pin(&r));
}

/// λ = 0.96, upper bound ≈ 1.19631.
const XPANDER_PIN: Pin = (0x3fee_b851_eb85_1eb8, 0x3ff3_2417_d346_d97b, 24, 15_552);
/// λ = 40/41, upper bound ≈ 1.01542.
const FAT_TREE_PIN: Pin = (0x3fef_3831_f383_1f38, 0x3ff0_3f2b_0d72_3507, 40, 960);
