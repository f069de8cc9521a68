//! Pins the packet engine's simulated outcome at fat-tree k=8 and
//! paper-scale Xpander sizes: a digest of every [`FlowRecord`], the
//! packet counters, and the full JSONL event trace of fixed runs must
//! equal the committed constants.
//!
//! The golden traces in `tests/golden/` cover a tiny k=4 incast; these
//! pins hold engine changes that claim "same schedule" (lazy event
//! pushes, queue layout, arena changes) to that claim on workloads where
//! dozens of flows contend, timers re-arm on every ACK, and queues
//! build on every layer (each run takes a few seconds in a debug build).
//! The constants were recorded with the eager engine of
//! `SCHEDULE_VERSION` 2 and re-recorded at version 4, whose FIFO
//! departure clock reorders equal-time events: the k=8 and Xpander runs
//! kept their flow records, packet counts, drops and marks, and only
//! their traces moved (ties no longer queue, and a queued packet's
//! `dequeue` record is written when it is scheduled); the uncontended
//! and pFabric pins kept every byte. Version 5 gave pFabric ports the
//! FIFO tie rule (an arrival at the instant a transmission ends, with
//! nothing waiting, starts at once): the pFabric pin kept its records,
//! packets, drops and marks, and only its trace moved; the other four
//! kept every byte. A deliberate change of simulated behavior must
//! re-record them and say why.

use beyond_fattrees::prelude::*;
use dcn_rng::Fnv1a;

/// (records digest, trace digest, packets sent, drops, ECN marks).
type Pin = (u64, u64, u64, u64, u64);

fn pinned_run(sim: Simulator, flows: &[FlowEvent], window_end: u64) -> Pin {
    traced_run(sim, flows, window_end).0
}

/// [`pinned_run`], also handing back the JSONL trace.
fn traced_run(mut sim: Simulator, flows: &[FlowEvent], window_end: u64) -> (Pin, Vec<u8>) {
    sim.set_window(0, window_end);
    sim.inject(flows);
    let buf = SharedBuf::new();
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let records = sim.run(SEC);
    let window: Vec<&FlowRecord> = records.iter().filter(|r| r.start_ns < window_end).collect();
    assert!(
        window.iter().all(|r| r.fct_ns.is_some()),
        "every window flow must finish, so the run ends on an event both engines share"
    );
    let mut d = Fnv1a::default();
    for r in &records {
        d.write_u64(r.start_ns)
            .write_u64(r.size_bytes)
            .write_u64(r.fct_ns.unwrap_or(u64::MAX))
            .write_u64(r.failed as u64)
            .write_u64(r.recovery_ns.unwrap_or(u64::MAX));
    }
    let trace = buf.contents();
    let pin = (
        d.finish(),
        Fnv1a::hash(&trace),
        sim.conservation().sent,
        sim.total_drops(),
        sim.total_marks(),
    );
    (pin, trace)
}

fn all_to_all(topo: &Topology, lambda: f64, span_s: f64, seed: u64) -> Vec<FlowEvent> {
    let pattern = AllToAll::new(topo, topo.tors_with_servers());
    generate_flows(&pattern, &PFabricWebSearch::new(), lambda, span_s, seed)
}

#[test]
fn fat_tree_k8_dctcp_is_pinned() {
    let t = FatTree::full(8).build();
    let flows = all_to_all(&t, 20_000.0, 0.0006, 8);
    let sim = Simulator::new(&t, Routing::Ecmp.selector(&t), SimConfig::default());
    let got = pinned_run(sim, &flows, 600 * US);
    assert_eq!(
        got,
        (12659804863182638944, 7636160619774429513, 62470, 0, 7509)
    );
}

#[test]
fn xpander_paper_sec6_hyb_is_pinned() {
    let t = Xpander::paper_sec6(1).build();
    let flows = all_to_all(&t, 60_000.0, 0.0003, 6);
    let sim = Simulator::new(&t, Routing::PAPER_HYB.selector(&t), SimConfig::default());
    let got = pinned_run(sim, &flows, 300 * US);
    assert_eq!(
        got,
        (5588707365633921768, 9035480508221121011, 59038, 0, 7102)
    );
}

/// No packet ever queues: one-segment flows of assorted sizes from the
/// first half of the servers to the second, started 2 µs apart so that
/// several are in flight at once on a k=8 fat-tree, yet no two packets
/// meet at a busy channel (the trace holds no `enqueue`). Every
/// transmission starts the moment its packet is offered, so a change to
/// how queued packets are scheduled must leave this run — its `seq`
/// numbering included — byte-identical.
#[test]
fn fat_tree_k8_uncontended_is_pinned() {
    let t = FatTree::full(8).build();
    let tors = t.tors_with_servers();
    let half = 2 * tors.len() as u64;
    let ep = |s: u64| Endpoint {
        rack: tors[(s / 4) as usize],
        server: (s % 4) as u32,
    };
    let flows: Vec<FlowEvent> = (0..400u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            let src = (5 * i) % half;
            let dst = half + (7 * i + h % 3) % half;
            FlowEvent {
                start_s: i as f64 * 2e-6,
                src: ep(src),
                dst: ep(dst),
                bytes: 100 + (h >> 16) % 1_361,
            }
        })
        .collect();
    let sim = Simulator::new(&t, Routing::Ecmp.selector(&t), SimConfig::default());
    let (got, trace) = traced_run(sim, &flows, SEC);
    let trace = String::from_utf8(trace).unwrap();
    assert_eq!(trace.matches("\"enqueue\"").count(), 0, "a packet queued");
    assert_eq!(got, (13422645939697146565, 5140068502859862989, 800, 0, 0));
}

/// Timer-heavy: NewReno through shallow queues while a link flaps and
/// another drops 2% of packets, so RTOs fire, back off, and are re-armed
/// past deadlines that have not yet expired.
#[test]
fn fat_tree_k4_newreno_under_faults_is_pinned() {
    let t = FatTree::full(4).build();
    let flows = all_to_all(&t, 8_000.0, 0.0015, 4);
    let cfg = SimConfig {
        queue_pkts: 12,
        ecn_k_pkts: 6,
        ..SimConfig::default().with_newreno()
    };
    let mut sim = Simulator::new(&t, Routing::Ecmp.selector(&t), cfg);
    let (a, b) = (t.neighbors(0)[0].1, t.neighbors(12)[1].1);
    sim.set_fault_plan(
        &FaultPlan::new()
            .with_seed(5)
            .link_down(500 * US, a)
            .link_up(3 * MS, a)
            .link_gray(0, b, 0.02),
    );
    let got = pinned_run(sim, &flows, 1500 * US);
    assert_eq!(
        got,
        (9099063655373467777, 454467164959946493, 63961, 611, 35726)
    );
}

/// pFabric: strict-priority queues that evict queued packets.
#[test]
fn fat_tree_k4_pfabric_is_pinned() {
    let t = FatTree::full(4).build();
    let flows = all_to_all(&t, 12_000.0, 0.0015, 9);
    let sim = Simulator::new(
        &t,
        Routing::Ecmp.selector(&t),
        SimConfig {
            queue_pkts: 8,
            ..SimConfig::default().with_pfabric()
        },
    );
    let got = pinned_run(sim, &flows, 1500 * US);
    assert_eq!(
        got,
        (14066653106893725137, 3499635465093845593, 75286, 102, 0)
    );
}
