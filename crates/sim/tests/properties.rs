//! Property-style tests for the packet simulator: conservation
//! invariants, determinism, and fault-injection termination guarantees.
//! Seeded sweeps stand in for proptest.

use dcn_rng::Rng;
use dcn_routing::RoutingSuite;
use dcn_sim::{
    AckActions, CountingTracer, EnqueueOutcome, FaultPlan, Flow, QueueDiscKind, SimConfig,
    Simulator, Transport, MS, SEC,
};
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;
use dcn_workloads::tm::Endpoint;
use dcn_workloads::{generate_flows, AllToAll, FixedSize, FlowEvent, PFabricWebSearch};

/// Every injected flow completes on an idle-enough network, and FCT is
/// at least the serialization floor and at most the run horizon.
#[test]
fn flows_complete_with_sane_fcts() {
    let mut meta = Rng::seed_from_u64(0x51F1);
    let t = FatTree::full(4).build();
    let mut cases = 0;
    while cases < 8 {
        let lambda = 100.0 + meta.gen_range(0.0..1400.0);
        let bytes = meta.gen_range(1_000u64..500_000);
        let seed = meta.gen_range(0u64..50);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(bytes), lambda, 0.01, seed);
        if flows.is_empty() {
            continue;
        }
        cases += 1;
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.set_window(0, 10 * MS);
        sim.inject(&flows);
        let rec = sim.run(120 * SEC);
        let floor = (bytes as f64 * 8.0 / 10.0) as u64;
        for r in &rec {
            let fct = r.fct_ns.expect("unfinished flow");
            assert!(fct >= floor);
            assert!(fct < 120 * SEC);
        }
    }
}

/// Byte conservation: with zero drops, the receiver saw exactly the
/// flow's bytes — FCT times goodput equals size.
#[test]
fn goodput_consistent() {
    let mut meta = Rng::seed_from_u64(0x600D);
    let t = FatTree::full(4).build();
    for _ in 0..8 {
        let bytes = meta.gen_range(100_000u64..5_000_000);
        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.set_window(0, MS);
        sim.inject(&[FlowEvent {
            start_s: 0.0,
            src: Endpoint { rack: 0, server: 0 },
            dst: Endpoint {
                rack: 12,
                server: 1,
            },
            bytes,
        }]);
        let rec = sim.run(60 * SEC);
        let fct = rec[0].fct_ns.unwrap() as f64;
        let goodput_gbps = bytes as f64 * 8.0 / fct;
        assert!(goodput_gbps <= 10.0 + 1e-9, "goodput above line rate");
        assert!(goodput_gbps > 1.0, "goodput {goodput_gbps} implausibly low");
        assert_eq!(sim.total_drops(), 0);
    }
}

/// Determinism under every routing scheme.
#[test]
fn deterministic_under_all_routings() {
    let mut meta = Rng::seed_from_u64(0xDE7);
    let t = Xpander::new(4, 6, 2, 3).build();
    for _ in 0..6 {
        let mode = meta.gen_range(0u8..3);
        let seed = meta.gen_range(0u64..20);
        let run = || {
            let suite = RoutingSuite::new(&t);
            let sel: Box<dyn dcn_routing::PathSelector> = match mode {
                0 => Box::new(suite.ecmp()),
                1 => Box::new(suite.vlb()),
                _ => Box::new(suite.hyb(100_000)),
            };
            let pattern = AllToAll::new(&t, t.tors_with_servers());
            let flows = generate_flows(&pattern, &FixedSize(80_000), 800.0, 0.005, seed);
            let mut sim = Simulator::new(&t, sel, SimConfig::default());
            sim.set_window(0, 5 * MS);
            sim.inject(&flows);
            sim.run(60 * SEC)
                .iter()
                .map(|r| r.fct_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

/// Shrinking queues can only add drops, never remove completions.
#[test]
fn small_queues_still_deliver() {
    let mut meta = Rng::seed_from_u64(0x5311);
    let t = FatTree::full(4).build();
    let mut cases = 0;
    while cases < 6 {
        let queue = meta.gen_range(5u32..100);
        let seed = meta.gen_range(0u64..20);
        let suite = RoutingSuite::new(&t);
        let cfg = SimConfig {
            queue_pkts: queue,
            ecn_k_pkts: (queue / 3).max(1),
            ..Default::default()
        };
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(200_000), 2_000.0, 0.005, seed);
        if flows.is_empty() {
            continue;
        }
        cases += 1;
        sim.set_window(0, 5 * MS);
        sim.inject(&flows);
        let rec = sim.run(120 * SEC);
        for r in &rec {
            assert!(r.fct_ns.is_some(), "flow lost despite retransmission");
        }
    }
}

/// Fault termination invariant: whatever a seeded fault plan does —
/// transient outages, permanent cuts, switch kills — the run ends and
/// every injected flow is either completed or failed, never limbo.
#[test]
fn faulted_runs_terminate_with_full_accounting() {
    let mut meta = Rng::seed_from_u64(0xFA17);
    let t = Xpander::new(4, 6, 2, 3).build();
    for case in 0..8 {
        let seed = meta.gen_range(0u64..1000);
        let outages = meta.gen_range(1usize..6);
        // Mix transient (recovering) and permanent outages across cases.
        let up = if case % 2 == 0 { Some(8 * MS) } else { None };
        let plan = FaultPlan::random_link_outages(&t, outages, 2 * MS, up, seed);
        let suite = RoutingSuite::new(&t);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(150_000), 1_000.0, 0.01, seed);
        if flows.is_empty() {
            continue;
        }
        let mut sim = Simulator::new(&t, Box::new(suite.hyb(100_000)), SimConfig::default());
        sim.set_window(0, 10 * MS);
        sim.inject(&flows);
        sim.set_fault_plan(&plan);
        let rec = sim.run(120 * SEC);
        let completed = rec.iter().filter(|r| r.fct_ns.is_some()).count();
        let failed = rec.iter().filter(|r| r.failed).count();
        assert_eq!(completed + failed, rec.len(), "flow in limbo (case {case})");
        for r in &rec {
            assert!(
                !(r.failed && r.fct_ns.is_some()),
                "flow both completed and failed"
            );
        }
    }
}

/// Fault determinism: the same workload + the same fault plan (same
/// seed) reproduce identical per-flow outcomes, including gray losses.
#[test]
fn faulted_runs_deterministic() {
    let t = Xpander::new(4, 6, 2, 3).build();
    let run = || {
        let suite = RoutingSuite::new(&t);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(120_000), 1_200.0, 0.01, 11);
        let plan = FaultPlan::random_link_outages(&t, 3, MS, Some(6 * MS), 42)
            .link_gray(MS, 0, 0.05)
            .link_clear(5 * MS, 0);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.set_window(0, 8 * MS);
        sim.inject(&flows);
        sim.set_fault_plan(&plan);
        let rec = sim.run(120 * SEC);
        let drops = (sim.total_fault_drops(), sim.total_congestion_drops());
        (
            rec.iter()
                .map(|r| (r.fct_ns, r.failed, r.recovery_ns))
                .collect::<Vec<_>>(),
            drops,
        )
    };
    assert_eq!(run(), run());
}

/// Byte capacity of fabric channel `ch`: inter-switch channels come
/// first (two per link), then per-server (up, down) pairs — the up
/// direction is the deep NIC queue, the down direction a switch port.
fn channel_cap(ch: u32, link_channels: u32, link_cap: u64, host_cap: u64) -> u64 {
    if ch < link_channels || (ch - link_channels) % 2 == 1 {
        link_cap
    } else {
        host_cap
    }
}

/// Tail-drop + ECN discipline invariants, observed through the trace
/// counters of full runs: no queue ever holds more bytes than its
/// configured capacity, channels that marked packets must have crossed
/// the ECN threshold, and tail-drop never evicts.
#[test]
fn taildrop_occupancy_and_marks_respect_config() {
    let mut meta = Rng::seed_from_u64(0x0b5e);
    let t = FatTree::full(4).build();
    let link_channels = t.num_links() as u32 * 2;
    for _ in 0..6 {
        let queue = meta.gen_range(6u32..40);
        let ecn_k = 1 + meta.gen_range(0u32..queue / 2);
        let seed = meta.gen_range(0u64..50);
        let cfg = SimConfig {
            queue_pkts: queue,
            ecn_k_pkts: ecn_k,
            ..Default::default()
        };
        let mtu = cfg.mtu as u64;
        let (link_cap, host_cap) = (queue as u64 * mtu, cfg.host_queue_pkts as u64 * mtu);
        let ecn_at = ecn_k as u64 * mtu;

        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(150_000), 2_500.0, 0.005, seed);
        sim.set_window(0, 5 * MS);
        sim.inject(&flows);
        sim.set_tracer(Box::new(CountingTracer::new()));
        sim.run(120 * SEC);

        let c = sim.trace_counters().expect("counting tracer");
        let mut marks = 0;
        for (ch, cc) in c.per_channel.iter().enumerate() {
            let cap = channel_cap(ch as u32, link_channels, link_cap, host_cap);
            assert!(
                cc.hwm_bytes <= cap,
                "ch {ch}: occupancy {} exceeded capacity {cap}",
                cc.hwm_bytes
            );
            if cc.marks > 0 {
                assert!(
                    cc.hwm_bytes >= ecn_at,
                    "ch {ch}: marked below the ECN threshold ({} < {ecn_at})",
                    cc.hwm_bytes
                );
            }
            assert_eq!(cc.drops_eviction, 0, "tail-drop evicted on ch {ch}");
            marks += cc.marks;
        }
        assert_eq!(marks, sim.total_marks(), "tracer and fabric disagree");
    }
}

/// pFabric discipline invariants through the trace counters: a channel
/// only evicts when its queue was actually full (occupancy within one
/// MTU of capacity), and the strict-priority queue never ECN-marks.
#[test]
fn pfabric_evicts_only_when_full() {
    let mut meta = Rng::seed_from_u64(0xFAB0);
    let t = FatTree::full(4).build();
    let link_channels = t.num_links() as u32 * 2;
    let mut saw_eviction = false;
    for _ in 0..6 {
        let queue = 4 + meta.gen_range(0u32..6);
        let seed = meta.gen_range(0u64..50);
        let cfg = SimConfig {
            queue_pkts: queue,
            ..SimConfig::default().with_pfabric()
        };
        let mtu = cfg.mtu as u64;
        let (link_cap, host_cap) = (queue as u64 * mtu, cfg.host_queue_pkts as u64 * mtu);

        let suite = RoutingSuite::new(&t);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), cfg);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 3_000.0, 0.005, seed);
        sim.set_window(0, 5 * MS);
        sim.inject(&flows);
        sim.set_tracer(Box::new(CountingTracer::new()));
        sim.run(120 * SEC);

        let c = sim.trace_counters().expect("counting tracer");
        assert_eq!(c.marks, 0, "pFabric queues must never mark");
        for (ch, cc) in c.per_channel.iter().enumerate() {
            if cc.drops_eviction == 0 {
                continue;
            }
            saw_eviction = true;
            let cap = channel_cap(ch as u32, link_channels, link_cap, host_cap);
            assert!(
                cc.hwm_bytes + mtu > cap,
                "ch {ch}: evicted while queue held only {} of {cap} bytes",
                cc.hwm_bytes
            );
        }
    }
    assert!(saw_eviction, "sweep never exercised an eviction");
}

/// Model-based check of the pFabric queue against a naive reference:
/// random enqueue/dequeue sequences must always serve the smallest
/// priority (earliest arrival among ties) and only evict strictly less
/// urgent packets, and only when full.
#[test]
fn pfabric_queue_matches_srpt_model() {
    use dcn_sim::{PFabricQueue, Packet, PacketArena, QueueDiscipline};

    let mk = |pool: &mut PacketArena, prio: u32, seq: u32| {
        pool.alloc(Packet {
            flow: prio,
            seq,
            bytes: 1500,
            ecn_ce: false,
            is_ack: false,
            ack_ecn: false,
            ts: 0,
            hop: 0,
            prio,
            path: Default::default(),
        })
    };

    let mut meta = Rng::seed_from_u64(0x512F);
    for _ in 0..20 {
        let cap_pkts = 2 + meta.gen_range(0u64..8);
        let mut pool = PacketArena::new();
        let mut q = PFabricQueue::new(cap_pkts * 1500);
        // Reference queue: (prio, arrival id) in arrival order.
        let mut model: Vec<(u32, u32)> = Vec::new();
        let mut arrivals = 0u32;
        for _ in 0..300 {
            if meta.gen_range(0.0..1.0) < 0.55 {
                let prio = meta.gen_range(0u32..6);
                let seq = arrivals;
                arrivals += 1;
                let id = mk(&mut pool, prio, seq);
                let out = q.enqueue(id, &mut pool);
                // Reference: evict the worst (max prio, latest arrival)
                // while full, but only if strictly less urgent.
                let mut expect_evicted = Vec::new();
                let accepted = loop {
                    if model.len() < cap_pkts as usize {
                        break true;
                    }
                    let worst = (0..model.len()).max_by_key(|&i| (model[i].0, i)).unwrap();
                    if model[worst].0 > prio {
                        expect_evicted.push(model.remove(worst));
                    } else {
                        break false;
                    }
                };
                assert_eq!(out.accepted, accepted);
                assert_eq!(out.evicted, expect_evicted, "wrong victims");
                assert!(
                    out.evicted.is_empty() || accepted,
                    "evicted without admitting the newcomer"
                );
                if accepted {
                    model.push((prio, seq));
                } else {
                    // The discipline never owned the rejected id; the
                    // channel layer frees it.
                    pool.free(id);
                }
            } else {
                let expect = (0..model.len()).min_by_key(|&i| (model[i].0, i));
                match (q.dequeue(), expect) {
                    (Some(id), Some(i)) => {
                        let (prio, seq) = model.remove(i);
                        let p = pool.get(id);
                        assert_eq!(
                            (p.prio, p.seq),
                            (prio, seq),
                            "dequeue is not smallest-priority-first"
                        );
                        pool.free(id);
                    }
                    (None, None) => {}
                    (got, want) => {
                        panic!("dequeue disagreed with model: {got:?} vs {want:?}")
                    }
                }
            }
            assert_eq!(q.queue_len(), model.len());
            assert_eq!(
                pool.live_count(),
                model.len(),
                "every drop must free its arena slot"
            );
            assert!(q.queue_bytes() <= cap_pkts * 1500);
        }
    }
}

/// A fault-free run is byte-identical whether or not an empty fault plan
/// is installed — the fault machinery is pay-for-what-you-use.
#[test]
fn empty_fault_plan_is_identity() {
    let t = FatTree::full(4).build();
    let run = |with_plan: bool| {
        let suite = RoutingSuite::new(&t);
        let pattern = AllToAll::new(&t, t.tors_with_servers());
        let flows = generate_flows(&pattern, &FixedSize(100_000), 1_000.0, 0.01, 3);
        let mut sim = Simulator::new(&t, Box::new(suite.ecmp()), SimConfig::default());
        sim.set_window(0, 10 * MS);
        sim.inject(&flows);
        if with_plan {
            sim.set_fault_plan(&FaultPlan::new().with_seed(99));
        }
        sim.run(120 * SEC)
            .iter()
            .map(|r| r.fct_ns)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(false), run(true));
}

/// A queue discipline behind a forwarding box, the shape an external
/// observer (a timing wrapper, say) plugs in through `with_parts`.
struct FwdQueue(Box<dyn dcn_sim::QueueDiscipline>);

impl dcn_sim::QueueDiscipline for FwdQueue {
    fn enqueue(&mut self, id: dcn_sim::PktId, pool: &mut dcn_sim::PacketArena) -> EnqueueOutcome {
        self.0.enqueue(id, pool)
    }
    fn dequeue(&mut self) -> Option<dcn_sim::PktId> {
        self.0.dequeue()
    }
    fn queue_bytes(&self) -> u64 {
        self.0.queue_bytes()
    }
    fn queue_len(&self) -> usize {
        self.0.queue_len()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn snapshot_queue(&self, pool: &dcn_sim::PacketArena) -> Option<Vec<dcn_sim::Packet>> {
        self.0.snapshot_queue(pool)
    }
    fn restore_queue(&mut self, pkts: Vec<dcn_sim::Packet>, pool: &mut dcn_sim::PacketArena) {
        self.0.restore_queue(pkts, pool)
    }
}

/// A transport behind a forwarding box.
struct FwdTransport(Box<dyn Transport>);

impl Transport for FwdTransport {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn initial_cwnd(&self, cfg: &SimConfig) -> f64 {
        self.0.initial_cwnd(cfg)
    }
    fn on_ack(&self, f: &mut Flow, c: u32, ecn: bool, rtt_ns: u64, cfg: &SimConfig) -> AckActions {
        self.0.on_ack(f, c, ecn, rtt_ns, cfg)
    }
    fn on_timeout(&self, f: &mut Flow, cfg: &SimConfig) {
        self.0.on_timeout(f, cfg)
    }
    fn on_send(&self, f: &mut Flow, seq: u32, cfg: &SimConfig) {
        self.0.on_send(f, seq, cfg)
    }
    fn priority(&self, f: &Flow, cfg: &SimConfig) -> u32 {
        self.0.priority(f, cfg)
    }
}

/// The engine holds the built-in transports and disciplines by value;
/// the same ones boxed behind forwarding wrappers through `with_parts`
/// must run the identical simulation: flow records, event count,
/// conservation, and the checkpoint image at a mid-run pause.
#[test]
fn boxed_and_by_value_parts_agree() {
    use dcn_sim::host::transport_for;
    let t = FatTree::full(4).build();
    let pattern = AllToAll::new(&t, t.tors_with_servers());
    let mut flows = generate_flows(&pattern, &PFabricWebSearch::new(), 3_000.0, 0.006, 17);
    flows[0].bytes = 4_000_000;
    // Shallow queues, so every pair drops packets as well as queueing them.
    let shallow = SimConfig {
        queue_pkts: 8,
        ..SimConfig::default()
    };
    for cfg in [shallow, shallow.with_newreno(), shallow.with_pfabric()] {
        let ecmp = || Box::new(RoutingSuite::new(&t).ecmp());
        let by_value = Simulator::new(&t, ecmp(), cfg);
        let kind = cfg.queue_disc;
        let boxed = Simulator::with_parts(
            &t,
            ecmp(),
            cfg,
            Box::new(FwdTransport(transport_for(cfg.transport))),
            &|cap, ecn| Box::new(FwdQueue(kind.build(cap, ecn))),
        );
        let outcome = |mut sim: Simulator| {
            sim.set_window(0, 5 * MS);
            sim.inject(&flows);
            assert!(!sim.run_until(3 * MS), "run must pause mid-flight");
            let image = sim.checkpoint().expect("checkpoint").as_bytes().to_vec();
            let records = sim.run(SEC);
            let tx_free = sim.engine_counters().events.tx_free;
            (
                records,
                sim.events_processed(),
                sim.conservation(),
                image,
                tx_free,
            )
        };
        let (a, b) = (outcome(by_value), outcome(boxed));
        let name = cfg.transport.name();
        assert!(a.2.dropped > 0, "{name}: the load must overflow a queue");
        // The departure clock follows `cfg.queue_disc`, whichever way the
        // disciplines are held: FIFO ports push no TxFree.
        for tx_free in [a.4, b.4] {
            match cfg.queue_disc {
                QueueDiscKind::TailDropEcn => assert_eq!(tx_free, 0, "{name}"),
                QueueDiscKind::PFabric => assert!(tx_free > 0, "{name}"),
            }
        }
        assert_eq!(a.0, b.0, "{name}: flow records differ");
        assert_eq!(
            (a.1, a.2),
            (b.1, b.2),
            "{name}: events or conservation differ"
        );
        assert!(a.3 == b.3, "{name}: mid-run checkpoint images differ");
    }
}
