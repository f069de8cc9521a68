//! Analytic oracles: on inputs where the packet engine's answer has a
//! closed form, it must be that number exactly.
//!
//! `schedule_pin`, the goldens and `checkpoint_pin` catch *change*; the
//! tests here check that a number is *right*.
//!
//! # Single-flow FCT on an idle fabric
//!
//! With the [`SimConfig`] defaults every link runs at 10 Gbps (1.25 B/ns)
//! with 100 ns of propagation, and switches store and forward. A full
//! data packet (1,460 B of payload plus a 40 B header) serializes in
//! `S = 1,200 ns`; a flow's last packet of `b` wire bytes in
//! `s = ⌈b / 1.25⌉ ns`. A route of `H` channels (2 within a rack, 4
//! within a pod and 6 across pods of a k=4 fat-tree) costs one packet
//! `H·(S + P)` end to end.
//!
//! The sender puts its initial window of 10 packets on its host link at
//! once, and slow start returns two packets per ACK from the first ACK
//! on. The first ACK comes back after `H·(S + P) + H·(32 + P)` ns,
//! before the 12,000 ns the window takes to serialize, and the window
//! only ever grows past the path's few packets of bandwidth-delay
//! product (a DCTCP cut at the host queue's marking threshold of 20
//! packets at most halves it). So the host link never idles, packet `i`
//! starts at `i·S`, every later hop finds its channel free the instant
//! the packet arrives, and packet `i` reaches the receiver at
//! `i·S + H·(S + P)`:
//!
//! - all `N` packets full: `FCT = (N − 1)·S + H·(S + P)`;
//! - a short last packet (`N ≥ 2`) queues behind packet `N − 2` at every
//!   hop, so it arrives `s` after that packet:
//!   `FCT = (N − 2)·S + H·(S + P) + s`; alone (`N = 1`) it is
//!   `H·(s + P)`.

use beyond_fattrees::prelude::*;

const S: u64 = 1_200;
const P: u64 = 100;
const MSS: u64 = 1_460;

/// Serialization time at 10 Gbps of a packet of `wire` bytes.
fn ser(wire: u64) -> u64 {
    (wire * 4).div_ceil(5)
}

/// The k=4 fat-tree and one destination rack at each ToR distance from
/// rack `tors[0]`, with the route's channel count: the same rack (2), a
/// rack in the same pod (4), and a rack in another pod (6).
fn fabric() -> (Topology, Vec<(NodeId, u64)>) {
    let t = FatTree::full(4).build();
    let tors = t.tors_with_servers();
    let dist = t.bfs_distances(tors[0]);
    let at = |d: u32| {
        *tors
            .iter()
            .find(|&&r| dist[r as usize] == d)
            .expect("a ToR at that distance")
    };
    let dsts = vec![(tors[0], 2), (at(2), 4), (at(4), 6)];
    (t, dsts)
}

/// FCT of one flow of `bytes` from server 0 of `tors[0]` to server 1 of
/// `dst`, alone on the fabric.
fn fct(t: &Topology, dst: NodeId, bytes: u64, cfg: SimConfig) -> u64 {
    let src = t.tors_with_servers()[0];
    let mut sim = Simulator::new(t, Routing::Ecmp.selector(t), cfg);
    sim.inject(&[FlowEvent {
        start_s: 0.0,
        src: Endpoint {
            rack: src,
            server: 0,
        },
        dst: Endpoint {
            rack: dst,
            server: 1,
        },
        bytes,
    }]);
    let rec = sim.run(SEC);
    assert_eq!(sim.total_drops(), 0, "an idle fabric drops nothing");
    rec[0].fct_ns.expect("the flow finishes")
}

#[test]
fn single_flow_fct_with_full_segments_is_exact() {
    let (t, dsts) = fabric();
    for (dst, h) in dsts {
        for n in [1u64, 10, 11, 1_000] {
            let want = (n - 1) * S + h * (S + P);
            let got = fct(&t, dst, n * MSS, SimConfig::default());
            assert_eq!(got, want, "{n} segments over {h} channels");
        }
    }
}

#[test]
fn single_flow_fct_with_a_short_last_segment_is_exact() {
    let (t, dsts) = fabric();
    let tail = 100; // payload bytes of the last segment
    let s = ser(tail + 40);
    for (dst, h) in dsts {
        for n in [1u64, 10, 11, 1_000] {
            let want = match n {
                1 => h * (s + P),
                _ => (n - 2) * S + h * (S + P) + s,
            };
            let got = fct(&t, dst, (n - 1) * MSS + tail, SimConfig::default());
            assert_eq!(got, want, "{n} segments over {h} channels");
        }
    }
}

/// The closed forms above do not depend on the transport's window
/// reaction, only on the host link staying busy: NewReno gives the same
/// numbers while its window fits the host queue. (Without DCTCP's marks
/// a 1,000-segment slow start overruns the 256-packet host queue and
/// drops, so the long flow is DCTCP's alone.)
#[test]
fn single_flow_fct_is_transport_independent() {
    let (t, dsts) = fabric();
    let (dst, h) = dsts[2];
    for n in [1u64, 10, 11, 200] {
        let want = (n - 1) * S + h * (S + P);
        let got = fct(&t, dst, n * MSS, SimConfig::default().with_newreno());
        assert_eq!(got, want, "NewReno, {n} segments");
    }
}

/// pFabric (its transport over its queue) meets the same closed form
/// while its fixed 18-packet window covers the flow: the window keeps
/// the host link busy, since the first ACK even across pods returns after
/// `6·(S + P) + 6·(32 + P)` = 8,592 ns, well before the window's `18·S` =
/// 21,600 ns of serialization. Past a window and one packet the closed
/// form is only a bound: a packet sent after an ACK carries a smaller
/// remaining size than the flow's packets still queued at the host, so
/// the priority queue sends it ahead of them, and the reordering draws
/// duplicate ACKs and spurious retransmissions (a 200-segment flow sends
/// about 30 to 60 data packets twice).
#[test]
fn single_flow_fct_under_pfabric_is_exact_within_a_window() {
    let (t, dsts) = fabric();
    for (dst, h) in dsts {
        for n in [1u64, 10, 11, 18, 19, 200, 1_000] {
            let want = (n - 1) * S + h * (S + P);
            let got = fct(&t, dst, n * MSS, SimConfig::default().with_pfabric());
            match n {
                ..=19 => assert_eq!(got, want, "pFabric, {n} segments over {h} channels"),
                _ => assert!(got >= want, "pFabric, {n} segments beat the host link"),
            }
        }
    }
}
