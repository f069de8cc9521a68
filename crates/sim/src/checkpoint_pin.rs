//! Pins the checkpoint wire format (v7) byte for byte.
//!
//! Three images taken at fixed mid-run pauses cover every section
//! variant between them, and each is held to the FNV-1a digest and
//! length it had when the pin was recorded:
//!
//! - (a) DCTCP over `TailDropEcn` under a fault plan that has already
//!   reconverged (`routing_down` is `Some`), with control entries still
//!   pending and a gray link, traced by a `CountingTracer`, and packets
//!   waiting at FIFO ports whose Deliveries are already scheduled;
//! - (b) pFabric over `PFabricQueue` with non-empty queues and in-flight
//!   `Deliver` events, under the `NopTracer`;
//! - (c) NewReno with a JSONL file tracer and file telemetry at fixed
//!   relative paths, so the path bytes are the same on every machine.
//!
//! Checkpointing a freshly restored simulator must reproduce its input
//! image exactly, and a damaged payload under a valid checksum must be
//! refused by [`Simulator::restore`] without a panic, or restore to a
//! simulator that runs on without one.

use crate::checkpoint::{config_fingerprint, Checkpoint, HEADER_LEN};
use crate::engine::{Ev, Simulator};
use crate::fault::FaultPlan;
use crate::telemetry::{Telemetry, DEFAULT_SAMPLE_EVERY_NS};
use crate::trace::{CountingTracer, JsonlTracer};
use crate::types::{SimConfig, MS, US};
use dcn_rng::Fnv1a;
use dcn_routing::RoutingSuite;
use dcn_topology::fattree::FatTree;
use dcn_topology::Topology;
use dcn_workloads::{generate_flows, AllToAll, PFabricWebSearch};

/// `(length, FNV-1a)` of each pinned image, recorded under format v7
/// and `SCHEDULE_VERSION` 5.
const PIN_A: (usize, u64) = (17_314, 0x42d7_0e33_e42f_225b);
const PIN_B: (usize, u64) = (17_848, 0xdfd5_5a78_687f_1623);
const PIN_C: (usize, u64) = (4_992, 0x03a8_ef50_82b7_d9e3);
/// `config_fingerprint(&SimConfig::default())`.
const PIN_CFG: u64 = 0x6562_c3c6_1d18_b48a;

const TRACE_C: &str = "ckpt_pin_c.trace.jsonl";
const TEL_C: &str = "ckpt_pin_c.tel.jsonl";

fn topo() -> Topology {
    FatTree::full(4).build()
}

fn restore(t: &Topology, cfg: SimConfig, ckpt: &Checkpoint) -> Result<Simulator, String> {
    Simulator::restore(t, Box::new(RoutingSuite::new(t).ecmp()), cfg, ckpt)
}

/// An all-to-all web-search workload led by one 8 MB flow, so every
/// pause below is mid-flight.
fn sim(t: &Topology, cfg: SimConfig, lambda: f64, seed: u64) -> Simulator {
    let mut sim = Simulator::new(t, Box::new(RoutingSuite::new(t).ecmp()), cfg);
    let pattern = AllToAll::new(t, t.tors_with_servers());
    let mut flows = generate_flows(&pattern, &PFabricWebSearch::new(), lambda, 0.004, seed);
    flows[0].bytes = 8_000_000;
    sim.set_window(0, 10 * MS);
    sim.inject(&flows);
    sim
}

/// Runs to `pause` and returns the image; the simulator is handed back
/// so callers can check which sections the image exercises.
fn paused(mut sim: Simulator, pause: u64) -> (Simulator, Vec<u8>) {
    assert!(!sim.run_until(pause), "run must pause mid-flight");
    let img = sim.checkpoint().expect("checkpoint").as_bytes().to_vec();
    (sim, img)
}

fn image_a(t: &Topology) -> (Simulator, Vec<u8>) {
    let mut s = sim(t, SimConfig::default(), 1500.0, 23);
    s.set_fault_plan(
        &FaultPlan::new()
            .with_seed(11)
            .link_down(MS, 2)
            .link_gray(2 * MS, 5, 0.02)
            .link_up(6 * MS, 2),
    );
    s.set_tracer(Box::new(CountingTracer::new()));
    // Mid-burst: FIFO ports hold waiting packets whose Deliveries are
    // already in the calendar.
    paused(s, 2_900 * US)
}

fn image_b(t: &Topology) -> (Simulator, Vec<u8>) {
    paused(
        sim(t, SimConfig::default().with_pfabric(), 4000.0, 5),
        2 * MS,
    )
}

fn image_c(t: &Topology) -> (Simulator, Vec<u8>) {
    let mut s = sim(t, SimConfig::default().with_newreno(), 1500.0, 9);
    s.set_tracer(Box::new(JsonlTracer::create(TRACE_C).expect("open trace")));
    s.set_telemetry(Telemetry::to_file(TEL_C, DEFAULT_SAMPLE_EVERY_NS).expect("open telemetry"));
    paused(s, 3 * MS)
}

/// Holds `img` to its pin and checks that a restore followed straight
/// away by a checkpoint reproduces it.
fn check(t: &Topology, cfg: SimConfig, img: &[u8], pin: (usize, u64)) {
    assert_eq!(
        (img.len(), Fnv1a::hash(img)),
        pin,
        "checkpoint image drifted from the pinned v7 bytes"
    );
    let ckpt = Checkpoint::from_bytes(img.to_vec()).expect("valid image");
    let mut resumed = restore(t, cfg, &ckpt).expect("restore");
    let again = resumed.checkpoint().expect("re-checkpoint");
    assert!(
        again.as_bytes() == img,
        "restore + checkpoint changed the image"
    );
}

#[test]
fn checkpoint_pin_config_fingerprint() {
    assert_eq!(config_fingerprint(&SimConfig::default()), PIN_CFG);
}

#[test]
fn checkpoint_pin_faults_and_counting_tracer() {
    let t = topo();
    let (s, img) = image_a(&t);
    assert!(s.routing_down.is_some(), "faults must have reconverged");
    assert!(s.ctrl_pos < s.ctrl.len(), "control entries must be pending");
    let chs = &s.fabric.channels;
    assert!((0..chs.len() as u32).any(|c| chs.loss_prob(c) > 0.0));
    assert!((0..chs.len() as u32).any(|c| chs.queue_len(c) > 0));
    drop(s);
    check(&t, SimConfig::default(), &img, PIN_A);
}

#[test]
fn checkpoint_pin_pfabric_queues_and_deliveries() {
    let t = topo();
    let (s, img) = image_b(&t);
    let chs = &s.fabric.channels;
    assert!((0..chs.len() as u32).any(|c| chs.queue_len(c) > 0));
    assert!(s.queue.iter().any(|e| matches!(e.ev, Ev::Deliver(_))));
    drop(s);
    check(&t, SimConfig::default().with_pfabric(), &img, PIN_B);
}

#[test]
fn checkpoint_pin_file_sinks() {
    let t = topo();
    let (s, img) = image_c(&t);
    drop(s);
    check(&t, SimConfig::default().with_newreno(), &img, PIN_C);
    for p in [TRACE_C, TEL_C] {
        let _ = std::fs::remove_file(format!("{p}.tmp"));
        let _ = std::fs::remove_file(p);
    }
}

/// Replaces `img`'s trailing checksum so the image validates again.
fn reseal(img: &mut [u8]) {
    let n = img.len();
    let sum = Fnv1a::hash(&img[..n - 8]);
    img[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn checkpoint_pin_decoder_refuses_damaged_payloads() {
    let t = topo();
    let suite = RoutingSuite::new(&t);
    let restore = |cfg, img| {
        let ckpt = Checkpoint::from_bytes(img).expect("resealed image validates");
        Simulator::restore(&t, Box::new(suite.ecmp()), cfg, &ckpt)
    };
    let (a, b) = (image_a(&t).1, image_b(&t).1);
    // Every cut of a payload under a fresh checksum: a clean `Err`.
    let mut prefix = Fnv1a::default();
    prefix.write(&a[..HEADER_LEN]);
    for cut in HEADER_LEN..a.len() - 8 {
        let mut cut_img = a[..cut].to_vec();
        cut_img.extend_from_slice(&prefix.finish().to_le_bytes());
        prefix.write(&a[cut..=cut]);
        let cfg = SimConfig::default();
        assert!(
            restore(cfg, cut_img).is_err(),
            "payload cut at {cut} restored"
        );
    }
    // Single flipped bytes, resealed: `Ok` or `Err`, never a panic, and
    // an image that restores runs on without one.
    for (cfg, img) in [
        (SimConfig::default(), a),
        (SimConfig::default().with_pfabric(), b),
    ] {
        for at in (HEADER_LEN..img.len() - 8).step_by(7) {
            let mut flipped = img.clone();
            flipped[at] ^= 0xff;
            reseal(&mut flipped);
            if let Ok(mut sim) = restore(cfg, flipped) {
                sim.run_until(sim.now() + 200 * US);
            }
        }
    }
}
