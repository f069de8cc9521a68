//! Integration: checkpoint corruption edge cases. A damaged checkpoint
//! must always classify as `EXIT_CKPT_CORRUPT` (a *final* failure — the
//! resume chain is broken, retrying would loop forever), never be
//! restored, and never crash the loader. Exercised at three layers:
//! `Checkpoint::load` byte-level validation, `Simulator::restore`
//! fingerprint validation, and the `dcnrun worker` process exit code.

use std::process::Command;

use beyond_fattrees::prelude::*;
use dcn_bench::supervise::{Attempt, EXIT_CKPT_CORRUPT};
use dcn_rng::Fnv1a;

/// Offsets in the serialized image (see `dcn_sim::checkpoint` docs):
/// magic[0..8], version u32 [8..12], topo fp u64 [12..20], cfg fp
/// [20..28], ... payload ..., trailing whole-image FNV-1a u64.
const VERSION_AT: usize = 8;
const TOPO_FP_AT: usize = 12;

fn topo() -> Topology {
    FatTree::full(4).build()
}

/// Builds a mid-flight checkpoint image to mutilate.
fn image() -> Vec<u8> {
    let t = topo();
    let mut sim = Simulator::new(&t, Routing::Ecmp.selector(&t), SimConfig::default());
    sim.set_window(0, 2 * MS);
    let pattern = AllToAll::new(&t, t.tors_with_servers());
    sim.inject(&generate_flows(
        &pattern,
        &PFabricWebSearch::new(),
        300.0,
        0.002,
        7,
    ));
    let done = sim.run_until(MS / 2);
    assert!(!done, "run must still be in flight when snapshotted");
    sim.checkpoint().expect("checkpoint").as_bytes().to_vec()
}

/// Rewrites the trailing checksum so the image is checksum-*valid* again
/// after a targeted field edit — isolating the deeper validation layers.
fn reseal(data: &mut [u8]) {
    let n = data.len();
    let sum = Fnv1a::hash(&data[..n - 8]);
    data[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("ckpt_corrupt_{name}_{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn truncated_tail_is_rejected() {
    let img = image();
    // Every truncation point must fail cleanly: a torn write can stop
    // anywhere. (Sampled stride keeps the test fast; endpoints covered.)
    for cut in (0..img.len())
        .step_by((img.len() / 64).max(1))
        .chain([img.len() - 1])
    {
        let err = Checkpoint::from_bytes(img[..cut].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes must not validate"));
        assert!(
            err.contains("truncated") || err.contains("checksum") || err.contains("corrupt"),
            "truncation to {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn version_bump_is_rejected_even_with_valid_checksum() {
    let mut img = image();
    img[VERSION_AT..VERSION_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut img);
    let Err(err) = Checkpoint::from_bytes(img) else {
        panic!("future version must not validate");
    };
    assert!(err.contains("version"), "unexpected error {err:?}");
}

#[test]
fn bad_magic_is_rejected() {
    let mut img = image();
    img[0] ^= 0xff;
    reseal(&mut img); // even a checksum-consistent image with wrong magic
    let Err(err) = Checkpoint::from_bytes(img) else {
        panic!("bad magic must not validate");
    };
    assert!(err.contains("magic"), "unexpected error {err:?}");
}

#[test]
fn checksum_valid_but_fingerprint_mismatched_fails_restore() {
    let mut img = image();
    img[TOPO_FP_AT..TOPO_FP_AT + 8].copy_from_slice(&0xdead_beefu64.to_le_bytes());
    reseal(&mut img);
    // Byte-level validation passes — the image is internally consistent…
    let ckpt = Checkpoint::from_bytes(img).expect("resealed image is checksum-valid");
    assert_eq!(ckpt.meta().topo_fingerprint, 0xdead_beef);
    // …but it belongs to a different topology, so restoring must refuse.
    let t = topo();
    let Err(err) = Simulator::restore(&t, Routing::Ecmp.selector(&t), SimConfig::default(), &ckpt)
    else {
        panic!("fingerprint mismatch must not restore");
    };
    assert!(
        err.contains("fingerprint") || err.contains("mismatch") || err.contains("topolog"),
        "unexpected error {err:?}"
    );
}

#[test]
fn corrupt_checkpoints_are_final_never_retried() {
    // The supervisor's classification: exit 4 breaks the retry loop.
    assert!(!Attempt::Exited(EXIT_CKPT_CORRUPT).retryable());
}

/// Launches a `dcnrun worker` resuming from `img`; returns its exit code
/// and whether it wrote a result.
fn resume_worker_on(img: &[u8], tag: &str) -> (Option<i32>, bool) {
    let cfg_path = tmp(&format!("{tag}_cfg.json"));
    std::fs::write(
        &cfg_path,
        r#"{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 300.0,
  "window_ms": [0, 2],
  "seed": 7
}
"#,
    )
    .expect("write config");
    let ckpt_path = tmp(&format!("{tag}.ckpt"));
    std::fs::write(&ckpt_path, img).expect("write checkpoint");

    let result_path = tmp(&format!("{tag}_result.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_dcnrun"))
        .args([
            "worker",
            &cfg_path,
            "--result",
            &result_path,
            "--ckpt",
            &ckpt_path,
            "--checkpoint-every-ms",
            "0",
        ])
        .status()
        .expect("spawn dcnrun worker");
    let wrote_result = std::fs::metadata(&result_path).is_ok();
    for p in [cfg_path, ckpt_path, result_path] {
        let _ = std::fs::remove_file(p);
    }
    (status.code(), wrote_result)
}

/// End to end: a worker launched against a poisoned checkpoint dies with
/// `EXIT_CKPT_CORRUPT` (4), which the supervisor treats as final.
#[test]
fn worker_exits_ckpt_corrupt_on_poisoned_checkpoint() {
    let mut img = image();
    let mid = img.len() / 2;
    img[mid] ^= 0x01; // single bit flip deep in the payload
    let (code, wrote_result) = resume_worker_on(&img, "poisoned");
    assert_eq!(
        code,
        Some(EXIT_CKPT_CORRUPT),
        "poisoned checkpoint must exit {EXIT_CKPT_CORRUPT}"
    );
    assert!(
        !wrote_result,
        "no result may be written from a corrupt resume"
    );
}

/// A checksum-valid v3 image — the sharded engine's per-shard layout,
/// recorded under its event order — is refused by version before any
/// state is decoded, and a worker handed one resumes nothing.
#[test]
fn v3_image_from_the_sharded_engine_is_rejected() {
    let mut img = image();
    img[VERSION_AT..VERSION_AT + 4].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut img);
    let Err(err) = Checkpoint::from_bytes(img.clone()) else {
        panic!("a v3 image must not validate");
    };
    assert!(
        err.contains("unsupported checkpoint version 3"),
        "unexpected error {err:?}"
    );
    let (code, wrote_result) = resume_worker_on(&img, "v3");
    assert_eq!(code, Some(EXIT_CKPT_CORRUPT), "a v3 image must not resume");
    assert!(!wrote_result, "no result may be written from a v3 image");
}
