//! Runs every figure/table binary in sequence, forwarding `--scale`,
//! `--seed`, and `--out` (default `results/`). Intended entry point for
//! regenerating the full evaluation:
//!
//! ```text
//! cargo run --release -p dcn-bench --bin run_all -- --out results
//! ```

#![forbid(unsafe_code)]

use std::process::Command;

const BINARIES: &[&str] = &[
    "fig1_observation1",
    "fig2_tp_curve",
    "table1_costs",
    "fig3_xpander_floorplan",
    "fig4_toy_example",
    "fig5a_slimfly",
    "fig5b_longhop",
    "fig6a_jellyfish_fraction",
    "fig6b_jellyfish_scaling",
    "fig7a_path_diversity",
    "fig7b_neighbor_racks",
    "fig7c_all_to_all",
    "fig8_flow_size_cdfs",
    "fig9_a2a_sweep",
    "fig10_permute_sweep",
    "fig11_permute_load",
    "fig12_pareto_hull",
    "fig13_projector",
    "fig14_skew",
    "fig15_large_scale",
    "ablate_q",
    "ablate_ecn",
    "ablate_flowlet",
    "ablate_adaptive",
    "ablate_failures",
    "ablate_transport",
    "ablate_congestion_aware",
    "conjecture24_search",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if !args.iter().any(|a| a == "--out") {
        args.push("--out".into());
        args.push("results".into());
    }
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("exe dir");
    let mut failures = Vec::new();
    for bin in BINARIES {
        let path = dir.join(bin);
        eprintln!("==== {bin} ====");
        let started = std::time::Instant::now();
        let status = Command::new(&path)
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {path:?}: {e}"));
        eprintln!("==== {bin} done in {:?} ====", started.elapsed());
        if !status.success() {
            eprintln!("!!!! {bin} FAILED: {status}");
            failures.push(*bin);
        }
    }
    if failures.is_empty() {
        eprintln!("all {} experiments completed", BINARIES.len());
    } else {
        eprintln!("{} experiments failed: {failures:?}", failures.len());
        std::process::exit(1);
    }
}
