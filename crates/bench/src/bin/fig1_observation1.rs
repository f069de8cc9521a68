//! Fig 1 / Observation 1: an oversubscribed fat-tree caps the throughput
//! of a traffic matrix involving only 2/k of its servers at the
//! oversubscription fraction x.
//!
//! Prints, per (k, core fraction): the fraction of servers involved, the
//! predicted cap x, and the throughput the fluid-flow solver actually
//! achieves on the constructed two-pod TM.

#![forbid(unsafe_code)]

use dcn_bench::{parse_cli, Series};
use dcn_core::theory::{observation1_fraction, observation1_throughput};

fn main() {
    let cli = parse_cli(&[]);
    let mut s = Series::new(
        "fig1_observation1",
        "core_fraction",
        &[
            "k",
            "servers_involved",
            "predicted_cap",
            "measured_throughput",
        ],
    );
    let ks: &[u32] = match cli.scale {
        dcn_core::Scale::Tiny => &[4],
        dcn_core::Scale::Small => &[4, 8],
        dcn_core::Scale::Paper => &[4, 8, 12, 16],
    };
    for &k in ks {
        let h = k / 2;
        for keep in 1..=h {
            let x = keep as f64 / h as f64;
            let measured = observation1_throughput(k, keep);
            s.push(x, vec![k as f64, observation1_fraction(k), x, measured]);
        }
    }
    s.finish(&cli);
}
