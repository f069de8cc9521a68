//! Pins the Xpander builder's output: the chosen lift's fingerprint and
//! the bits of its `second_eigenvalue`, for the 2048-switch benchmark
//! inputs and the paper configurations. Any change to how candidates are
//! sampled, evaluated or ranked must keep these values.

use dcn_topology::xpander::{second_eigenvalue, Xpander};

fn assert_pinned(name: &str, x: Xpander, fingerprint: u64, lambda_bits: u64) {
    let t = x.build();
    let lam = second_eigenvalue(&t);
    assert_eq!(
        (t.fingerprint(), lam.to_bits()),
        (fingerprint, lambda_bits),
        "{name}: fingerprint {:#018x}, lambda {lam} ({:#018x})",
        t.fingerprint(),
        lam.to_bits()
    );
}

/// The three 2048-switch lifts of the 65k-host benchmark workload.
#[test]
fn xpander_2048_lifts_are_pinned() {
    for (seed, fp, bits) in [
        (1000, 0x92a2_37be_17d4_1fdb, 0x4025_bff5_eb59_67f8),
        (1001, 0xed63_41f5_3c7e_771a, 0x4025_c04a_ed61_93f7),
        (1002, 0x3a48_4663_745e_8379, 0x4025_b8b0_0f36_0e93),
    ] {
        let name = format!("for_switches(31, 2048, 32, {seed})");
        assert_pinned(&name, Xpander::for_switches(31, 2048, 32, seed), fp, bits);
    }
}

#[test]
fn paper_lifts_are_pinned() {
    assert_pinned(
        "paper_sec6(1)",
        Xpander::paper_sec6(1),
        0x7647_26a2_e9c4_c7b0,
        0x4018_dad0_350a_7712,
    );
    assert_pinned(
        "paper_fig15(1)",
        Xpander::paper_fig15(1),
        0xf62f_5984_d9a1_bcf4,
        0x401b_38de_8cda_2353,
    );
}

/// 2-regular lifts of K_3 are unions of cycles. With seed 0 only
/// candidate 1 is a single cycle, so the builder must skip the others.
#[test]
fn only_connected_candidate_is_chosen() {
    assert_pinned(
        "new(2, 6, 1, 0)",
        Xpander::new(2, 6, 1, 0),
        0xc69b_d966_c40a_c9ce,
        0x3fff_ffff_ffff_513a,
    );
}

/// With seed 1 none of the four candidates is connected.
#[test]
#[should_panic(expected = "no connected lift found")]
fn no_connected_candidate_panics() {
    Xpander::new(2, 6, 1, 1).build();
}
