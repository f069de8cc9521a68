//! Routing hot paths — table construction, per-flowlet path selection,
//! and the stable hash — on the §6 Xpander (216 switches), on the
//! 2048-switch Xpander of the 65,536-host scale proof, and on the k=64
//! fat-tree (5,120 switches) with the same 65,536 hosts.

use dcn_bench::bench_case;
use dcn_routing::ecmp::{hash3, EcmpTable};
use dcn_routing::hyb::PathSelector;
use dcn_routing::RoutingSuite;
use dcn_topology::fattree::FatTree;
use dcn_topology::xpander::Xpander;

fn main() {
    let t = Xpander::paper_sec6(1).build();
    bench_case("ecmp/table_build_216", 10, || EcmpTable::new(&t));

    let suite = RoutingSuite::new(&t);
    let ecmp = suite.ecmp();
    let vlb = suite.vlb();
    let hyb = suite.hyb(100_000);
    let mut key = 0u64;
    bench_case("select/ecmp", 1_000_000, || {
        key = key.wrapping_add(1);
        ecmp.select(3, 200, key, 0)
    });
    let mut key = 0u64;
    bench_case("select/vlb", 1_000_000, || {
        key = key.wrapping_add(1);
        vlb.select(3, 200, key, 0)
    });
    let mut key = 0u64;
    bench_case("select/hyb_past_threshold", 1_000_000, || {
        key = key.wrapping_add(1);
        hyb.select(3, 200, key, 1_000_000)
    });

    let big = Xpander::for_switches(31, 2048, 32, 1).build();
    bench_case("ecmp/table_build_2048", 3, || EcmpTable::new(&big));
    let big_hyb = RoutingSuite::new(&big).hyb(100_000);
    // Alternate flowlets below (ECMP) and past (VLB) the threshold.
    let mut key = 0u64;
    bench_case("select/hyb", 1_000_000, || {
        key = key.wrapping_add(1);
        big_hyb.select(3, 2000, key, (key & 1) * 1_000_000)
    });

    let ft64 = FatTree::full(64).build();
    bench_case("ecmp/table_build_ft64", 3, || EcmpTable::new(&ft64));
    drop(ft64);

    let mut x = 0u64;
    bench_case("hash3", 10_000_000, || {
        x = x.wrapping_add(1);
        hash3(x, 17, 23)
    });
}
