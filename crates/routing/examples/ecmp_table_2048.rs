//! Builds the ECMP table for the 2048-switch Xpander of the 65,536-host
//! scale proof (d=31, 32 servers per switch) and walks one path.
//!
//! CI runs this under a `ulimit -v` ceiling to pin the table's memory
//! footprint: a 2048² hop-distance matrix of bytes is 4 MiB, and the
//! bit-parallel kernel that fills it holds two 512 KiB bitsets while it
//! runs. The kernel splits its rows over one thread per core. On a 2-vCPU
//! Intel Xeon VM, twelve fresh runs took 28–77 ms, alternated with the
//! single-threaded kernel at 24–51 ms (eleven runs): the split pays only
//! while the second vCPU is free (one BFS per destination took
//! 0.21–0.33 s). It also runs under a 40 MiB ceiling.
//!
//! ```sh
//! cargo run --release -p dcn-routing --example ecmp_table_2048
//! ```

use dcn_routing::EcmpTable;
use dcn_topology::xpander::Xpander;
use std::time::Instant;

fn main() {
    let t = Xpander::for_switches(31, 2048, 32, 1).build();
    let t0 = Instant::now();
    let table = EcmpTable::new(&t);
    let build_s = t0.elapsed().as_secs_f64();
    let path = table.path(3, 2000, 42);
    assert_eq!(path.len() as u32, table.distance(3, 2000));
    println!(
        "switches {} links {} table_build_s {build_s:.3} path_hops {}",
        t.num_nodes(),
        t.num_links(),
        path.len()
    );
}
