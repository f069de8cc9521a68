//! Conjecture 2.4 explorer: "Given a static network G and an arbitrary TM
//! M for which G achieves throughput t, there exists a permutation TM P
//! with throughput ≤ t."
//!
//! For random small expanders and random hose-compliant TMs, compares the
//! TM's exact LP throughput against the worst over sampled permutations.
//! A row with `counterexample = 1` would *refute* the conjecture (none
//! are expected; the paper leaves it open, and this search supports it).

use dcn_bench::{parse_cli, Series};
use dcn_maxflow::concurrent::Commodity;
use dcn_maxflow::lp::exact_concurrent_flow;
use dcn_maxflow::network::FlowNetwork;
use dcn_topology::jellyfish::Jellyfish;
use dcn_workloads::fluid;

fn lp_throughput(net: &FlowNetwork, tm: &fluid::FluidTm) -> f64 {
    let coms: Vec<Commodity> = tm
        .commodities
        .iter()
        .map(|&(s, d, dem)| Commodity {
            src: s,
            dst: d,
            demand: dem,
        })
        .collect();
    exact_concurrent_flow(net, &coms)
}

fn main() {
    let cli = parse_cli(&[]);
    let (n_graphs, n_tms, n_perms) = match cli.scale {
        dcn_core::Scale::Tiny => (2, 2, 4),
        dcn_core::Scale::Small => (4, 3, 8),
        dcn_core::Scale::Paper => (8, 5, 16),
    };

    let mut s = Series::new(
        "conjecture24_search",
        "instance",
        &[
            "hose_tm_throughput",
            "worst_permutation_throughput",
            "counterexample",
        ],
    );
    let mut idx = 0.0;
    let mut counterexamples = 0;
    for g in 0..n_graphs {
        // Small so the exact LP stays fast: 8 racks, degree 3.
        let t = Jellyfish::new(8, 3, 2, cli.seed + g).build();
        let net = FlowNetwork::from_topology(&t);
        let racks = t.tors_with_servers();

        let mut worst_perm = f64::INFINITY;
        for p in 0..n_perms {
            let tm = fluid::permutation(&t, &racks, cli.seed * 1000 + p);
            worst_perm = worst_perm.min(lp_throughput(&net, &tm));
        }

        for m in 0..n_tms {
            let tm = fluid::random_hose(&t, &racks, cli.seed * 7777 + g * 100 + m);
            let t_m = lp_throughput(&net, &tm);
            // Conjecture: some permutation is at least as hard as M.
            let counter = if worst_perm > t_m + 1e-6 { 1.0 } else { 0.0 };
            if counter > 0.0 {
                counterexamples += 1;
                eprintln!(
                    "potential counterexample: graph seed {}, TM '{}' (t={t_m:.4} < worst perm {worst_perm:.4})",
                    cli.seed + g,
                    tm.name
                );
            }
            s.push(idx, vec![t_m, worst_perm, counter]);
            idx += 1.0;
        }
    }
    s.finish(&cli);
    eprintln!(
        "{counterexamples} potential counterexamples over {} instances \
         (0 expected; sampled permutations only give an upper bound on the worst case)",
        idx as u64
    );
}
