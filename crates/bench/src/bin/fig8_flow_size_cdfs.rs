//! Fig 8: the two flow-size distributions — pFabric web search
//! (mean ≈ 2.4 MB) and Pareto-HULL (mean ≈ 100 KB) — as CDFs, analytic
//! and empirical.

use dcn_bench::{parse_cli, Series};
use dcn_rng::Rng;
use dcn_workloads::{FlowSizeDist, PFabricWebSearch, ParetoHull};

fn empirical_cdf(d: &dyn FlowSizeDist, at: &[u64], n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
    samples.sort_unstable();
    at.iter()
        .map(|&x| samples.partition_point(|&s| s <= x) as f64 / n as f64)
        .collect()
}

fn main() {
    let cli = parse_cli(&[]);
    let pf = PFabricWebSearch::new();
    let ph = ParetoHull::new();
    // Log-spaced sizes from 1 KB to 1 GB (the figure's x-range).
    let points: Vec<u64> = (0..=24)
        .map(|i| (1000.0 * 10f64.powf(i as f64 / 4.0)) as u64)
        .collect();
    let pf_emp = empirical_cdf(&pf, &points, 200_000, cli.seed);
    let ph_emp = empirical_cdf(&ph, &points, 200_000, cli.seed);

    let mut s = Series::new(
        "fig8_flow_size_cdfs",
        "flow_size_bytes",
        &[
            "pfabric_cdf",
            "pfabric_empirical",
            "pareto_hull_cdf",
            "pareto_hull_empirical",
        ],
    );
    for (i, &x) in points.iter().enumerate() {
        s.push(x as f64, vec![pf.cdf(x), pf_emp[i], ph.cdf(x), ph_emp[i]]);
    }
    s.finish(&cli);
    eprintln!(
        "pFabric mean: {:.0} bytes; Pareto-HULL mean: {:.0} bytes",
        pf.mean(),
        ph.mean()
    );
}
