//! Fig 6b: Jellyfish using the same switches as full fat-trees of
//! k = 12 / 24 / 36, but supporting 2× the servers; the advantage should
//! hold or improve with scale. `small` uses k = 6 / 8 / 12 and `tiny`
//! k = 6 / 8 (at k = 4, twice the fat-tree's 16 servers on its 20
//! switches leaves only 2 network ports per switch).

use dcn_bench::{fluid_curve, fraction_sweep, parse_cli, Series};
use dcn_core::Scale;
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;

fn main() {
    let cli = parse_cli(&[]);
    let ks: &[u32] = match cli.scale {
        Scale::Tiny => &[6, 8],
        Scale::Small => &[6, 8, 12],
        Scale::Paper => &[12, 24, 36],
    };
    let xs = fraction_sweep(10);

    let mut curves = Vec::new();
    let mut cols: Vec<String> = Vec::new();
    for &k in ks {
        let ft = FatTree::full(k);
        let switches = ft.num_switches() as u32;
        let servers = 2 * ft.num_servers() as u32; // twice the fat-tree's
        let s_per = servers.div_ceil(switches);
        let net_deg = k - s_per;
        assert!(net_deg >= 3, "k={k} leaves too few network ports");
        let switches = if (switches * net_deg) % 2 == 1 {
            switches - 1
        } else {
            switches
        };
        eprintln!("k={k}: jellyfish {switches} switches, {net_deg} net, {s_per} srv/sw");
        let jf = Jellyfish::new(switches, net_deg, s_per, cli.seed).build();
        curves.push(fluid_curve(&jf, &xs, cli.seed));
        cols.push(format!("k{k}_lo"));
        cols.push(format!("k{k}_hi"));
    }

    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut s = Series::new("fig6b_jellyfish_scaling", "fraction_with_demand", &col_refs);
    for (i, &x) in xs.iter().enumerate() {
        let mut row = Vec::new();
        for c in &curves {
            row.push(c[i].lower);
            row.push(c[i].upper);
        }
        s.push(x, row);
    }
    s.finish(&cli);
}
