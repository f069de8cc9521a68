//! Fig 6a: Jellyfish built with 80% / 50% / 40% of a full fat-tree's
//! switches (same port count, same servers) under longest-matching TMs.
//! Paper scale uses k=20 (500 switches, 2000 servers); `small` uses k=8.

#![forbid(unsafe_code)]

use dcn_bench::{fluid_curve, fraction_sweep, parse_cli, Series};
use dcn_core::Scale;
use dcn_topology::fattree::FatTree;
use dcn_topology::jellyfish::Jellyfish;

fn main() {
    let cli = parse_cli(&[]);
    let k = match cli.scale {
        Scale::Tiny => 4,
        Scale::Small => 8,
        Scale::Paper => 20,
    };
    let ft = FatTree::full(k);
    let servers = ft.num_servers() as u32;
    let xs = fraction_sweep(10);

    let mut curves = Vec::new();
    for &pct in &[0.8, 0.5, 0.4] {
        let switches = (ft.num_switches() as f64 * pct) as u32;
        let s_per = servers.div_ceil(switches);
        let net_deg = k - s_per;
        // Jellyfish needs an even switches × degree product.
        let switches = if (switches * net_deg) % 2 == 1 {
            switches - 1
        } else {
            switches
        };
        eprintln!("jellyfish {pct}: {switches} switches, {net_deg} net ports, {s_per} servers/sw");
        let jf = Jellyfish::new(switches, net_deg, s_per, cli.seed).build();
        curves.push(fluid_curve(&jf, &xs, cli.seed));
    }

    let mut s = Series::new(
        "fig6a_jellyfish_fraction",
        "fraction_with_demand",
        &[
            "jf80_lo", "jf80_hi", "jf50_lo", "jf50_hi", "jf40_lo", "jf40_hi",
        ],
    );
    for (i, &x) in xs.iter().enumerate() {
        s.push(
            x,
            vec![
                curves[0][i].lower,
                curves[0][i].upper,
                curves[1][i].lower,
                curves[1][i].upper,
                curves[2][i].lower,
                curves[2][i].upper,
            ],
        );
    }
    s.finish(&cli);
}
