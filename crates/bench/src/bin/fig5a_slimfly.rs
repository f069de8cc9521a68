//! Fig 5a: throughput proportionality, SlimFly, same-equipment Jellyfish,
//! the un/restricted dynamic models at δ = 1.5, and the equal-cost
//! fat-tree, under longest-matching TMs of varying active-server fraction.
//!
//! `--scale paper` uses the paper's q=17 SlimFly (578 ToRs, 25 network +
//! 24 server ports). The default `small` uses q=5 (50 ToRs, 7+4 ports),
//! which keeps each Garg–Könemann solve under a second.

use dcn_bench::{fluid_curve, fraction_sweep, parse_cli, Series};
use dcn_core::dynamicnet::{RestrictedDynamic, UnrestrictedDynamic};
use dcn_core::{fat_tree_throughput, tp_throughput, Scale};
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::slimfly::SlimFly;

fn main() {
    let cli = parse_cli(&[]);
    let (sf, points) = match cli.scale {
        Scale::Tiny | Scale::Small => (SlimFly::new(5, 7), 10),
        Scale::Paper => (SlimFly::paper_fig5a(), 10),
    };
    let slimfly = sf.build();
    let racks = slimfly.num_nodes() as u32;
    let net_deg = sf.net_degree() as u32;
    let servers = sf.servers_per_switch;
    let jf = Jellyfish::new(racks, net_deg, servers, cli.seed).build();

    let xs = fraction_sweep(points);
    eprintln!("solving SlimFly ({racks} ToRs) ...");
    let sf_curve = fluid_curve(&slimfly, &xs, cli.seed);
    eprintln!("solving Jellyfish ...");
    let jf_curve = fluid_curve(&jf, &xs, cli.seed);

    // α for the TP reference comes from Jellyfish at x = 1 (paper's choice).
    let alpha = jf_curve
        .iter()
        .find(|p| (p.x - 1.0).abs() < 1e-9)
        .unwrap()
        .lower;

    let delta = 1.5;
    let unrestricted =
        UnrestrictedDynamic::equal_cost(net_deg as f64, servers as f64, delta).throughput();
    let restricted = RestrictedDynamic::equal_cost(net_deg as f64, servers as usize, delta);

    // Equal-cost fat-tree (analytic; DESIGN.md §3): a full fat-tree spends
    // 5 ports per server, so a static net with p ports/server equals a
    // fat-tree oversubscribed to α_ft = (p − 1)/4; β = 2/k at the same
    // switch port count.
    let ports_per_server = (net_deg + servers) as f64 / servers as f64;
    let ft_alpha = ((ports_per_server - 1.0) / 4.0).min(1.0);
    let ft_beta = 2.0 / (net_deg + servers) as f64;

    let mut s = Series::new(
        "fig5a_slimfly",
        "fraction_with_demand",
        &[
            "tp",
            "jellyfish_lo",
            "jellyfish_hi",
            "slimfly_lo",
            "slimfly_hi",
            "unrestricted_dyn_1.5",
            "restricted_dyn_1.5",
            "equal_cost_fat_tree",
        ],
    );
    for (i, &x) in xs.iter().enumerate() {
        let active = ((racks as f64) * x).round() as usize;
        s.push(
            x,
            vec![
                tp_throughput(alpha, x),
                jf_curve[i].lower,
                jf_curve[i].upper,
                sf_curve[i].lower,
                sf_curve[i].upper,
                unrestricted,
                restricted.throughput_bound(active),
                fat_tree_throughput(ft_alpha, ft_beta, x),
            ],
        );
    }
    s.finish(&cli);
}
