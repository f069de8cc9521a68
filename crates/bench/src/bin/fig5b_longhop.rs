//! Fig 5b: as Fig 5a, but against Longhop (paper: 512 ToRs with 10
//! network and 8 server ports — a folded 9-cube) and a same-equipment
//! Jellyfish. Default `small` scale uses a folded 5-cube (32 ToRs).

use dcn_bench::{fluid_curve, fraction_sweep, parse_cli, Series};
use dcn_core::dynamicnet::{RestrictedDynamic, UnrestrictedDynamic};
use dcn_core::{fat_tree_throughput, tp_throughput, Scale};
use dcn_topology::jellyfish::Jellyfish;
use dcn_topology::longhop::Longhop;

fn main() {
    let cli = parse_cli(&[]);
    let lh = match cli.scale {
        Scale::Tiny | Scale::Small => Longhop::folded_hypercube(5, 5),
        Scale::Paper => Longhop::paper_fig5b(),
    };
    let longhop = lh.build();
    let racks = longhop.num_nodes() as u32;
    let net_deg = lh.generators.len() as u32;
    let servers = lh.servers_per_switch;
    let jf = Jellyfish::new(racks, net_deg, servers, cli.seed).build();

    let xs = fraction_sweep(10);
    eprintln!("solving Longhop ({racks} ToRs) ...");
    let lh_curve = fluid_curve(&longhop, &xs, cli.seed);
    eprintln!("solving Jellyfish ...");
    let jf_curve = fluid_curve(&jf, &xs, cli.seed);

    let alpha = jf_curve
        .iter()
        .find(|p| (p.x - 1.0).abs() < 1e-9)
        .unwrap()
        .lower;
    let delta = 1.5;
    let unrestricted =
        UnrestrictedDynamic::equal_cost(net_deg as f64, servers as f64, delta).throughput();
    let restricted = RestrictedDynamic::equal_cost(net_deg as f64, servers as usize, delta);
    let ports_per_server = (net_deg + servers) as f64 / servers as f64;
    let ft_alpha = ((ports_per_server - 1.0) / 4.0).min(1.0);
    let ft_beta = 2.0 / (net_deg + servers) as f64;

    let mut s = Series::new(
        "fig5b_longhop",
        "fraction_with_demand",
        &[
            "tp",
            "jellyfish_lo",
            "jellyfish_hi",
            "longhop_lo",
            "longhop_hi",
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
                lh_curve[i].lower,
                lh_curve[i].upper,
                unrestricted,
                restricted.throughput_bound(active),
                fat_tree_throughput(ft_alpha, ft_beta, x),
            ],
        );
    }
    s.finish(&cli);
}
