//! Fig 7a: why ECMP fails between directly connected ToRs in an expander —
//! the only shortest path is the direct link, although many barely-longer
//! loopless paths exist. Audits first-hop ECMP diversity and k-shortest
//! path lengths for adjacent and non-adjacent ToR pairs.

#![forbid(unsafe_code)]

use dcn_bench::{parse_cli, Series};
use dcn_core::{paper_networks, Scale};
use dcn_routing::{k_shortest_paths, EcmpTable};

fn main() {
    let cli = parse_cli(&[]);
    let pair = paper_networks(
        if cli.scale == Scale::Paper {
            Scale::Paper
        } else {
            Scale::Small
        },
        cli.seed,
    );
    let t = &pair.xpander;
    let table = EcmpTable::new(t);

    let mut s = Series::new(
        "fig7a_path_diversity",
        "pair_index",
        &[
            "adjacent",
            "hop_distance",
            "ecmp_first_hops",
            "ksp8_alternatives_within_plus2",
        ],
    );
    // Sample: the first 8 links give adjacent pairs; 8 distant pairs too.
    for i in 0..8u32 {
        let l = t.link(i);
        let paths = k_shortest_paths(t, l.a, l.b, 8);
        let short = paths[0].len();
        let alt = paths.iter().filter(|p| p.len() <= short + 2).count();
        s.push(
            i as f64,
            vec![
                1.0,
                table.distance(l.a, l.b) as f64,
                table.first_hop_diversity(l.a, l.b) as f64,
                alt as f64,
            ],
        );
    }
    let n = t.num_nodes() as u32;
    let mut idx = 8;
    for a in 0..n {
        if idx >= 16 {
            break;
        }
        for b in (a + 1)..n {
            if table.distance(a, b) >= 2 && !t.are_adjacent(a, b) {
                let paths = k_shortest_paths(t, a, b, 8);
                let short = paths[0].len();
                let alt = paths.iter().filter(|p| p.len() <= short + 2).count();
                s.push(
                    idx as f64,
                    vec![
                        0.0,
                        table.distance(a, b) as f64,
                        table.first_hop_diversity(a, b) as f64,
                        alt as f64,
                    ],
                );
                idx += 1;
                break;
            }
        }
    }
    s.finish(&cli);
}
