//! Fig 3: the Xpander's physical organization — 486 24-port switches,
//! 3402 servers, 18 meta-nodes in 6 pods of 3, with cable bundling and
//! the rack floor plan.

use dcn_bench::parse_cli;
use dcn_json::Json;
use dcn_topology::metrics::{cable_stats, path_stats, xpander_floor_plan};
use dcn_topology::xpander::{second_eigenvalue, Xpander};

fn main() {
    let cli = parse_cli(&[]);
    let xp = Xpander::paper_fig3(cli.seed);
    let t = xp.build();
    let meta_nodes = (xp.net_degree + 1) as usize;
    let fp = xpander_floor_plan(&t, meta_nodes, 6, 34);
    let cables = cable_stats(&t);
    let paths = path_stats(&t);
    let lam2 = second_eigenvalue(&t);
    let ramanujan = 2.0 * ((xp.net_degree as f64) - 1.0).sqrt();

    println!("# fig3_xpander_floorplan");
    println!("switches\t{}", t.num_nodes());
    println!("servers\t{}", t.num_servers());
    println!("net_ports_per_switch\t{}", xp.net_degree);
    println!("servers_per_switch\t{}", xp.servers_per_switch);
    println!("pods\t{}", fp.pods);
    println!("meta_nodes_per_pod\t{}", fp.meta_nodes_per_pod);
    println!("switches_per_meta_node\t{}", fp.switches_per_meta_node);
    println!("servers_per_meta_node\t{}", fp.servers_per_meta_node);
    println!("racks_per_meta_node\t{}", fp.racks_per_meta_node);
    println!("cable_bundles\t{}", cables.bundles);
    println!("cables_per_bundle\t{}", xp.lift);
    println!("intra_meta_cables\t{}", cables.intra_group);
    println!("diameter\t{}", paths.diameter);
    println!("avg_path_length\t{:.4}", paths.avg_path_length);
    println!("lambda2\t{:.4}", lam2);
    println!("ramanujan_bound\t{:.4}", ramanujan);

    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).expect("out dir");
        let body = Json::obj(vec![
            ("switches", Json::from(t.num_nodes())),
            ("servers", Json::from(t.num_servers())),
            ("pods", Json::from(fp.pods)),
            ("meta_nodes_per_pod", Json::from(fp.meta_nodes_per_pod)),
            ("racks_per_meta_node", Json::from(fp.racks_per_meta_node)),
            ("cable_bundles", Json::from(cables.bundles)),
            ("cables_per_bundle", Json::from(xp.lift)),
            ("diameter", Json::from(paths.diameter)),
            ("avg_path_length", Json::from(paths.avg_path_length)),
            ("lambda2", Json::from(lam2)),
            ("ramanujan_bound", Json::from(ramanujan)),
        ]);
        dcn_core::write_atomic(
            format!("{dir}/fig3_xpander_floorplan.json"),
            body.pretty().as_bytes(),
        )
        .expect("write");
        eprintln!("wrote {dir}/fig3_xpander_floorplan.json");
    }
}
