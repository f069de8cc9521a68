//! Table 1: cost per network port for static and recent dynamic designs,
//! and the resulting flexible-port factor δ.

use dcn_bench::parse_cli;
use dcn_core::cost::{delta_lowest, table1};
use dcn_json::Json;

fn main() {
    let cli = parse_cli(&[]);
    println!("# table1_costs");
    println!("design\tcomponent\tlow_usd\thigh_usd");
    for port in table1() {
        for (name, lo, hi) in &port.components {
            println!("{}\t{}\t{}\t{}", port.design, name, lo, hi);
        }
        let (lo, hi) = port.total();
        println!("{}\tTOTAL\t{}\t{}", port.design, lo, hi);
    }
    println!("\ndelta_lowest\t{:.3}", delta_lowest());
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).expect("out dir");
        let rows: Vec<Json> = table1()
            .iter()
            .map(|p| {
                let (lo, hi) = p.total();
                Json::obj(vec![
                    ("design", Json::from(p.design)),
                    (
                        "components",
                        Json::Arr(
                            p.components
                                .iter()
                                .map(|&(name, lo, hi)| {
                                    Json::Arr(vec![
                                        Json::from(name),
                                        Json::from(lo),
                                        Json::from(hi),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("total", Json::Arr(vec![Json::from(lo), Json::from(hi)])),
                ])
            })
            .collect();
        let body = Json::obj(vec![
            ("table", Json::Arr(rows)),
            ("delta_lowest", Json::from(delta_lowest())),
        ]);
        dcn_core::write_atomic(format!("{dir}/table1_costs.json"), body.pretty().as_bytes())
            .expect("write");
        eprintln!("wrote {dir}/table1_costs.json");
    }
}
