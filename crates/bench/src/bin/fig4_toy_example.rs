//! Fig 4 / §4.1: the toy example. A statically-wired 54-switch network
//! gives 9 active racks full bandwidth; the *restricted* dynamic model is
//! upper-bounded at 80%; the unrestricted model reaches 100% only by
//! ignoring reconfiguration (90% at ProjecToR's duty cycle).

#![forbid(unsafe_code)]

use dcn_bench::parse_cli;
use dcn_core::dynamicnet::{RestrictedDynamic, UnrestrictedDynamic};
use dcn_json::Json;
use dcn_maxflow::concurrent::{per_server_throughput, GkOptions};
use dcn_maxflow::dinic::topology_max_flow;
use dcn_topology::toy::ToyFig4;

fn main() {
    let cli = parse_cli(&[]);
    let net = ToyFig4::build();
    let t = &net.topology;

    // Rack-level permutation over the 9 active racks (a hard TM).
    let a = &net.active_tors;
    let pairs: Vec<(u32, u32)> = (0..9).map(|i| (a[i], a[(i + 3) % 9])).collect();
    let static_tp = per_server_throughput(
        t,
        &pairs,
        GkOptions {
            epsilon: 0.05,
            target: Some(1.0),
            gap: 0.03,
            max_phases: 2_000_000,
        },
    );

    // All-to-all across active racks in the direct-only network is what the
    // restricted dynamic model degenerates to.
    let restricted = RestrictedDynamic {
        net_ports: 6,
        servers: 6,
    }
    .throughput_bound(9);
    let unrestricted = UnrestrictedDynamic {
        net_ports: 6.0,
        servers: 6.0,
        duty_cycle: 1.0,
    };
    let duty = UnrestrictedDynamic {
        net_ports: 6.0,
        servers: 6.0,
        duty_cycle: 0.9,
    };

    // Max flow between two active racks as a sanity witness of full
    // bandwidth (6 servers ⇒ need 6 units).
    let witness = topology_max_flow(t, a[0], a[4]);

    println!("# fig4_toy_example");
    println!("metric\tvalue");
    println!("static_permutation_throughput\t{static_tp:.4}");
    println!("static_pair_max_flow_units\t{witness:.2}");
    println!("restricted_dynamic_bound\t{restricted:.4}");
    println!("unrestricted_dynamic\t{:.4}", unrestricted.throughput());
    println!("unrestricted_projector_duty\t{:.4}", duty.throughput());

    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).expect("out dir");
        let body = Json::obj(vec![
            ("static_permutation_throughput", Json::from(static_tp)),
            ("static_pair_max_flow_units", Json::from(witness)),
            ("restricted_dynamic_bound", Json::from(restricted)),
            (
                "unrestricted_dynamic",
                Json::from(unrestricted.throughput()),
            ),
            ("unrestricted_projector_duty", Json::from(duty.throughput())),
        ]);
        dcn_core::write_atomic(
            format!("{dir}/fig4_toy_example.json"),
            body.pretty().as_bytes(),
        )
        .expect("write");
        eprintln!("wrote {dir}/fig4_toy_example.json");
    }
}
