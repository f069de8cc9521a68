//! `dcnsim` — run a custom data center FCT experiment from a JSON config,
//! without writing Rust. The adoption-oriented entry point:
//!
//! ```text
//! cargo run --release --bin dcnsim -- experiment.json
//! cargo run --release --bin dcnsim -- --print-example > experiment.json
//! ```
//!
//! The config selects a topology, routing scheme, workload, arrival rate,
//! simulator constants, and (optionally) a fault plan; the tool prints the
//! paper's three headline metrics (and a full JSON report to stdout with
//! `--json`). Parsing, workload generation, and fault-schedule validation
//! live in [`beyond_fattrees::config`] — shared with the `dcnrun`
//! supervisor. Observability side-channels:
//!
//! - `--trace events.jsonl` (or `"trace"` in the config): every simulator
//!   event — enqueues, ECN marks, drops by cause, ACKs, RTOs, fault
//!   transitions — one JSON object per line;
//! - `--telemetry ts.jsonl` (or `"telemetry"`): periodic fabric-wide
//!   samples on a `"telemetry_every_us"` cadence (default 100 µs);
//! - `--manifest manifest.json` (or `"manifest"`): a provenance manifest
//!   with config echo, topology fingerprint, fault digest, FCT histogram
//!   summary, and packet-conservation counters.
//!
//! See DESIGN.md §Observability for the schemas; `dcnstat` post-processes
//! the trace/telemetry/manifest files. Config mistakes (missing file,
//! unknown key, wrong type, fault event past the horizon) exit with a
//! one-line `dcnsim: error: ...`.

#![forbid(unsafe_code)]

use beyond_fattrees::config::{load_experiment, EXAMPLE};
use beyond_fattrees::prelude::*;
use dcn_json::Json;

/// One-line fatal error: `dcnsim: error: <msg>`, exit code 1 — config and
/// I/O mistakes are user errors, not panics.
fn fail(msg: &str) -> ! {
    eprintln!("dcnsim: error: {msg}");
    std::process::exit(1)
}

/// `--flag <value>` from the argument list (the flag's value wins over the
/// config file's same-named key).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| fail(&format!("{flag} takes a file path")))
            .to_string()
    })
}

const USAGE: &str = "usage: dcnsim <config.json> [--json] [--dot out.dot] \
     [--trace out.jsonl] [--telemetry out.jsonl] [--manifest out.json] | dcnsim --print-example";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-example") {
        println!("{EXAMPLE}");
        return;
    }
    if args.iter().any(|a| a == "--threads") {
        fail(
            "--threads was removed: the engine is one sequential event loop; run \
             independent configs in parallel with `dcnrun batch --jobs N` instead",
        );
    }
    let json_out = args.iter().any(|a| a == "--json");
    // First positional argument, skipping flags that take one value.
    let mut path: Option<&String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dot" | "--trace" | "--telemetry" | "--manifest" => i += 1, // skip its value
            a if !a.starts_with("--") && path.is_none() => path = Some(&args[i]),
            _ => {}
        }
        i += 1;
    }
    let Some(path) = path else { fail(USAGE) };
    let exp = load_experiment(path).unwrap_or_else(|e| fail(&e));

    eprintln!(
        "topology: {} ({} switches, {} servers)",
        exp.topo.name(),
        exp.topo.num_nodes(),
        exp.topo.num_servers()
    );
    if let Some(out) = flag_value(&args, "--dot") {
        beyond_fattrees::core::write_atomic(
            &out,
            beyond_fattrees::topology::export::to_dot(&exp.topo).as_bytes(),
        )
        .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        eprintln!("wrote {out}");
    }
    eprintln!("workload: {} flows at λ = {}", exp.flows.len(), exp.lambda);
    if let Some(plan) = &exp.faults {
        eprintln!("faults: {} scheduled events", plan.events().len());
    }

    // Observability destinations: flags win over the config's keys.
    let sinks = Sinks {
        trace: flag_value(&args, "--trace").or_else(|| exp.sinks.trace.clone()),
        telemetry: flag_value(&args, "--telemetry").or_else(|| exp.sinks.telemetry.clone()),
        manifest: flag_value(&args, "--manifest").or_else(|| exp.sinks.manifest.clone()),
        ..exp.sinks.clone()
    };
    let mut run = exp.run();
    sinks
        .attach(&mut run, "dcnsim", exp.seed)
        .unwrap_or_else(|e| fail(&e));
    let out = run.execute();
    sinks.write_manifest(&out).unwrap_or_else(|e| fail(&e));
    let (m, counters) = (out.metrics, out.counters);

    if json_out {
        let report = Json::obj(vec![
            ("topology", Json::from(exp.topo.name())),
            ("switches", Json::from(exp.topo.num_nodes())),
            ("servers", Json::from(exp.topo.num_servers())),
            ("flows_measured", Json::from(m.flows)),
            ("completed", Json::from(m.completed)),
            ("failed", Json::from(m.failed)),
            ("avg_fct_ms", Json::from(m.avg_fct_ms)),
            ("p99_short_fct_ms", Json::from(m.p99_short_fct_ms)),
            ("avg_long_tput_gbps", Json::from(m.avg_long_tput_gbps)),
            ("congestion_drops", Json::from(counters.congestion_drops)),
            ("fault_drops", Json::from(counters.fault_drops)),
            ("recovered_flows", Json::from(m.recovered_flows)),
            ("avg_recovery_ms", Json::from(m.avg_recovery_ms)),
            ("ecn_marks", Json::from(counters.ecn_marks)),
            ("events", Json::from(counters.events)),
        ]);
        println!("{}", report.pretty());
    } else {
        println!("flows measured      {}", m.flows);
        println!("completed           {}", m.completed);
        if m.failed > 0 {
            println!("failed              {}", m.failed);
        }
        println!("avg FCT             {:.3} ms", m.avg_fct_ms);
        println!("p99 short-flow FCT  {:.3} ms", m.p99_short_fct_ms);
        println!("long-flow goodput   {:.2} Gbps", m.avg_long_tput_gbps);
        println!(
            "drops (cong/fault)  {} / {}",
            counters.congestion_drops, counters.fault_drops
        );
        println!("ECN marks           {}", counters.ecn_marks);
        if m.recovered_flows > 0 {
            println!(
                "recovery            {} flows, avg {:.3} ms",
                m.recovered_flows, m.avg_recovery_ms
            );
        }
    }
}
