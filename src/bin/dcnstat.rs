//! `dcnstat` — post-process the simulator's observability artifacts into
//! inspectable tables:
//!
//! ```text
//! dcnstat queues <telemetry.jsonl> [--ch N]   queue timeline TSV
//! dcnstat util   <telemetry.jsonl>            per-channel utilization TSV
//! dcnstat hist   <trace.jsonl>                FCT / queue-delay / flowlet-gap histograms
//! dcnstat diff   <a/manifest.json> <b/manifest.json>   field-by-field manifest compare
//! dcnstat bench  <BENCH_sim.json> [<other.json>]       perf baseline table / diff
//! ```
//!
//! `queues` and `util` read the time-series JSONL a telemetry-enabled run
//! emits (`dcnsim --telemetry ts.jsonl`); `hist` grinds a raw event trace
//! (`--trace`) into streaming-histogram summaries; `diff` compares two run
//! manifests, skipping wall-clock and output-path fields, and exits
//! non-zero when any simulated field drifts — two same-seed runs must
//! report "zero drift".
//!
//! `bench` reads the perf baselines `bench perf --bless` writes: with one
//! file it prints the table `bench perf` prints; with two it prints a
//! speedup table (old → new) from the same verdicts `bench perf --check`
//! gates on, and exits non-zero when a case would fail that gate (rate
//! below the CI floor, simulated-field drift, or a case on one side only)
//! — so a perf trajectory of committed baselines stays readable across
//! re-anchors.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Write};

use beyond_fattrees::prelude::*;
use dcn_bench::perf;
use dcn_json::Json;

fn fail(msg: &str) -> ! {
    eprintln!("dcnstat: error: {msg}");
    std::process::exit(1)
}

const USAGE: &str = "usage: dcnstat queues <telemetry.jsonl> [--ch N] \
     | dcnstat util <telemetry.jsonl> | dcnstat hist <trace.jsonl> \
     | dcnstat diff <a/manifest.json> <b/manifest.json> \
     | dcnstat bench <BENCH_sim.json> [<other.json>]";

/// Parses every JSONL line of `path`.
fn read_jsonl(path: &str) -> Vec<Json> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).unwrap_or_else(|e| fail(&format!("{path}:{}: {e}", i + 1))))
        .collect()
}

fn get_u64(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(|x| x.as_u64())
        .unwrap_or_else(|| fail(&format!("missing integer field \"{key}\" in {v}")))
}

fn is_sample(v: &Json) -> bool {
    v.get("ev").and_then(|e| e.as_str()) == Some("sample")
}

/// Per-channel rows of a sample: `[id, qlen, qbytes, tx_bytes]`.
fn sample_channels(v: &Json) -> Vec<(u32, u64, u64, u64)> {
    let Some(arr) = v.get("ch").and_then(|c| c.as_array()) else {
        return Vec::new();
    };
    arr.iter()
        .map(|row| {
            let row = row
                .as_array()
                .filter(|r| r.len() == 4)
                .unwrap_or_else(|| fail(&format!("malformed ch row in {v}")));
            let f = |i: usize| {
                row[i]
                    .as_u64()
                    .unwrap_or_else(|| fail("non-integer ch row field"))
            };
            (f(0) as u32, f(1), f(2), f(3))
        })
        .collect()
}

/// `queues`: fabric-wide (or per-channel with `--ch N`) queue timeline.
fn cmd_queues(path: &str, ch: Option<u32>, out: &mut dyn Write) -> io::Result<()> {
    let samples: Vec<Json> = read_jsonl(path).into_iter().filter(is_sample).collect();
    if samples.is_empty() {
        fail(&format!("{path}: no telemetry samples"));
    }
    match ch {
        None => {
            writeln!(
                out,
                "t_ns\tqueued_pkts\tqueued_bytes\ttx_bytes\tflows_active\tinflight_bytes"
            )?;
            for s in &samples {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}",
                    get_u64(s, "t"),
                    get_u64(s, "queued_pkts"),
                    get_u64(s, "queued_bytes"),
                    get_u64(s, "tx_bytes"),
                    get_u64(s, "flows_active"),
                    get_u64(s, "inflight_bytes"),
                )?;
            }
        }
        Some(want) => {
            writeln!(out, "t_ns\tqueue_pkts\tqueue_bytes\ttx_bytes")?;
            for s in &samples {
                let row = sample_channels(s)
                    .into_iter()
                    .find(|&(id, ..)| id == want)
                    .map(|(_, qlen, qbytes, tx)| (qlen, qbytes, tx))
                    .unwrap_or((0, 0, 0)); // sparse: absent means idle
                writeln!(out, "{}\t{}\t{}\t{}", get_u64(s, "t"), row.0, row.1, row.2)?;
            }
        }
    }
    Ok(())
}

/// `util`: per-channel transmitted bytes and utilization over the sampled
/// span, highest total first.
fn cmd_util(path: &str, out: &mut dyn Write) -> io::Result<()> {
    let samples: Vec<Json> = read_jsonl(path).into_iter().filter(is_sample).collect();
    if samples.is_empty() {
        fail(&format!("{path}: no telemetry samples"));
    }
    let times: Vec<u64> = samples.iter().map(|s| get_u64(s, "t")).collect();
    // Interval length: the sampling cadence (smallest gap between
    // consecutive samples; boundaries may be skipped in idle stretches).
    let every = times
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&d| d > 0)
        .min()
        .unwrap_or(times[0].max(1));
    // A sample stamped at boundary `t` covers (t - every, t]; the first
    // boundary is `every`, so the last stamp is the full covered span.
    let span = (*times.last().unwrap()).max(1);
    let mut totals: HashMap<u32, (u64, u64)> = HashMap::new(); // ch -> (total, peak interval)
    for s in &samples {
        for (id, _, _, tx) in sample_channels(s) {
            let e = totals.entry(id).or_insert((0, 0));
            e.0 += tx;
            e.1 = e.1.max(tx);
        }
    }
    let mut rows: Vec<(u32, u64, u64)> = totals
        .into_iter()
        .map(|(id, (total, peak))| (id, total, peak))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    writeln!(out, "ch\ttx_bytes\tavg_gbps\tpeak_gbps")?;
    for (id, total, peak) in rows {
        writeln!(
            out,
            "{}\t{}\t{:.3}\t{:.3}",
            id,
            total,
            total as f64 * 8.0 / span as f64,
            peak as f64 * 8.0 / every as f64,
        )?;
    }
    Ok(())
}

/// `hist`: distribution summaries from a raw event trace — FCT
/// (`flow_finish`), queue delay (`enqueue`→`dequeue` start pairing), and
/// flowlet gaps (consecutive `flowlet_switch` per flow).
fn cmd_hist(path: &str, out: &mut dyn Write) -> io::Result<()> {
    let events = read_jsonl(path);
    let mut fct = StreamingHistogram::new();
    let mut qdelay = StreamingHistogram::new();
    let mut gaps = StreamingHistogram::new();
    // (ch, flow, seq, is_ack) → enqueue time. StartTx packets bypass the
    // queue and emit no enqueue, so only queued packets pair up.
    let mut enq: HashMap<(u64, u64, u64, bool), u64> = HashMap::new();
    let mut last_flowlet: HashMap<u64, u64> = HashMap::new();
    for e in &events {
        let t = get_u64(e, "t");
        match e.get("ev").and_then(|v| v.as_str()).unwrap_or("") {
            "flow_finish" => fct.record(get_u64(e, "fct")),
            "enqueue" | "dequeue" => {
                let is_ack = e.get("ack").and_then(|a| a.as_bool()).unwrap_or(false);
                let key = (
                    get_u64(e, "ch"),
                    get_u64(e, "flow"),
                    get_u64(e, "seq"),
                    is_ack,
                );
                if e.get("ev").and_then(|v| v.as_str()) == Some("enqueue") {
                    enq.insert(key, t);
                } else if let Some(t0) = enq.remove(&key) {
                    // A FIFO port's dequeue record is written when the
                    // transmission is scheduled and names its `start`.
                    let start = e.get("start").and_then(|v| v.as_u64()).unwrap_or(t);
                    qdelay.record(start - t0);
                }
            }
            "flowlet_switch" => {
                let flow = get_u64(e, "flow");
                if let Some(prev) = last_flowlet.insert(flow, t) {
                    gaps.record(t - prev);
                }
            }
            _ => {}
        }
    }
    writeln!(
        out,
        "dist\tcount\tmin_ns\tp50_ns\tp90_ns\tp99_ns\tmax_ns\tmean_ns"
    )?;
    for (name, h) in [
        ("fct", &fct),
        ("queue_delay", &qdelay),
        ("flowlet_gap", &gaps),
    ] {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.1}",
            name,
            h.count(),
            h.min(),
            h.value_at_percentile(0.50),
            h.value_at_percentile(0.90),
            h.value_at_percentile(0.99),
            h.max(),
            h.mean(),
        )?;
    }
    Ok(())
}

/// `diff`: compare two run manifests; returns whether any field drifted.
fn cmd_diff(a_path: &str, b_path: &str, out: &mut dyn Write) -> io::Result<bool> {
    let read = |p: &str| {
        let body = std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("read {p}: {e}")));
        Json::parse(&body).unwrap_or_else(|e| fail(&format!("parse {p}: {e}")))
    };
    let (a, b) = (read(a_path), read(b_path));
    let mut drift = Vec::new();
    diff_json(&a, &b, "", &mut drift);
    if drift.is_empty() {
        writeln!(
            out,
            "zero drift: {a_path} and {b_path} report identical simulated results"
        )?;
    } else {
        writeln!(out, "{} field(s) drifted:", drift.len())?;
        for d in &drift {
            writeln!(out, "  {d}")?;
        }
    }
    Ok(!drift.is_empty())
}

/// Parses a `BENCH_sim.json` document and returns its case rows.
fn read_bench(path: &str) -> Vec<Json> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let doc = Json::parse(&body).unwrap_or_else(|e| fail(&format!("parse {path}: {e}")));
    perf::perf_cases(&doc)
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        .to_vec()
}

/// `bench <file>`: one perf baseline as the table `bench perf` prints.
fn bench_report(cases: &[Json], out: &mut dyn Write) -> io::Result<()> {
    perf::write_table(cases, out)
}

/// `bench <old> <new>`: speedup table over the verdicts `bench perf
/// --check` gates on; returns whether any case fails that gate.
fn bench_compare(old: &[Json], new: &[Json], out: &mut dyn Write) -> io::Result<bool> {
    let mut bad = false;
    writeln!(out, "case\told_ev_s\tnew_ev_s\tspeedup\tnote")?;
    for v in perf::compare_cases(new, old) {
        bad |= !v.failures().is_empty();
        let rate = |r: Option<f64>| r.map_or("-".to_string(), |r| format!("{r:.0}"));
        let speedup = v.speedup().map_or("-".to_string(), |s| format!("{s:.2}x"));
        let note = match (v.blessed, v.current) {
            (_, None) => "MISSING in new",
            (None, _) => "new case",
            _ if v.below_floor() => "REGRESSED (below CI floor)",
            _ if !v.drift.is_empty() => "simulated fields drifted",
            _ if v.speedup().is_some_and(|s| s < 1.0) => "slower (within floor)",
            _ => "ok",
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{speedup}\t{note}",
            v.label,
            rate(v.blessed),
            rate(v.current)
        )?;
        for d in &v.drift {
            writeln!(out, "  {d}")?;
        }
    }
    Ok(bad)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { fail(USAGE) };
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    let mut drifted = false;
    let result = match cmd.as_str() {
        "queues" => {
            let path = args.get(1).unwrap_or_else(|| fail(USAGE));
            let ch = args.iter().position(|a| a == "--ch").map(|i| {
                args.get(i + 1)
                    .and_then(|v| v.parse::<u32>().ok())
                    .unwrap_or_else(|| fail("--ch takes a channel id"))
            });
            cmd_queues(path, ch, &mut out)
        }
        "util" => cmd_util(args.get(1).unwrap_or_else(|| fail(USAGE)), &mut out),
        "hist" => cmd_hist(args.get(1).unwrap_or_else(|| fail(USAGE)), &mut out),
        "diff" => {
            let a = args.get(1).unwrap_or_else(|| fail(USAGE));
            let b = args.get(2).unwrap_or_else(|| fail(USAGE));
            cmd_diff(a, b, &mut out).map(|d| drifted = d)
        }
        "bench" => {
            let a = read_bench(args.get(1).unwrap_or_else(|| fail(USAGE)));
            match args.get(2) {
                None => bench_report(&a, &mut out),
                Some(b) => bench_compare(&a, &read_bench(b), &mut out).map(|d| drifted = d),
            }
        }
        other => fail(&format!("unknown subcommand \"{other}\"\n{USAGE}")),
    };
    match result.and_then(|_| out.flush()) {
        // A closed pipe (e.g. `dcnstat queues ts.jsonl | head`) is a
        // normal way to consume TSV output, not an error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => fail(&format!("write output: {e}")),
        Ok(()) => {}
    }
    if drifted {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_identical_documents_is_empty() {
        let a = Json::parse(r#"{"seed": 1, "metrics": {"avg_fct_ms": 1.5}}"#).unwrap();
        let mut out = Vec::new();
        diff_json(&a, &a.clone(), "", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn diff_ignores_wall_clock_and_observability_fields() {
        let a = Json::parse(
            r#"{"seed": 1, "wall_ms": 12.5, "trace_path": "a.jsonl",
                "telemetry": {"samples": 9, "path": "a_ts.jsonl"}}"#,
        )
        .unwrap();
        // Run b measured different wall time and sampled no telemetry at
        // all — still the same simulation.
        let b = Json::parse(
            r#"{"seed": 1, "wall_ms": 99.0, "trace_path": "b.jsonl",
                "telemetry": null}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        diff_json(&a, &b, "", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn diff_reports_nested_drift_with_dotted_path() {
        let a = Json::parse(r#"{"conservation": {"sent": 100, "delivered": 99}}"#).unwrap();
        let b = Json::parse(r#"{"conservation": {"sent": 100, "delivered": 98}}"#).unwrap();
        let mut out = Vec::new();
        diff_json(&a, &b, "", &mut out);
        assert_eq!(out, vec!["conservation.delivered: 99 vs 98"]);
    }

    #[test]
    fn diff_catches_missing_and_extra_keys() {
        let a = Json::parse(r#"{"seed": 1, "only_a": 2}"#).unwrap();
        let b = Json::parse(r#"{"seed": 1, "only_b": 3}"#).unwrap();
        let mut out = Vec::new();
        diff_json(&a, &b, "", &mut out);
        assert_eq!(out.len(), 2);
        assert!(
            out[0].contains("only_a") && out[1].contains("only_b"),
            "{out:?}"
        );
    }

    fn bench_case(transport: &str, events: u64, rate: u64) -> Json {
        Json::parse(&format!(
            r#"{{"topology": "fat_tree_k4", "transport": "{transport}",
                 "events": {events}, "wall_ms": 10, "events_per_sec_wall": {rate}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn bench_report_prints_one_row_per_case() {
        let cases = vec![
            bench_case("dctcp", 100, 1000),
            bench_case("pfabric", 50, 900),
        ];
        let mut out = Vec::new();
        bench_report(&cases, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert_eq!(s.lines().count(), 3, "{s}");
        assert!(s.contains("fat_tree_k4/dctcp\t100\t10\t1000"), "{s}");
    }

    #[test]
    fn bench_compare_reports_speedup_and_ignores_wall_fields() {
        let old = vec![bench_case("dctcp", 100, 1000)];
        let new = vec![bench_case("dctcp", 100, 3000)];
        let mut out = Vec::new();
        let bad = bench_compare(&old, &new, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(!bad, "{s}");
        assert!(s.contains("3.00x\tok"), "{s}");
    }

    #[test]
    fn bench_compare_flags_floor_regression_and_drift() {
        let old = vec![bench_case("dctcp", 100, 1000)];
        let mut out = Vec::new();
        assert!(
            bench_compare(&old, &[bench_case("dctcp", 100, 400)], &mut out).unwrap(),
            "rate below half the old baseline must regress"
        );
        let mut out = Vec::new();
        assert!(
            bench_compare(&old, &[bench_case("dctcp", 101, 1000)], &mut out).unwrap(),
            "simulated-field drift must be flagged"
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("drifted"), "{s}");
    }

    #[test]
    fn sample_channel_rows_parse() {
        let s = Json::parse(r#"{"t": 100, "ev": "sample", "ch": [[3, 1, 1540, 3080]]}"#).unwrap();
        assert!(is_sample(&s));
        assert_eq!(sample_channels(&s), vec![(3, 1, 1540, 3080)]);
    }

    fn tiny_manifest() -> Json {
        let topo = FatTree::full(4).build();
        let pattern = AllToAll::new(&topo, topo.tors_with_servers());
        let flows = generate_flows(&pattern, &PFabricWebSearch::new(), 200.0, 0.01, 7);
        let run = Run {
            manifest: Some(ManifestSpec::new("dcnstat-test", 7)),
            ..Run::new(
                &topo,
                Routing::Ecmp,
                SimConfig::default(),
                &flows,
                (0, 2 * MS),
                40 * MS,
            )
        };
        run.execute().manifest.unwrap().json().clone()
    }

    /// Two same-seed runs must diff clean: everything simulated (the
    /// deterministic engine counter block included) replays exactly, and
    /// the wall-clock leaves sit under `WALL_CLOCK_FIELDS`.
    #[test]
    fn same_seed_manifests_diff_clean() {
        let (a, b) = (tiny_manifest(), tiny_manifest());
        let mut drift = Vec::new();
        diff_json(&a, &b, "", &mut drift);
        assert!(drift.is_empty(), "same-seed drift: {drift:?}");
    }

    /// The per-kind event counts are simulated fields: a changed count
    /// shows up under its dotted path.
    #[test]
    fn diff_shows_event_kind_counts() {
        let a = tiny_manifest();
        let kinds = a
            .get("engine")
            .and_then(|e| e.get("events_by_kind"))
            .expect("engine.events_by_kind");
        let deliver = kinds.get("deliver").and_then(|v| v.as_u64()).unwrap();
        assert!(deliver > 0);
        let text = a.to_string();
        let from = format!("\"deliver\": {deliver}");
        assert!(text.contains(&from), "{text}");
        let b =
            Json::parse(&text.replace(&from, &format!("\"deliver\": {}", deliver + 1))).unwrap();
        let mut drift = Vec::new();
        diff_json(&a, &b, "", &mut drift);
        assert_eq!(
            drift,
            vec![format!(
                "engine.events_by_kind.deliver: {deliver} vs {}",
                deliver + 1
            )]
        );
    }
}
