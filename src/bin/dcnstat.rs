//! `dcnstat` — post-process the simulator's observability artifacts into
//! inspectable tables:
//!
//! ```text
//! dcnstat queues <telemetry.jsonl> [--ch N]   queue timeline TSV
//! dcnstat util   <telemetry.jsonl>            per-channel utilization TSV
//! dcnstat hist   <trace.jsonl>                FCT / queue-delay / flowlet-gap histograms
//! dcnstat diff   <a/manifest.json> <b/manifest.json>   field-by-field manifest compare
//! dcnstat bench  <BENCH_sim.json> [<other.json>]       perf baseline table / diff
//! dcnstat top    (--tcp ADDR | --unix PATH)   live dcnserve stats, refreshing
//! ```
//!
//! `queues` and `util` read the time-series JSONL a telemetry-enabled run
//! emits (`dcnsim --telemetry ts.jsonl`); `hist` grinds a raw event trace
//! (`--trace`) into streaming-histogram summaries; `diff` compares two run
//! manifests, skipping wall-clock and output-path fields, and exits
//! non-zero when any simulated field drifts — two same-seed runs must
//! report "zero drift".
//!
//! `bench` reads the engine-perf baselines `bench perf --bless` writes:
//! with one file it prints the per-case rate table; with two it prints a
//! speedup table (old → new), highlights cases whose rate regressed below
//! the CI floor, and reports any simulated-field drift — so a perf
//! trajectory of committed baselines stays readable across re-anchors.
//!
//! `top` polls a
//! running `dcnserve`'s `stats` op and redraws a compact operational
//! table every `--interval-ms` (default 1000), `--count N` times
//! (default: until interrupted).

use std::collections::HashMap;
use std::io::{self, IsTerminal, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use beyond_fattrees::prelude::*;
use beyond_fattrees::serve::protocol::{read_frame, write_frame};
use dcn_json::Json;

fn fail(msg: &str) -> ! {
    eprintln!("dcnstat: error: {msg}");
    std::process::exit(1)
}

const USAGE: &str = "usage: dcnstat queues <telemetry.jsonl> [--ch N] \
     | dcnstat util <telemetry.jsonl> | dcnstat hist <trace.jsonl> \
     | dcnstat diff <a/manifest.json> <b/manifest.json> \
     | dcnstat bench <BENCH_sim.json> [<other.json>] \
     | dcnstat top (--tcp ADDR | --unix PATH) [--interval-ms N] [--count N]";

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
/// (`flow_finish`), queue delay (`enqueue`→`dequeue` pairing), and
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
                    qdelay.record(t - t0);
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
    if doc.get("schema").and_then(|s| s.as_str()) != Some(dcn_bench::perf::PERF_SCHEMA) {
        fail(&format!(
            "{path}: not a {} document",
            dcn_bench::perf::PERF_SCHEMA
        ));
    }
    doc.get("cases")
        .and_then(|c| c.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: missing cases array")))
        .to_vec()
}

/// `bench <file>`: per-case rate table of one perf baseline.
fn bench_report(cases: &[Json], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "case\tevents\twall_ms\tevents_per_sec")?;
    for c in cases {
        writeln!(
            out,
            "{}\t{}\t{}\t{}",
            dcn_bench::perf::case_label(c),
            c.get("events").and_then(|v| v.as_u64()).unwrap_or(0),
            c.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0),
            dcn_bench::perf::case_rate(c).unwrap_or(0.0) as u64,
        )?;
    }
    Ok(())
}

/// `bench <old> <new>`: speedup table plus simulated-field drift; returns
/// whether anything regressed (rate below the CI floor) or drifted.
fn bench_compare(old: &[Json], new: &[Json], out: &mut dyn Write) -> io::Result<bool> {
    let mut bad = false;
    writeln!(out, "case\told_ev_s\tnew_ev_s\tspeedup\tnote")?;
    for o in old {
        let label = dcn_bench::perf::case_label(o);
        let Some(n) = new.iter().find(|c| dcn_bench::perf::case_label(c) == label) else {
            bad = true;
            writeln!(out, "{label}\t-\t-\t-\tMISSING in new")?;
            continue;
        };
        let (or, nr) = (
            dcn_bench::perf::case_rate(o).unwrap_or(0.0),
            dcn_bench::perf::case_rate(n).unwrap_or(0.0),
        );
        let speedup = if or > 0.0 { nr / or } else { 0.0 };
        let mut drift = Vec::new();
        diff_json(o, n, &label, &mut drift);
        let note = if speedup < dcn_bench::perf::PERF_RATE_FLOOR {
            bad = true;
            "REGRESSED (below CI floor)"
        } else if !drift.is_empty() {
            bad = true;
            "simulated fields drifted"
        } else if speedup < 1.0 {
            "slower (within floor)"
        } else {
            "ok"
        };
        writeln!(out, "{label}\t{:.0}\t{:.0}\t{speedup:.2}x\t{note}", or, nr)?;
        for d in &drift {
            writeln!(out, "  {d}")?;
        }
    }
    for n in new {
        let label = dcn_bench::perf::case_label(n);
        if !old.iter().any(|c| dcn_bench::perf::case_label(c) == label) {
            writeln!(out, "{label}\t-\t-\t-\tnew case")?;
        }
    }
    Ok(bad)
}

// ------------------------------------------------------------------- top

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// `--flag <value>` anywhere in `args`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| fail(&format!("{flag} takes a value")))
            .to_string()
    })
}

/// One `stats` round-trip on a fresh connection; returns the envelope.
/// I/O failures (refused connection, reset mid-frame) come back as `Err`
/// so `top` can ride out a daemon restart; a daemon that *answers* with
/// garbage or a non-ok status is still fatal — that is a bug, not churn.
fn poll_stats(args: &[String]) -> io::Result<Json> {
    let mut conn = if let Some(addr) = flag_value(args, "--tcp") {
        let s = TcpStream::connect(&addr)?;
        let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = s.set_write_timeout(Some(Duration::from_secs(10)));
        Conn::Tcp(s)
    } else if let Some(path) = flag_value(args, "--unix") {
        let s = UnixStream::connect(&path)?;
        let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = s.set_write_timeout(Some(Duration::from_secs(10)));
        Conn::Unix(s)
    } else {
        fail("top needs --tcp ADDR or --unix PATH")
    };
    write_frame(&mut conn, br#"{"op": "stats"}"#)?;
    let bytes = read_frame(&mut conn).map_err(|e| io::Error::other(e.to_string()))?;
    let env = Json::parse(&String::from_utf8_lossy(&bytes))
        .unwrap_or_else(|e| fail(&format!("parse stats response: {e}")));
    if env.get("status").and_then(|s| s.as_str()) != Some("ok") {
        fail(&format!("stats request failed: {env}"));
    }
    Ok(env)
}

/// One refresh of the `top` table from a stats envelope.
fn render_stats(stats: &Json, out: &mut dyn Write) -> io::Result<()> {
    let n = |k: &str| stats.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let version = stats
        .get("version")
        .and_then(|v| v.get("crate"))
        .and_then(|v| v.as_str())
        .unwrap_or("?");
    let errors = n("errors_config")
        + n("errors_unknown_op")
        + n("errors_crash")
        + n("errors_ckpt_corrupt")
        + n("errors_internal");
    writeln!(
        out,
        "dcnserve {version}  up {:.1}s  conns {}  workers {} running / {} queued",
        n("uptime_ms") as f64 / 1e3,
        n("conns"),
        n("workers_running"),
        n("workers_queued"),
    )?;
    writeln!(
        out,
        "requests {}: ok {}  cached {}  coalesced {}  shed {}  deadline {}  errors {}",
        n("requests"),
        n("run_ok"),
        n("served_cached"),
        n("coalesced"),
        n("overloaded"),
        n("deadline_exceeded"),
        errors,
    )?;
    writeln!(
        out,
        "cache: {} entries  {} bytes  hits {}  misses {}  stores {}  quarantined {}",
        n("cache_entries"),
        n("cache_bytes"),
        n("cache_hits"),
        n("cache_misses"),
        n("cache_stores"),
        n("cache_quarantined"),
    )?;
    writeln!(
        out,
        "relaunches {}  protocol_errors {}  disconnects {}  draining_refused {}",
        n("worker_relaunches"),
        n("protocol_errors"),
        n("disconnects"),
        n("draining_refused"),
    )?;
    Ok(())
}

/// `top`: poll a running dcnserve and redraw the table until `--count`
/// refreshes have printed (0 = forever) or the pipe closes.
fn cmd_top(args: &[String], out: &mut dyn Write) -> io::Result<()> {
    let interval = Duration::from_millis(
        flag_value(args, "--interval-ms")
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| fail("--interval-ms takes an integer"))
            })
            .unwrap_or(1000),
    );
    let count: u64 = flag_value(args, "--count")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--count takes an integer"))
        })
        .unwrap_or(0);
    let tty = io::stdout().is_terminal();
    let mut shown = 0u64;
    // Bounded reconnect: a daemon restart (refused/reset for a few polls)
    // should not kill a dashboard, but a daemon that stays down is an
    // error, not something to spin on forever.
    const MAX_CONSECUTIVE_FAILURES: u32 = 5;
    let mut failures = 0u32;
    loop {
        match poll_stats(args) {
            Ok(stats) => {
                failures = 0;
                if tty {
                    // Home + clear: redraw in place on a live terminal;
                    // plain appended blocks when piped (logs, CI).
                    write!(out, "\x1b[H\x1b[2J")?;
                }
                render_stats(&stats, out)?;
                out.flush()?;
                shown += 1;
                if count != 0 && shown >= count {
                    return Ok(());
                }
            }
            Err(e) => {
                failures += 1;
                if failures >= MAX_CONSECUTIVE_FAILURES {
                    fail(&format!(
                        "poll stats: {e} ({failures} consecutive failures, giving up)"
                    ));
                }
                eprintln!("dcnstat: poll stats: {e} (retry {failures}/{MAX_CONSECUTIVE_FAILURES})");
            }
        }
        std::thread::sleep(interval);
    }
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
        "top" => cmd_top(&args[1..], &mut out),
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

    #[test]
    fn top_table_renders_stats_envelope() {
        let stats = Json::parse(
            r#"{"status": "ok", "version": {"crate": "0.1.0"}, "uptime_ms": 2500,
                "requests": 10, "run_ok": 7, "served_cached": 2, "coalesced": 1,
                "overloaded": 0, "deadline_exceeded": 0, "errors_config": 1,
                "errors_unknown_op": 1, "conns": 3, "workers_running": 2,
                "workers_queued": 1, "cache_entries": 4, "cache_bytes": 4096,
                "cache_hits": 2, "cache_misses": 8}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        render_stats(&stats, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("dcnserve 0.1.0  up 2.5s"), "{s}");
        assert!(s.contains("workers 2 running / 1 queued"), "{s}");
        assert!(s.contains("requests 10: ok 7  cached 2"), "{s}");
        assert!(s.contains("errors 2"), "{s}");
        assert!(s.contains("cache: 4 entries  4096 bytes"), "{s}");
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
        let tx_free = kinds.get("tx_free").and_then(|v| v.as_u64()).unwrap();
        assert!(tx_free > 0);
        let text = a.to_string();
        let from = format!("\"tx_free\": {tx_free}");
        assert!(text.contains(&from), "{text}");
        let b =
            Json::parse(&text.replace(&from, &format!("\"tx_free\": {}", tx_free + 1))).unwrap();
        let mut drift = Vec::new();
        diff_json(&a, &b, "", &mut drift);
        assert_eq!(
            drift,
            vec![format!(
                "engine.events_by_kind.tx_free: {tx_free} vs {}",
                tx_free + 1
            )]
        );
    }
}
