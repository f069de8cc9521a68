//! Run manifests: one `manifest.json` per experiment recording *what ran*
//! (config echo, seed, topology fingerprint, fault-plan digest), *what
//! happened* (flow outcomes, FCT histogram summary, packet conservation,
//! counters), and *what it cost* (events processed, peak heap, wall time).
//!
//! Manifests make result files self-describing: `dcnstat diff` compares
//! two of them field by field (ignoring wall-clock fields, which are not
//! deterministic) to assert that two runs simulated the same experiment —
//! the same-seed zero-drift check CI performs on every commit.
//!
//! All simulated quantities are deterministic: a same-seed run reproduces
//! every field except `wall_ms` / `events_per_sec_wall` / `peak_rss_mb`
//! and any caller supplied output paths ([`WALL_CLOCK_FIELDS`]).

use std::io;
use std::time::Duration;

use crate::experiment::SimCounters;
use dcn_json::Json;
use dcn_sim::stats::FctDistributions;
use dcn_sim::{
    Conservation, EngineCounters, FaultPlan, Metrics, Ns, SimConfig, StreamingHistogram,
    SCHEDULE_VERSION,
};
use dcn_topology::Topology;

/// Manifest fields that legitimately differ between two identical-seed
/// runs: wall-clock and memory measurements of the machine, and
/// caller-chosen output paths. `dcnstat diff` skips exactly these (at any
/// nesting depth).
pub const WALL_CLOCK_FIELDS: &[&str] = &[
    "wall_ms",
    "events_per_sec_wall",
    "peak_rss_mb",
    "trace_path",
    "telemetry_path",
];

/// What the caller wants recorded about a run: tool identity, workload
/// seed, and the observability side-channels in use.
#[derive(Clone, Debug, Default)]
pub struct ManifestSpec {
    /// The producing binary (`dcnsim`, `fig9_a2a_sweep`, ...).
    pub tool: String,
    /// Workload / experiment seed.
    pub seed: u64,
    /// Trace JSONL path, when tracing to a file.
    pub trace_path: Option<String>,
}

impl ManifestSpec {
    pub fn new(tool: &str, seed: u64) -> Self {
        ManifestSpec {
            tool: tool.to_string(),
            seed,
            trace_path: None,
        }
    }
}

/// Everything [`RunManifest::build`] folds into the manifest; assembled by
/// [`crate::Run::execute_on`].
pub struct ManifestInputs<'a> {
    pub spec: &'a ManifestSpec,
    pub topology: &'a Topology,
    pub routing_label: &'static str,
    pub cfg: &'a SimConfig,
    pub window: (Ns, Ns),
    pub faults: Option<&'a FaultPlan>,
    /// Flows injected into the simulator (the window subset is measured).
    pub injected: usize,
    pub metrics: &'a Metrics,
    pub dists: &'a FctDistributions,
    pub counters: &'a SimCounters,
    /// The engine's deterministic self-observability counters
    /// (calendar and arena behavior, processed events by kind).
    pub engine: &'a EngineCounters,
    pub conservation: Conservation,
    pub peak_heap: usize,
    pub wall: Duration,
    /// `(samples_written, sample_every_ns, path)` when telemetry ran.
    pub telemetry: Option<(u64, Ns, Option<String>)>,
}

/// A finished run's manifest; a thin wrapper over its [`Json`] document.
#[derive(Clone, Debug)]
pub struct RunManifest {
    json: Json,
}

/// A 64-bit value (a fingerprint or digest) as a fixed-width hex
/// string: a JSON number cannot hold every `u64` exactly.
pub fn hex64(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

/// The process's peak resident set so far (`VmHWM`), in MB of 2^20
/// bytes; `None` where `/proc/self/status` is absent or lacks it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn opt_str(s: &Option<String>) -> Json {
    match s {
        Some(s) => Json::from(s.as_str()),
        None => Json::Null,
    }
}

/// Histogram summary object: count/min/percentiles/max in integer ns plus
/// the exact mean.
fn hist_json(h: &StreamingHistogram) -> Json {
    Json::obj(vec![
        ("count", Json::from(h.count())),
        ("min_ns", Json::from(h.min())),
        ("p50_ns", Json::from(h.value_at_percentile(0.50))),
        ("p90_ns", Json::from(h.value_at_percentile(0.90))),
        ("p99_ns", Json::from(h.value_at_percentile(0.99))),
        ("max_ns", Json::from(h.max())),
        ("mean_ns", Json::from(h.mean())),
    ])
}

impl RunManifest {
    /// Assembles the manifest document from a finished run.
    pub fn build(inp: &ManifestInputs) -> RunManifest {
        let t = inp.topology;
        let cfg = inp.cfg;
        let m = inp.metrics;
        let c = inp.counters;
        let cons = &inp.conservation;

        let topology = Json::obj(vec![
            ("name", Json::from(t.name())),
            ("switches", Json::from(t.num_nodes())),
            ("servers", Json::from(t.num_servers())),
            ("links", Json::from(t.num_links())),
            ("fingerprint", hex64(t.fingerprint())),
        ]);
        let config = Json::obj(vec![
            ("link_gbps", Json::from(cfg.link_gbps)),
            ("server_link_gbps", Json::from(cfg.server_link_gbps)),
            ("prop_delay_ns", Json::from(cfg.prop_delay_ns)),
            ("queue_pkts", Json::from(cfg.queue_pkts)),
            ("ecn_k_pkts", Json::from(cfg.ecn_k_pkts)),
            ("flowlet_gap_ns", Json::from(cfg.flowlet_gap_ns)),
            ("mtu", Json::from(cfg.mtu)),
            ("mss", Json::from(cfg.mss)),
            ("ack_bytes", Json::from(cfg.ack_bytes)),
            ("init_cwnd_pkts", Json::from(cfg.init_cwnd_pkts)),
            ("min_rto_ns", Json::from(cfg.min_rto_ns)),
            ("dctcp_g", Json::from(cfg.dctcp_g)),
            ("host_queue_pkts", Json::from(cfg.host_queue_pkts)),
            ("pfabric_cwnd_pkts", Json::from(cfg.pfabric_cwnd_pkts)),
            ("reconverge_delay_ns", Json::from(cfg.reconverge_delay_ns)),
            ("max_events", Json::from(cfg.max_events)),
        ]);
        let faults = match inp.faults {
            Some(p) => Json::obj(vec![
                ("events", Json::from(p.events().len())),
                ("seed", Json::from(p.seed)),
                ("digest", hex64(p.digest())),
            ]),
            None => Json::Null,
        };
        let flows = Json::obj(vec![
            ("injected", Json::from(inp.injected)),
            ("measured", Json::from(m.flows)),
            ("completed", Json::from(m.completed)),
            ("failed", Json::from(m.failed)),
            ("recovered", Json::from(m.recovered_flows)),
            ("short", Json::from(m.short_flows)),
            ("long", Json::from(m.long_flows)),
        ]);
        let metrics = Json::obj(vec![
            ("avg_fct_ms", Json::from(m.avg_fct_ms)),
            ("p99_short_fct_ms", Json::from(m.p99_short_fct_ms)),
            ("avg_long_tput_gbps", Json::from(m.avg_long_tput_gbps)),
            ("avg_recovery_ms", Json::from(m.avg_recovery_ms)),
        ]);
        let fct_hist = Json::obj(vec![
            ("all", hist_json(&inp.dists.all)),
            ("short", hist_json(&inp.dists.short)),
            ("long", hist_json(&inp.dists.long)),
        ]);
        let conservation = Json::obj(vec![
            ("sent", Json::from(cons.sent)),
            ("delivered", Json::from(cons.delivered)),
            ("dropped", Json::from(cons.dropped)),
            ("in_flight", Json::from(cons.in_flight)),
        ]);
        let counters = Json::obj(vec![
            ("congestion_drops", Json::from(c.congestion_drops)),
            ("fault_drops", Json::from(c.fault_drops)),
            ("ecn_marks", Json::from(c.ecn_marks)),
        ]);
        let eng = inp.engine;
        let engine = Json::obj(vec![
            ("calendar_peak", Json::from(eng.calendar_peak)),
            ("ladder_spills", Json::from(eng.ladder_spills)),
            ("arena_live", Json::from(eng.arena_live)),
            ("arena_high_water", Json::from(eng.arena_high_water)),
            (
                "events_by_kind",
                Json::obj(vec![
                    ("flow_start", Json::from(eng.events.flow_start)),
                    ("tx_free", Json::from(eng.events.tx_free)),
                    ("deliver", Json::from(eng.events.deliver)),
                    ("rto_fired", Json::from(eng.events.rto_fired)),
                    ("rto_stale", Json::from(eng.events.rto_stale)),
                ]),
            ),
        ]);
        let telemetry = match &inp.telemetry {
            Some((samples, every, path)) => Json::obj(vec![
                ("samples", Json::from(*samples)),
                ("sample_every_ns", Json::from(*every)),
                ("path", opt_str(path)),
            ]),
            None => Json::Null,
        };
        let wall_ms = inp.wall.as_secs_f64() * 1e3;
        let eps_wall = if inp.wall.as_nanos() > 0 {
            c.events as f64 / inp.wall.as_secs_f64()
        } else {
            0.0
        };

        RunManifest {
            json: Json::obj(vec![
                ("schema", Json::from(1u32)),
                ("tool", Json::from(inp.spec.tool.as_str())),
                // The engine's event-order version: results from builds
                // with different values are not comparable field by field.
                ("schedule_version", Json::from(SCHEDULE_VERSION)),
                ("seed", Json::from(inp.spec.seed)),
                ("topology", topology),
                ("routing", Json::from(inp.routing_label)),
                ("transport", Json::from(cfg.transport.name())),
                ("queue_disc", Json::from(cfg.queue_disc.name())),
                ("config", config),
                (
                    "window_ns",
                    Json::Arr(vec![Json::from(inp.window.0), Json::from(inp.window.1)]),
                ),
                ("faults", faults),
                ("flows", flows),
                ("metrics", metrics),
                ("fct_hist", fct_hist),
                ("conservation", conservation),
                ("counters", counters),
                ("engine", engine),
                ("events_processed", Json::from(c.events)),
                ("peak_heap", Json::from(inp.peak_heap)),
                ("wall_ms", Json::from(wall_ms)),
                ("events_per_sec_wall", Json::from(eps_wall)),
                ("peak_rss_mb", peak_rss_mb().map_or(Json::Null, Json::from)),
                ("trace_path", opt_str(&inp.spec.trace_path)),
                (
                    "telemetry_path",
                    match &inp.telemetry {
                        Some((_, _, p)) => opt_str(p),
                        None => Json::Null,
                    },
                ),
                ("telemetry", telemetry),
            ]),
        }
    }

    /// The manifest document.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// A top-level field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.json.get(key)
    }

    /// Pretty-printed JSON with a trailing newline (the on-disk format).
    pub fn render(&self) -> String {
        let mut s = self.json.pretty();
        s.push('\n');
        s
    }

    /// Writes the manifest to `path` atomically (temporary + rename), so
    /// a crash mid-write never leaves a truncated manifest behind.
    pub fn write(&self, path: &str) -> io::Result<()> {
        crate::fsio::write_atomic(path, self.render().as_bytes())
    }
}

/// Whether a manifest field describes how the run was *observed* rather
/// than what it *simulated*: wall-clock measurements, caller-chosen
/// output paths, and the telemetry side-channel block (present only when
/// sampling was enabled).
fn ignored_key(key: &str) -> bool {
    WALL_CLOCK_FIELDS.contains(&key) || key == "path" || key == "telemetry"
}

/// Recursive field-by-field compare of two manifests (or any JSON
/// documents), skipping the observation-only fields; pushes one
/// `path: a vs b` line per drifted field under the `path` prefix. `dcnstat
/// diff` is this with an empty prefix.
pub fn diff_json(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    let sub = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                if ignored_key(k) {
                    continue;
                }
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_json(va, vb, &sub(k), out),
                    None => out.push(format!("{}: {va} vs <absent>", sub(k))),
                }
            }
            for (k, vb) in fb {
                if !ignored_key(k) && !fa.iter().any(|(ka, _)| ka == k) {
                    out.push(format!("{}: <absent> vs {vb}", sub(k)));
                }
            }
        }
        (Json::Arr(aa), Json::Arr(ab)) if aa.len() == ab.len() => {
            for (i, (va, vb)) in aa.iter().zip(ab).enumerate() {
                diff_json(va, vb, &format!("{path}[{i}]"), out);
            }
        }
        _ => {
            if a != b {
                out.push(format!("{path}: {a} vs {b}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex64_is_fixed_width() {
        assert_eq!(hex64(0).to_string(), "\"0000000000000000\"");
        assert_eq!(hex64(u64::MAX).to_string(), "\"ffffffffffffffff\"");
    }

    #[test]
    fn wall_clock_fields_cover_paths() {
        for f in [
            "wall_ms",
            "events_per_sec_wall",
            "peak_rss_mb",
            "trace_path",
        ] {
            assert!(WALL_CLOCK_FIELDS.contains(&f));
        }
    }

    /// Linux has `/proc`, and a process that has run holds some memory.
    #[test]
    fn peak_rss_is_read_where_proc_exists() {
        match peak_rss_mb() {
            Some(mb) => assert!(mb > 0.0 && mb.is_finite(), "{mb}"),
            None => assert!(std::fs::metadata("/proc/self/status").is_err()),
        }
    }
}
