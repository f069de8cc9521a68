//! JSON experiment configs: the loader behind `dcnsim` and `dcnrun`.
//!
//! A config file selects a topology, routing scheme, workload, arrival
//! rate, simulator constants, and (optionally) a fault plan plus
//! observability destinations. [`load_experiment`] turns one into a fully
//! materialized [`Experiment`] — topology built, flows generated, fault
//! schedule validated — or a one-line error `String` naming the offending
//! key. The CLIs map that error onto their `<tool>: error:` exit-1 path;
//! the `dcnrun` supervisor maps it onto its config-error exit code.
//!
//! Fault sections support three kinds:
//!
//! - `random_link_outages` — seeded uniform link choice, one down (and
//!   optionally up) time for all of them;
//! - `schedule` — an explicit event list (`link_down` / `link_up` /
//!   `switch_down` / `switch_up` / `link_gray` / `link_clear`), each with
//!   an `at_ms` timestamp;
//! - `chaos` — a seeded adversarial plan from [`FaultPlan::chaos`]:
//!   random outages, gray periods, and switch flaps inside the window.
//!
//! Every plan, however it was built, passes through
//! [`FaultPlan::validate_schedule`] against the run's simulation horizon,
//! so an event past the horizon, an up-before-down inversion, or an
//! unknown link id is rejected at load time instead of silently never
//! firing (or panicking mid-run).

use crate::prelude::*;
use dcn_json::Json;

/// A fully materialized experiment: everything
/// [`run_fct_experiment_instrumented`] needs, plus the observability
/// destinations the config (or CLI flags layered on top) requested.
pub struct Experiment {
    pub seed: u64,
    pub topo: Topology,
    pub routing: Routing,
    pub sim: SimConfig,
    pub lambda: f64,
    pub flows: Vec<FlowEvent>,
    /// Measurement window (ns).
    pub window: (u64, u64),
    /// Hard simulation-time cap (ns) — also the fault-schedule horizon.
    pub max_time: u64,
    pub faults: Option<FaultPlan>,
    /// `"trace"` destination from the config, if any.
    pub trace: Option<String>,
    /// `"telemetry"` destination from the config, if any.
    pub telemetry: Option<String>,
    pub telemetry_every_ns: u64,
    /// `"manifest"` destination from the config, if any.
    pub manifest: Option<String>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("seed", &self.seed)
            .field("topology", &self.topo.name())
            .field("routing", &self.routing)
            .field("flows", &self.flows.len())
            .field("window", &self.window)
            .field("max_time", &self.max_time)
            .field(
                "fault_events",
                &self.faults.as_ref().map(|p| p.events().len()),
            )
            .finish_non_exhaustive()
    }
}

/// Reads and materializes a config file; errors name the path.
pub fn load_experiment(path: &str) -> Result<Experiment, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let cfg = Json::parse(&body).map_err(|e| format!("parse {path}: {e}"))?;
    Experiment::from_json(&cfg)
}

/// Allowed top-level config keys.
const TOP_KEYS: &[&str] = &[
    "topology",
    "routing",
    "workload",
    "lambda",
    "window_ms",
    "seed",
    "sim",
    "faults",
    "trace",
    "telemetry",
    "telemetry_every_us",
    "manifest",
];

/// Allowed keys inside the `sim` section.
const SIM_KEYS: &[&str] = &[
    "link_gbps",
    "server_link_gbps",
    "queue_pkts",
    "ecn_k_pkts",
    "flowlet_gap_us",
    "reconverge_delay_us",
    "newreno",
    "transport",
    "queue",
    "pfabric_cwnd_pkts",
];

/// `sim` keys that earlier builds accepted, each with the reason it is
/// gone, so an old config fails with a pointer instead of a bare
/// "unknown key".
const REMOVED_SIM_KEYS: &[(&str, &str)] = &[
    (
        "threads",
        "the engine is one sequential event loop; run independent configs \
         in parallel with `dcnrun batch --jobs N` instead",
    ),
    (
        "wall_counters",
        "its per-shard drain/barrier/mailbox timings went with the sharded engine",
    ),
];

/// The config printed by `dcnsim --print-example`.
pub const EXAMPLE: &str = r#"{
  "topology": { "kind": "xpander", "net_degree": 5, "switches": 54, "servers_per_switch": 3 },
  "routing": { "kind": "hyb", "q_bytes": 100000 },
  "workload": {
    "pattern": { "kind": "skew", "theta": 0.04, "phi": 0.77 },
    "sizes": { "kind": "pfabric_web_search" }
  },
  "lambda": 10000.0,
  "window_ms": [50, 150],
  "seed": 1,
  "sim": { "ecn_k_pkts": 20, "flowlet_gap_us": 50, "transport": "dctcp", "queue": "tail_drop_ecn" },
  "faults": { "kind": "random_link_outages", "count": 2, "down_ms": 60, "up_ms": 90, "seed": 1 }
}"#;

/// Field access helpers: every getter names the offending key on error so
/// config mistakes are self-explanatory.
fn need<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("config: missing field \"{key}\""))
}

fn need_f64(v: &Json, key: &str) -> Result<f64, String> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| format!("config: \"{key}\" must be a number"))
}

fn need_u64(v: &Json, key: &str) -> Result<u64, String> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| format!("config: \"{key}\" must be a non-negative integer"))
}

fn need_u32(v: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(need_u64(v, key)?).map_err(|_| format!("config: \"{key}\" too large"))
}

fn need_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    need(v, key)?
        .as_str()
        .ok_or_else(|| format!("config: \"{key}\" must be a string"))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    v.get(key)
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("config: \"{key}\" must be a number"))
        })
        .transpose()
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if *x == Json::Null => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("config: \"{key}\" must be an integer")),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, String> {
    v.get(key)
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("config: \"{key}\" must be a string path"))
        })
        .transpose()
}

fn kind<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| format!("config: {what} needs a \"kind\" field"))
}

/// Rejects unknown keys at the top level and in the `sim` section, so a
/// typoed knob fails loudly instead of silently running the defaults.
pub fn validate_keys(cfg: &Json) -> Result<(), String> {
    let Some(fields) = cfg.as_object() else {
        return Err("config root must be a JSON object".to_string());
    };
    for (k, _) in fields {
        if !TOP_KEYS.contains(&k.as_str()) {
            return Err(format!(
                "config: unknown key \"{k}\" (expected one of: {})",
                TOP_KEYS.join(", ")
            ));
        }
    }
    if let Some(sim) = cfg.get("sim") {
        let Some(fields) = sim.as_object() else {
            return Err("config: \"sim\" must be an object".to_string());
        };
        for (k, _) in fields {
            if let Some((_, why)) = REMOVED_SIM_KEYS.iter().find(|(r, _)| r == k) {
                return Err(format!("config: sim key \"{k}\" was removed: {why}"));
            }
            if !SIM_KEYS.contains(&k.as_str()) {
                return Err(format!(
                    "config: unknown sim key \"{k}\" (expected one of: {})",
                    SIM_KEYS.join(", ")
                ));
            }
        }
    }
    Ok(())
}

fn build_topology(cfg: &Json, seed: u64) -> Result<Topology, String> {
    Ok(match kind(cfg, "topology")? {
        "fat_tree" => {
            let k = need_u32(cfg, "k")?;
            match opt_f64(cfg, "cost_fraction")? {
                Some(f) => FatTree::at_cost_fraction(k, f).build(),
                None => FatTree::full(k).build(),
            }
        }
        "xpander" => Xpander::for_switches(
            need_u32(cfg, "net_degree")?,
            need_u32(cfg, "switches")?,
            need_u32(cfg, "servers_per_switch")?,
            seed,
        )
        .build(),
        "jellyfish" => Jellyfish::new(
            need_u32(cfg, "switches")?,
            need_u32(cfg, "net_degree")?,
            need_u32(cfg, "servers_per_switch")?,
            seed,
        )
        .build(),
        "slim_fly" => {
            SlimFly::new(need_u32(cfg, "q")?, need_u32(cfg, "servers_per_switch")?).build()
        }
        "longhop_folded" => {
            Longhop::folded_hypercube(need_u32(cfg, "m")?, need_u32(cfg, "servers_per_switch")?)
                .build()
        }
        "dragonfly" => crate::topology::dragonfly::Dragonfly::balanced(need_u32(cfg, "h")?).build(),
        "file" => {
            let path = need_str(cfg, "path")?;
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("read topology {path}: {e}"))?;
            let v = Json::parse(&body).map_err(|e| format!("parse topology {path}: {e}"))?;
            let t = Topology::from_json(&v).map_err(|e| format!("invalid topology {path}: {e}"))?;
            if !t.is_connected() {
                return Err("loaded topology is disconnected".to_string());
            }
            t
        }
        other => return Err(format!("config: unknown topology kind \"{other}\"")),
    })
}

fn parse_routing(cfg: &Json) -> Result<Routing, String> {
    Ok(match kind(cfg, "routing")? {
        "ecmp" => Routing::Ecmp,
        "vlb" => Routing::Vlb,
        "hyb" => Routing::Hyb(opt_u64(cfg, "q_bytes")?.unwrap_or(PAPER_Q_BYTES)),
        "adaptive_hyb" => Routing::AdaptiveHyb(need_u64(cfg, "ecn_marks")?),
        "ksp" => Routing::Ksp(need_u64(cfg, "k")? as usize),
        other => return Err(format!("config: unknown routing kind \"{other}\"")),
    })
}

fn parse_sim(cfg: Option<&Json>) -> Result<SimConfig, String> {
    let mut c = SimConfig::default();
    let Some(cfg) = cfg else { return Ok(c) };
    if let Some(v) = opt_f64(cfg, "link_gbps")? {
        c.link_gbps = v;
    }
    if let Some(v) = opt_f64(cfg, "server_link_gbps")? {
        c.server_link_gbps = v;
    }
    if let Some(v) = opt_u64(cfg, "queue_pkts")? {
        c.queue_pkts = v as u32;
    }
    if let Some(v) = opt_u64(cfg, "ecn_k_pkts")? {
        c.ecn_k_pkts = v as u32;
    }
    if let Some(v) = opt_u64(cfg, "flowlet_gap_us")? {
        c.flowlet_gap_ns = v * US;
    }
    if let Some(v) = opt_u64(cfg, "reconverge_delay_us")? {
        c.reconverge_delay_ns = v * US;
    }
    if cfg.get("newreno").and_then(|v| v.as_bool()) == Some(true) {
        c = c.with_newreno();
    }
    if let Some(v) = cfg.get("transport") {
        let s = v.as_str().ok_or("config: \"transport\" must be a string")?;
        c.transport = TransportKind::parse(s).ok_or_else(|| {
            format!("config: unknown transport \"{s}\" (expected one of: dctcp, newreno, pfabric)")
        })?;
    }
    if let Some(v) = cfg.get("queue") {
        let s = v.as_str().ok_or("config: \"queue\" must be a string")?;
        c.queue_disc = QueueDiscKind::parse(s).ok_or_else(|| {
            format!("config: unknown queue \"{s}\" (expected one of: tail_drop_ecn, pfabric)")
        })?;
    }
    if let Some(v) = opt_u64(cfg, "pfabric_cwnd_pkts")? {
        c.pfabric_cwnd_pkts = v as u32;
    }
    Ok(c)
}

/// One event of an explicit `"schedule"` fault plan.
fn parse_fault_event(e: &Json, plan: FaultPlan) -> Result<FaultPlan, String> {
    let op = need_str(e, "op")?;
    let at = need_u64(e, "at_ms")? * MS;
    Ok(match op {
        "link_down" => plan.link_down(at, need_u32(e, "link")?),
        "link_up" => plan.link_up(at, need_u32(e, "link")?),
        "switch_down" => plan.switch_down(at, need_u32(e, "switch")?),
        "switch_up" => plan.switch_up(at, need_u32(e, "switch")?),
        "link_gray" => plan.link_gray(at, need_u32(e, "link")?, need_f64(e, "loss")?),
        "link_clear" => plan.link_clear(at, need_u32(e, "link")?),
        other => {
            return Err(format!(
                "config: unknown fault op \"{other}\" (expected one of: link_down, link_up, \
                 switch_down, switch_up, link_gray, link_clear)"
            ))
        }
    })
}

/// Optional `faults` section. `window_end_ns` bounds generated chaos
/// plans; every plan is then validated against `horizon_ns` (the hard
/// simulation-time cap).
fn parse_faults(
    cfg: Option<&Json>,
    topo: &Topology,
    window_end_ns: u64,
    horizon_ns: u64,
) -> Result<Option<FaultPlan>, String> {
    let Some(cfg) = cfg else { return Ok(None) };
    let plan = match kind(cfg, "faults")? {
        "random_link_outages" => {
            let count = need_u64(cfg, "count")? as usize;
            let down = need_u64(cfg, "down_ms")? * MS;
            let up = opt_u64(cfg, "up_ms")?.map(|v| v * MS);
            let seed = opt_u64(cfg, "seed")?.unwrap_or(1);
            FaultPlan::random_link_outages(topo, count, down, up, seed)
        }
        "schedule" => {
            let seed = opt_u64(cfg, "seed")?.unwrap_or(1);
            let events = need(cfg, "events")?
                .as_array()
                .ok_or("config: faults \"events\" must be an array")?;
            let mut plan = FaultPlan::new().with_seed(seed);
            for e in events {
                plan = parse_fault_event(e, plan)?;
            }
            plan
        }
        "chaos" => {
            let seed = opt_u64(cfg, "seed")?.unwrap_or(1);
            FaultPlan::chaos(topo, window_end_ns, seed)
        }
        other => return Err(format!("config: unknown faults kind \"{other}\"")),
    };
    plan.validate_schedule(topo, horizon_ns)
        .map_err(|e| format!("config: invalid fault schedule: {e}"))?;
    Ok(Some(plan))
}

impl Experiment {
    /// Materializes a parsed config: validates keys, builds the topology,
    /// generates the workload, and validates the fault schedule.
    pub fn from_json(cfg: &Json) -> Result<Experiment, String> {
        validate_keys(cfg)?;

        let seed = opt_u64(cfg, "seed")?.unwrap_or(1);
        let topo = build_topology(need(cfg, "topology")?, seed)?;
        let racks = topo.tors_with_servers();

        let workload = need(cfg, "workload")?;
        let pattern_cfg = need(workload, "pattern")?;
        let pattern: Box<dyn TrafficPattern> = match kind(pattern_cfg, "workload pattern")? {
            "all_to_all" => {
                let fraction = opt_f64(pattern_cfg, "fraction")?.unwrap_or(1.0);
                Box::new(AllToAll::new(
                    &topo,
                    active_fraction(&racks, fraction, true, seed),
                ))
            }
            "permute" => {
                let fraction = opt_f64(pattern_cfg, "fraction")?.unwrap_or(1.0);
                Box::new(Permutation::new(
                    &topo,
                    active_fraction(&racks, fraction, true, seed),
                    seed,
                ))
            }
            "skew" => Box::new(Skew::new(
                &topo,
                racks.clone(),
                need_f64(pattern_cfg, "theta")?,
                need_f64(pattern_cfg, "phi")?,
                seed,
            )),
            "projector_trace" => Box::new(PairSkew::projector_trace(&topo, racks.clone(), seed)),
            other => return Err(format!("config: unknown pattern kind \"{other}\"")),
        };
        let sizes: Box<dyn FlowSizeDist> = match workload.get("sizes") {
            None => Box::new(PFabricWebSearch::new()),
            Some(s) => match kind(s, "workload sizes")? {
                "pfabric_web_search" => Box::new(PFabricWebSearch::new()),
                "pareto_hull" => Box::new(ParetoHull::new()),
                "fixed" => Box::new(FixedSize(need_u64(s, "bytes")?)),
                other => return Err(format!("config: unknown sizes kind \"{other}\"")),
            },
        };

        let window = match cfg.get("window_ms") {
            Some(w) => {
                let (a, b) = w
                    .as_array()
                    .filter(|a| a.len() == 2)
                    .and_then(|a| Some((a[0].as_u64()?, a[1].as_u64()?)))
                    .ok_or("config: \"window_ms\" must be [start, end]")?;
                (a * MS, b * MS)
            }
            None => (50 * MS, 150 * MS),
        };
        let max_time = window.1.saturating_mul(40);
        let lambda = need_f64(cfg, "lambda")?;
        let horizon_s = window.1 as f64 / 1e9 * 1.3;
        let flows = generate_flows(pattern.as_ref(), sizes.as_ref(), lambda, horizon_s, seed);

        let faults = parse_faults(cfg.get("faults"), &topo, window.1, max_time)?;

        Ok(Experiment {
            seed,
            topo,
            routing: parse_routing(need(cfg, "routing")?)?,
            sim: parse_sim(cfg.get("sim"))?,
            lambda,
            flows,
            window,
            max_time,
            faults,
            trace: opt_str(cfg, "trace")?,
            telemetry: opt_str(cfg, "telemetry")?,
            telemetry_every_ns: opt_u64(cfg, "telemetry_every_us")?
                .map(|us| us * US)
                .unwrap_or(DEFAULT_SAMPLE_EVERY_NS),
            manifest: opt_str(cfg, "manifest")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_example_materializes() {
        let cfg = Json::parse(EXAMPLE).unwrap();
        let exp = Experiment::from_json(&cfg).expect("example config must load");
        assert_eq!(exp.seed, 1);
        assert!(!exp.flows.is_empty());
        assert_eq!(exp.window, (50 * MS, 150 * MS));
        assert_eq!(exp.max_time, 150 * MS * 40);
        assert!(exp.faults.is_some());
    }

    #[test]
    fn validate_accepts_the_example() {
        let cfg = Json::parse(EXAMPLE).unwrap();
        assert!(validate_keys(&cfg).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_top_level_key() {
        let cfg = Json::parse(r#"{"topology": {}, "lambda_typo": 1.0}"#).unwrap();
        let err = validate_keys(&cfg).unwrap_err();
        assert!(err.contains("unknown key \"lambda_typo\""), "{err}");
    }

    #[test]
    fn validate_rejects_unknown_sim_key() {
        let cfg = Json::parse(r#"{"sim": {"ecn_pkts": 4}}"#).unwrap();
        let err = validate_keys(&cfg).unwrap_err();
        assert!(err.contains("unknown sim key \"ecn_pkts\""), "{err}");
    }

    #[test]
    fn validate_rejects_removed_threads_key_with_a_pointer() {
        let cfg = Json::parse(r#"{"sim": {"threads": 4}}"#).unwrap();
        let err = validate_keys(&cfg).unwrap_err();
        assert!(err.contains("\"threads\" was removed"), "{err}");
        assert!(err.contains("dcnrun batch --jobs"), "{err}");
    }

    #[test]
    fn validate_rejects_non_object_root() {
        let cfg = Json::parse("[1, 2]").unwrap();
        assert!(validate_keys(&cfg).is_err());
    }

    #[test]
    fn validate_accepts_observability_keys() {
        let cfg = Json::parse(
            r#"{"trace": "t.jsonl", "telemetry": "ts.jsonl",
                "telemetry_every_us": 50, "manifest": "m.json"}"#,
        )
        .unwrap();
        assert!(validate_keys(&cfg).is_ok());
    }

    fn tiny(faults: &str) -> String {
        format!(
            r#"{{
              "topology": {{ "kind": "fat_tree", "k": 4 }},
              "routing": {{ "kind": "ecmp" }},
              "workload": {{ "pattern": {{ "kind": "all_to_all" }} }},
              "lambda": 100.0,
              "window_ms": [0, 10],
              "faults": {faults}
            }}"#
        )
    }

    #[test]
    fn explicit_schedule_is_accepted() {
        let body = tiny(
            r#"{ "kind": "schedule", "events": [
                 {"op": "link_down", "at_ms": 2, "link": 3},
                 {"op": "link_up", "at_ms": 5, "link": 3},
                 {"op": "link_gray", "at_ms": 1, "link": 4, "loss": 0.05} ] }"#,
        );
        let exp = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(exp.faults.unwrap().events().len(), 3);
    }

    #[test]
    fn schedule_past_horizon_is_rejected() {
        // max_time = 10 ms * 40 = 400 ms; 500 ms is past it.
        let body = tiny(
            r#"{ "kind": "schedule", "events": [
                 {"op": "link_down", "at_ms": 500, "link": 3} ] }"#,
        );
        let err = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap_err();
        assert!(err.contains("past the simulation horizon"), "{err}");
    }

    #[test]
    fn inverted_schedule_is_rejected() {
        let body = tiny(
            r#"{ "kind": "schedule", "events": [
                 {"op": "link_up", "at_ms": 2, "link": 3} ] }"#,
        );
        let err = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap_err();
        assert!(err.contains("never down"), "{err}");
    }

    #[test]
    fn unknown_link_is_rejected() {
        let body = tiny(
            r#"{ "kind": "schedule", "events": [
                 {"op": "link_down", "at_ms": 2, "link": 99999} ] }"#,
        );
        let err = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap_err();
        assert!(err.contains("unknown link"), "{err}");
    }

    #[test]
    fn outage_past_horizon_is_rejected() {
        let body = tiny(r#"{ "kind": "random_link_outages", "count": 1, "down_ms": 999 }"#);
        let err = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap_err();
        assert!(err.contains("past the simulation horizon"), "{err}");
    }

    #[test]
    fn chaos_plans_always_validate() {
        let body = tiny(r#"{ "kind": "chaos", "seed": 7 }"#);
        let exp = Experiment::from_json(&Json::parse(&body).unwrap()).unwrap();
        assert!(!exp.faults.unwrap().events().is_empty());
    }

    #[test]
    fn missing_lambda_is_an_error_not_a_panic() {
        let body = r#"{
          "topology": { "kind": "fat_tree", "k": 4 },
          "routing": { "kind": "ecmp" },
          "workload": { "pattern": { "kind": "all_to_all" } }
        }"#;
        let err = Experiment::from_json(&Json::parse(body).unwrap()).unwrap_err();
        assert!(err.contains("missing field \"lambda\""), "{err}");
    }
}
