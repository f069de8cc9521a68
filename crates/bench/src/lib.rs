//! # dcn-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (see DESIGN.md §3 for the full index), plus harness-free perf benches
//! over the hot paths (`bench_case`). Every binary prints its figure's
//! series as TSV on stdout and
//! also writes `results/<name>.json` when `--out <dir>` is given.
//!
//! Common flags ([`parse_cli`]): `--scale tiny|small|paper` (default
//! `small`) selects the experiment size (DESIGN.md §4, substitution 4),
//! `--seed N` the RNG seed, `--trace <path>` streams structured simulator
//! events as JSONL, `--telemetry <path>` samples time-series fabric state,
//! and `--manifest <path>` writes a run manifest. A binary names any extra
//! switches it takes; an unknown flag is an error.
//!
//! The packet figures and ablations are each one [`sweep`]: named
//! [`Line`]s (topology, routing, simulator config, traffic pattern, λ) run
//! at every x through [`fct_point`], and [`Panel`]s that read a metric per
//! line into the printed [`Series`]. Every point runs one [`dcn_core::Run`]
//! and gets its own trace/telemetry/manifest: `--manifest man.json` on a
//! sweep writes `man.<line>_x<NN>.json` per line and x index `NN` (see
//! [`Cli::trace_path`] for the derivation).

pub mod perf;
pub mod supervise;

use std::rc::Rc;

use dcn_core::{Routing, Run, RunOutput, Sinks};
use dcn_json::Json;
use dcn_sim::{FaultPlan, SimConfig};
use dcn_topology::Topology;
use dcn_workloads::{generate_flows, FlowSizeDist, TrafficPattern};

/// Parsed common CLI options.
#[derive(Clone, Debug)]
pub struct Cli {
    pub scale: dcn_core::Scale,
    pub seed: u64,
    pub out_dir: Option<String>,
    /// `--trace <path>`: JSONL event-trace destination. Binaries that run
    /// more than one experiment derive per-run paths from it (see
    /// [`Cli::trace_path`]).
    pub trace: Option<String>,
    /// `--telemetry <path>`: time-series telemetry JSONL destination,
    /// per-run derived like `--trace`.
    pub telemetry: Option<String>,
    /// `--manifest <path>`: run-manifest JSON destination, per-run derived
    /// like `--trace`.
    pub manifest: Option<String>,
    /// The binary's own boolean switches that were passed (e.g.
    /// `--dynamic` for the failure ablation); see [`Cli::has_flag`].
    pub flags: Vec<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: dcn_core::Scale::Small,
            seed: 1,
            out_dir: None,
            trace: None,
            telemetry: None,
            manifest: None,
            flags: Vec::new(),
        }
    }
}

impl Cli {
    /// Whether a binary-specific boolean switch (e.g. `--dynamic`) was
    /// passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The `--trace` destination for one named run: `events.jsonl` +
    /// `"dctcp"` → `events.dctcp.jsonl` (the suffix lands before a final
    /// extension, if any). `None` when tracing is off.
    pub fn trace_path(&self, run: &str) -> Option<String> {
        self.trace.as_deref().map(|b| derive_run_path(b, run))
    }

    /// The `--telemetry` destination for one named run (same derivation as
    /// [`Cli::trace_path`]).
    pub fn telemetry_path(&self, run: &str) -> Option<String> {
        self.telemetry.as_deref().map(|b| derive_run_path(b, run))
    }

    /// The `--manifest` destination for one named run (same derivation as
    /// [`Cli::trace_path`]).
    pub fn manifest_path(&self, run: &str) -> Option<String> {
        self.manifest.as_deref().map(|b| derive_run_path(b, run))
    }

    /// All three sinks for one named run, telemetry at the default cadence.
    pub fn sinks(&self, run: &str) -> Sinks {
        Sinks {
            trace: self.trace_path(run),
            telemetry: self.telemetry_path(run),
            manifest: self.manifest_path(run),
            ..Sinks::default()
        }
    }
}

/// Inserts a run label before the final extension: `events.jsonl` +
/// `"dctcp"` → `events.dctcp.jsonl`.
fn derive_run_path(base: &str, run: &str) -> String {
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{run}.{ext}"),
        _ => format!("{base}.{run}"),
    }
}

/// Parses the shared flags (`--scale`, `--seed`, `--out`, `--trace`,
/// `--telemetry`, `--manifest`) plus the binary's own boolean `switches`
/// (e.g. `&["dynamic"]`; read back with [`Cli::has_flag`]) from
/// `std::env::args`. A flag missing its value, an unknown flag, or a stray
/// positional argument is a one-line `<binary>: error: ...` and exit 2.
pub fn parse_cli(switches: &[&str]) -> Cli {
    let args: Vec<String> = std::env::args().collect();
    parse_args(&args[1..], switches).unwrap_or_else(|e| {
        let bin = args
            .first()
            .map_or("dcn-bench", |a| a.rsplit('/').next().unwrap_or(a.as_str()));
        eprintln!("{bin}: error: {e}");
        std::process::exit(2)
    })
}

/// [`parse_cli`] over an explicit argument list (program name excluded).
fn parse_args(args: &[String], switches: &[&str]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                cli.scale = dcn_core::Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale '{v}' (tiny|small|paper)"))?;
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, got '{v}'"))?;
            }
            "--out" => cli.out_dir = Some(value()?),
            "--trace" => cli.trace = Some(value()?),
            "--telemetry" => cli.telemetry = Some(value()?),
            "--manifest" => cli.manifest = Some(value()?),
            other => match other.strip_prefix("--") {
                Some(name) if switches.contains(&name) => cli.flags.push(name.to_string()),
                Some(_) => return Err(format!("unknown flag '{other}'")),
                None => return Err(format!("unexpected argument '{other}'")),
            },
        }
    }
    Ok(cli)
}

/// A figure's data: named columns over a shared x-axis.
#[derive(Clone, Debug)]
pub struct Series {
    pub figure: String,
    pub x_label: String,
    pub columns: Vec<String>,
    /// Each row: (x, one value per column); NaN marks a missing point.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl Series {
    pub fn new(figure: &str, x_label: &str, columns: &[&str]) -> Self {
        Series {
            figure: figure.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((x, values));
    }

    /// Prints the TSV block the harness emits for every figure.
    pub fn print(&self) {
        println!("# {}", self.figure);
        print!("{}", self.x_label);
        for c in &self.columns {
            print!("\t{c}");
        }
        println!();
        for (x, vals) in &self.rows {
            print!("{x:.6}");
            for v in vals {
                if v.is_nan() {
                    print!("\t-");
                } else {
                    print!("\t{v:.6}");
                }
            }
            println!();
        }
    }

    /// The JSON form written by [`Series::write_json`].
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("figure", Json::from(self.figure.as_str())),
            ("x_label", Json::from(self.x_label.as_str())),
            (
                "columns",
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| Json::from(c.as_str()))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|(x, vals)| {
                            let mut row = vec![Json::Num(*x)];
                            row.extend(vals.iter().map(|v| {
                                if v.is_nan() {
                                    Json::Null
                                } else {
                                    Json::Num(*v)
                                }
                            }));
                            Json::Arr(row)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes `<out_dir>/<figure>.json` atomically (temporary + rename).
    pub fn write_json(&self, out_dir: &str) {
        std::fs::create_dir_all(out_dir).expect("create out dir");
        let path = format!("{out_dir}/{}.json", self.figure);
        dcn_core::write_atomic(&path, self.to_json().pretty().as_bytes()).expect("write json");
        eprintln!("wrote {path}");
    }

    /// Print and optionally persist, in one call.
    pub fn finish(&self, cli: &Cli) {
        self.print();
        if let Some(dir) = &cli.out_dir {
            self.write_json(dir);
        }
    }
}

/// Minimal timing harness for the `cargo bench` targets (all declared
/// `harness = false`): one warmup call, then `iters` timed runs, printing
/// the mean wall-clock per iteration in a unit matched to its magnitude.
pub fn bench_case<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    if per >= 1.0 {
        println!("{name}\t{per:.3} s/iter");
    } else if per >= 1e-3 {
        println!("{name}\t{:.3} ms/iter", per * 1e3);
    } else {
        println!("{name}\t{:.3} us/iter", per * 1e6);
    }
}

/// The flow-arrival sweep used in load figures: `n` evenly spaced rates up
/// to `max_rate` (flow starts per second, aggregate).
pub fn rate_sweep(max_rate: f64, n: usize) -> Vec<f64> {
    (1..=n).map(|i| max_rate * i as f64 / n as f64).collect()
}

/// The fraction-of-active-servers sweep of Figs 5/6/9/10.
pub fn fraction_sweep(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64 / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_rows_align() {
        let mut s = Series::new("figX", "x", &["a", "b"]);
        s.push(0.1, vec![1.0, 2.0]);
        s.push(0.2, vec![3.0, f64::NAN]);
        assert_eq!(s.rows.len(), 2);
    }

    #[test]
    #[should_panic]
    fn series_rejects_mismatched_row() {
        let mut s = Series::new("figX", "x", &["a", "b"]);
        s.push(0.1, vec![1.0]);
    }

    #[test]
    fn trace_path_suffixes_before_extension() {
        let mut cli = Cli::default();
        assert_eq!(cli.trace_path("dctcp"), None);
        cli.trace = Some("events.jsonl".to_string());
        assert_eq!(cli.trace_path("dctcp"), Some("events.dctcp.jsonl".into()));
        cli.trace = Some("trace".to_string());
        assert_eq!(cli.trace_path("pfabric"), Some("trace.pfabric".into()));
    }

    #[test]
    fn telemetry_and_manifest_paths_derive_like_trace() {
        let mut cli = Cli::default();
        assert_eq!(cli.telemetry_path("ft"), None);
        assert_eq!(cli.manifest_path("ft"), None);
        cli.telemetry = Some("ts.jsonl".to_string());
        cli.manifest = Some("results/run.json".to_string());
        assert_eq!(cli.telemetry_path("ft"), Some("ts.ft.jsonl".into()));
        assert_eq!(cli.manifest_path("ft"), Some("results/run.ft.json".into()));
    }

    #[test]
    fn sweeps() {
        assert_eq!(fraction_sweep(10).len(), 10);
        assert_eq!(fraction_sweep(10)[9], 1.0);
        let r = rate_sweep(1000.0, 4);
        assert_eq!(r, vec![250.0, 500.0, 750.0, 1000.0]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_args_reads_shared_flags_and_declared_switches() {
        let cli = parse_args(
            &args(&[
                "--scale",
                "tiny",
                "--seed",
                "7",
                "--manifest",
                "m.json",
                "--dynamic",
            ]),
            &["dynamic"],
        )
        .unwrap();
        assert_eq!(cli.scale, dcn_core::Scale::Tiny);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.manifest.as_deref(), Some("m.json"));
        assert!(cli.has_flag("dynamic"));
    }

    #[test]
    fn parse_args_rejects_a_flag_missing_its_value() {
        let err = parse_args(&args(&["--scale", "tiny", "--seed"]), &[]).unwrap_err();
        assert_eq!(err, "--seed takes a value");
        let err = parse_args(&args(&["--seed", "x"]), &[]).unwrap_err();
        assert!(err.contains("--seed takes an integer"), "{err}");
    }

    #[test]
    fn parse_args_rejects_unknown_and_undeclared_flags() {
        let err = parse_args(&args(&["--manfest", "m.json"]), &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--manfest'");
        // A switch one binary declares is unknown to another.
        let err = parse_args(&args(&["--dynamic"]), &["check"]).unwrap_err();
        assert_eq!(err, "unknown flag '--dynamic'");
        let err = parse_args(&args(&["stray"]), &[]).unwrap_err();
        assert_eq!(err, "unexpected argument 'stray'");
    }

    /// Runs a two-point sweep on the tiny fat-tree with `--manifest`
    /// under `dir`; returns the manifest files it wrote, sorted.
    fn tiny_sweep_manifests(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        let cli = Cli {
            scale: dcn_core::Scale::Tiny,
            manifest: Some(dir.join("man.json").to_string_lossy().into_owned()),
            ..Cli::default()
        };
        let ft = dcn_topology::fattree::FatTree::full(4).build();
        let pat = Rc::new(dcn_workloads::AllToAll::new(&ft, ft.tors_with_servers()));
        sweep(
            &cli,
            &dcn_workloads::PFabricWebSearch::new(),
            "flow_starts_per_s",
            &[200.0, 400.0],
            |rate| vec![Line::new("ft", &ft, Routing::Ecmp, &pat, rate)],
            &[Panel::per_line("tiny_sweep", avg_fct, &["ft"])],
        );
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    #[test]
    fn sweep_writes_one_manifest_per_point_that_reruns_diff_clean() {
        let root = std::env::temp_dir().join(format!("dcn-bench-sweep-{}", std::process::id()));
        let first = tiny_sweep_manifests(&root.join("a"));
        let rerun = tiny_sweep_manifests(&root.join("b"));
        let names: Vec<_> = first.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(names, ["man.ft_x00.json", "man.ft_x01.json"]);
        assert_eq!(rerun.len(), 2);
        let read = |p: &std::path::Path| {
            dcn_json::Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap()
        };
        for (a, b) in first.iter().zip(&rerun) {
            let mut drift = Vec::new();
            dcn_core::diff_json(&read(a), &read(b), "", &mut drift);
            assert!(drift.is_empty(), "{}: {drift:?}", a.display());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Per-scale Garg–Könemann options: tight on small instances, bracketed
/// (certified lower/upper) on paper-scale ones where tight ε is too slow.
pub fn gk_opts_for(n_racks: usize) -> dcn_maxflow::GkOptions {
    if n_racks <= 128 {
        dcn_maxflow::GkOptions {
            epsilon: 0.05,
            target: Some(1.0),
            gap: 0.04,
            max_phases: 2_000_000,
        }
    } else {
        dcn_maxflow::GkOptions {
            epsilon: 0.2,
            target: Some(1.0),
            gap: 0.1,
            max_phases: 2_000_000,
        }
    }
}

/// One point of a fluid-flow throughput curve with its certified bracket.
#[derive(Clone, Copy, Debug)]
pub struct FluidPoint {
    pub x: f64,
    /// Feasible (primal) per-server throughput, clamped to 1.
    pub lower: f64,
    /// Dual upper bound, clamped to 1.
    pub upper: f64,
}

/// Throughput-vs-fraction curve for a static topology under
/// longest-matching TMs (§5): one Garg–Könemann solve per x, spread over
/// scoped threads (one per point, capped by available parallelism).
pub fn fluid_curve(t: &dcn_topology::Topology, xs: &[f64], seed: u64) -> Vec<FluidPoint> {
    let racks = t.tors_with_servers();
    let opts = gk_opts_for(racks.len());
    let net = dcn_maxflow::FlowNetwork::from_topology(t);
    let solve = |x: f64| {
        let pairs = dcn_workloads::longest_matching(t, &racks, x, seed);
        let commodities: Vec<dcn_maxflow::Commodity> = pairs
            .iter()
            .map(|&(a, b)| dcn_maxflow::Commodity {
                src: a,
                dst: b,
                demand: t.servers_at(a) as f64,
            })
            .collect();
        let r = dcn_maxflow::max_concurrent_flow(&net, &commodities, opts);
        FluidPoint {
            x,
            lower: r.throughput.min(1.0),
            upper: r.upper_bound.min(1.0),
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut points: Vec<Option<FluidPoint>> = vec![None; xs.len()];
    std::thread::scope(|scope| {
        for (chunk_xs, chunk_out) in xs
            .chunks(xs.len().div_ceil(threads))
            .zip(points.chunks_mut(xs.len().div_ceil(threads)))
        {
            scope.spawn(|| {
                for (&x, out) in chunk_xs.iter().zip(chunk_out.iter_mut()) {
                    *out = Some(solve(x));
                }
            });
        }
    });
    points
        .into_iter()
        .map(|p| p.expect("every point solved"))
        .collect()
}

/// Per-scale packet-experiment timing: measurement window, flow-generation
/// horizon (a little past the window so load persists while window flows
/// drain), and a hard simulation-time cap.
#[derive(Clone, Copy, Debug)]
pub struct PacketSetup {
    pub window: (dcn_sim::Ns, dcn_sim::Ns),
    pub horizon_s: f64,
    pub max_time: dcn_sim::Ns,
}

pub fn packet_setup(scale: dcn_core::Scale) -> PacketSetup {
    let window = dcn_core::default_window(scale);
    PacketSetup {
        window,
        horizon_s: window.1 as f64 / 1e9 * 1.3,
        max_time: window.1.saturating_mul(40),
    }
}

/// One curve of a packet figure at one x: the network, routing, simulator
/// constants, traffic pattern, and aggregate arrival rate to simulate.
pub struct Line<'a> {
    /// Short label (`"fat_tree"`, `"xpander_hyb"`): panel columns name the
    /// line they read by it, and it stems the point's
    /// trace/telemetry/manifest paths.
    pub name: &'a str,
    pub topology: &'a Topology,
    pub routing: Routing,
    pub cfg: SimConfig,
    pub pattern: Rc<dyn TrafficPattern>,
    /// Aggregate flow starts per second.
    pub lambda: f64,
    /// Link faults injected before the run.
    pub faults: Option<FaultPlan>,
    /// Switch the built simulator to oracle routing over the k shortest
    /// paths (§7.1's adaptive-routing upper bound).
    pub oracle_ksp: Option<usize>,
}

impl<'a> Line<'a> {
    /// A line with the default [`SimConfig`], no faults, no oracle.
    pub fn new<P: TrafficPattern + 'static>(
        name: &'a str,
        topology: &'a Topology,
        routing: Routing,
        pattern: &Rc<P>,
        lambda: f64,
    ) -> Self {
        Line {
            name,
            topology,
            routing,
            cfg: SimConfig::default(),
            pattern: Rc::clone(pattern) as Rc<dyn TrafficPattern>,
            lambda,
            faults: None,
            oracle_ksp: None,
        }
    }
}

/// One packet-level FCT data point at `--scale`'s [`packet_setup`]:
/// generate `line`'s workload (seeded by `--seed`), run it with the
/// `--trace`/`--telemetry`/`--manifest` sinks derived for `label`, write
/// its manifest, and warn on stderr if window flows were left unfinished
/// at `max_time`. Panics if a sink cannot be opened or written.
pub fn fct_point(cli: &Cli, label: &str, line: &Line, sizes: &dyn FlowSizeDist) -> RunOutput {
    let setup = packet_setup(cli.scale);
    let flows = generate_flows(
        &*line.pattern,
        sizes,
        line.lambda,
        setup.horizon_s,
        cli.seed,
    );
    let mut run = Run {
        faults: line.faults.as_ref(),
        ..Run::new(
            line.topology,
            line.routing,
            line.cfg,
            &flows,
            setup.window,
            setup.max_time,
        )
    };
    let sinks = cli.sinks(label);
    sinks
        .attach(&mut run, label, cli.seed)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut sim = run.build();
    if let Some(k) = line.oracle_ksp {
        sim.enable_oracle_routing(line.topology, k);
    }
    let out = run.execute_on(sim);
    sinks.write_manifest(&out).unwrap_or_else(|e| panic!("{e}"));
    let m = &out.metrics;
    if m.completed < m.flows {
        eprintln!(
            "warning: {}/{} window flows unfinished at max_time ({} {:?} λ={})",
            m.flows - m.completed,
            m.flows,
            line.topology.name(),
            line.routing,
            line.lambda
        );
    }
    out
}

/// Reads one column value off a finished point.
pub type Metric = fn(&RunOutput) -> f64;

/// Average FCT over the window's flows (ms).
pub fn avg_fct(o: &RunOutput) -> f64 {
    o.metrics.avg_fct_ms
}

/// 99th-percentile FCT of short flows (ms).
pub fn p99_short(o: &RunOutput) -> f64 {
    o.metrics.p99_short_fct_ms
}

/// Average throughput of long flows (Gbps).
pub fn long_tput(o: &RunOutput) -> f64 {
    o.metrics.avg_long_tput_gbps
}

/// One output block of a sweep: a [`Series`] whose columns each read a
/// [`Metric`] off one named line's point.
pub struct Panel<'p> {
    pub figure: &'p str,
    /// `(column header, line name, metric)` per column.
    pub columns: Vec<(&'p str, &'p str, Metric)>,
}

impl<'p> Panel<'p> {
    pub fn new(figure: &'p str, columns: &[(&'p str, &'p str, Metric)]) -> Self {
        Panel {
            figure,
            columns: columns.to_vec(),
        }
    }

    /// One column per line, headed by the line's name, all reading
    /// `metric`.
    pub fn per_line(figure: &'p str, metric: Metric, lines: &[&'p str]) -> Self {
        Panel {
            figure,
            columns: lines.iter().map(|&l| (l, l, metric)).collect(),
        }
    }
}

/// The packet-figure grid: for each x, runs every line `lines(x)` returns
/// through [`fct_point`] (run label `<line>_x<NN>`, `NN` the x index), then
/// prints every panel (and writes its JSON under `--out`), in order.
pub fn sweep<'a>(
    cli: &Cli,
    sizes: &dyn FlowSizeDist,
    x_label: &str,
    xs: &[f64],
    lines: impl Fn(f64) -> Vec<Line<'a>>,
    panels: &[Panel],
) {
    let mut series: Vec<Series> = panels
        .iter()
        .map(|p| {
            let headers: Vec<&str> = p.columns.iter().map(|c| c.0).collect();
            Series::new(p.figure, x_label, &headers)
        })
        .collect();
    for (i, &x) in xs.iter().enumerate() {
        eprintln!("{x_label} = {x}");
        let lines = lines(x);
        let points: Vec<RunOutput> = lines
            .iter()
            .map(|l| fct_point(cli, &format!("{}_x{i:02}", l.name), l, sizes))
            .collect();
        for (p, s) in panels.iter().zip(&mut series) {
            let row = p
                .columns
                .iter()
                .map(|&(_, name, metric)| {
                    let at = lines
                        .iter()
                        .position(|l| l.name == name)
                        .unwrap_or_else(|| panic!("{}: no line named '{name}'", p.figure));
                    metric(&points[at])
                })
                .collect();
            s.push(x, row);
        }
    }
    for s in &series {
        s.finish(cli);
    }
}
