"""Benchmark runner for the packet engine, routing, and both fluid solvers.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package from source, then measures one workload for
`--seconds`. A run uses INPUTS inputs, generated from sub-seeds of
`--seed` (input i uses seed * 1000 + i), and repeats them in turn, each
repetition a process of its own, so that peak RSS belongs to that
repetition and set-up is paid cold every time, as a user pays it. The
workloads and metrics are declared in BENCHMARK.json at the checkout
root.

The host's noise is one-sided: it slows every process by up to half, in
bursts of seconds and in spells of minutes. Against the bursts, each
end-to-end time is the fastest repetition of each input, averaged over
the inputs. Against the spells, every repetition is preceded by the
fixed reference computation of `src/reference.rs`, which uses no code of
the repository, and the times are scaled by REFERENCE_S over its fastest
time in the run: they read as seconds on a host in a quiet spell.

With `--trace 1` each repetition runs untraced and then traced: the
traced run must reproduce the untraced run's events, packets sent and
FCT digest exactly, and the per-layer metrics are each input's median
over its traced repetitions, averaged over the inputs, unscaled. Every
repetition of one input must simulate the same thing.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is non-zero when the
build fails or an output check breaks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Distinct inputs per run, and repetitions of each made even when they
# outlast --seconds.
INPUTS = 3
MIN_REPS = 2
# A single repetition of the largest workload takes about five seconds.
REP_TIMEOUT_S = 120
# The reference computation's fastest time in a quiet spell on a 2-vCPU
# Intel Xeon VM at 2.0 GHz; a constant, so that scaled times compare
# across runs and commits.
REFERENCE_S = 0.13
# The end-to-end metrics that are times, and so are scaled.
TIMES = ("wall_s", "setup_s", "run_s")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns its last stdout line as JSON, or None."""
    try:
        done = subprocess.run(
            [binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args)}: timed out after {REP_TIMEOUT_S} s")
        return None
    if done.returncode != 0:
        log(f"{' '.join(args)}: exit code {done.returncode}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_rep(binary, workload, seed, traced):
    """One repetition; returns its measurements, or None when it failed."""
    args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    rep = run_binary(binary, args)
    if rep is not None:
        rep["seed"] = seed
    return rep


def same_simulation(a, b):
    """Whether two repetitions of one input simulated the same thing."""
    return all(a[k] == b[k] for k in ("events", "pkts_sent", "digest"))


def per_input(reps, names, pick):
    """`pick` over each input's repetitions, averaged over the inputs.

    `reps` maps an input to its list of {name: value}.
    """
    return {
        n: statistics.mean(pick([r[n] for r in rs]) for rs in reps.values()) for n in names
    }


def scaled(values, reference):
    """The times in `values` as seconds on a host where the reference
    computation's fastest time is REFERENCE_S; `reference` holds its
    times in this run."""
    factor = REFERENCE_S / min(reference)
    return {n: v * factor if n in TIMES else v for n, v in values.items()}


def measure(binary, workload, seed, seconds, trace):
    """Repeats the inputs in turn for `seconds`.

    Returns (untraced, traced, reference): the first two map an input's
    sub-seed to its repetitions, the last lists the reference
    computation's times. A repetition is started only if one like it,
    the input's last, still fits before the deadline, so a run ends close
    to `seconds`. Returns None when a repetition fails or an output check
    breaks.
    """
    seeds = [seed * 1000 + i for i in range(INPUTS)]
    plain = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    reference = []
    deadline = time.monotonic() + seconds
    i, last = 0, {}
    while True:
        sub = seeds[i % INPUTS]
        if i >= INPUTS * MIN_REPS and time.monotonic() + last[sub] > deadline:
            break
        i += 1
        t0 = time.monotonic()
        ref = run_binary(binary, ["--reference"])
        rep = run_rep(binary, workload, sub, False)
        if ref is None or rep is None:
            return None
        reference.append(ref["reference_s"])
        if plain[sub] and not same_simulation(plain[sub][0], rep):
            log(f"{workload} seed {sub}: repetitions diverged: {plain[sub][0]} vs {rep}")
            return None
        plain[sub].append(rep)
        if trace:
            rep_t = run_rep(binary, workload, sub, True)
            if rep_t is None:
                return None
            if not same_simulation(rep, rep_t):
                log(f"{workload} seed {sub}: traced run diverged: {rep} vs {rep_t}")
                return None
            rep_t["layers"]["trace.wall_overhead"] = rep_t["wall_s"] / rep["wall_s"] - 1
            traced[sub].append(rep_t)
        last[sub] = time.monotonic() - t0
    return plain, traced, reference


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 1

    measured = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if measured is None:
        return 1
    plain, traced, reference = measured
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if args.trace:
        samples = {s: [dict(r["layers"], **{"host.reference_s": min(reference)}) for r in rs]
                   for s, rs in traced.items()}
    else:
        samples = plain
    missing = [n for n in names if n not in samples[args.seed * 1000][0]]
    if missing:
        log(f"repetitions did not report {missing}")
        return 1
    if args.trace:
        values = per_input(samples, names, statistics.median)
    else:
        values = scaled(per_input(samples, names, min), reference)
    # Every repetition's simulated outcome and unscaled timings, so a
    # change that alters simulated behaviour is visible beside the
    # aggregates.
    keep = ("seed", "digest", "events", "pkts_sent", "ops", "ops_failed", "wall_s", "setup_s",
            "run_s", "peak_rss_mb")
    reps = [r for rs in plain.values() for r in rs]
    print(json.dumps({"workload": args.workload, "reference_s": reference,
                      "reps": [{k: r[k] for k in keep} for r in reps]}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["ops_failed"] for r in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
