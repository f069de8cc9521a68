#!/usr/bin/env bash
# Hermetic CI for the workspace: formatting, lints as errors, full tests.
# No network access required — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> golden trace regression"
cargo test --release -q --test trace_regression

echo "==> traced dcnsim run + JSONL schema check"
trace_out="$(mktemp -d)/trace_tiny.jsonl"
cargo run --release --bin dcnsim -- examples/configs/trace_tiny.json \
  --trace "$trace_out" > /dev/null
test -s "$trace_out"
# Every line is a flat JSON object led by integer time and event tag.
if grep -qvE '^\{"t": [0-9]+, "ev": "[a-z_]+"' "$trace_out"; then
  echo "malformed trace line:"; grep -vE '^\{"t": [0-9]+, "ev": "[a-z_]+"' "$trace_out" | head -3
  exit 1
fi
grep -q '"ev": "enqueue"' "$trace_out"
grep -q '"ev": "fault"' "$trace_out"
rm -rf "$(dirname "$trace_out")"

echo "==> telemetry smoke: same-seed runs, schema, manifest, zero drift"
obs_dir="$(mktemp -d)"
for run in a b; do
  cargo run --release --bin dcnsim -- examples/configs/trace_tiny.json \
    --telemetry "$obs_dir/ts_$run.jsonl" --manifest "$obs_dir/man_$run.json" \
    > /dev/null
done
test -s "$obs_dir/ts_a.jsonl"
test -s "$obs_dir/man_a.json"
# Same seed ⇒ byte-identical telemetry time series.
cmp "$obs_dir/ts_a.jsonl" "$obs_dir/ts_b.jsonl"
# Every telemetry line is a sample on the cadence grid, integer-only.
if grep -qvE '^\{"t": [0-9]+, "ev": "sample", ' "$obs_dir/ts_a.jsonl"; then
  echo "malformed telemetry line:"
  grep -vE '^\{"t": [0-9]+, "ev": "sample", ' "$obs_dir/ts_a.jsonl" | head -3
  exit 1
fi
if grep -q '\.' "$obs_dir/ts_a.jsonl"; then
  echo "float leaked into telemetry JSONL:"
  grep '\.' "$obs_dir/ts_a.jsonl" | head -3
  exit 1
fi
# The manifest carries the schema tag, fingerprint, and conservation block.
for key in '"schema"' '"fingerprint"' '"conservation"' '"telemetry"'; do
  grep -q "$key" "$obs_dir/man_a.json"
done
# Two same-seed manifests must agree on every simulated field.
cargo run --release --bin dcnstat -- diff "$obs_dir/man_a.json" "$obs_dir/man_b.json"
# Analysis subcommands run over the artifacts they just produced.
cargo run --release --bin dcnstat -- queues "$obs_dir/ts_a.jsonl" > "$obs_dir/queues.tsv"
test -s "$obs_dir/queues.tsv"
cargo run --release --bin dcnstat -- util "$obs_dir/ts_a.jsonl" > "$obs_dir/util.tsv"
test -s "$obs_dir/util.tsv"
rm -rf "$obs_dir"

echo "==> same-seed engine gate (two runs: all artifacts byte-identical)"
det_dir="$(mktemp -d)"
for run in a b; do
  cargo run --release --bin dcnsim -- examples/configs/trace_tiny.json --json \
    --trace "$det_dir/trace_$run.jsonl" --telemetry "$det_dir/ts_$run.jsonl" \
    --manifest "$det_dir/man_$run.json" > "$det_dir/report_$run.json"
done
# One sequential event loop, one global tie order: the metrics report,
# event trace, and telemetry series of two same-seed runs must match
# byte-for-byte, and the manifests must agree on every simulated field
# (the deterministic engine counter block and schedule version included).
cmp "$det_dir/report_a.json" "$det_dir/report_b.json"
cmp "$det_dir/trace_a.jsonl" "$det_dir/trace_b.jsonl"
cmp "$det_dir/ts_a.jsonl" "$det_dir/ts_b.jsonl"
cargo run --release --bin dcnstat -- diff "$det_dir/man_a.json" "$det_dir/man_b.json"
grep -q '"schedule_version"' "$det_dir/man_a.json"
rm -rf "$det_dir"

echo "==> determinism property sweep (random topo/transport/chaos: same-seed and resume)"
cargo test --release -q --test determinism

echo "==> dcnsim error handling (clean failure, no panic)"
set +e
err_out="$(cargo run --release --bin dcnsim -- /nonexistent_config.json 2>&1 >/dev/null)"
err_rc=$?
set -e
test "$err_rc" -ne 0
echo "$err_out" | grep -q '^dcnsim: error:'
if echo "$err_out" | grep -q 'panicked'; then
  echo "dcnsim panicked instead of failing cleanly"; exit 1
fi
# A sink that cannot be opened is the same one-line error, not a panic.
set +e
err_out="$(cargo run --release --bin dcnsim -- examples/configs/trace_tiny.json \
  --trace /nonexistent/dir/t.jsonl 2>&1 >/dev/null)"
err_rc=$?
set -e
test "$err_rc" -ne 0
echo "$err_out" | grep -q '^dcnsim: error: open trace /nonexistent/dir/t.jsonl'
if echo "$err_out" | grep -q 'panicked'; then
  echo "dcnsim panicked on an unopenable trace sink"; exit 1
fi

echo "==> checkpoint equivalence gate (resume must be byte-exact)"
cargo test --release -q --test checkpoint_resume

echo "==> checkpoint format pin (v7 bytes, restore identity, damaged payloads)"
cargo test --release -q -p dcn-sim --lib checkpoint_pin

echo "==> checkpoint corruption gate (damage is final, never restored)"
cargo test --release -q --test checkpoint_corruption

echo "==> crash-consistency harness (every failpoint site has a recovery story)"
# Already ran in debug as part of the workspace tests; the release re-run
# proves the recovery invariants are profile-independent.
cargo test --release -q --test crash_consistency

echo "==> dcnrun crash/hang supervision gates"
run_dir="$(mktemp -d)"
cat > "$run_dir/job.json" <<'EOF'
{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 800.0,
  "window_ms": [0, 8],
  "seed": 5,
  "faults": { "kind": "random_link_outages", "count": 2, "down_ms": 2, "up_ms": 5, "seed": 3 }
}
EOF
dcnrun() { cargo run --release --quiet --bin dcnrun -- "$@"; }
# Uninterrupted supervised run.
dcnrun run "$run_dir/job.json" --out-dir "$run_dir/straight" --checkpoint-every-ms 0
# Worker SIGKILLs itself after the 2nd checkpoint; the retry resumes from
# it and the final result must be byte-identical. The report must show
# the second attempt: a job that finished before its 2nd checkpoint
# never crashed, and its cmp would prove nothing about resume.
dcnrun run "$run_dir/job.json" --out-dir "$run_dir/crashed" \
  --checkpoint-every-ms 0 --die-after-checkpoints 2
cmp "$run_dir/straight/job.result.json" "$run_dir/crashed/job.result.json"
grep -q '"attempts": 2' "$run_dir/crashed/job.report.json"
# Hung worker with no retry budget: the watchdog must kill it, the exit
# code must say timeout (3), and the report must salvage the checkpoint.
set +e
dcnrun run "$run_dir/job.json" --out-dir "$run_dir/hung" \
  --checkpoint-every-ms 0 --stall-after-checkpoints 1 --timeout-s 2 --retries 0
hung_rc=$?
set -e
test "$hung_rc" -eq 3
grep -q '"status": "timeout"' "$run_dir/hung/job.report.json"
grep -q '"checkpoint":' "$run_dir/hung/job.report.json"
# Invalid configs are classified (exit 1), never retried.
echo '{"lambda_typo": 1}' > "$run_dir/bad.json"
set +e
dcnrun run "$run_dir/bad.json" --out-dir "$run_dir/bad" 2> /dev/null
bad_rc=$?
set -e
test "$bad_rc" -eq 1
rm -rf "$run_dir"

echo "==> dcnrun batch gates (abort-by-default vs --keep-going summary)"
batch_dir="$(mktemp -d)"
cat > "$batch_dir/ok1.json" <<'EOF'
{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 300.0,
  "window_ms": [0, 2],
  "seed": 5
}
EOF
echo '{"lambda_typo": 1}' > "$batch_dir/bad.json"
sed 's/"seed": 5/"seed": 6/' "$batch_dir/ok1.json" > "$batch_dir/ok2.json"
# Default: the batch aborts at the first failure; the job after the bad
# one is recorded as skipped, and the exit code is the worst seen. One
# slot makes dispatch sequential, so the skip set is exact (with more
# slots, ok2 may be dispatched before the bad job has failed).
set +e
dcnrun batch "$batch_dir/ok1.json" "$batch_dir/bad.json" "$batch_dir/ok2.json" \
  --out-dir "$batch_dir/abort" --jobs 1 2> /dev/null
abort_rc=$?
set -e
test "$abort_rc" -ne 0
grep -q '"keep_going": false' "$batch_dir/abort/batch.summary.json"
grep -q '"status": "skipped"' "$batch_dir/abort/batch.summary.json"
test ! -e "$batch_dir/abort/ok2.result.json"
# --keep-going: every job runs, the summary counts the failure, and the
# exit code is still nonzero because one job failed. The supervision
# metrics file must tell the same story in Prometheus text.
set +e
dcnrun batch "$batch_dir/ok1.json" "$batch_dir/bad.json" "$batch_dir/ok2.json" \
  --out-dir "$batch_dir/keep" --keep-going --jobs 2 \
  --metrics "$batch_dir/keep.prom" 2> /dev/null
keep_rc=$?
set -e
test "$keep_rc" -ne 0
grep -q '"keep_going": true' "$batch_dir/keep/batch.summary.json"
grep -q '"ok": 2' "$batch_dir/keep/batch.summary.json"
grep -q '"failed": 1' "$batch_dir/keep/batch.summary.json"
test -s "$batch_dir/keep/ok2.result.json"
grep -q '^dcnrun_jobs_ok_total 2' "$batch_dir/keep.prom"
grep -q '^dcnrun_jobs_failed_total 1' "$batch_dir/keep.prom"
grep -q '^dcnrun_job_wall_ms_count 3' "$batch_dir/keep.prom"
rm -rf "$batch_dir"

echo "==> dcnrun result memo (warm = cold, corrupt entries quarantined, ENOSPC degraded)"
memo_dir="$(mktemp -d)"
# The fault plan keeps the worker busy past its first checkpoint, so
# --die-after-checkpoints fires.
cat > "$memo_dir/job.json" <<'EOF'
{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 800.0,
  "window_ms": [0, 8],
  "seed": 7,
  "faults": { "kind": "random_link_outages", "count": 2, "down_ms": 2, "up_ms": 5, "seed": 3 }
}
EOF
# Unarmed ground truth in its own out-dir (and so its own memo).
dcnrun run "$memo_dir/job.json" --out-dir "$memo_dir/truth" --checkpoint-every-ms 0
truth="$memo_dir/truth/job.result.json"
# Cold: the first worker attempt SIGKILLs itself after one checkpoint and
# the retry resumes; the resumed result is exact and goes into the memo.
dcnrun batch "$memo_dir/job.json" --out-dir "$memo_dir/out" \
  --checkpoint-every-ms 0 --die-after-checkpoints 1
cmp "$truth" "$memo_dir/out/job.result.json"
grep -q '"attempts": 2' "$memo_dir/out/job.report.json"
# Warm: answered from the memo, byte-identical, no worker launched.
dcnrun batch "$memo_dir/job.json" --out-dir "$memo_dir/out" --checkpoint-every-ms 0
cmp "$truth" "$memo_dir/out/job.result.json"
grep -q '"status": "cached"' "$memo_dir/out/batch.summary.json"
grep -q '"attempts": 0' "$memo_dir/out/job.report.json"
# Corrupt the entry on disk: it must be quarantined and recomputed to the
# same bytes, never served.
truncate -s -2 "$memo_dir/out/cache/"*.res
dcnrun batch "$memo_dir/job.json" --out-dir "$memo_dir/out" --checkpoint-every-ms 0
cmp "$truth" "$memo_dir/out/job.result.json"
grep -q '"status": "ok"' "$memo_dir/out/job.report.json"
ls "$memo_dir/out/cache/quarantine/" | grep -q '\.res$'
# Every checkpoint save fails ENOSPC, under relcheck (release + debug
# assertions): the job loses crash protection, not correctness — the
# result is exact and the job is reported ok_degraded.
cargo build --profile relcheck --quiet --bin dcnrun
DCN_FAILPOINTS='ckpt.save.write=enospc' ./target/relcheck/dcnrun batch "$memo_dir/job.json" \
  --out-dir "$memo_dir/enospc" --checkpoint-every-ms 0
cmp "$truth" "$memo_dir/enospc/job.result.json"
grep -q '"status": "ok_degraded"' "$memo_dir/enospc/job.report.json"
rm -rf "$memo_dir"

echo "==> chaos soak (20 seeded fault plans x 3 transports, zero violations)"
cargo run --release --quiet --bin dcnrun -- chaos --plans 20 --seed 1

echo "==> chaos soak under debug assertions (arena liveness, calendar invariants)"
# The relcheck profile is release + debug-assertions: the packet arena's
# use-after-free/double-free checks and the calendar queue's ordering
# asserts all fire at near-release speed while faults churn ids.
cargo run --profile relcheck --quiet --bin dcnrun -- chaos --plans 5 --seed 2

echo "==> perf gate (BENCH_sim.json: engine, observer and failpoint cases; simulated fields exact, rate floor)"
# One gate, one baseline: the fat-tree transport cases, one 10 MB flow,
# the tiny Xpander with no observer / counting tracer / JSONL tracer /
# telemetry (tracing must stay free when off), and the disarmed failpoint
# check timed against raw atomic loads (failpoints must stay free when
# disarmed). Re-baseline deliberate engine changes with:
#   cargo run --release -p dcn-bench --bin bench -- perf --bless
# and commit the updated BENCH_sim.json next to the code that moved it.
cargo run --release -p dcn-bench --bin bench -- perf --check > /dev/null
# The baseline diffs clean against itself through the same comparer.
cargo run --release --quiet --bin dcnstat -- bench BENCH_sim.json BENCH_sim.json > /dev/null

echo "==> ECMP table memory guard (2048-switch Xpander under a 128 MiB ceiling)"
# The table is a 2048x2048 hop-distance matrix of one byte per pair
# (4 MiB); the all-pairs kernel that fills it adds two 2048x32-word
# bitsets (1 MiB) while it runs. The whole example fits in ~26 MiB of
# address space on a 2-vCPU box. A table that stores next-hop lists per
# (destination, node) needs over 512 MiB for this graph: the ceiling
# keeps that layout from coming back.
cargo build --release --quiet -p dcn-routing --example ecmp_table_2048
(ulimit -v 131072 && ./target/release/examples/ecmp_table_2048)

echo "==> packet-run memory guard (65,536-host Xpander under HYB, peak RSS <= 48 MB)"
# A packet run's memory should follow its fabric and its in-flight
# packets. Calendar ring slots that each kept a buffer sized by their
# largest burst, plus u32 hop distances, made this run peak at 149 MB;
# pooled ring blocks and u8 distances brought it to ~42 MB, and a
# channel table that keeps its static fields once per link class, its
# counters zero-allocated and a queue only at ports where a packet
# waited brings it to ~24 MB. The ceiling is twice that. The manifest's
# peak_rss_mb is the dcnsim process's VmHWM.
mem_dir="$(mktemp -d)"
cargo run --release --quiet --bin dcnsim -- examples/configs/scale65k_xpander.json \
  --manifest "$mem_dir/man.json" > /dev/null
rss="$(sed -n 's/^ *"peak_rss_mb": \([0-9.]*\),$/\1/p' "$mem_dir/man.json")"
test -n "$rss"
awk -v rss="$rss" 'BEGIN { if (rss > 48) { print "peak RSS " rss " MB > 48 MB"; exit 1 } }'
rm -rf "$mem_dir"

echo "==> departure clock (a tail-drop run processes no TxFree events, a pFabric run does)"
# FIFO ports schedule each packet's Deliver when it is enqueued, so a
# DCTCP run over tail-drop ECN queues has no transmitter-free events;
# only reordering (pFabric) ports keep them, behind queued packets.
clock_dir="$(mktemp -d)"
cargo run --release --quiet --bin dcnsim -- examples/configs/fat_tree_baseline.json \
  --manifest "$clock_dir/man.json" > /dev/null
grep -q '^ *"tx_free": 0,$' "$clock_dir/man.json"
cargo run --release --quiet --bin dcnsim -- examples/configs/fat_tree_pfabric.json \
  --manifest "$clock_dir/pfabric.json" > /dev/null
grep -q '^ *"tx_free": [1-9][0-9]*,$' "$clock_dir/pfabric.json"
rm -rf "$clock_dir"

echo "==> flow-level golden (fig15_large_scale --scale small, byte-identical stdout)"
# Pins dcn-flowsim's results across solver changes. Re-bless only for a
# deliberate change of the simulated rates, and say why in the change.
cargo build --release --quiet -p dcn-bench --bin fig15_large_scale
./target/release/fig15_large_scale --scale small --seed 1 2> /dev/null \
  | cmp - tests/golden/fig15_small.txt

echo "==> structural golden (fig3 path stats + fig7a ECMP diversity, tiny)"
# Pins the all-pairs hop distances end to end: fig3_xpander_floorplan
# prints path_stats (diameter, average path length) and
# fig7a_path_diversity prints ECMP first-hop diversity from the ECMP
# table. Re-bless only for a deliberate change of the topologies or the
# distances, and say why in the change.
cargo build --release --quiet -p dcn-bench --bin fig3_xpander_floorplan --bin fig7a_path_diversity
{
  ./target/release/fig3_xpander_floorplan --scale tiny --seed 1 2> /dev/null
  ./target/release/fig7a_path_diversity --scale tiny --seed 1 2> /dev/null
} | cmp - tests/golden/structure_tiny.txt

echo "==> fluid golden (fig5a_slimfly --scale tiny, byte-identical stdout)"
# Pins the Garg–Könemann solver's end-to-end output (Fig 5a's SlimFly and
# Jellyfish throughput brackets). Re-bless only for a deliberate change of
# the solver's paths or arithmetic, and say why in the change.
cargo build --release --quiet -p dcn-bench --bin fig5a_slimfly
./target/release/fig5a_slimfly --scale tiny --seed 1 2> /dev/null \
  | cmp - tests/golden/fig5a_tiny.txt

echo "==> packet-figure golden (15 packet binaries + ablate_failures --dynamic, tiny)"
# Pins the stdout of every packet-level figure and ablation binary at
# --scale tiny --seed 1 (~40 s on a 2-core box). Re-bless (run the loop
# below with its output redirected to the golden file) only for a
# deliberate change of the simulated results, and say why in the change.
packet_bins="ablate_adaptive ablate_congestion_aware ablate_ecn ablate_failures
  ablate_flowlet ablate_q ablate_transport fig7b_neighbor_racks fig7c_all_to_all
  fig9_a2a_sweep fig10_permute_sweep fig11_permute_load fig12_pareto_hull
  fig13_projector fig14_skew"
cargo build --release --quiet -p dcn-bench --bins
{
  for b in $packet_bins; do
    "./target/release/$b" --scale tiny --seed 1 2> /dev/null
  done
  ./target/release/ablate_failures --scale tiny --seed 1 --dynamic 2> /dev/null
} | cmp - tests/golden/packet_figs_tiny.txt

echo "==> cargo build --examples"
cargo build --release --workspace --examples

echo "==> examples/quickstart"
cargo run --release --example quickstart

echo "CI OK"
