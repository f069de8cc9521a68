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

echo "==> checkpoint format pin (v5 bytes, restore identity, damaged payloads)"
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
# it and the final result must be byte-identical.
dcnrun run "$run_dir/job.json" --out-dir "$run_dir/crashed" \
  --checkpoint-every-ms 0 --die-after-checkpoints 2
cmp "$run_dir/straight/job.result.json" "$run_dir/crashed/job.result.json"
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

echo "==> dcnserve gates (soak, cache equivalence, corruption heal, drain)"
cargo build --release --quiet --bin dcnserve
cargo test --release -q --test serve_soak
serve_dir="$(mktemp -d)"
cat > "$serve_dir/job.json" <<'EOF'
{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 300.0,
  "window_ms": [0, 2],
  "seed": 7
}
EOF
# Daemon with chaos injection: every job's first worker attempt SIGKILLs
# itself after one checkpoint, so even the CI path exercises resume.
./target/release/dcnserve serve --tcp 127.0.0.1:0 \
  --addr-file "$serve_dir/addr" --state-dir "$serve_dir/state" \
  --checkpoint-every-ms 0 --inject-worker-crash --backoff-ms 50 \
  2> "$serve_dir/daemon.log" &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do test -s "$serve_dir/addr" && break; sleep 0.1; done
serve_addr="$(head -n 1 "$serve_dir/addr")"
dcnserve() { ./target/release/dcnserve "$@"; }
# Cold (computed through a crash + resume) vs warm (served from cache)
# must be byte-identical.
dcnserve request "$serve_dir/job.json" --tcp "$serve_addr" > "$serve_dir/cold.json" 2> /dev/null
dcnserve request "$serve_dir/job.json" --tcp "$serve_addr" > "$serve_dir/warm.json" 2> /dev/null
test -s "$serve_dir/cold.json"
cmp "$serve_dir/cold.json" "$serve_dir/warm.json"
# Corrupt the cache entry on disk: the daemon must quarantine it and
# recompute the same bytes, never serve the rot.
truncate -s -2 "$serve_dir/state/cache/"*.res
dcnserve request "$serve_dir/job.json" --tcp "$serve_addr" > "$serve_dir/healed.json" 2> /dev/null
cmp "$serve_dir/cold.json" "$serve_dir/healed.json"
ls "$serve_dir/state/cache/quarantine/" | grep -q '.res'
dcnserve ping --tcp "$serve_addr" > /dev/null
# Live observability: dcnstat top renders one refresh against the daemon,
# and the Prometheus exposition agrees with the requests we just made.
cargo run --release --quiet --bin dcnstat -- top --tcp "$serve_addr" --count 1 \
  | grep -q '^requests '
dcnserve metrics --tcp "$serve_addr" > "$serve_dir/metrics.prom"
grep -q '^# TYPE dcnserve_requests_total counter' "$serve_dir/metrics.prom"
grep -q '^dcnserve_worker_relaunches_total [1-9]' "$serve_dir/metrics.prom"
# Stats reconciliation: every request the daemon read lands in exactly one
# outcome bucket. We sent 3 runs (cold, warm, healed), 1 ping, 1 top poll,
# 1 metrics scrape, and the stats op below — so requests minus the four
# non-run ops must equal the summed run outcomes.
stats_json="$(dcnserve stats --tcp "$serve_addr")"
sget() { echo "$stats_json" | sed -n 's/.*"'"$1"'": \([0-9]*\).*/\1/p' | head -n 1; }
outcomes=$(( $(sget run_ok) + $(sget served_cached) + $(sget coalesced) \
  + $(sget overloaded) + $(sget deadline_exceeded) + $(sget errors_config) \
  + $(sget errors_unknown_op) + $(sget errors_crash) + $(sget errors_ckpt_corrupt) \
  + $(sget errors_internal) + $(sget draining_refused) + $(sget protocol_errors) ))
if [ "$(sget requests)" -ne "$(( outcomes + 4 ))" ]; then
  echo "dcnserve stats ledger does not balance: $stats_json"; exit 1
fi
test "$(sget run_ok)" -eq 2          # cold + healed both computed
test "$(sget served_cached)" -eq 1   # warm came from the cache
test "$(sget cache_entries)" -ge 1
# SIGTERM must drain cleanly: exit 0, taxonomy's "ok".
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
drain_rc=$?
set -e
trap - EXIT
test "$drain_rc" -eq 0
rm -rf "$serve_dir"

echo "==> failpoint-armed dcnserve soak (ENOSPC checkpoints + LRU cache bound, relcheck)"
# The daemon runs under relcheck (release + debug assertions) with every
# worker checkpoint save failing ENOSPC and the cache bounded to a single
# entry: every request must still answer byte-identical results — the
# service degrades (counted), it never refuses or corrupts.
cargo build --profile relcheck --quiet --bin dcnserve
cargo build --release --quiet --bin dcnrun
fp_dir="$(mktemp -d)"
cat > "$fp_dir/a.json" <<'EOF'
{
  "topology": { "kind": "fat_tree", "k": 4 },
  "routing": { "kind": "ecmp" },
  "workload": { "pattern": { "kind": "all_to_all" } },
  "lambda": 1000.0,
  "window_ms": [0, 2],
  "seed": 7
}
EOF
sed 's/"seed": 7/"seed": 8/' "$fp_dir/a.json" > "$fp_dir/b.json"
# Unarmed ground truth for config A, computed by dcnrun.
cargo run --release --quiet --bin dcnrun -- run "$fp_dir/a.json" \
  --out-dir "$fp_dir/truth" --checkpoint-every-ms 0
truth_size="$(stat -c%s "$fp_dir/truth/a.result.json")"
DCN_FAILPOINTS='ckpt.save.write=enospc' ./target/relcheck/dcnserve serve \
  --tcp 127.0.0.1:0 --addr-file "$fp_dir/addr" --state-dir "$fp_dir/state" \
  --checkpoint-every-ms 0 --cache-max-bytes "$(( truth_size + 120 ))" \
  2> "$fp_dir/daemon.log" &
fp_pid=$!
trap 'kill -9 "$fp_pid" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do test -s "$fp_dir/addr" && break; sleep 0.1; done
fp_addr="$(head -n 1 "$fp_dir/addr")"
# Cold A (worker degrades, result cached), warm A (cache hit), cold B
# (degrades again; storing B evicts A past the one-entry bound).
./target/relcheck/dcnserve request "$fp_dir/a.json" --tcp "$fp_addr" \
  > "$fp_dir/a_cold.json" 2> /dev/null
./target/relcheck/dcnserve request "$fp_dir/a.json" --tcp "$fp_addr" \
  > "$fp_dir/a_warm.json" 2> /dev/null
./target/relcheck/dcnserve request "$fp_dir/b.json" --tcp "$fp_addr" \
  > "$fp_dir/b_cold.json" 2> /dev/null
cmp "$fp_dir/truth/a.result.json" "$fp_dir/a_cold.json"   # degraded ≠ different
cmp "$fp_dir/a_cold.json" "$fp_dir/a_warm.json"           # cached ≠ different
test -s "$fp_dir/b_cold.json"
fp_stats="$(./target/relcheck/dcnserve stats --tcp "$fp_addr")"
fpget() { echo "$fp_stats" | sed -n 's/.*"'"$1"'": \([0-9]*\).*/\1/p' | head -n 1; }
test "$(fpget degraded)" -eq 2        # both cold runs lost checkpointing
test "$(fpget served_cached)" -eq 1   # the warm A repeat
test "$(fpget cache_evicted)" -ge 1   # storing B pushed A out
test "$(fpget cache_entries)" -eq 1   # the bound holds exactly one entry
kill -TERM "$fp_pid"
set +e
wait "$fp_pid"
fp_rc=$?
set -e
trap - EXIT
test "$fp_rc" -eq 0                   # degraded daemons still drain cleanly
rm -rf "$fp_dir"

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
# The table is a 2048x2048 hop-distance matrix (16 MiB); the all-pairs
# kernel that fills it adds two 2048x32-word bitsets (1 MiB) while it runs.
# The whole example fits in ~24 MiB of address space. A table that stores
# next-hop lists per (destination, node) needs over 512 MiB for this graph:
# the ceiling keeps that layout from coming back.
cargo build --release --quiet -p dcn-routing --example ecmp_table_2048
(ulimit -v 131072 && ./target/release/examples/ecmp_table_2048)

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
