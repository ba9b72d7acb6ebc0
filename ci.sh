#!/usr/bin/env bash
# Offline CI gate: formatting, lints, release build, full test suite.
# No network access required — the workspace has no external
# dependencies (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings + curated pedantic lints) =="
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::redundant-closure-for-method-calls \
  -W clippy::semicolon-if-nothing-returned \
  -W clippy::manual-let-else \
  -W clippy::explicit-iter-loop \
  -W clippy::needless-continue \
  -W clippy::inefficient-to-string

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== allocation budget of the sample path (release: the build tsbench measures) =="
# 0 allocations per marker triple, sampled or not; at most the owned
# TrainingPoint's 4 per drained record.
cargo test -q --release --test alloc_budget

CI_RESULTS=$(mktemp -d)
trap 'rm -rf "$CI_RESULTS"' EXIT

echo "== frozen-surface smoke (untouched benchmark/ builds against these crates) =="
# Correctness only — no timing is gated here: tsbench must compile
# unchanged against the current library surface, exit 0, and report
# `"correct": true` (digest, begun = delivered + lost, archive checks).
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
  run --workload collect_full --seconds 2 --out "$CI_RESULTS/tsbench" \
  | tail -n 1 | grep -q '"correct": true' \
  || { echo "FAIL: tsbench collect_full did not report correct: true"; exit 1; }
echo "frozen-surface smoke OK"

echo "== observability artifact smoke (fig1, scaled down) =="
TS_SCALE=0.05 TS_RESULTS="$CI_RESULTS" \
  cargo run -q --release -p tscout-bench --bin fig1_user_vs_kernel
test -s "$CI_RESULTS/profile_fig1.folded" \
  || { echo "FAIL: profile_fig1.folded missing or empty"; exit 1; }
grep -q ';' "$CI_RESULTS/profile_fig1.folded" \
  || { echo "FAIL: profile_fig1.folded has no multi-frame stacks"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$CI_RESULTS/timeseries_fig1.json" >/dev/null \
    || { echo "FAIL: timeseries_fig1.json is not valid JSON"; exit 1; }
else
  grep -q '"timeseries"' "$CI_RESULTS/timeseries_fig1.json" \
    || { echo "FAIL: timeseries_fig1.json missing timeseries key"; exit 1; }
  grep -q '"attribution"' "$CI_RESULTS/timeseries_fig1.json" \
    || { echo "FAIL: timeseries_fig1.json missing attribution key"; exit 1; }
fi
test -s "$CI_RESULTS/health_fig1.json" \
  || { echo "FAIL: health_fig1.json missing or empty"; exit 1; }
grep -q '"subsystems"' "$CI_RESULTS/health_fig1.json" \
  || { echo "FAIL: health_fig1.json missing subsystems key"; exit 1; }
echo "observability artifacts OK"

echo "== archive smoke (write -> reopen -> scan) =="
TS_RESULTS="$CI_RESULTS" cargo run -q --release --example archive_smoke
test -d "$CI_RESULTS/archive_smoke" \
  || { echo "FAIL: archive_smoke store missing"; exit 1; }
echo "archive smoke OK"

echo "== metric docs cross-check (README table + runtime names) =="
cargo run -q --release -p tscout-bench --bin metrics_doc -- --check

echo "== drift-detector smoke (injected shift must alert, control silent) =="
# Fixed virtual duration by design (no TS_SCALE): the binary asserts the
# detector contract itself; CI checks it exits clean and dumps health.
TS_RESULTS="$CI_RESULTS" cargo run -q --release -p tscout-bench --bin ablation_drift
test -s "$CI_RESULTS/health_ablation_drift.json" \
  || { echo "FAIL: health_ablation_drift.json missing or empty"; exit 1; }
grep -q 'ou_drift' "$CI_RESULTS/health_ablation_drift.json" \
  || { echo "FAIL: health_ablation_drift.json records no ou_drift alerts"; exit 1; }
test -s "$CI_RESULTS/flightrec_ablation_drift_1.json" \
  || { echo "FAIL: CRITICAL transition left no flight-recorder bundle"; exit 1; }
echo "drift smoke OK"

echo "== lineage-trace smoke (traced workload -> artifact + accounting) =="
# Fixed virtual duration by design (no TS_SCALE): the binary asserts the
# tracer contract itself; CI re-checks the exported artifact.
TS_RESULTS="$CI_RESULTS" cargo run -q --release -p tscout-bench --bin ablation_trace
TRACE_JSON="$CI_RESULTS/trace_ablation_trace.json"
test -s "$TRACE_JSON" \
  || { echo "FAIL: trace_ablation_trace.json missing or empty"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_JSON" <<'EOF' || { echo "FAIL: trace artifact check"; exit 1; }
import json, sys
t = json.load(open(sys.argv[1]))
st = t["stats"]
assert st["started"] == st["completed"] + st["dropped"] + st["in_flight"], \
    f"trace accounting does not close: {st}"
done = [x for x in t["traces"] if x["outcome"] != "in_flight"]
assert len(done) >= 1, "no completed traces in artifact"
for tr in done:
    assert tr["monotone"], f"trace {tr['id']} not monotone"
    prev = tr["started_ns"]
    for s in tr["stages"]:
        assert s["enter_ns"] >= prev - 1e-9, f"trace {tr['id']}: stage enters backwards"
        assert s["exit_ns"] >= s["enter_ns"] - 1e-9, f"trace {tr['id']}: stage exits backwards"
        prev = s["enter_ns"]
print(f"trace artifact OK: {len(done)} completed traces, accounting closes")
EOF
else
  grep -q '"monotone": true' "$TRACE_JSON" \
    || { echo "FAIL: no monotone completed trace in artifact"; exit 1; }
fi
echo "trace smoke OK"

echo "== optimizer smoke (all collector programs re-verify + shrink) =="
# Loads every probe-layout collector triple with the optimizer off and
# on, re-verifies each optimized program, compares samples bit for bit,
# and fails if the total executed-instruction reduction drops below 15%.
cargo run -q --release -p tscout-bench --bin opt_smoke
echo "optimizer smoke OK"

echo "== query-stats smoke (EXPLAIN ANALYZE + ts_stat_statements) =="
# Fixed virtual duration by design (no TS_SCALE): the binary asserts the
# accounting contract itself (per-row consistency, calls vs recorded,
# model generation in the EXPLAIN ANALYZE footer); CI re-checks the CSV.
TS_RESULTS="$CI_RESULTS" cargo run -q --release -p tscout-bench --bin ablation_query_stats
QS_CSV="$CI_RESULTS/ablation_query_stats.csv"
test -s "$QS_CSV" \
  || { echo "FAIL: ablation_query_stats.csv missing or empty"; exit 1; }
head -1 "$QS_CSV" | grep -q 'fingerprint,calls' \
  || { echo "FAIL: ablation_query_stats.csv has wrong header"; exit 1; }
test "$(wc -l < "$QS_CSV")" -ge 2 \
  || { echo "FAIL: ablation_query_stats.csv has no data rows"; exit 1; }
echo "query-stats smoke OK"

echo "== action-engine smoke (closed loop: drift -> retrain -> recover) =="
# Fixed virtual duration by design (no TS_SCALE): the binary asserts the
# closed-loop contract itself (engine arm recovers, control stays
# CRITICAL, every closed action archived an efficacy sample); CI
# re-checks the exported action log.
TS_RESULTS="$CI_RESULTS" cargo run -q --release -p tscout-bench --bin ablation_actions
ACTIONS_JSON="$CI_RESULTS/actions_ablation_actions.json"
test -s "$ACTIONS_JSON" \
  || { echo "FAIL: actions_ablation_actions.json missing or empty"; exit 1; }
grep -q '"kind": "trigger_retrain"' "$ACTIONS_JSON" \
  || { echo "FAIL: action log records no retrain action"; exit 1; }
grep -q '"state": "observed"' "$ACTIONS_JSON" \
  || { echo "FAIL: action log has no closed (observed) actions"; exit 1; }
grep -q 'engine,' "$CI_RESULTS/ablation_actions.csv" \
  || { echo "FAIL: ablation_actions.csv has no engine arm row"; exit 1; }
echo "action-engine smoke OK"

echo "== operator-plane smoke (obsd daemon: live scrape + SQL/registry agreement) =="
# Fixed virtual duration by design (no TS_SCALE): the binary hammers the
# daemon over a real TCP socket while the run collects, then checks that
# the OpenMetrics exposition, the JSON table API, and the read-only SQL
# endpoint all agree with the registry exactly.
TS_RESULTS="$CI_RESULTS" cargo run -q --release --example obsd_smoke
test -s "$CI_RESULTS/obsd_smoke.addr" \
  || { echo "FAIL: obsd_smoke.addr missing (daemon never bound/advertised)"; exit 1; }
OBSD_JSON="$CI_RESULTS/obsd_smoke.json"
test -s "$OBSD_JSON" \
  || { echo "FAIL: obsd_smoke.json missing or empty"; exit 1; }
grep -q '"live_requests"' "$OBSD_JSON" \
  || { echo "FAIL: obsd_smoke.json records no live_requests"; exit 1; }
grep -q '"live_requests": 0' "$OBSD_JSON" \
  && { echo "FAIL: no request reached the daemon during the run"; exit 1; }
echo "operator-plane smoke OK"

echo "CI gate passed."
