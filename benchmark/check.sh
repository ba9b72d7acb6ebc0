#!/usr/bin/env bash
# The benchmark's own gate: unit + smoke + contract tests, then an A/A
# comparison — two invocations of every workload on the same code and
# seed must agree within the bounds BENCHMARK.json fixes, and the exact
# counts must agree exactly. Offline; ~5 min.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tests: stats core, scale 0.05 (--seconds 1) smoke of all four workloads, BENCHMARK.json contract =="
cargo test --offline -q

echo "== release build =="
cargo build --offline --release -q
BIN="${CARGO_TARGET_DIR:-target}/release/tsbench"

echo "== A/A comparison =="
python3 - "$BIN" <<'EOF'
import json, subprocess, sys

binary = sys.argv[1]
manifest = json.load(open("../BENCHMARK.json"))
assert 2 <= len(manifest["workloads"]) <= 8
assert 1 <= len(manifest["end_to_end"]) <= 16
assert 1 <= len(manifest["per_layer"]) <= 128
for m in manifest["end_to_end"]:
    # 0.25 is the ceiling the driver's contract puts on any bound, not a
    # value this benchmark aims for.
    assert m["unit"] and 0 < m["bound"] <= 0.25, m

def invoke(workload):
    out = subprocess.run(
        [binary, "run", "--workload", workload, "--seed", "42", "--out", "out/aa"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, line
    full = json.load(open(f"out/aa/result_{workload}.json"))
    return line["metrics"], full["digest"]

failures = 0
for w in (w["name"] for w in manifest["workloads"]):
    (a, da), (b, db) = invoke(w), invoke(w)
    print(f"-- {w}: digest {da} / {db}")
    if da != db:
        print("   FAIL: digests differ"); failures += 1
    for m in manifest["end_to_end"]:
        x, y = a[m["name"]]["value"], b[m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        ok = abs(worse) <= m["bound"]
        if m["name"] == "bytes_per_sample":
            ok = x == y
        print(f"   {m['name']:<18} {x:>14.4f} {y:>14.4f}  {worse:+7.2%} (bound {m['bound']:.0%}) {'ok' if ok else 'FAIL'}")
        failures += not ok
sys.exit(1 if failures else 0)
EOF
echo "check OK"
