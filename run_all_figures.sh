#!/usr/bin/env bash
# Regenerate every figure of the paper's evaluation (plus the ablations):
# every `fig` and `ablation` entry of `tscout-bench list`. Results land
# in results/*.csv and are echoed to stdout; each entry also writes a
# self-telemetry snapshot to results/telemetry_<fig>.json.
#
#   TS_SCALE=0.3 ./run_all_figures.sh     # quick pass
#   TS_SCALE=1   ./run_all_figures.sh     # default fidelity
set -euo pipefail
cd "$(dirname "$0")"

export TS_SCALE="${TS_SCALE:-1}"
echo "== building (release) =="
cargo build --release -p tscout-bench

for name in $(./target/release/tscout-bench list fig ablation); do
  echo
  echo "== $name (TS_SCALE=$TS_SCALE) =="
  ./target/release/tscout-bench "$name"
done

echo
echo "All figures regenerated under results/."
echo "Telemetry snapshots:"
ls -1 results/telemetry_*.json 2>/dev/null || echo "  (none written?)"
