#!/usr/bin/env bash
# Regenerate every figure of the paper's evaluation (plus the ablations):
# every `fig` and `ablation` entry of `tscout-bench list`. Results land
# in the tracked results/*.csv and are echoed to stdout; beside each CSV
# the run leaves results/tables_<entry>.json (every ts_* table, one
# document per database) and results/profile_<entry>.folded (git-ignored).
#
#   TS_SCALE=1   ./run_all_figures.sh     # default: what results/ tracks;
#                                         # `git diff --exit-code results/` stays empty
#   TS_SCALE=0.3 ./run_all_figures.sh     # quick pass (rewrites results/: restore
#                                         # with `git checkout -- results/`)
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
echo "Observability artifacts:"
ls -1 results/tables_*.json results/profile_*.folded 2>/dev/null || echo "  (none written?)"
