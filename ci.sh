#!/usr/bin/env bash
# Offline CI gate. No network access required — the workspace has no
# external dependencies (see DESIGN.md §5) — and nothing but cargo and
# git is assumed on the machine.
#
# One place per question: contracts are asserted by `cargo test` (and by
# the `assert!`s inside each tscout-bench entry), wall-clock numbers come
# from `benchmark/` only, and this script never re-parses an artifact —
# `tscout-bench smoke` holds every figure CSV to tests/golden/figures.txt
# and the results directory to the five declared kinds of artifact.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings + curated pedantic lints; \`pub\` means exported) =="
# unreachable_pub: an item no other crate can name says pub(crate), so
# dead_code polices everything that is not part of a crate's surface.
cargo clippy --workspace --all-targets -- -D warnings \
  -W unreachable_pub \
  -W clippy::redundant-closure-for-method-calls \
  -W clippy::semicolon-if-nothing-returned \
  -W clippy::manual-let-else \
  -W clippy::explicit-iter-loop \
  -W clippy::needless-continue \
  -W clippy::inefficient-to-string

echo "== cargo doc (a deleted module or item leaves no dangling intra-doc link) =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== allocation budgets: sample path, archive read side, forest fit, lowered engine on mutated programs, NoiseTap's read path (release: the build tsbench measures) =="
# 0 allocations per marker triple, sampled or not; at most the owned
# TrainingPoint's 4 per drained record; a column scan O(blocks), a
# dataset build O(OUs + blocks) and nothing per point, a Forest fit one
# per tree node + O(trees), 0 per lowered run of a mutated Collector
# stream (which must also end in Ok or Err, as the reference does), and
# a YCSB point read <= 6 allocations / 560 B, TPC-C's stock_level join
# <= 64 and its UPDATE stock <= 14 (rows cross operators borrowed), an
# index lookup 0.
cargo test -q --release --test alloc_budget

echo "== forest differential, full sweep (release): the rank-coded fit builds the sort-per-node reference's trees bit for bit — 280 seeded cases of hostile floats, n up to 20 000 =="
cargo test -q --release -p tscout-models -- --include-ignored forest

echo "== B+-tree differential, full sweep (release): the flat-key tree returns the Vec<IndexKey>-per-node reference's postings, examined counts and height after every step — 72 seeded streams of 20 000 operations over 1- to 3-column keys =="
cargo test -q --release --test btree_differential -- --include-ignored

echo "== one engine behind Loader::run: nothing in crates/bpf reads the environment or a cargo feature =="
if git grep -nE 'env::var|cfg\(feature' -- crates/bpf/src; then
  echo "FAIL: crates/bpf selects behaviour from an env var or a feature"; exit 1
fi

echo "== loop-free by construction: every jump goes forward, so nothing bounds loops, counts fuel, or prunes and budgets verifier states =="
if git grep -nE 'FUEL|OutOfFuel|MAX_LOOP_TRIPS|bump_trip|MAX_STATES|TooComplex|state_subsumes|prune_points|states_pruned|peak_depth' -- crates; then
  echo "FAIL: loop, fuel or path-exploration machinery is back under crates/"; exit 1
fi

echo "== a dataset is columns: no owned row per point comes back under crates/ =="
if git grep -n 'features: Vec<f64>' -- crates/models/src/dataset.rs \
  || git grep -nE 'Vec<&?LabeledPoint' -- crates; then
  echo "FAIL: a per-point row is back; OuData's points are columns, a subset is row indices"; exit 1
fi

# Everything below writes its artifacts here, never into results/.
TS_RESULTS=$(mktemp -d)
export TS_RESULTS
trap 'rm -rf "$TS_RESULTS"' EXIT

echo "== frozen-surface smoke (untouched benchmark/ builds against these crates) =="
# Correctness only — no timing is gated here: tsbench must compile
# unchanged against the current library surface, exit 0, and report
# `"correct": true` (digest, begun = delivered + lost, archive checks;
# for collect_unsampled, rate 0 archives exactly 0 samples). All four
# workloads, so both retrain paths (Forest in the lifecycle, Ridge beside
# archive_retrain's writes) and the scraped run are exercised.
for workload in collect_full collect_unsampled collect_scraped archive_retrain; do
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    run --workload "$workload" --seconds 2 --out "$TS_RESULTS/tsbench" \
    | tail -n 1 | grep -q '"correct": true' \
    || { echo "FAIL: tsbench $workload did not report correct: true"; exit 1; }
done

echo "== figure/ablation smoke, twice: all 18 entries at smoke scale, CSV bytes == tests/golden/figures.txt, only declared artifacts; then same seed => same bytes, every file, no exception =="
TS_RESULTS="$TS_RESULTS/smoke_a" ./target/release/tscout-bench smoke
TS_RESULTS="$TS_RESULTS/smoke_b" ./target/release/tscout-bench smoke > /dev/null
diff -r "$TS_RESULTS/smoke_a" "$TS_RESULTS/smoke_b" \
  || { echo "FAIL: two same-seed smoke runs differ"; exit 1; }

echo "== metric docs (README table is what the metric declarations render) =="
./target/release/tscout-bench metrics_doc --check

echo "== example smokes (archive write -> reopen -> scan; obsd live scrape + SQL/registry agreement) =="
cargo run -q --release --example archive_smoke
cargo run -q --release --example obsd_smoke

echo "== no step rewrote a tracked file =="
git diff --exit-code

echo "CI gate passed."
