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

echo "== the docs match the tree: DESIGN.md <= 40 000 B, README.md <= 25 000 B, every backticked path is a tracked file (a glob or <placeholder> matches one), every backticked fig/ablation name is an entry, no PR number =="
docs_bad=0
for doc_cap in DESIGN.md:40000 README.md:25000; do
  doc=${doc_cap%:*} cap=${doc_cap#*:}
  size=$(wc -c < "$doc")
  if [ "$size" -gt "$cap" ]; then
    echo "$doc: $size bytes, over its cap of $cap"; docs_bad=1
  fi
done
entries=" $(./target/release/tscout-bench list fig ablation | tr '\n' ' ') "
while IFS=: read -r doc span; do
  token=${span//\`/}
  token=${token%%::*}
  if [[ $token =~ ^(fig[0-9]+|ablation)_[a-z0-9_]+$ ]] && [[ $entries != *" $token "* ]]; then
    echo "$doc: \`$token\` is not a tscout-bench entry"; docs_bad=1
  elif [[ $token =~ ^[A-Za-z0-9_.*/\<\>-]+$ && $token == */* && ($token == *.rs || $token == */src/*) ]] \
    || [[ $token =~ ^(crates|tests|examples|tools|src|benchmark)/ ]]; then
    glob=$(sed -E 's/<[^>]*>/*/g' <<< "$token")
    if [[ ! $glob =~ ^(crates|tests|examples|tools|src|benchmark)/ ]]; then
      echo "$doc: \`$token\` is not a path from the repo root"; docs_bad=1
    elif [ -z "$(git ls-files -- "$glob")" ]; then
      echo "$doc: \`$token\` matches no tracked file"; docs_bad=1
    fi
  fi
done < <(grep -oE '`[^`]+`' DESIGN.md README.md)
if grep -nE '\bPR [0-9]+' DESIGN.md README.md; then
  echo "the docs name a PR: history belongs in CHANGES.md"; docs_bad=1
fi
[ "$docs_bad" = 0 ] || { echo "FAIL: DESIGN.md / README.md do not match the tree"; exit 1; }

echo "== cargo test =="
cargo test --workspace -q

echo "== allocation budgets: sample path, archive read side, compaction (O(blocks) bytes plus one frame, nothing per row), forest fit, Ridge retrain split (O(OUs), nothing per point), lowered engine on mutated programs, NoiseTap's read path, a warm /metrics capture and render (release: the build tsbench measures) =="
# 0 allocations per marker triple, sampled or not; at most the owned
# Sample's 4 per drained record; a column scan O(blocks), a
# dataset build O(OUs + blocks) and nothing per point, a compaction's
# bytes O(blocks) plus one frame and nothing per row, a Forest fit one
# per tree node + O(trees), a Ridge retrain_split (strided sides, fit and
# one-sweep gate) O(OUs) and nothing per point, 0 per lowered run of a
# mutated Collector stream (which must also end in Ok or Err, as the
# reference does), and a YCSB point read <= 6 allocations / 560 B,
# TPC-C's stock_level join <= 64 and its UPDATE stock <= 14 (rows cross
# operators borrowed), an index lookup 0, a warm /metrics capture of an
# unchanged registry and its render into the last scrape's buffer 0.
cargo test -q --release --test alloc_budget

echo "== forest differential, full sweep (release): the rank-coded fit builds the sort-per-node reference's trees bit for bit — 280 seeded cases of hostile floats, n up to 20 000 =="
cargo test -q --release -p tscout-models -- --include-ignored forest

echo "== B+-tree differential, full sweep (release): the flat-key tree returns the Vec<IndexKey>-per-node reference's postings, examined counts and height after every step — 72 seeded streams of 20 000 operations over 1- to 3-column keys =="
cargo test -q --release --test btree_differential -- --include-ignored

echo "== one engine behind Loader::run: nothing in crates/bpf reads the environment or a cargo feature =="
if git grep -nE 'env::var|cfg\(feature' -- crates/bpf/src; then
  echo "FAIL: crates/bpf selects behaviour from an env var or a feature"; exit 1
fi

echo "== a fused run is a guard: no stepping copy of a run's instructions, and no fault sites of its own, come back in crates/bpf/src/lower.rs =="
if git grep -nE 'fn step\b|site_pcs|place_sites|#\[cold\]' -- crates/bpf/src/lower.rs; then
  echo "FAIL: a run steps its instructions again; a refused run falls through into the ops of the instructions it covers"; exit 1
fi

echo "== loop-free by construction: every jump goes forward, so nothing bounds loops, counts fuel, or prunes and budgets verifier states =="
if git grep -nE 'FUEL|OutOfFuel|MAX_LOOP_TRIPS|bump_trip|MAX_STATES|TooComplex|state_subsumes|prune_points|states_pruned|peak_depth' -- crates; then
  echo "FAIL: loop, fuel or path-exploration machinery is back under crates/"; exit 1
fi

echo "== lineage follows each record by its ring position: no (ou, tid) side channel comes back under crates/telemetry/src, and the Processor parses no header for lineage =="
if git grep -nE 'pop_in_ring|\(u16, u64\), VecDeque' -- crates/telemetry/src \
  || git grep -n 'header_ids' -- crates/core/src/processor.rs; then
  echo "FAIL: a trace is keyed by (ou, tid) again; the ring position is its key"; exit 1
fi

echo "== a scalar is a constant or unknown: no tnum, interval, branch refinement or variable pointer offset comes back under crates/bpf/src =="
if git grep -nE 'Tnum|mod tnum|struct Range|range_alu|fn refine|vmin' -- crates/bpf/src; then
  echo "FAIL: the verifier's value domain is back; constants fold with vm::alu and Cond::eval"; exit 1
fi

echo "== a dataset is columns and a sample has one owned row: no second owned row per point comes back under crates/, and no row matrix is gathered for a fit outside tests under crates/models/src =="
if git grep -n 'features: Vec<f64>' -- crates/models/src/dataset.rs \
  || git grep -nE 'Vec<&?LabeledPoint' -- crates; then
  echo "FAIL: a per-point row is back; OuData's points are columns, a subset is a stride or an index list over them"; exit 1
fi
gathered=$(for f in $(git ls-files 'crates/models/src/*.rs'); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'matrices(' | sed "s|^|$f:|" || true
done)
if [ -n "$gathered" ]; then
  echo "$gathered"
  echo "FAIL: a fit gathers rows again; Regressor::fit reads a PointsView of the columns (matrices() is a test helper)"; exit 1
fi
if git grep -n 'struct TrainingPoint' -- crates; then
  echo "FAIL: a second owned training row is back; the Processor emits archive::Sample"; exit 1
fi

echo "== compaction is a pure merge: no retention policy, retired-sample metric or compacted trace outcome comes back under crates/ =="
if git grep -nE 'retention_per_ou|SAMPLES_RETIRED|samples_retired|on_compacted|trace_compacted|TraceOutcome::Compacted' -- crates; then
  echo "FAIL: archive retention is back; the archive keeps every row it is given"; exit 1
fi

echo "== a segment is its blocks: no footer manifest codec, reseal flag or per-block start_ns range comes back under crates/ =="
if git grep -nE 'encode_footer|decode_footer|footer_at_end|min_start_ns|max_start_ns' -- crates; then
  echo "FAIL: the footer manifest is back; the frames are the manifest"; exit 1
fi

echo "== compaction copies frames: one block encoder and one frame reader under crates/archive/src, and compact.rs neither decodes nor encodes =="
if git grep -nE 'BlockRows|fn chunks|fn extend_from|read_frame\(' -- crates/archive/src; then
  echo "FAIL: a second block encoder or frame reader is back in crates/archive"; exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/archive/src/compact.rs | grep -nE 'decode\(|encode\(|ColumnBatch'; then
  echo "FAIL: compaction decodes or encodes a block; it copies frames"; exit 1
fi

echo "== recovery only reads: no cut of a segment file, or counter of one, comes back under crates/ =="
if git grep -nE 'set_len|recovered_truncations|RECOVERED_TRUNCATIONS' -- crates; then
  echo "FAIL: open cuts a segment again; recovery steps over damage and writes nothing"; exit 1
fi

echo "== no durability error dropped: let _ =, drop(...) or .ok() on sync_all, rename, remove_file or set_len in non-test code under crates/, unless the line says \"// ignored: <reason>\" =="
durable='\b(sync_all|rename|remove_file|set_len)\('
dropped=$(for f in $(git ls-files 'crates/*.rs'); do
  sed '/^#\[cfg(test)\]/,$d' "$f" \
    | grep -nE "(let _ =|drop\().*$durable|$durable[^;]*\)\.ok\(\)" | sed "s|^|$f:|" || true
done | grep -v '// ignored: ' || true)
if [ -n "$dropped" ]; then
  echo "$dropped"
  echo "FAIL: a durability call's error is dropped without a reason"; exit 1
fi

echo "== the non-test greps see all shipped code: no top-level item without #[cfg(test)] follows a file's first #[cfg(test)] under crates/ =="
# The greps above cut each file at its first #[cfg(test)]; an item after
# it that ships would hide from them.
after_tests=$(awk '
  FNR == 1 { seen = 0; marked = 0 }
  /^#\[cfg\(test\)\]/ { seen = 1; marked = 1; next }
  /^(#|\/\/|$)/ { next }
  /^(pub(\([^)]*\))? )?(fn|mod|use|impl|struct|enum|const|static|type|trait|macro_rules!|unsafe|extern|async)([^A-Za-z0-9_]|$)/ {
    if (seen && !marked) print FILENAME ":" FNR ": " $0
    marked = 0
  }' $(git ls-files 'crates/*.rs'))
if [ -n "$after_tests" ]; then
  echo "$after_tests"
  echo "FAIL: shipped code follows a #[cfg(test)]; move it above the file's tests"; exit 1
fi

echo "== every read surface reads the live registry in place: no Registry::clone or with_registry(|r| r.clone()) in non-test code under crates/ =="
cloned=$(for f in $(git ls-files 'crates/*.rs'); do
  sed '/^#\[cfg(test)\]/,$d' "$f" \
    | grep -nE 'Registry::clone|with_registry\(\|[a-z_]*\| *[a-z_]*\.clone\(\)\)' \
    | grep -vE '^[0-9]+: *//' | sed "s|^|$f:|" || true
done)
if [ -n "$cloned" ]; then
  echo "$cloned"
  echo "FAIL: a registry is copied; read it under its lock with (table.rows)(r) or an Exposition capture"; exit 1
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

echo "== figure/ablation smoke, twice: all 18 entries at smoke scale, CSV bytes == tests/golden/figures.txt, only declared artifacts; then same seed => same bytes, every file, no exception — the second run on one CPU, so the dataset-build and fit pools run one worker there and one per CPU in the first =="
TS_RESULTS="$TS_RESULTS/smoke_a" ./target/release/tscout-bench smoke
pin=(taskset -c 0)
if ! command -v taskset > /dev/null; then
  echo "taskset not found: the second smoke runs unpinned"
  pin=()
fi
TS_RESULTS="$TS_RESULTS/smoke_b" "${pin[@]}" ./target/release/tscout-bench smoke > /dev/null
diff -r "$TS_RESULTS/smoke_a" "$TS_RESULTS/smoke_b" \
  || { echo "FAIL: two same-seed smoke runs differ (all CPUs vs one)"; exit 1; }

echo "== metric docs (README table is what the metric declarations render) =="
./target/release/tscout-bench metrics_doc --check

echo "== example smokes (archive write -> reopen -> scan; obsd live scrape + SQL/registry agreement) =="
cargo run -q --release --example archive_smoke
cargo run -q --release --example obsd_smoke

echo "== no step rewrote a tracked file =="
git diff --exit-code

echo "CI gate passed."
