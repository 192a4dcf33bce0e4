#!/bin/sh
# Local CI gate: formatting, lints, and the tier-1 test suite.
# Everything runs offline; the workspace has no external dependencies.
set -eux

# simperf below rewrites the checked-in BENCH_sim.json; it is put back on
# exit, pass or fail, so a CI run leaves the tree as it found it.
BENCH_SAVE=$(mktemp -d)
cp BENCH_sim.json "$BENCH_SAVE/"
trap 'status=$?; cp "$BENCH_SAVE/BENCH_sim.json" .; rm -rf "$BENCH_SAVE"; exit $status' EXIT

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
# The benchmark package: perf-trace calls the core crate's stage, store
# and wire APIs directly, so an API edit that breaks it fails here.
cargo build --release --manifest-path perf/Cargo.toml --bins

# Expansion determinism: the expanded module of every workload under the
# default expander config and the 16 expander-grid corners keeps its golden
# fingerprint, and a fresh tuner run matches results/tuner.txt byte for
# byte (including its BEST line).
cargo test --release -q -p bitspec --test expand_golden
cargo run --release -q -p bench --bin tuner | diff - results/tuner.txt
# Paper numbers: every figure/table/rq binary and the rq5deep example print
# exactly their checked-in results/*.txt (EXPERIMENTS.md quotes these files),
# so any change to a paper number fails here until the file is regenerated.
for fig in fig01 fig03 fig05 fig08 fig09 fig10 fig11 fig12 fig13 fig14 \
  fig15 fig16 fig17 fig18 rq3 rq7 table2; do
  cargo run --release -q -p bench --bin "$fig" | diff - "results/$fig.txt"
done
cargo run --release -q -p mibench --example rq5deep | diff - results/rq5deep.txt
# Codegen determinism: every suite cell (14 workloads × bench::suite_configs)
# keeps its golden linked-program fingerprint, cycle count and energy bits,
# so a back-end refactor that claims to be output-neutral is one.
cargo test --release -q -p bitspec --test codegen_golden

# Liveness oracle: the word-packed `sir::liveness` solver gives the same
# live-in and live-out set per block as the plain HashSet fixpoint, on every
# function of every pre-backend module of the suite sweep (expanded, and
# squeezed under each distinct squeezer config of `bench::suite_configs`)
# and on generated straight/diamond/loop/region functions.
cargo test --release -q -p bitspec --test liveness_oracle
# Known-bits oracle: the sparse `opt::knownbits` bound of every SSA value
# is no looser than the dense per-block solver's, and sound against the
# training profile, on every function of every expanded suite module.
cargo test --release -q -p bitspec --test knownbits_oracle
# IR property tests, including the dominance oracle: the O(1)
# `DomTree::dominates` agrees with the idom-chain walk on every block pair
# of the generated straight/diamond/loop/region functions.
cargo test --release -q -p sir --test props
# Verifier teeth: each planted compiler bug (an erased region, a dropped or
# deleted slice extend, a deleted select default, a corrupted Δ, a missing
# cover entry) is rejected with its rule ID, and the unmutated pipeline
# verifies clean.
cargo test --release -q -p backend --test mutations
# Allocation invariants: regalloc::validate and the post-allocation SMIR
# verifier accept every function of generated programs and of every suite
# cell's final module under that cell's codegen options.
cargo test --release -q -p fuzz --test regalloc_props

# Simulator speed: the engine-comparison target runs turbo and the
# reference engine on every workload (minimum 5 reps, a plain row and a
# DTS row; also checks BENCH_sim.json generation end to end, and --check
# fails the gate if turbo's median total speedup over the reference drops
# below 1.917x on either row).
cargo run --release -p bench --bin simperf -- --check 1

# Profiler engine contract: the fast and reference profilers give
# bit-identical runs and bitwidth profiles on every workload's expanded
# module (and on the squeezed speculative modules).
cargo test --release -q -p bitspec --test profiler_equivalence

# Parallel & incremental build determinism: the single-flight memo's
# contention tests, -j1 vs -j8 sweeps of the suite (identical outputs
# and cache counters on the memory + disk store tiers), an expander-grid
# slice that computes each profile and evaluation sim once per distinct
# expanded module and program at any -j, a gated suite slice whose one
# `sim` stage runs each distinct evaluation or empirical-gate training
# run once at any -j (every gated cell's evaluation is a hit, and its
# linked programs match at -j1 and -j8), early cutoff below `expand`
# (expander knobs that yield the same module reuse its profile and gate
# leg) with the rest of the stage-cache invalidation rules,
# function-cache invalidation precision (a one-function edit recompiles
# only that function and links bit-identically to a cold build), pool
# output ordering, and the fuzzer's seeded serial/parallel/incremental
# agreement property.
cargo test --release -q -p bitspec --lib memo
cargo test --release -q -p bitspec --test parallel_determinism --test stage_cache --test fn_cache
cargo test --release -q -p bench --test pool_order
cargo test --release -q -p fuzz --test parallel_incremental

# Pass-manager smoke: a gated BITSPEC build with verify-each produces a
# pass trace naming every registered pass with nonzero timings, the
# golden pass order holds per architecture, and BITSPEC_PRINT_AFTER
# renders every corpus entry's IR without panicking or changing output.
cargo test --release -q -p bitspec --test pass_trace --test pass_order
cargo test --release -q -p fuzz --test print_after

# Differential fuzzing: a fixed-seed smoke batch (deterministic, exits
# nonzero on any divergence; its simulator legs hold turbo to the reference
# with DTS off and on) plus replay of every minimized corpus entry.
cargo run --release -p fuzz --bin fuzzer -- --seed 42 --iters 50 --no-save
cargo test --release -q -p fuzz --test fuzz_corpus

# Artifact store round-trip: the store/codec integration tests (corrupt
# entries recompute + rewrite, write races, GC cap), then a bitspecd
# smoke — build a batch against a scratch store, re-serve it from a
# second cold process (memory caches necessarily empty, so every cell
# must come off disk bit-identically), and diff the result streams.
cargo test --release -q -p bitspec --test store --test wire_roundtrip
# Wire golden: every suite cell's encoding and every manifest a cold suite
# sweep writes (its file name — the versioned store key — and re-encoded
# payload, wall-clock fields zeroed) keep their golden hashes, so a codec
# refactor that claims to be byte-neutral is one.
cargo test --release -q -p bitspec --test wire_golden
# The serve layer: its store integration tests, and 2,000 seeded hostile
# mutations of a request batch that must parse or fail on a line of the
# text, never panic.
cargo test --release -q -p serve --test serve_integration --test hostile_requests
STORE_DIR=$(mktemp -d)
cat > "$STORE_DIR/batch.txt" <<'EOF'
sim crc32 config=bitspec
sim crc32 config=baseline
sim basicmath config=bitspec
EOF
cargo run --release -p serve --bin bitspecd -- \
  --store "$STORE_DIR/store" --ordered --file "$STORE_DIR/batch.txt" \
  | grep -v '"summary"' | sed 's/"source": "[a-z-]*"/"source": "-"/' \
  > "$STORE_DIR/cold.jsonl"
# The store keeps manifests only: besides tmp/, one kind directory.
test "$(ls "$STORE_DIR/store" | grep -v '^tmp$')" = manifest
cargo run --release -p serve --bin bitspecd -- \
  --store "$STORE_DIR/store" --ordered --file "$STORE_DIR/batch.txt" \
  | tee "$STORE_DIR/warm.raw" \
  | grep -v '"summary"' | sed 's/"source": "[a-z-]*"/"source": "-"/' \
  > "$STORE_DIR/warm.jsonl"
grep -q '"computed": 0' "$STORE_DIR/warm.raw"   # everything off disk
cmp "$STORE_DIR/cold.jsonl" "$STORE_DIR/warm.jsonl"  # bit-identical
rm -rf "$STORE_DIR"
# A figure served from the store: fig09 cold into a scratch store, then
# from a second process that reads every cell's sim result from its
# manifest alone. Both print results/fig09.txt, and the warm run
# publishes no manifest of its own.
FIG_STORE=$(mktemp -d)
BITSPEC_STORE_DIR="$FIG_STORE" cargo run --release -q -p bench --bin fig09 \
  > "$FIG_STORE/cold.txt"
MANIFESTS=$(ls "$FIG_STORE/manifest" | wc -l)
test "$(ls "$FIG_STORE" | grep -v -e '^tmp$' -e '\.txt$')" = manifest
BITSPEC_STORE_DIR="$FIG_STORE" cargo run --release -q -p bench --bin fig09 \
  > "$FIG_STORE/warm.txt"
cmp "$FIG_STORE/cold.txt" results/fig09.txt
cmp "$FIG_STORE/warm.txt" results/fig09.txt
test "$(ls "$FIG_STORE/manifest" | wc -l)" -eq "$MANIFESTS"
rm -rf "$FIG_STORE"
