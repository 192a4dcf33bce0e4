#!/usr/bin/env bash
# Gate for the perf package: formatting, lints and tests of the package,
# then a smoke run of the benchmark (one short repetition of every
# workload: 4-point grid, 2 input sets) that fails unless nothing failed
# and the report reads back, and a smoke of the traced run.
set -euxo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --manifest-path "$manifest"
bash "$here/run.sh" --smoke --out "$here/out/smoke.json"
bash "$here/run.sh" --smoke --trace 1
