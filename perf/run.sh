#!/usr/bin/env bash
# Builds what the benchmark measures, then runs it:
#   - bitspecd, from the repository's own workspace (the tier-1 release
#     build of crates/serve);
#   - the perf package's `perf` binary, and `perf-trace` only when the
#     traced run is asked for (`--trace 1`), so a layer refactor that
#     breaks perf-trace leaves the end-to-end numbers runnable.
# Usage: perf/run.sh [perf arguments]   (see perf/README.md)
# Build output goes to standard error; perf's result line is the last
# line of standard output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -f "$root/crates/serve/Cargo.toml" ]; then
  echo "perf: $root is not a checkout of the bitspec workspace" >&2
  exit 2
fi

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

bins=(--bin perf)
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
    bins+=(--bin perf-trace)
  fi
  prev="$arg"
done

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p serve --bin bitspecd >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" "${bins[@]}" >&2
if [ "${1:-}" = "compare" ]; then
  exec "$target/release/perf" "$@"
fi
exec "$target/release/perf" --bitspecd "$target/release/bitspecd" "$@"
