#!/usr/bin/env bash
# Builds bbgnn-serve and the benchmark from source, then runs one workload:
#
#   bash e2ebench/run.sh --workload attack_table|defense_table|serve_mixed \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the result JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" -p bbgnn-serve >&2
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/bbgnn-e2ebench" \
  --serve-bin "$target/release/bbgnn-serve" --scratch "$target/e2ebench" "$@"
