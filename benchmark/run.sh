#!/usr/bin/env bash
# The one command of the benchmark: builds `pfam` and the driver, generates
# the workloads, runs them, checks their outputs and prints every metric.
#
#   benchmark/run.sh [--seed N] [--smoke]
#       every workload, timed and traced; one line per metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
#       one workload; the last line printed is the result as one JSON object
#
# Builds go to $CARGO_TARGET_DIR (default: .bench_build at the repo root);
# everything else the benchmark writes goes to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

build_started=$(date +%s%N)
# The program under test is the repo's own release build of the CLI.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin pfam >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_ms=$(( ($(date +%s%N) - build_started) / 1000000 ))

exec "$target/release/pfam-benchmark" \
    --pfam "$target/release/pfam" \
    --out-dir "$here/out" \
    --build-ms "$build_ms" \
    "$@"
