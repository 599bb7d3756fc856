#!/usr/bin/env bash
# Regenerate both files under results/: `paper` (every table and figure of
# DESIGN.md §4, from one ladder of pipeline runs) and `ablations` (§5), at
# the scales EXPERIMENTS.md quotes. Each file opens with one stamp line —
# the commit (`-dirty` when the tree had uncommitted changes), the scale
# argument, `nproc` and the binary's wall seconds — followed by what the
# binary printed, stdout and stderr. The binaries run one after another;
# a binary that fails leaves its file stamped with the exit code, and the
# script exits non-zero once both have run.
#
#   scripts/reproduce.sh        (no options)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 0 ]; then
    echo "usage: scripts/reproduce.sh (takes no options)" >&2
    exit 2
fi

cargo build --release -q -p pfam-bench
bin="${CARGO_TARGET_DIR:-target}/release"
commit=$(git describe --always --dirty 2>/dev/null || echo unknown)
cores=$(nproc)

status=0
for run in paper:1.0 ablations:0.5; do
    name=${run%%:*}
    scale=${run#*:}
    out="results/$name.txt"
    body=$(mktemp)
    started=$(date +%s%N)
    code=0
    "$bin/$name" "$scale" >"$body" 2>&1 || code=$?
    wall=$(( ($(date +%s%N) - started) / 1000000 ))
    {
        printf '# %s  commit %s  scale %s  nproc %s  wall %d.%03d s' \
            "$name" "$commit" "$scale" "$cores" $((wall / 1000)) $((wall % 1000))
        [ "$code" = 0 ] || printf '  FAILED (exit %s)' "$code"
        printf '\n'
        cat "$body"
    } >"$out"
    rm -f "$body"
    echo "reproduce: $out ($((wall / 1000)).$((wall % 1000 / 100)) s)" >&2
    if [ "$code" != 0 ]; then
        echo "reproduce FAIL: $name exited with $code" >&2
        status=1
    fi
done
exit "$status"
