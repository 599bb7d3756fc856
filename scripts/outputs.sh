#!/usr/bin/env bash
# What `pfam` prints on the inputs every change is checked on, one row an
# input, in results/outputs.tsv:
#
#   scripts/outputs.sh           # write results/outputs.tsv
#   scripts/outputs.sh --check   # fail on any row that differs from it
#
# The inputs are the four benchmark workloads at seeds 11 and 2024, as
# benchmark/run.sh writes them into benchmark/out/, and one `pfam generate`
# input (60 families of up to 2 000 members, seed 5). Each runs the way the
# benchmark runs it: `pfam cluster`, or for sparse_budgeted `pfam run
# --checkpoint-dir --mem-budget` at 0.4 x the input's estimated index
# bytes. A row holds the input's name, the FNV-64 of its FASTA and of the
# `families.tsv` written, the Table-I row (tabs as spaces), the FNV-64s of
# the `fills:`, `ahead:` and `windows:` lines on stderr (`-` where there is
# none) and whether `pfam run --checkpoint-dir` wrote the same
# `families.tsv` as `pfam cluster`, under the same flags.
#
# A change that means to move outputs regenerates the file and says which
# rows moved; any other difference is a fault of the program.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
check=0
case "${1:-}" in
    --check) check=1 ;;
    "") ;;
    *)
        echo "usage: scripts/outputs.sh [--check]" >&2
        exit 2
        ;;
esac

# One target directory for pfam, the digest and the benchmark driver.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --bin pfam
cargo build --release --offline --quiet -p pfam-bench --bin fnv64
PFAM="$CARGO_TARGET_DIR/release/pfam"
FNV="$CARGO_TARGET_DIR/release/fnv64"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fnv() { "$FNV" "$1" | cut -d' ' -f1; }

# The FNV-64 of the first stderr line of `$2` starting with `$1:`, or `-`.
line_fnv() {
    if grep "^$1:" "$2" >"$work/line"; then fnv "$work/line"; else echo "-"; fi
}

# `pfam run --mem-budget`'s figure for a FASTA: 0.4 x the index estimate
# (`pfam_suffix::estimated_index_bytes`) of its residues and records.
budget_of() {
    awk '/^>/ { n++; next } { r += length($0) }
        END {
            t = r + n
            est = t + 4 * int((t + 63) / 64) + 4 * n + 6 * t
            printf "%d\n", 0.4 * est
        }' "$1"
}

# row NAME FASTA [FLAGS...]: the input's row. FLAGS holding --mem-budget
# select `pfam run --checkpoint-dir` as the measured run, as the benchmark
# does; otherwise `pfam cluster` is.
row() {
    local name=$1 fasta=$2
    shift 2
    local out="$work/$name"
    mkdir -p "$out"
    "$PFAM" cluster "$fasta" "$@" --out "$out/cluster.tsv" >"$out/cluster.out" 2>"$out/cluster.err"
    "$PFAM" run "$fasta" "$@" --checkpoint-dir "$out/ck" --out "$out/run.tsv" \
        >"$out/run.out" 2>"$out/run.err"
    local measured=cluster
    case " $* " in *" --mem-budget "*) measured=run ;; esac
    local same=no
    cmp -s "$out/cluster.tsv" "$out/run.tsv" && same=yes
    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$name" "$(fnv "$fasta")" \
        "$(fnv "$out/$measured.tsv")" "$(sed -n 2p "$out/$measured.out" | tr '\t' ' ')" \
        "$(line_fnv fills "$out/$measured.err")" "$(line_fnv ahead "$out/$measured.err")" \
        "$(line_fnv windows "$out/$measured.err")" "$same"
}

table="$work/outputs.tsv"
printf '#input\tfasta_fnv64\tfamilies_fnv64\ttable_one\tfills_fnv64\tahead_fnv64\twindows_fnv64\trun_equals_cluster\n' >"$table"
for seed in 11 2024; do
    for workload in mixed_families giant_component sparse_singletons sparse_budgeted; do
        benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 0 --trace 0 \
            >/dev/null 2>"$work/benchmark.err" || {
            cat "$work/benchmark.err" >&2
            exit 1
        }
        fasta="benchmark/out/$workload/reads.fasta"
        cp "$fasta" "$work/$workload.$seed.fasta"
        flags=()
        if [ "$workload" = sparse_budgeted ]; then
            flags=(--mem-budget "$(budget_of "$fasta")")
        fi
        row "$workload.$seed" "$work/$workload.$seed.fasta" "${flags[@]}" >>"$table"
    done
done
"$PFAM" generate --out "$work/generated.fasta" --families 60 --members 2000 --seed 5 >/dev/null
row generated.f60.m2000.s5 "$work/generated.fasta" >>"$table"

if [ "$check" = 1 ]; then
    if ! diff results/outputs.tsv "$table"; then
        echo "outputs.sh: the rows above differ from results/outputs.tsv" >&2
        exit 1
    fi
    echo "outputs.sh: every row equals results/outputs.tsv"
else
    cp "$table" results/outputs.tsv
    echo "outputs.sh: wrote results/outputs.tsv"
fi
