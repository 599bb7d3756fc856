#!/usr/bin/env bash
# Reachability ratchet: every `pub` item of a library crate is named by
# something that is not a test, or it is on a short list with a reason.
#
# Roots: `src/` (the `pfam` binary and facade), `examples/`, the
# `pfam-bench` binaries (`crates/bench/src/`) and the benchmark's frozen
# surface (`benchmark/src/adapter.rs`). For every
# `pub fn|struct|enum|trait|const|type|static` declared in the
# non-`#[cfg(test)]` part of a file under `crates/*/src` (`crates/bench`
# is a root, not a library) the script counts the word-boundary
# occurrences of its name in the non-test part of every other file of
# those roots and of `crates/*/src`, plus the same file's occurrences
# beyond its own declarations. Comments, `pub use` re-exports and `impl`
# header lines are not occurrences. Zero occurrences means only tests (or
# nothing) name the item: it must then be listed in
# `scripts/reachability.allow` as `file  item  reason`, the reason one of
#   oracle of <suite> | fault / test double of <suite> | frozen benchmark surface
# or the gate fails. A listed item that is gone, or is named again, fails
# the gate too, and the list may not grow past the ceiling below — so the
# list only shrinks, and the next sweep is a diff of that file.
#
# This is a name-level ratchet, not a call-graph proof: `len` declared in
# one file and called on another type elsewhere counts as named, and an
# item named only by an item that is itself unreachable passes until that
# one is deleted. It catches the common case — a function, type or method
# nobody outside the tests spells — with grep and awk alone.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/reachability.allow
# Lines the allow-list held when the gate was introduced; lower it when a
# line goes, never raise it.
ALLOW_CEILING=13

mapfile -t FILES < <(
    find crates/*/src src examples -name '*.rs' | sort
    echo benchmark/src/adapter.rs
)

UNREACHED=$(awk '
    FNR == 1 {
        in_test = 0
        in_reexport = 0
        library = (FILENAME ~ /^crates\// && FILENAME !~ /^crates\/bench\//)
    }
    in_test { next }
    /^#\[cfg\(test\)\]/ { in_test = 1; next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (in_reexport) {
            if (line ~ /;/) in_reexport = 0
            next
        }
        if (line ~ /^[ \t]*pub use /) {
            if (line !~ /;/) in_reexport = 1
            next
        }
        if (line ~ /^[ \t]*(unsafe )?impl[ <]/) next
        if (library && match(line, /^[ \t]*pub (const |async |unsafe )*(fn|struct|enum|trait|const|type|static)( mut)? +[A-Za-z_][A-Za-z0-9_]*/)) {
            n = split(substr(line, RSTART, RLENGTH), word, / +/)
            declared[FILENAME SUBSEP word[n]]++
        }
        n = split(line, token, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (token[i] != "") named[token[i]]++
    }
    END {
        for (key in declared) {
            split(key, part, SUBSEP)
            if (named[part[2]] - declared[key] == 0) print part[1], part[2]
        }
    }
' "${FILES[@]}" | sort)

ALLOWED=$(grep -v '^#' "$ALLOW" | grep -v '^[[:space:]]*$' || true)
status=0

if bad=$(echo "$ALLOWED" | grep -v '^$' \
    | grep -vE '^[^ ]+ +[^ ]+ +(oracle of .+|fault / test double of .+|frozen benchmark surface)$'); then
    echo "reachability FAIL: allow-list lines without one of the three reasons:" >&2
    echo "$bad" >&2
    status=1
fi

n_allowed=$(echo "$ALLOWED" | grep -c . || true)
if [ "$n_allowed" -gt "$ALLOW_CEILING" ]; then
    echo "reachability FAIL: $ALLOW has $n_allowed lines, ceiling is $ALLOW_CEILING (the list only shrinks)" >&2
    status=1
fi

ALLOWED_KEYS=$(echo "$ALLOWED" | awk 'NF { print $1, $2 }' | sort)
if unlisted=$(comm -23 <(echo "$UNREACHED") <(echo "$ALLOWED_KEYS") | grep .); then
    echo "reachability FAIL: pub items no root and no library code names (delete them, or list an oracle / test double in $ALLOW):" >&2
    echo "$unlisted" >&2
    status=1
fi
if stale=$(comm -13 <(echo "$UNREACHED") <(echo "$ALLOWED_KEYS") | grep .); then
    echo "reachability FAIL: allow-list lines whose item is gone or is named again (delete the line):" >&2
    echo "$stale" >&2
    status=1
fi

[ "$status" = 0 ] && echo "reachability: OK ($n_allowed allow-listed)"
exit "$status"
