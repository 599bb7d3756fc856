#!/usr/bin/env bash
# Reachability ratchet: every `pub` item of a library crate is reached by
# something that is not a test, or it is on a short list with a reason.
# The compiler decides what "reached" means; no name is counted.
#
# Roots: `src/` (the `pfam` binary and facade), `examples/`, the
# `pfam-bench` library and binaries (`crates/bench/src/`) and the
# benchmark package (`benchmark/`). Libraries: every other crate under
# `crates/`. Nothing under `vendor/` is swept.
#
# On a copy of the working tree (tracked and untracked files, not ignored
# ones; the copy and its target directory are removed on exit):
#   1. Demote. In the non-`#[cfg(test)]` part of every library file, each
#      `pub fn|struct|enum|const|type|static` and each `pub use` (a grouped
#      one split one name per line) becomes `pub(crate)`. Allow-listed
#      declarations stay `pub`, so what only they reach stays live.
#   2. Restore until it builds. `cargo check --workspace --lib --bins
#      --examples`, then the same on `benchmark/Cargo.toml`. Every demoted
#      line an error points at (the definition of a private function,
#      method or type; a re-export of a crate-private name) goes back to
#      `pub`, and both checks run again until they are clean.
#   3. Read `dead_code`. Each warning is an item only tests reach (a
#      type, function, method, const, variant or field); the gate fails
#      on any that is not allow-listed. An unused re-export is not an item:
#      what it names is, and is read here.
#   4. Demote the allow-listed declarations too, restore until it builds,
#      and read the warnings again. A listed item that is gone, or is not
#      dead now (something that is not a test reaches it), fails the gate,
#      and the list may not grow past the ceiling below — so the list only
#      shrinks, and the next sweep is a diff of that file.
#
# `scripts/reachability.allow` holds `file  item  reason`. Items are keyed
# `Type::name` when declared inside a top-level `impl`, `struct`, `enum`
# or `trait` block, else by their name. An entry that names a type covers
# its inherent methods, fields and variants, and an entry keeps its crate's
# `pub use` of the same name. The reason is one of
#   oracle of <suite> | test double of <suite> | len / is_empty vocabulary
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=scripts/reachability.allow
# Lines the allow-list held when the compiler became the gate; lower it
# when a line goes, never raise it.
ALLOW_CEILING=18
REASONS='(oracle of .+|test double of .+|len / is_empty vocabulary)'

start=$SECONDS
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
TREE=$WORK/tree
mkdir "$TREE"
export CARGO_TARGET_DIR=$WORK/target

git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do if [ -f "$f" ]; then printf '%s\0' "$f"; fi; done \
    | tar --null -T - -cf - | tar -C "$TREE" -xf -

ALLOWED=$(grep -v '^#' "$ALLOW" | grep -v '^[[:space:]]*$' || true)
status=0

if bad=$(echo "$ALLOWED" | grep -v '^$' | grep -vE "^[^ ]+ +[^ ]+ +$REASONS\$"); then
    echo "reachability FAIL: allow-list lines without one of the three reasons:" >&2
    echo "$bad" >&2
    status=1
fi
n_allowed=$(echo "$ALLOWED" | grep -c . || true)
if [ "$n_allowed" -gt "$ALLOW_CEILING" ]; then
    echo "reachability FAIL: $ALLOW has $n_allowed lines, ceiling is $ALLOW_CEILING (the list only shrinks)" >&2
    status=1
fi
echo "$ALLOWED" | awk 'NF { print $1 "\t" $2 }' >"$WORK/allow.tsv"

cd "$TREE"
mapfile -t LIBFILES < <(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort)

# Split grouped re-exports and demote, file by file. Records, by line of
# the rewritten file:
#   decl.tsv  file  line  key  kept|demoted   a `pub` declaration or re-export
#   cont.tsv  file  line  container           a line inside a top-level block
: >"$WORK/decl.tsv"
: >"$WORK/cont.tsv"
for f in "${LIBFILES[@]}"; do
    awk -v file="$f" -v allowfile="$WORK/allow.tsv" \
        -v declf="$WORK/decl.tsv" -v contf="$WORK/cont.tsv" '
    function crate_of(p) { sub(/\/src\/.*/, "", p); return p }
    # The self type of an `impl` header, or the name of a struct / enum / trait.
    function block_name(h,   depth, i, c) {
        sub(/^(pub(\([a-z]+\))? )?(unsafe )?/, "", h)
        if (h !~ /^impl/) {
            sub(/^[a-z]+ +/, "", h)
            match(h, /^[A-Za-z_][A-Za-z0-9_]*/)
            return substr(h, RSTART, RLENGTH)
        }
        h = substr(h, 5)
        if (substr(h, 1, 1) == "<") {
            depth = 0
            for (i = 1; i <= length(h); i++) {
                c = substr(h, i, 1)
                if (c == "<") depth++
                else if (c == ">" && --depth == 0) break
            }
            h = substr(h, i + 1)
        }
        if (match(h, / for /)) h = substr(h, RSTART + 5)
        sub(/^[ &]*(dyn )?/, "", h)
        match(h, /^[A-Za-z_][A-Za-z0-9_:]*/)
        h = substr(h, RSTART, RLENGTH)
        sub(/.*::/, "", h)
        return h
    }
    function covered(key,   n, parts) {
        if ((file SUBSEP key) in allow) return 1
        n = split(key, parts, /::/)
        return n == 2 && (file SUBSEP parts[1]) in allow
    }
    function emit(line,   name, key, state) {
        out++
        if (cont != "" && !header) print file "\t" out "\t" cont >> contf
        if (in_test) { print line; return }
        key = ""
        if (line ~ /^[ \t]*pub use .*;/) {
            name = line
            sub(/;.*/, "", name)
            sub(/.* as /, "", name)
            sub(/.*::/, "", name)
            sub(/^[ \t]*pub use /, "", name)
            key = name
            state = ((crate_of(file) SUBSEP name) in allow_name) ? "kept" : "demoted"
        } else if (match(line, /^[ \t]*pub ((const|async|unsafe) )*(fn|struct|enum|type|static|union) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/) \
            || match(line, /^[ \t]*pub const +[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
            sub(/.* /, "", name)
            key = (cont != "" && !header) ? cont "::" name : name
            state = covered(key) ? "kept" : "demoted"
        }
        if (key != "") {
            if (state == "demoted") sub(/pub /, "pub(crate) ", line)
            print file "\t" out "\t" key "\t" state >> declf
        }
        print line
    }
    BEGIN {
        while ((getline l < allowfile) > 0) {
            split(l, a, "\t")
            allow[a[1] SUBSEP a[2]] = 1
            n = split(a[2], seg, /::/)
            allow_name[crate_of(a[1]) SUBSEP seg[n]] = 1
        }
    }
    {
        line = $0
        header = 0
        if (line ~ /^#\[cfg\(test\)\]/) in_test = 1
        if (!in_test && cont == "" && line !~ /[;}][ \t]*$/ \
            && line ~ /^(pub(\([a-z]+\))? )?(unsafe )?(impl|struct|enum|trait|union|mod)[ <]/) {
            cont = block_name(line)
            header = 1
        } else if (line ~ /^}/) {
            cont = ""
        }
        if (pending != "") {
            pending = pending " " line
            if (line !~ /;/) next
            line = pending
            pending = ""
        } else if (!in_test && line ~ /^[ \t]*pub use [^;]*\{/ && line !~ /;/) {
            pending = line
            next
        }
        if (!in_test && match(line, /^[ \t]*pub use [^{;]*\{/)) {
            prefix = substr(line, 1, RLENGTH - 1)
            body = substr(line, RLENGTH + 1)
            sub(/\}.*/, "", body)
            n = split(body, names, /,/)
            for (i = 1; i <= n; i++) {
                gsub(/^[ \t]+|[ \t]+$/, "", names[i])
                if (names[i] != "") emit(prefix names[i] ";")
            }
            next
        }
        emit(line)
    }' "$f" >"$WORK/split.rs"
    cp "$WORK/split.rs" "$f"
done

# Both checks, as JSON diagnostics, into $WORK/diag.json.
check() {
    : >"$WORK/diag.json"
    cargo check --offline -q --keep-going --workspace --lib --bins --examples \
        --message-format=json >>"$WORK/diag.json" 2>"$WORK/cargo.err" || true
    cargo check --offline -q --keep-going --manifest-path benchmark/Cargo.toml --bins \
        --message-format=json >>"$WORK/diag.json" 2>>"$WORK/cargo.err" || true
}

# The demoted lines the errors of the last check point at: every span
# (children and macro expansions included), and for a re-export of a
# crate-private name (E0364 / E0365, whose spans name only the re-export)
# the demoted declaration that path names, in that crate; for a private
# type the compiler names only by path, the declaration of that name.
blamed_lines() {
    jq -r --arg tree "$TREE/" '
        select(.reason == "compiler-message") | .message | select(.level == "error")
        | (.. | objects | select(has("file_name") and has("line_start"))
           | "S\t\(.file_name | ltrimstr($tree))\t\(.line_start)"),
          (select(.code.code == "E0364" or .code.code == "E0365") | .spans[]
           | select(.is_primary)
           | "R\t\(.file_name | ltrimstr($tree))\t\(.text[0] | .text[(.highlight_start - 1):(.highlight_end - 1)])"),
          (.message | capture("^type `(?<p>[^`]*)` is private$") | "T\t\(.p)")
        ' "$WORK/diag.json" | sort -u | awk -F'\t' '
        function crate_of(p) { sub(/\/src\/.*/, "", p); return p }
        NR == FNR {
            if ($4 == "demoted") {
                at[$1 "\t" $2] = 1
                def[$1 "\t" $3] = $1 "\t" $2
                named[crate_of($1) "\t" $3] = named[crate_of($1) "\t" $3] $1 "\t" $2 "\n"
                name = $3
                sub(/.*::/, "", name)
                anywhere[name] = anywhere[name] $1 "\t" $2 "\n"
            }
            next
        }
        $1 == "S" && (($2 "\t" $3) in at) { print $2 "\t" $3 }
        $1 == "R" {
            crate = crate_of($2)
            path = $3
            sub(/^(crate|self)::/, "", path)
            n = split(path, seg, /::/)
            mod = ""
            for (i = 1; i < n; i++) mod = mod (i > 1 ? "/" : "") seg[i]
            file = crate "/src/" (mod == "" ? "lib" : mod) ".rs"
            dir = crate "/src/" mod "/mod.rs"
            if ((file "\t" seg[n]) in def) print def[file "\t" seg[n]]
            else if ((dir "\t" seg[n]) in def) print def[dir "\t" seg[n]]
            else printf "%s", named[crate "\t" seg[n]]
        }
        # `type a::m::X is private`: the demoted X declared in a file m.rs
        # or m/mod.rs, else every demoted X.
        $1 == "T" {
            sub(/<.*/, "", $2)
            n = split($2, seg, /::/)
            hits = ""
            m = split(anywhere[seg[n]], cand, "\n")
            for (i = 1; i < m; i++)
                if (n > 1 && cand[i] ~ ("(^|/)" seg[n - 1] "(\\.rs|/mod\\.rs)\t")) hits = hits cand[i] "\n"
            printf "%s", (hits != "" ? hits : anywhere[seg[n]])
        }' "$WORK/decl.tsv" - | sort -u
}

# Check, put back every demoted line an error names, repeat until clean.
converge() {
    local errors restore
    while :; do
        rounds=$((rounds + 1))
        check
        errors=$(jq -r 'select(.reason == "compiler-message") | .message
            | select(.level == "error") | .rendered' "$WORK/diag.json")
        [ -z "$errors" ] && return 0
        restore=$(blamed_lines)
        if [ -z "$restore" ]; then
            echo "reachability FAIL: the demoted copy does not build, and no error names a demoted line:" >&2
            echo "$errors" | head -60 >&2
            exit 1
        fi
        while IFS=$'\t' read -r file line; do
            sed -i "${line}s/pub(crate) /pub /" "$file"
        done <<<"$restore"
        awk -F'\t' -v OFS='\t' 'NR == FNR { r[$1 "\t" $2] = 1; next }
            ($1 "\t" $2) in r { $4 = "restored" } { print }' - "$WORK/decl.tsv" \
            <<<"$restore" >"$WORK/decl.new"
        mv "$WORK/decl.new" "$WORK/decl.tsv"
    done
}

# `file  key  warning` of every dead item of a library file in the last check.
dead_items() {
    jq -r --arg tree "$TREE/" '
        select(.reason == "compiler-message") | .message
        | select(.code.code == "dead_code") | .message as $m | .spans[] | select(.is_primary)
        | [(.file_name | ltrimstr($tree)), .line_start,
           (.text[0] | .text[(.highlight_start - 1):(.highlight_end - 1)]), $m]
        | @tsv' "$WORK/diag.json" \
        | awk -F'\t' -v declf="$WORK/decl.tsv" -v contf="$WORK/cont.tsv" '
            BEGIN {
                while ((getline l < declf) > 0) { split(l, a, "\t"); decl[a[1] "\t" a[2]] = a[3] }
                while ((getline l < contf) > 0) { split(l, a, "\t"); cont[a[1] "\t" a[2]] = a[3] }
            }
            $1 !~ /^crates\// || $1 ~ /^crates\/bench\// { next }
            {
                at = $1 "\t" $2
                key = at in decl ? decl[at] : (at in cont ? cont[at] "::" : "") $3
                print $1 "  " key "  (" $4 ")"
            }' | sort -u
}

rounds=0
converge
DEAD=$(dead_items)
UNLISTED=$(echo "$DEAD" | awk -v allowfile="$WORK/allow.tsv" '
    BEGIN { while ((getline l < allowfile) > 0) { split(l, a, "\t"); allow[a[1] " " a[2]] = 1 } }
    NF {
        n = split($2, seg, /::/)
        if (!(($1 " " $2) in allow) && !(n == 2 && ($1 " " seg[1]) in allow)) print
    }')
if [ -n "$UNLISTED" ]; then
    echo "reachability FAIL: pub items only tests reach (delete them, or list an oracle / test double / len-is_empty vocabulary in $ALLOW):" >&2
    echo "$UNLISTED" >&2
    status=1
fi
rounds_pass1=$rounds

# Pass 2: the allow-listed declarations demoted too. Each entry's item
# must exist and be dead.
while IFS=$'\t' read -r file line; do
    sed -i "${line}s/pub /pub(crate) /" "$file"
done < <(awk -F'\t' '$4 == "kept" { print $1 "\t" $2 }' "$WORK/decl.tsv")
sed -i 's/\tkept$/\tdemoted/' "$WORK/decl.tsv"
converge
DEAD2=$(dead_items | awk '{ print $1 "  " $2 }')
STALE=$(awk -F'\t' -v declf="$WORK/decl.tsv" -v dead="$DEAD2" '
    BEGIN {
        while ((getline l < declf) > 0) { split(l, a, "\t"); declared[a[1] "  " a[3]] = 1 }
        n = split(dead, d, "\n")
        for (i = 1; i <= n; i++) isdead[d[i]] = 1
    }
    {
        k = $1 "  " $2
        outer = k
        sub(/::.*/, "", outer)
        # A member is dead with its type.
        if (k in isdead || outer in isdead) next
        # A variant or field is no `pub` declaration: not dead is all it says.
        print k "  (" (k in declared ? "reached outside the tests" : "gone, or reached") ")"
    }' "$WORK/allow.tsv")
if [ -n "$STALE" ]; then
    echo "reachability FAIL: allow-list lines whose item is gone or is reached (delete the line):" >&2
    echo "$STALE" >&2
    status=1
fi

if [ "$status" = 0 ]; then
    echo "reachability: OK ($n_allowed allow-listed; $rounds_pass1 + $((rounds - rounds_pass1)) rounds, $((SECONDS - start)) s)"
fi
exit "$status"
