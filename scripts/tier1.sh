#!/usr/bin/env bash
# Tier-1 gate. Its steps:
# * release build, rustfmt check, clippy lint wall;
# * grep gates: no UnionFind mutation outside ClusterCore; no unwrap on
#   inter-rank communication, in the push loop and its transports or in
#   the parsers of outside input — FASTA, checkpoints (a listed file that
#   does not exist fails its gate); none of the retired schedulers, rank
#   kernels, planes (sharded, sketch), pipeline entries (nor a hand-built
#   pipeline in an experiment binary or example), micro-benches and the
#   names only they kept, supervision extras or the leased loop and its
#   fault injection by name; none of the retired aligners, Shingle
#   drivers (distributed, SPMD, rayon, arena), graph extras, the rank
#   table, the `_with` / `_reusing` constructor twins, the barrier
#   executor, the per-vertex Shingle kernel or the Criterion stand-in by
#   name; no `thread_local!` in pfam-core or pfam-shingle, no hash map in
#   pfam-shingle; none of the retired index-routing sites, the chunk-pair
#   miner, the plan pin or the chunk-size knob by name, and the window cap
#   derived in one place; one pair miner — none of the lazy serial
#   generator, its thread-count fork or the explicit-stream source twin by
#   name, one call site each for the node-local miner and the node queue;
#   none of the retired sequence stores or the `Bm` reduction's word
#   graph, k-mer scanner or example by name; no whole-file sequence reads
#   outside pfam-seq's SeqStore; no three-matrix fill on the alignment
#   engine's hot path — engine, single-pair fill, batch fill; `unsafe`
#   only in the two alignment kernels' files and the heap tests' one
#   counting allocator; no per-component suffix index in the pipeline;
# * the reachability ratchet (rustc's dead-code analysis on a demoted
#   copy: every `pub` item of a library crate is reached by a non-test
#   target or is on scripts/reachability.allow with a reason) and its
#   planted-item check (a test-only `pub fn` fails it; the working tree
#   is untouched);
# * the repeat-corpus index tests under a timeout;
# * every test binary of the workspace once (`cargo test --workspace`;
#   the contract suites it holds, the two heap tests among them, are
#   listed at that step);
# * the pfam-align suites in release mode (forced-path suite: the batch
#   kernel against the scalar twin, cell by cell);
# * the benchmark package's own tests;
# * the outputs check (what pfam prints on the benchmark workloads and one
#   generated input, against results/outputs.tsv);
# * the CLI smokes: kill/resume (and the `checkpoints:` line `run` prints,
#   which `cluster` does not; a kill after CCD and a kill in it), `cluster`
#   == `run`, the known-quadratic input under a clock (two 5 000-residue
#   poly-A reads), resume under other parameters, older checkpoint
#   formats, an unwritable --out, removed flags (the cadence flags among
#   them: each finished unit is written once) and the removed `simulate`
#   command, a flag given twice, and counts that used to panic (`--procs
#   1`, `--families 0`, a `--procs` count past memory).
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release =="
cargo build --release

echo "== tier1: cargo fmt --check =="
cargo fmt --check

echo "== tier1: cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== tier1: union-find mutation stays inside ClusterCore =="
# Refactor contract: clustering state mutates only in the ClusterCore
# state machine (crates/cluster/src/core.rs). The GOS-style all-pairs
# baseline (baseline.rs) is a different algorithm and keeps its own
# forest; everything else — drivers, policies, the pipeline — must go
# through the core.
if grep -rn "UnionFind" crates/cluster/src crates/core/src/pipeline.rs \
    | grep -v "^crates/cluster/src/core\.rs:" \
    | grep -v "^crates/cluster/src/baseline\.rs:"; then
    echo "tier1 FAIL: direct UnionFind use outside ClusterCore" >&2
    exit 1
fi

echo "== tier1: no unwrap/expect on inter-rank communication paths =="
# Fault tolerance contract: crates/mpi must propagate CommError, never
# panic on a peer's failure.
if grep -rn "unwrap(\|expect(" crates/mpi/src; then
    echo "tier1 FAIL: unwrap/expect found on a communication path" >&2
    exit 1
fi

# A per-file gate below names its files; one that is not there fails the
# gate (`sed` on a missing file inside an `if` would let it pass silently).
must_exist() {
    [ -f "$1" ] || {
        echo "tier1 FAIL: $1, named by a per-file gate, does not exist" >&2
        exit 1
    }
}

echo "== tier1: no unwrap/expect in the push loop and the transports =="
# Error contract: the master loops and the transports under them turn a
# peer's failure into a `TransportError`, never a panic; the push worker's
# one `panic!` on an unhealthy world is deliberate and named. Their
# `#[cfg(test)]` modules are exempt.
for f in crates/cluster/src/policy.rs crates/cluster/src/transport.rs; do
    must_exist "$f"
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "unwrap(\|expect("; then
        echo "tier1 FAIL: unwrap/expect found in the push loop or a transport ($f)" >&2
        exit 1
    fi
done

echo "== tier1: no unwrap/expect in the parsers of outside input =="
# Hostile-input contract: a FASTA file and a checkpoint directory come
# from outside the process; a malformed byte in either is a typed error
# (`SeqError`, `CkptError`), never a panic (tests/byte_mutation.rs sweeps
# both). Their `#[cfg(test)]` modules are exempt.
for f in crates/seq/src/fasta.rs crates/core/src/checkpoint.rs; do
    must_exist "$f"
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "unwrap(\|expect("; then
        echo "tier1 FAIL: unwrap/expect found in a parser of outside input ($f)" >&2
        exit 1
    fi
done

echo "== tier1: the retired schedulers and rank kernels stay retired =="
# One in-process CCD loop (drive_batched), one rank loop (scalar): the
# stealing scheduler, the threaded master-worker, the shard-driver switch
# and the SIMD rank kernels measured no gain and were deleted (ROADMAP,
# "Scheduler verdict" / "Rank-kernel verdict"). A new scheduler or kernel
# comes back with a number, not under an old name.
if grep -rn "StealingPush\|MwDispatch\|StealParams\|ShardDriver\|RankKernel\|crossbeam::deque" \
    crates src tests examples vendor; then
    echo "tier1 FAIL: a retired scheduler / rank kernel is named in the tree" >&2
    exit 1
fi

echo "== tier1: one CCD master, one exact pair supply, one pipeline entry =="
# The sharded clustering plane, the LSH sketch plane (hybrid, exhaustive
# and, last, approx) and the budgeted / checkpointed pipeline entries were
# option-selected duplicates with no workload and no measurement on their
# side (ROADMAP, "Shard verdict" / "Hybrid verdict"; EXPERIMENTS.md, "LSH
# sketch plane — verdict (PR 23)"; `run_pipeline` takes hooks). The suffix
# index, monolithic or partitioned under a budget, is the one supply. The
# hand-built pipelines of the figure binaries, the `scaling_study` example,
# `pfam simulate` (its own front half under a fixed configuration) and the
# graph builder only they kept went too: an experiment replays the traces
# of a `pfam` run (`PipelineConfig::run`, or `run --save-trace` + `replay`).
# So did the `ocean_sampling` and `distributed_pace` examples (their
# outputs are the Table I, Figure 5, quality and work-reduction sections
# of `paper`, and tests/spmd_engines.rs) and the collective only the
# second one called. So did the two micro-benches that timed code `pfam`
# never runs (the explicit-list and SPMD CCD drivers; the per-component
# mined supply), the entries only they called, and the two SPMD entries
# that became one over the phase (`run_phase_spmd`): `pfam`'s `phases:`
# line and `paper`'s runs table time the real run. The three that timed
# builds and engine widths `pfam` never selects followed (the alignment,
# index and out-of-core index benches), with the stage clock only one of
# them read and the name it left on the cut sort; their byte gates are
# crates/bench/tests/index_heap.rs, on the build `pfam` runs.
if grep -rnE "ShardParams|ShardForest|run_ccd_sharded|simulate_sharded|HybridSource|SketchBanding|PIN_SKETCH_HYBRID|run_pipeline_budgeted|run_pipeline_checkpointed|SketchSource|SketchParams|SketchMode|SketchParamError|PIN_SKETCH_APPROX|check_sketch_params|Sketcher|cmd_simulate|all_component_graphs|scaling_study|ocean_sampling|distributed_pace|all_reduce_sum|run_ccd_from_pairs|run_front_half|run_ccd_spmd|run_rr_spmd|ccd_bench|bgg_dsd_bench|align_bench|index_bench|index_oc_bench|SortStages|bucket_sort_index_staged" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired plane or pipeline entry is named in the tree" >&2
    exit 1
fi
# Only the pipeline composes RR with CCD: no experiment binary or example
# runs RR or CCD on its own — every ablation is a `PipelineConfig::run`
# with one field changed.
if grep -rn "run_redundancy_removal" crates/bench/src/bin examples \
    || grep -rnwE "run_ccd|run_ccd_from_pairs" crates/bench/src/bin examples; then
    echo "tier1 FAIL: an experiment binary or example builds its own pipeline (run it through PipelineConfig::run)" >&2
    exit 1
fi

echo "== tier1: one failure model (checkpoint/restart) =="
# Retry / circuit breaker, supervisor respawn, speculative re-execution,
# the health report and the cost model sat on top of the lease protocol
# with no caller in `pfam` and no measurement on the program's path
# (EXPERIMENTS.md, "Supervision plane — verdict"). The leased pull loop
# under them, its fault-tolerant entry, the fault injector and its seeded
# schedules followed: `pfam` runs one exact loop, and the leased one did
# not beat it on any workload by the rule written first (EXPERIMENTS.md,
# "One exact CCD loop"). A failed run is restarted from its checkpoints:
# one file per finished unit, so the mid-phase CCD cursor, the clock that
# timed it and the hooks that carried it went too (EXPERIMENTS.md, "One
# file per finished phase"). Any of them comes back with a caller and a
# number, not under its old name.
if grep -rnE "RecoveryParams|LeaseKnobs|RetryPolicy|RetryPort|HealthReport|WorkerHealth|CostModel|run_spmd_supervised|RespawnOptions|FaultClass|seeded_chaos|drive_leased|serve_pull_worker|run_ccd_ft|FtError|FaultInjector|run_spmd_faulty|MessageFate|FaultSchedule|LEASE_TIMEOUT|note_recovery|CcdCursor|snapshot_due|WORK_PER_SNAPSHOT|resume_ccd|from_cursor|ccd_resumable" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired supervision extra, the leased loop or the mid-phase cursor is named in the tree" >&2
    exit 1
fi

echo "== tier1: one aligner, one Shingle driver, no test-only library code =="
# The global / banded / semi-global aligners, the Ukkonen tree, the
# distributed and SPMD Shingle drivers, the concurrent union-find, the
# articulation-point pass and the Criterion benches (with their vendored
# stand-in) had no caller in `pfam`, an example or a bench binary
# (EXPERIMENTS.md, "Reachability sweep — verdict"). The rayon-over-vertices
# and arena Shingle drivers, the rank table, the buffer-reusing constructor
# twins, the per-worker arenas and the barrier executor kept to prove them
# equal measured nothing on any workload (EXPERIMENTS.md, "Back-half rank
# table and arenas — verdict (PR 24)"): `pfam` runs one serial Shingle per
# component, parallel across components, with no worker-local state. Since
# PR 26 that Shingle is a sort of flat record streams (EXPERIMENTS.md, "DSD
# as a sort (PR 26)"); the per-vertex `Vec<Shingle>` kernel, its scratch
# and the hash-map grouping went. The within-pair AVX2 scan kernel and the
# 2 MiB cap that sent groups to it went too (EXPERIMENTS.md, "Within-pair
# kernel — verdict"): the batch kernel is the one vector fill. Any of them
# comes back with a caller and a number, not under its old name.
if grep -rnE "UkkonenTree|banded_global_affine|semiglobal_affine|global_affine|shingle_clusters_distributed|shingle_clusters_spmd|ConcurrentUnionFind|cut_structure|criterion(::|\.workspace| *=)|shingle_clusters_with|shingle_clusters_budgeted|detect_dense_subgraphs_with|ShingleArena|RankTable|shingle_set_from_table|component_graph_with|duplicate_from_with|from_edges_reusing|barrier_components|ExecArena|shingle_set_with|ShingleScratch|group_pass1|fill_avx2|horizontal_max|broadcast_last|MAX_DIR_BYTES" \
    crates src tests examples vendor Cargo.toml || [ -e vendor/criterion ]; then
    echo "tier1 FAIL: a retired aligner, driver, twin or bench harness is named in the tree" >&2
    exit 1
fi
if grep -rn "thread_local!" crates/core/src crates/shingle/src; then
    echo "tier1 FAIL: worker-local state in pfam-core / pfam-shingle" >&2
    exit 1
fi
if grep -rnE "HashMap|HashSet" crates/shingle/src; then
    echo "tier1 FAIL: a hash map in pfam-shingle — Shingle groups by sorting record streams" >&2
    exit 1
fi

echo "== tier1: one plan for where a phase's pairs come from =="
# Which index a phase mines — one monolithic index, or one resident text
# mined a window of buckets at a time — is one function of (input,
# budget), `index_plan`, and one two-arm opener, `with_pair_source`. The
# six routing sites, the seven-argument opener, the ladder's twin
# constructor, the pre-flight that restated its floor and the chunk-size
# knob they read were folded into those two; the chunk-pair miner, its
# task planner, the source around it and the checkpoint cursor's plan pin
# went when every plan came to mine one stream. None comes back under its
# old name.
if grep -rnE "with_source_pinned|with_target|MemParams|index_chunk_bytes|with_index_chunk_bytes|check_index_budget|with_mined_source|max_task_index_bytes|concat_sets|\bto_global\b|gen_chunk_bytes|PartitionedMinedSource|DEFAULT_CHUNK_INDEX_BYTES" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired routing site, miner or knob is named in the tree" >&2
    exit 1
fi
# The window cap — what the budget has left once a text is held — is
# derived in one place, `window_cap`: the one read of `remaining()` outside
# the budget itself and the tests.
CAPS=$(for f in crates/*/src/*.rs src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "remaining()" | sed "s|^|$f:|" || true
done | grep -v "^crates/seq/src/budget\.rs:")
if [ "$(echo "$CAPS" | grep -c .)" != 1 ] || ! echo "$CAPS" | grep -q "^crates/suffix/src/partitioned\.rs:"; then
    echo "tier1 FAIL: the window cap is derived outside window_cap:" >&2
    echo "$CAPS" >&2
    exit 1
fi

echo "== tier1: one miner of promising pairs =="
# Every pair stream is `mine_pairs` over a depth-sorted node list, or the
# partitioned miner built on it, and a phase's loop takes it as a slice.
# The lazy serial generator, the enum that picked it when `threads`
# resolved to 1, the openers around that enum, the `all_pairs` shorthand
# and `pfam-cluster`'s explicit-stream source were one stream held
# bit-identical to another; the source trait, its one implementation, the
# policy trait and the three structs that were its only implementations
# were layers with nothing behind them. None comes back under its old
# name. `run_all_pairs_baseline` is another thing.
if grep -rnE "MaximalMatchGenerator|promising_pairs|IterSource|PairSource|MinedSource|WorkPolicy|BatchedPush|SpmdPush|LeasedPull|\ball_pairs\b" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired pair generator, source or loop is named in the tree" >&2
    exit 1
fi
for name in collect_node_pairs mining_queue; do
    CALLS=$(for f in crates/*/src/*.rs src/*.rs; do
        sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "\b$name(" | grep -v "fn $name(" | sed "s|^|$f:|" \
            || true
    done)
    if [ "$(echo "$CALLS" | grep -c .)" != 1 ] || ! echo "$CALLS" | grep -q "^crates/suffix/src/parallel\.rs:"; then
        echo "tier1 FAIL: $name is called outside mine_pairs:" >&2
        echo "$CALLS" >&2
        exit 1
    fi
done

echo "== tier1: reachability ratchet (the compiler: every pub item reached outside the tests, or allow-listed) =="
# What the sweep could write if it leaked out of its copy: the lock files,
# the library sources it demotes, its allow-list. Only these are compared
# afterwards, so an edit elsewhere in the checkout meanwhile is no failure.
SWEPT=(Cargo.lock benchmark/Cargo.lock crates/*/src scripts/reachability.allow)
TREE_BEFORE=$(git status --porcelain -- "${SWEPT[@]}")
scripts/reachability.sh

echo "== tier1: the ratchet fails on a planted test-only pub fn, and edits no file =="
# The sweep again, on a copy with one `pub fn` in a library crate that
# nothing calls. It must fail naming that item; neither run may leave a
# trace in the paths it could write (`SWEPT`, benchmark/Cargo.lock
# included).
PLANT=$(mktemp -d)
trap 'rm -rf "$PLANT"' EXIT
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do if [ -f "$f" ]; then printf '%s\0' "$f"; fi; done \
    | tar --null -T - -cf - | tar -C "$PLANT" -xf -
git -C "$PLANT" init -q
git -C "$PLANT" add -A
awk '/^#\[cfg\(test\)\]/ && !done { print "/// Planted: nothing but a test could call this.\npub fn planted_test_only() -> u32 {\n    7\n}\n"; done = 1 } { print }' \
    crates/metrics/src/histogram.rs >"$PLANT/crates/metrics/src/histogram.rs"
if "$PLANT/scripts/reachability.sh" >/dev/null 2>"$PLANT/planted.err"; then
    echo "tier1 FAIL: the reachability sweep passed a planted test-only pub fn" >&2
    exit 1
fi
grep -q "^crates/metrics/src/histogram.rs  planted_test_only " "$PLANT/planted.err" || {
    echo "tier1 FAIL: the reachability sweep failed without naming the planted item:" >&2
    cat "$PLANT/planted.err" >&2
    exit 1
}
rm -rf "$PLANT"
trap - EXIT
if [ "$(git status --porcelain -- "${SWEPT[@]}")" != "$TREE_BEFORE" ]; then
    echo "tier1 FAIL: the reachability sweep changed the working tree:" >&2
    git status --porcelain -- "${SWEPT[@]}" >&2
    exit 1
fi

echo "== tier1: one sequence store, in memory =="
# The paged on-disk store, its page cache and file format, the streaming
# generator that wrote it, and the copy-returning accessors that existed
# only for it had no caller in `pfam`, an example or a benchmark workload:
# `pfam` reads one FASTA into memory, and what bounds memory under a
# budget is the windowed miner. None comes back under its old name.
if grep -rnE "PagedSeqStore|PagedStoreWriter|PageCache|generate_to_store|StreamedDataset|REDUNDANCY_WINDOW|codes_cow|header_owned|PFSS0001" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired sequence store or accessor is named in the tree" >&2
    exit 1
fi

echo "== tier1: one bipartite reduction (Bd) =="
# The domain-based reduction `Bm` (shared exact words against sequences),
# its word-graph constructor, the k-mer module under it, its `--domain` flag
# and its example lost to `Bd` on the rule written before the measurement:
# a 0.63-0.68 precision collapse on giant_component, lower sensitivity on
# both sparse workloads, and no metric of any workload better by more than
# its bound (EXPERIMENTS.md, "One reduction"). Dense-subgraph
# detection reads the component graph alone. None comes back under its
# old name.
if grep -rnE "DomainBased|word_based|KmerIter|MAX_PACKED_K|pack_word|domain_families" \
    crates src tests examples; then
    echo "tier1 FAIL: a retired reduction, word graph or k-mer scanner is named in the tree" >&2
    exit 1
fi

echo "== tier1: sequence text stays behind pfam-seq's SeqStore =="
# Out-of-core contract: no data-plane crate slurps whole files or
# materializes full sequence text on its own; sequence bytes are reached
# through the SeqStore trait (load_range / codes), so the memory
# budget actually binds. Checkpoint payloads (crates/core/src/
# checkpoint.rs) are pipeline state, not sequence data, and are exempt.
if grep -rn "std::fs::read\b\|std::fs::read_to_string" \
    crates/suffix/src crates/cluster/src crates/shingle/src \
    crates/align/src crates/graph/src crates/datagen/src crates/core/src \
    | grep -v "^crates/core/src/checkpoint\.rs:"; then
    echo "tier1 FAIL: whole-file read in the data plane — route through pfam_seq::SeqStore" >&2
    exit 1
fi

echo "== tier1: the engine hot path stays off the three-matrix fill =="
# One-pass contract: the engine and its fill trace back over direction
# bytes. The Gotoh matrices and `local_affine_with` belong to the oracle
# (`AlignEngineKind::Reference` goes through `criteria`, which names
# neither) and to the files' `#[cfg(test)]` modules.
for f in crates/align/src/engine.rs crates/align/src/onepass.rs crates/align/src/interpair.rs; do
    must_exist "$f"
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n "AffineMatrices\|local_affine_with"; then
        echo "tier1 FAIL: $f names the three-matrix fill outside its tests" >&2
        exit 1
    fi
done

echo "== tier1: unsafe stays in the alignment kernels and the heap tests' allocator =="
# Every `unsafe` of the program is in the batch kernel's two files:
# onepass.rs holds the calls into the two `target_feature` bodies, each
# behind the CPU-feature detection that picked it (AVX-512BW, AVX2);
# interpair.rs holds the bodies' vector loads and stores, each behind a
# length assertion. The heap tests' counting allocator
# (crates/bench/src/alloc.rs) wraps the system one. A new kernel goes into
# interpair.rs and through the forced-path suite
# (crates/align/tests/engine_props.rs), not somewhere else.
if grep -rnw "unsafe" crates/*/src src \
    | grep -v "^crates/align/src/onepass\.rs:" \
    | grep -v "^crates/align/src/interpair\.rs:" \
    | grep -v "^crates/bench/src/alloc\.rs:"; then
    echo "tier1 FAIL: unsafe outside the alignment kernels and the heap tests' allocator" >&2
    exit 1
fi

echo "== tier1: one suffix index per run =="
# One-alignment contract: the pipeline builds each component's graph from
# CCD's edges and deferred pairs (pfam_cluster::KnownPairs). The
# per-component index survives in bgg.rs as the supply of callers with no
# such bookkeeping (`stream_components`) — one `with_match_tree` call
# there, none in the pipeline or the executor.
if [ "$(grep -c "with_match_tree(" crates/cluster/src/bgg.rs)" != 1 ] \
    || grep -n "with_match_tree\|materialize_subset\|stream_components" crates/core/src/pipeline.rs \
    || grep -n "with_match_tree" crates/core/src/executor.rs; then
    echo "tier1 FAIL: a second per-component index path (see crates/cluster/src/bgg.rs)" >&2
    exit 1
fi

echo "== tier1: repeat-corpus index tests under a timeout =="
# Homopolymers, identical reads, a 10^5-long tandem repeat: inputs on
# which resolving suffix-key ties by comparison is quadratic. The bucket
# sort must give up on them and SA-IS finish in seconds; a return of the
# quadratic path fails here instead of hanging the suites below.
cargo test -q -p pfam-suffix --test parallel_props --no-run
timeout 120 cargo test -q -p pfam-suffix --test parallel_props repeat_corpus

echo "== tier1: cargo test --workspace -q (every test binary, once) =="
# The workspace run is the root package's tests and every crate's suites.
# Among them, the contracts tier 1 leans on:
# * checkpoint_resume, degenerate_inputs: checkpoint / restart — the one
#   recovery there is, also driven through the CLI by the kill/resume
#   smoke below — and inputs at the edges.
# * driver_matrix: which miner x which loop, one clustering.
# * partitioned_identity: the windowed stream == the monolithic stream.
# * masked_props, front_half: CCD mines RR's index through a mask over the
#   removed reads. The masked stream must be the stream of an index built
#   over the survivors alone — order, anchors and statistics — or pin-0
#   checkpoint cursors stop meaning one thing; the front half == two builds.
# * pair_ledger: RR's pair ledger and CCD's deferred list may change how
#   many pairs are filled, never a component, an edge set or a component
#   graph — for every driver and ledger state (full, absent, cut short).
# * verify_list: the list entry answers from the ledger, sorts by shape and
#   fills sixteen pairs to a register; a verdict must not show any of it.
#   Also: deferred pairs of components under the minimum size are neither
#   held nor filled.
# * engine_props, align_engine: the tiered engine is verdict- and
#   output-identical to the reference criteria — kernel / property tests
#   plus the end-to-end RR / CCD / SPMD runs.
# * streaming_executor: the fused BGG->DSD executor hands back, in queue
#   order, exactly what component_graph -> bipartite reduction ->
#   detect_dense_subgraphs gives for each member list; the pipeline's
#   known-pairs supply equals it, under the test parameters and under the
#   paper's (the 160K-like recipe: fragments, redundancy).
# * shingle_heap: one Shingle run's counted heap peak stays under
#   shingle_heap_bound, what the back half reserves as dsd-shingle, on a
#   238-vertex near-clique at the default parameters (and under 2.5 MB
#   there), on graphs 1-95 % dense across five parameter sets and on
#   empty graphs.
# * index_heap: the index `pfam` builds (build_cut, full and at psi = 10,
#   on one and two threads) holds at most 7.2 bytes per text position and
#   peaks over its bucket tables at most 8.5 (full) or 4.5 (cut) per
#   position; the estimate is what the full index holds, to 1 %; the
#   windowed miner index_plan picks under 0.4 x the estimate holds its
#   text within 1 % + 64 KiB of estimated_text_bytes and peaks within 2 %
#   of what it reserved plus its tables (mined at psi = 15 with its pairs
#   on top, and index alone on sparse and dense input). About 1 s in this
#   (opt-level 1) profile on 2 cores.
cargo test --workspace -q

echo "== tier1: pfam-align suites in the release profile =="
# Unsafe loads/stores and saturating/wrapping lane arithmetic: the debug
# profile's overflow checks and debug_asserts are not what ships. Every
# width the host runs — 32 lanes on AVX-512BW, 16 on AVX2, the scalar
# twin — is held to the reference here (engine_props, and the forced
# widths in src/engine.rs and src/onepass.rs).
cargo test --release -q -p pfam-align

echo "== tier1: the benchmark package's own tests (unit + smoke pass) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== tier1: outputs.sh --check (what pfam prints on the checked inputs, unchanged) =="
# The four benchmark workloads at two seeds and one generated input: the
# families.tsv, Table-I row, fills / ahead / windows lines and cluster ==
# run of each, against results/outputs.tsv. A change that means to move
# them regenerates the file; any other difference fails here.
scripts/outputs.sh --check

echo "== tier1: CLI kill/resume smoke (byte-identical families.tsv) =="
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./target/release/pfam generate --out "$SMOKE/reads.fasta" --families 3 --members 25 --seed 7
# A kill after CCD leaves what a finished run leaves, less its component
# files.
./target/release/pfam run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" \
    --min-size 3 --out "$SMOKE/ignored.tsv" >/dev/null 2>&1
rm "$SMOKE/ck"/dsd-*.ckpt
./target/release/pfam run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" \
    --resume --min-size 3 --out "$SMOKE/resumed.tsv" 2>"$SMOKE/resumed.err"
./target/release/pfam cluster "$SMOKE/reads.fasta" --min-size 3 --out "$SMOKE/straight.tsv" \
    2>"$SMOKE/straight.err"
diff "$SMOKE/resumed.tsv" "$SMOKE/straight.tsv"
# With a directory the last stderr line is what each phase wrote; the
# resumed run loaded RR and CCD, so it wrote DSD's component files only.
tail -1 "$SMOKE/resumed.err" | grep -qE \
    "^checkpoints: rr 0 \(0\.0 MB\), ccd 0 \(0\.0 MB\), dsd [1-9][0-9]* \([0-9]+\.[0-9] MB\), [0-9]+\.[0-9]{2} s$" || {
    echo "tier1 FAIL: pfam run --resume did not end its stderr with its checkpoints line" >&2
    cat "$SMOKE/resumed.err" >&2
    exit 1
}
if grep -q "^checkpoints:" "$SMOKE/straight.err"; then
    echo "tier1 FAIL: pfam cluster, which keeps nothing on disk, printed a checkpoints line" >&2
    exit 1
fi
# A kill in CCD leaves RR's file alone: the resumed run loads RR, runs CCD
# from its start and writes its one file, then every component's.
rm "$SMOKE/ck/ccd.ckpt" "$SMOKE/ck"/dsd-*.ckpt
./target/release/pfam run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" \
    --resume --min-size 3 --out "$SMOKE/resumed-ccd.tsv" 2>"$SMOKE/resumed-ccd.err"
diff "$SMOKE/resumed-ccd.tsv" "$SMOKE/straight.tsv"
tail -1 "$SMOKE/resumed-ccd.err" | grep -qE \
    "^checkpoints: rr 0 \(0\.0 MB\), ccd 1 \([0-9]+\.[0-9] MB\), dsd [1-9][0-9]* \([0-9]+\.[0-9] MB\), [0-9]+\.[0-9]{2} s$" || {
    echo "tier1 FAIL: pfam run --resume after a kill in CCD did not write CCD's file once" >&2
    cat "$SMOKE/resumed-ccd.err" >&2
    exit 1
}
# The fills-per-phase line (stderr): the ledger answered, nothing twice.
grep -q "^fills: rr .* ledger hits.*each filled once$" "$SMOKE/straight.err" || {
    echo "tier1 FAIL: pfam cluster did not print its fills / ledger-hits line" >&2
    cat "$SMOKE/straight.err" >&2
    exit 1
}
# Then what the master loop's window filled that no batch admitted.
grep -A1 "^fills:" "$SMOKE/straight.err" | grep -qE \
    "^ahead: rr [0-9]+ fills discarded, ccd [0-9]+ filled for the back half, [0-9]+ discarded$" || {
    echo "tier1 FAIL: pfam cluster did not print its ahead line after the fills line" >&2
    cat "$SMOKE/straight.err" >&2
    exit 1
}

echo "== tier1: CLI cluster == run smoke (one program, byte-identical output) =="
# `cluster` is `run` without a directory, whatever route the flags pick
# (24K is 0.4 x this input's index estimate: the windowed miner): same
# families.tsv, same Table-I row. A budget changes no count either: the
# budgeted runs print the unbudgeted run's fills line.
PFAM=./target/release/pfam
for flags in "" "--mem-budget 24K"; do
    rm -rf "$SMOKE/ck-same"
    # shellcheck disable=SC2086 # $flags is a word list
    $PFAM cluster "$SMOKE/reads.fasta" --min-size 3 $flags --out "$SMOKE/cluster.tsv" \
        >"$SMOKE/cluster.out" 2>"$SMOKE/cluster.err"
    # shellcheck disable=SC2086
    $PFAM run "$SMOKE/reads.fasta" --min-size 3 $flags --checkpoint-dir "$SMOKE/ck-same" \
        --out "$SMOKE/run.tsv" >"$SMOKE/run.out" 2>"$SMOKE/run.err"
    diff "$SMOKE/cluster.tsv" "$SMOKE/run.tsv"
    diff "$SMOKE/cluster.tsv" "$SMOKE/straight.tsv"
    diff <(head -2 "$SMOKE/cluster.out") <(head -2 "$SMOKE/run.out")
    for err in cluster run; do
        diff <(grep "^fills:" "$SMOKE/$err.err") <(grep "^fills:" "$SMOKE/straight.err") || {
            echo "tier1 FAIL: '$PFAM $err $flags' filled other pairs than the unbudgeted run" >&2
            exit 1
        }
    done
    [ "$(wc -l <"$SMOKE/run.tsv")" -gt 1 ] || {
        echo "tier1 FAIL: no family to compare under '$flags'" >&2
        exit 1
    }
    # Under the budget both phases mine windows, and say so after the
    # ahead line; the monolithic route prints no windows line.
    if [ -n "$flags" ]; then
        grep -A1 "^ahead:" "$SMOKE/run.err" | grep -qE \
            "^windows: rr [0-9]+ \([0-9]+ suffixes, [0-9]+ kept\), ccd [0-9]+ \([0-9]+, [0-9]+\)$" || {
            echo "tier1 FAIL: '$PFAM run $flags' did not print its windows line after the ahead line" >&2
            cat "$SMOKE/run.err" >&2
            exit 1
        }
    elif grep -q "^windows:" "$SMOKE/run.err"; then
        echo "tier1 FAIL: the monolithic route printed a windows line" >&2
        exit 1
    fi
done

echo "== tier1: known quadratic under a clock (two 5 000-residue poly-A reads) =="
# A homopolymer pair is one nested chain of suffix-tree nodes and
# `collect_node_pairs` is quadratic on it (ROADMAP hardening (d)): 0.8 s
# and 28 MiB today. Not fixed here — held, so it cannot get worse unseen.
POLYA=$(printf 'A%.0s' $(seq 5000))
printf ">a1\n%s\n>a2\n%s\n" "$POLYA" "$POLYA" >"$SMOKE/polya.fasta"
timeout 30 $PFAM cluster "$SMOKE/polya.fasta" --min-size 2 --out "$SMOKE/polya.tsv" >/dev/null || {
    echo "tier1 FAIL: pfam cluster on two poly-A reads failed or ran past 30 s" >&2
    exit 1
}

echo "== tier1: CLI resume-under-other-parameters smoke (a mismatch, not the old answer) =="
if $PFAM run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck" --resume --min-size 3 \
    --psi 25 --out "$SMOKE/other.tsv" 2>"$SMOKE/other.err"; then
    echo "tier1 FAIL: --resume --psi 25 ran on snapshots written under the default psi" >&2
    exit 1
fi
grep -q "^error: checkpoint mismatch: rr.ckpt" "$SMOKE/other.err" || {
    echo "tier1 FAIL: the resume was refused without naming the mismatch" >&2
    cat "$SMOKE/other.err" >&2
    exit 1
}

echo "== tier1: CLI older-checkpoint smoke (a v4 to v10 directory is refused, not replayed) =="
# v4 plan pins count bytes of the 16-byte-per-position index estimate;
# v5 fingerprints fold the sketch mode; v6 CCD cursors carry the plan pin
# that v7 dropped; v7 fingerprints fold no residue; a v8 dsd.ckpt is a
# prefix of the component queue with running totals; a v9 dsd.ckpt holds
# the finished set behind a count, where v10 writes each component once,
# in a dsd-<queue position>.ckpt of its own; a v10 ccd.ckpt may be a
# mid-phase cursor, where v11 holds the finished phase alone. Same header,
# so: the version word.
for v in 4 5 6 7 8 9 10; do
    cp -r "$SMOKE/ck" "$SMOKE/ck-v$v"
    for f in "$SMOKE/ck-v$v"/*.ckpt; do
        printf "\\x$(printf %02x "$v")\\x00\\x00\\x00" | dd of="$f" bs=1 seek=4 conv=notrunc status=none
    done
    if $PFAM run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck-v$v" --resume --min-size 3 \
        --out "$SMOKE/v$v.tsv" 2>"$SMOKE/v$v.err"; then
        echo "tier1 FAIL: --resume ran on version-$v snapshots" >&2
        exit 1
    fi
    grep -q "^error: unsupported checkpoint version $v" "$SMOKE/v$v.err" || {
        echo "tier1 FAIL: the v$v directory was refused without naming its version" >&2
        cat "$SMOKE/v$v.err" >&2
        exit 1
    }
done

echo "== tier1: CLI unwritable --out smoke (refused before phase 1) =="
if $PFAM run "$SMOKE/reads.fasta" --checkpoint-dir "$SMOKE/ck-out" \
    --out "$SMOKE/no-such-dir/x.tsv" 2>"$SMOKE/out.err"; then
    echo "tier1 FAIL: pfam run wrote into a directory that does not exist" >&2
    exit 1
fi
grep -q "^error: cannot create .*x.tsv" "$SMOKE/out.err"
if [ -e "$SMOKE/ck-out/rr.ckpt" ]; then
    echo "tier1 FAIL: the pipeline ran before --out was found unwritable" >&2
    exit 1
fi

echo "== tier1: CLI removed-flag smoke (an error naming it, not a no-op; a repeat is one too) =="
for gone in "--steal:--steal" "--shards 2:--shards" "--sketch-banding exhaustive:--sketch-banding" \
    "--sketch-mode approx:--sketch-mode" "--index-chunk-bytes 4K:--index-chunk-bytes" \
    "--domain 10:--domain" "--checkpoint-every 8:--checkpoint-every" \
    "--checkpoint-every-components 1:--checkpoint-every-components" \
    "--stop-after ccd:--stop-after" \
    "--psi 10 --psi 20:--psi given twice"; do
    # shellcheck disable=SC2086 # ${gone%%:*} is a word list
    if $PFAM cluster "$SMOKE/reads.fasta" --min-size 3 ${gone%%:*} \
        --out "$SMOKE/gone.tsv" 2>"$SMOKE/gone.err"; then
        echo "tier1 FAIL: pfam cluster accepted the removed '${gone%%:*}'" >&2
        exit 1
    fi
    grep -q "^error: .*${gone#*:}" "$SMOKE/gone.err" || {
        echo "tier1 FAIL: '${gone%%:*}' was refused without naming it" >&2
        cat "$SMOKE/gone.err" >&2
        exit 1
    }
done

echo "== tier1: CLI removed-command smoke (simulate is unknown: run --save-trace, then replay) =="
status=0
$PFAM simulate "$SMOKE/reads.fasta" >/dev/null 2>"$SMOKE/sim.err" || status=$?
if [ "$status" != 1 ] || ! grep -q "^error: unknown command: simulate" "$SMOKE/sim.err"; then
    echo "tier1 FAIL: 'pfam simulate' exited $status without being refused as unknown:" >&2
    cat "$SMOKE/sim.err" >&2
    exit 1
fi

echo "== tier1: CLI bad-count smoke (exit 1 and a typed error, never a panic) =="
$PFAM run "$SMOKE/reads.fasta" --min-size 3 --checkpoint-dir "$SMOKE/ck-trace" \
    --save-trace "$SMOKE/t" --out "$SMOKE/traced.tsv" >/dev/null 2>&1
for phase in rr ccd bgg; do
    [ -s "$SMOKE/t.$phase.trace.tsv" ] || {
        echo "tier1 FAIL: pfam run --save-trace wrote no $phase trace" >&2
        exit 1
    }
done
for bad in "generate --out $SMOKE/zero.fasta --families 0" \
    "replay $SMOKE/t.rr.trace.tsv --procs 1" "replay $SMOKE/t.rr.trace.tsv --procs 32,1"; do
    status=0
    # shellcheck disable=SC2086 # $bad is a word list
    $PFAM $bad >/dev/null 2>"$SMOKE/bad.err" || status=$?
    if [ "$status" != 1 ] || grep -q panicked "$SMOKE/bad.err" || ! grep -q "^error: " "$SMOKE/bad.err"; then
        echo "tier1 FAIL: 'pfam $bad' exited $status without a typed error:" >&2
        cat "$SMOKE/bad.err" >&2
        exit 1
    fi
done
# A worker count no machine holds is a valid count: the replay models only
# as many workers as there are tasks, and allocates nothing per worker.
status=0
$PFAM replay "$SMOKE/t.rr.trace.tsv" "$SMOKE/t.ccd.trace.tsv" --procs 18446744073709551615 \
    >"$SMOKE/max.out" 2>"$SMOKE/max.err" || status=$?
if [ "$status" != 0 ] || [ "$(grep -c "trace.tsv" "$SMOKE/max.out")" != 2 ]; then
    echo "tier1 FAIL: 'pfam replay --procs 18446744073709551615' exited $status:" >&2
    cat "$SMOKE/max.err" >&2
    exit 1
fi

echo "== tier1: OK =="
