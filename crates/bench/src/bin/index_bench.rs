//! Index benchmark: the suffix index stage by stage — SA-IS + Kasai (the
//! serial oracle) against the residue-packed bucket sort at each thread
//! count, the same sort cut at ψ = 10 (`psi_10`: only the suffixes a node
//! of depth ≥ 10 can hold are kept), the interval tree at ψ = 0 / 10 / 15,
//! and pair mining — on two corpora, plus the pair generation of the
//! pipeline's front half (RR at ψ = 15, CCD at ψ = 10 over RR's survivors)
//! from two indexes and from one, emitting a machine-readable
//! `BENCH_index.json` stamped with the commit it measured.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin index_bench [scale] [max_threads]
//! cargo run --release -p pfam-bench --bin index_bench -- --test   # smoke
//! ```
//!
//! * `sparse` — the metagenomic long tail: a few families drowned in
//!   unrelated ORFs; 25 k reads and 3.1 M residues at scale 1. Its
//!   `front_half` rows take the reads the generator made redundant as
//!   RR's removals (mining needs a keep-set, not alignments): "two
//!   builds" indexes the input, copies the survivors and indexes the
//!   copy; "one build" indexes the input once, prunes the tree for both
//!   cut-offs and mines CCD's pairs through a mask.
//! * `short_reads` — 70 k reads of 20–40 residues at scale 1, a few with
//!   `X`: more sequences than a 16-bit sentinel range holds.
//! * `repeats` — two 20 000-residue homopolymers among 50 noise reads (at
//!   any scale): the bucket sort gives up and SA-IS indexes it. Index
//!   rows only — mining its 20 000 nested nodes takes seconds and is not
//!   what the corpus is here for.
//!
//! Every parallel build is asserted bit-identical to the oracle, every
//! pruned tree is asserted to mine the full tree's pairs in the full
//! tree's order — the tree of the index cut at ψ = 10 too, at ψ = 10 and
//! 15 — and the masked stream is asserted equal to the stream of the
//! survivors' own index, anchors and statistics included. Every build
//! is also weighed by the counting allocator: bytes the index holds
//! (`resident_bytes_per_position`) and the most the build held at once
//! (`build_peak_bytes_per_position`), per text position; every run fails
//! when an index holds more than 7.2 bytes per position or a build the
//! bucket sort finished peaked above 8.5 per position plus its
//! position-independent bucket tables. `--test` runs a tiny single-rep
//! pass and prints the JSON instead of writing the file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam_bench::alloc::{live_bytes, peak_reset, peak_since, CountingAlloc};
use pfam_bench::{commit_stamp, cores_field, emit, thread_sweep, time_min, BenchArgs};
use pfam_datagen::{random_peptide, DatasetConfig, SyntheticDataset};
use pfam_seq::{materialize_subset, SeqId, SequenceSet, SequenceSetBuilder};
use pfam_suffix::maximal::GenerationStats;
use pfam_suffix::{
    bucket_sort_index_staged, lcp::lcp_array, mine_pairs, parallel_pairs, suffix_array,
    GeneralizedSuffixArray, KeepMask, MatchPair, MaximalMatchConfig, MineNodes, SortStages,
    SuffixTree,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceilings of every run, in bytes per text position: what an index may
/// hold, and what a build may hold at its peak on top of the bucket
/// tables.
const MAX_RESIDENT_PER_POSITION: f64 = 7.2;
const MAX_BUILD_PEAK_PER_POSITION: f64 = 8.5;

/// Bytes of the bucket sort that do not grow with the text, at most: one
/// histogram of 2¹⁵ `u32` counters per text chunk (a chunk per thread) and
/// the scatter's 2¹⁵ cursors per chunk, the 2¹⁵ bucket starts, and 64 KiB
/// for the job lists and one bucket's records per worker. On a
/// smoke-sized corpus they outweigh the arrays.
fn bucket_table_bytes(threads: usize) -> f64 {
    ((8 * threads + 8) << 15) as f64 + 65_536.0
}

/// ψ of redundancy removal and of component detection (`ClusterConfig`
/// defaults): the two depths the pipeline prunes its trees at.
const PSI_RR: u32 = 15;
const PSI_CCD: u32 = 10;

/// The `sparse` reads, and the ids of those the generator did not make
/// redundant — the keep-set of the `front_half` rows.
fn sparse_corpus(scale: f64) -> (SequenceSet, Vec<SeqId>) {
    let config = DatasetConfig {
        n_families: 100,
        n_members: 2000,
        size_skew: 0.0,
        ancestor_len: 120..220,
        fragment_prob: 0.25,
        redundancy_frac: 0.14,
        n_noise: 100_000,
        seed: 0x1D,
        ..DatasetConfig::default()
    }
    .scaled(scale * 0.25);
    let dataset = SyntheticDataset::generate(&config);
    let redundant = dataset.redundant_ids();
    let kept = dataset.set.ids().filter(|id| redundant.binary_search(id).is_err()).collect();
    (dataset.set, kept)
}

fn short_read_corpus(scale: f64) -> SequenceSet {
    const X_CODE: u8 = (pfam_seq::ALPHABET_SIZE - 1) as u8;
    let mut rng = StdRng::seed_from_u64(0x5EAD);
    let n = ((70_000.0 * scale) as usize).max(50);
    let mut b = SequenceSetBuilder::new();
    for i in 0..n {
        let len = rng.gen_range(20..40);
        let mut codes = random_peptide(&mut rng, len);
        if i % 50 == 0 {
            codes[len / 2] = X_CODE;
        }
        b.push_codes(format!("r{i}"), codes).expect("non-empty");
    }
    b.finish()
}

fn repeat_corpus() -> SequenceSet {
    let mut rng = StdRng::seed_from_u64(0x4E9);
    let mut b = SequenceSetBuilder::new();
    for i in 0..52 {
        let codes = if i % 26 == 10 { vec![7; 20_000] } else { random_peptide(&mut rng, 120) };
        b.push_codes(format!("r{i}"), codes).expect("non-empty");
    }
    b.finish()
}

fn match_config(psi: u32) -> MaximalMatchConfig {
    MaximalMatchConfig { min_len: psi, max_pairs_per_node: 100_000, dedup: true }
}

/// A mined stream: the pairs and the generator's statistics.
type Mined = (Vec<MatchPair>, GenerationStats);

/// A build weighed by the counting allocator: bytes per text position it
/// holds once built, and the most it held at once while building; the
/// first checked against the index's own `heap_bytes()` to 1 %.
fn weigh(name: &str, positions: f64, build: impl FnOnce() -> GeneralizedSuffixArray) -> (f64, f64) {
    let live0 = peak_reset();
    let gsa = build();
    let held = live_bytes().saturating_sub(live0) as f64;
    let build_peak = peak_since(live0) as f64;
    // Idle pool threads of the generators free a few hundred bytes
    // when they please; the arrays are what is being compared.
    assert!(
        (gsa.heap_bytes() as f64 - held).abs() <= 0.01 * held,
        "{name}: heap_bytes() says {}, the allocator {held}",
        gsa.heap_bytes()
    );
    (held / positions, build_peak)
}

/// The fastest of `reps` staged bucket sorts of `text` at cut-off `psi`:
/// its stages, and whether the text was handed back to SA-IS.
fn best_stages(text: &[u8], t: usize, psi: u32, reps: usize) -> (SortStages, bool) {
    let mut best = (f64::INFINITY, SortStages::default(), false);
    for _ in 0..reps {
        let (index, stages) = bucket_sort_index_staged(text, t, psi);
        let total = stages.count_s + stages.scatter_s + stages.sort_lcp_s;
        if total < best.0 {
            best = (total, stages, index.is_none());
        }
    }
    (best.1, best.2)
}

/// Whether two mined streams agree in everything that must repeat —
/// `MatchPair` equality ignores the anchors, this does not.
fn same_stream(a: &Mined, b: &Mined) -> bool {
    let anchored = |p: &MatchPair| (p.a, p.b, p.len, p.a_pos, p.b_pos);
    a.1 == b.1 && a.0.iter().map(anchored).eq(b.0.iter().map(anchored))
}

/// Pair generation of RR (ψ = 15 over `set`) and CCD (ψ = 10 over the
/// reads `kept`) at `t` threads, from two indexes and from one: one JSON
/// row, stage by stage.
fn front_half_row(set: &SequenceSet, kept: &[SeqId], t: usize, reps: usize) -> String {
    // Two builds: RR's index, a copy of the survivors, CCD's index.
    let (gsa_rr_s, gsa) = time_min(reps, || GeneralizedSuffixArray::build_parallel(set, t));
    let (tree_rr_s, tree) = time_min(reps, || SuffixTree::build_pruned(&gsa, PSI_RR));
    let (mine_rr_s, rr_two) = time_min(reps, || parallel_pairs(&tree, match_config(PSI_RR), t));
    let (copy_s, survivors) = time_min(reps, || materialize_subset(set, kept));
    let (gsa_ccd_s, sub_gsa) =
        time_min(reps, || GeneralizedSuffixArray::build_parallel(&survivors, t));
    let (tree_ccd_s, sub_tree) = time_min(reps, || SuffixTree::build_pruned(&sub_gsa, PSI_CCD));
    let (mine_ccd_s, ccd_two) =
        time_min(reps, || parallel_pairs(&sub_tree, match_config(PSI_CCD), t));
    let two_s = gsa_rr_s + tree_rr_s + mine_rr_s + copy_s + gsa_ccd_s + tree_ccd_s + mine_ccd_s;

    // One build: the tree pruned for both cut-offs, CCD through a mask.
    let (tree_s, tree) = time_min(reps, || SuffixTree::build_pruned(&gsa, PSI_CCD.min(PSI_RR)));
    let (mine_rr_one_s, rr_one) = time_min(reps, || parallel_pairs(&tree, match_config(PSI_RR), t));
    let (mask_s, mask) = time_min(reps, || KeepMask::new(&gsa, kept));
    let (mine_masked_s, ccd_one) = time_min(reps, || {
        mine_pairs(&tree, match_config(PSI_CCD), t, MineNodes::Whole(Some(&mask)))
    });
    let one_s = gsa_rr_s + tree_s + mine_rr_one_s + mask_s + mine_masked_s;

    assert!(same_stream(&rr_one, &rr_two), "RR streams differ at {t} threads");
    assert!(same_stream(&ccd_one, &ccd_two), "CCD streams differ at {t} threads");
    eprintln!("index_bench: front half, {t} thread(s): two builds {two_s:.3}s, one {one_s:.3}s");
    format!(
        concat!(
            "      {{ \"threads\": {t}, \"pairs_rr\": {prr}, \"pairs_ccd\": {pccd},\n",
            "        \"two_builds\": {{ \"total_s\": {two:.6}, \"gsa_rr_s\": {g1:.6}, ",
            "\"tree_rr_s\": {t1:.6}, \"mine_rr_s\": {m1:.6}, \"copy_survivors_s\": {c:.6}, ",
            "\"gsa_ccd_s\": {g2:.6}, \"tree_ccd_s\": {t2:.6}, \"mine_ccd_s\": {m2:.6} }},\n",
            "        \"one_build_masked\": {{ \"total_s\": {one:.6}, \"gsa_s\": {g1:.6}, ",
            "\"tree_s\": {t3:.6}, \"mine_rr_s\": {m3:.6}, \"keep_mask_s\": {k:.6}, ",
            "\"mine_ccd_masked_s\": {m4:.6} }},\n",
            "        \"two_over_one\": {r:.3} }}"
        ),
        t = t,
        prr = rr_one.0.len(),
        pccd = ccd_one.0.len(),
        two = two_s,
        g1 = gsa_rr_s,
        t1 = tree_rr_s,
        m1 = mine_rr_s,
        c = copy_s,
        g2 = gsa_ccd_s,
        t2 = tree_ccd_s,
        m2 = mine_ccd_s,
        one = one_s,
        t3 = tree_s,
        m3 = mine_rr_one_s,
        k = mask_s,
        m4 = mine_masked_s,
        r = two_s / one_s,
    )
}

/// One corpus, every stage (`mine`: tree and mining rows too; `kept`: the
/// front-half rows too), held to the byte ceilings: returns its JSON
/// object.
/// Hold one build's weights to the ceilings: what the index holds, and —
/// unless SA-IS indexed the text — its build peak over the bucket tables.
fn check_bytes(name: &str, t: usize, resident: f64, peak: f64, positions: f64, fell_back: bool) {
    assert!(
        resident <= MAX_RESIDENT_PER_POSITION,
        "{name}: the index holds {resident:.2} bytes per position at {t} threads"
    );
    let over_tables = (peak - bucket_table_bytes(t)) / positions;
    assert!(
        fell_back || over_tables <= MAX_BUILD_PEAK_PER_POSITION,
        "{name}: the build peaked at {over_tables:.2} bytes per position over its \
         bucket tables at {t} threads"
    );
}

fn bench_corpus(
    name: &str,
    set: &SequenceSet,
    mine: bool,
    kept: Option<&[SeqId]>,
    threads: &[usize],
    reps: usize,
) -> String {
    eprintln!("index_bench: {name}: {} reads, {} residues", set.len(), set.total_residues());

    // The oracle, whole and by stage.
    let (sais_total_s, oracle) = time_min(reps, || GeneralizedSuffixArray::build(set));
    let oracle_lcp: Vec<u32> = (0..oracle.text_len()).map(|r| oracle.lcp_at(r)).collect();
    let sais_stage_s = {
        let (text, k) = (oracle.encoded_text(), oracle.alphabet_size());
        let (sais_sa_s, sa) = time_min(reps, || suffix_array(&text, k));
        let (sais_lcp_s, lcp) = time_min(reps, || lcp_array(&text, &sa));
        assert!(sa == oracle.sa() && lcp == oracle_lcp, "{name}: the oracle is not SA-IS + Kasai");
        (sais_sa_s, sais_lcp_s)
    };
    let positions = oracle.text_len() as f64;

    // The bucket sort at each thread count, whole and by stage.
    let mut sort_rows = Vec::new();
    let mut cut_rows = Vec::new();
    for &t in threads {
        let (index_s, gsa) = time_min(reps, || GeneralizedSuffixArray::build_parallel(set, t));
        assert!(
            gsa.sa() == oracle.sa()
                && (0..gsa.text_len()).all(|r| gsa.lcp_at(r) == oracle_lcp[r])
                && (0..gsa.text_len()).all(|p| gsa.locate(p) == oracle.locate(p)),
            "{name}: build_parallel diverged from SA-IS at {t} threads"
        );
        drop(gsa);
        // One more build, weighed.
        let (resident, build_peak) =
            weigh(name, positions, || GeneralizedSuffixArray::build_parallel(set, t));
        let (st, fell_back) = best_stages(oracle.text(), t, 0, reps);
        let sort_s = st.count_s + st.scatter_s + st.sort_lcp_s;
        check_bytes(name, t, resident, build_peak, positions, fell_back);
        eprintln!(
            "index_bench: {name}: {t} thread(s): index {index_s:.3}s (SA-IS {sais_total_s:.3}s)"
        );
        sort_rows.push(format!(
            concat!(
                "      {{ \"threads\": {t}, \"index_s\": {index:.6}, ",
                "\"fell_back_to_sais\": {fb}, \"sa_lcp_s\": {sort:.6}, ",
                "\"keys_count_s\": {c:.6}, \"keys_scatter_s\": {s:.6}, ",
                "\"bucket_sort_lcp_s\": {b:.6}, ",
                "\"resident_bytes_per_position\": {res:.3}, ",
                "\"build_peak_bytes_per_position\": {peak:.3}, \"vs_sais\": {r:.3} }}"
            ),
            t = t,
            index = index_s,
            fb = fell_back,
            sort = sort_s,
            c = st.count_s,
            s = st.scatter_s,
            b = st.sort_lcp_s,
            res = resident,
            peak = build_peak / positions,
            r = sais_total_s / index_s,
        ));

        // The same sort cut at ψ = 10: weighed, and its tree mined.
        let (cut_s, cut) = time_min(reps, || GeneralizedSuffixArray::build_cut(set, t, PSI_CCD));
        let kept = cut.sa().len();
        for psi in [PSI_CCD, PSI_RR].into_iter().filter(|_| mine) {
            let mined =
                |gsa| parallel_pairs(&SuffixTree::build_pruned(gsa, psi), match_config(psi), t);
            assert!(
                same_stream(&mined(&cut), &mined(&oracle)),
                "{name}: the index cut at {PSI_CCD} mined differently at {psi}, {t} threads"
            );
        }
        drop(cut);
        let (resident, build_peak) =
            weigh(name, positions, || GeneralizedSuffixArray::build_cut(set, t, PSI_CCD));
        let (st, fell_back) = best_stages(oracle.text(), t, PSI_CCD, reps);
        check_bytes(name, t, resident, build_peak, positions, fell_back);
        eprintln!(
            "index_bench: {name}: {t} thread(s): cut at {PSI_CCD}: {kept} suffixes kept, \
             index {cut_s:.3}s"
        );
        cut_rows.push(format!(
            concat!(
                "      {{ \"threads\": {t}, \"suffixes_kept\": {kept}, ",
                "\"kept_share\": {share:.5}, \"index_s\": {index:.6}, ",
                "\"fell_back_to_sais\": {fb}, \"keys_count_s\": {c:.6}, ",
                "\"keys_scatter_s\": {s:.6}, \"group_sort_lcp_s\": {b:.6}, ",
                "\"resident_bytes_per_position\": {res:.3}, ",
                "\"build_peak_bytes_per_position\": {peak:.3}, \"vs_full\": {r:.3} }}"
            ),
            t = t,
            kept = kept,
            share = kept as f64 / positions,
            index = cut_s,
            fb = fell_back,
            c = st.count_s,
            s = st.scatter_s,
            b = st.sort_lcp_s,
            res = resident,
            peak = build_peak / positions,
            r = index_s / cut_s,
        ));
    }

    // The tree at each cut, and mining over it.
    let full = SuffixTree::build(&oracle);
    let mut tree_rows = Vec::new();
    let mut mine_rows = Vec::new();
    for psi in [0, PSI_CCD, PSI_RR].into_iter().filter(|_| mine) {
        let (tree_s, tree) = time_min(reps, || SuffixTree::build_pruned(&oracle, psi));
        tree_rows.push(format!(
            "      {{ \"psi\": {psi}, \"nodes\": {}, \"tree_s\": {tree_s:.6} }}",
            tree.n_nodes()
        ));
        if psi == 0 {
            continue;
        }
        let (serial_s, (pairs, _)) = time_min(reps, || parallel_pairs(&tree, match_config(psi), 1));
        assert!(
            pairs == parallel_pairs(&full, match_config(psi), 1).0,
            "{name}: pruned tree mined differently"
        );
        let par: Vec<String> = threads
            .iter()
            .map(|&t| {
                let (s, (p, _)) = time_min(reps, || parallel_pairs(&tree, match_config(psi), t));
                assert!(p == pairs, "{name}: parallel mining diverged at {t} threads");
                format!("\"mine_{t}t_s\": {s:.6}")
            })
            .collect();
        mine_rows.push(format!(
            "      {{ \"psi\": {psi}, \"pairs\": {}, \"mine_serial_s\": {serial_s:.6}, {} }}",
            pairs.len(),
            par.join(", ")
        ));
    }

    let front_half = kept.map_or(String::new(), |kept| {
        let rows: Vec<String> =
            threads.iter().map(|&t| front_half_row(set, kept, t, reps)).collect();
        format!(
            ",\n    \"front_half_reads_kept\": {},\n    \"front_half\": [\n{}\n    ]",
            kept.len(),
            rows.join(",\n")
        )
    });

    format!(
        concat!(
            "  \"{name}\": {{\n",
            "    \"n_seqs\": {n_seqs},\n",
            "    \"total_residues\": {residues},\n",
            "    \"sais\": {{ \"index_s\": {total:.6}, \"sa_s\": {sa:.6}, \"kasai_lcp_s\": {lcp:.6} }},\n",
            "    \"bucket_sort\": [\n{sort}\n    ],\n",
            "    \"psi_10\": [\n{cut}\n    ],\n",
            "    \"tree\": [\n{tree}\n    ],\n",
            "    \"mining\": [\n{mine}\n    ]{front_half}\n",
            "  }}"
        ),
        name = name,
        n_seqs = set.len(),
        residues = set.total_residues(),
        total = sais_total_s,
        sa = sais_stage_s.0,
        lcp = sais_stage_s.1,
        sort = sort_rows.join(",\n"),
        cut = cut_rows.join(",\n"),
        tree = tree_rows.join(",\n"),
        mine = mine_rows.join(",\n"),
        front_half = front_half,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.02, 1.0);
    let max_threads = args.positional(1).map_or(8usize, |t| (t as usize).max(1));
    let reps = args.reps();
    let sweep = thread_sweep(max_threads, args.smoke);

    let (sparse, sparse_kept) = sparse_corpus(scale);
    let corpora = [
        ("sparse", sparse, true, Some(sparse_kept.as_slice())),
        ("short_reads", short_read_corpus(scale), true, None),
        ("repeats", repeat_corpus(), false, None),
    ];
    let blocks: Vec<String> = corpora
        .iter()
        .map(|(name, set, mine, kept)| bench_corpus(name, set, *mine, *kept, &sweep.counts, reps))
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"index\",\n",
            "  \"commit\": \"{commit}\",\n",
            "  {cores_field},\n",
            "  \"core_caveat\": \"{caveat}\",\n",
            "  \"reps\": {reps},\n",
            "  \"outputs_identical\": true,\n",
            "{blocks}\n",
            "}}\n"
        ),
        commit = commit_stamp(),
        cores_field = cores_field(sweep.cores),
        caveat = sweep.caveat(),
        reps = reps,
        blocks = blocks.join(",\n"),
    );
    emit("index", &json, args.smoke);
}
