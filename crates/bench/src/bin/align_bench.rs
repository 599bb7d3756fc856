//! Alignment-engine benchmark: the reference three-matrix fill against the
//! engine's one-pass fill — scalar twin and AVX2 — on the RR (containment)
//! and CCD (overlap) candidate streams of a paper-like workload, at 1 and 2
//! threads, emitting a machine-readable `BENCH_align.json` — the alignment
//! twin of `BENCH_index.json`.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin align_bench [scale]
//! cargo run --release -p pfam-bench --bin align_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that every engine returns identical verdicts on every candidate.

use pfam_align::{AlignEngine, AlignEngineKind, AlignScratch, Anchor, PairQuery};
use pfam_bench::{
    claim_f64, cores_field, dataset_160k_like, emit, thread_sweep, time_min, BenchArgs,
};
use pfam_cluster::ClusterConfig;
use pfam_seq::{SeqId, SequenceSet};
use pfam_suffix::{
    maximal::all_pairs, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, SuffixTree,
};

/// One alignment task: `(x, y, anchor, containment?)`.
type Task = (SeqId, SeqId, Anchor, bool);

/// Orient an RR candidate exactly as `cluster::rr` does: the containment
/// candidate (shorter, ties to the higher id) goes first.
fn orient(set: &SequenceSet, p: &MatchPair) -> (SeqId, SeqId, Anchor) {
    let (la, lb) = (set.seq_len(p.a), set.seq_len(p.b));
    if la < lb || (la == lb && p.a.0 > p.b.0) {
        (p.a, p.b, Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len })
    } else {
        (p.b, p.a, Anchor { x_pos: p.b_pos, y_pos: p.a_pos, len: p.len })
    }
}

/// What one pass over the task list returns: verdicts in task order,
/// outcome counts by `EngineVerdict::tier`, cells computed and skipped.
type Outcome = (Vec<bool>, [u64; 4], u64, u64);

/// Run every task through `engine` on `threads` workers (task `k` goes to
/// worker `k mod threads`, each with its own scratch arena).
fn run_tasks(engine: &AlignEngine, set: &SequenceSet, tasks: &[Task], threads: usize) -> Outcome {
    let worker = |t: usize| {
        let mut scratch = AlignScratch::new();
        let mut verdicts = Vec::with_capacity(tasks.len() / threads + 1);
        for &(a, b, _, containment) in tasks.iter().skip(t).step_by(threads) {
            let (x, y) = (set.codes(a), set.codes(b));
            let ask = if containment { PairQuery::X_IN_Y } else { PairQuery::OVERLAP };
            verdicts.push(engine.judge_with(x, y, ask, &mut scratch));
        }
        verdicts
    };
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || worker(t))).collect();
        handles.into_iter().map(|h| h.join().expect("align worker panicked")).collect()
    });
    let mut out: Outcome = (Vec::with_capacity(tasks.len()), [0; 4], 0, 0);
    for k in 0..tasks.len() {
        let v = per_worker[k % threads][k / threads];
        out.0.push(v.x_in_y || v.overlap);
        out.1[v.tier as usize] += 1;
        out.2 += v.cells_computed;
        out.3 += v.cells_skipped;
    }
    out
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.02, 0.25);
    let reps = args.reps();

    let data = dataset_160k_like(scale, 0xa11);
    let set = &data.set;
    let config = ClusterConfig::default();
    eprintln!(
        "align_bench: {} ({} reads, {} residues), {} rep(s)",
        data.label,
        set.len(),
        set.total_residues(),
        reps
    );

    // Candidate streams straight from the suffix index, anchors included —
    // the exact population RR and CCD verify.
    let gsa = GeneralizedSuffixArray::build(set);
    let tree = SuffixTree::build(&gsa);
    let mut tasks: Vec<Task> = Vec::new();
    for (psi, containment) in [(config.psi_rr, true), (config.psi_ccd, false)] {
        let pairs = all_pairs(
            &tree,
            MaximalMatchConfig {
                min_len: psi,
                max_pairs_per_node: config.max_pairs_per_node,
                dedup: true,
            },
        );
        for p in &pairs {
            let (a, b, anchor) = if containment {
                orient(set, p)
            } else {
                (p.a, p.b, Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len })
            };
            tasks.push((a, b, anchor, containment));
        }
    }
    let n_rr = tasks.iter().filter(|t| t.3).count();
    let total_cells: u64 =
        tasks.iter().map(|&(a, b, _, _)| set.seq_len(a) as u64 * set.seq_len(b) as u64).sum();
    eprintln!(
        "align_bench: {} tasks ({} containment, {} overlap), {} full-matrix cells",
        tasks.len(),
        n_rr,
        tasks.len() - n_rr,
        total_cells
    );

    let engine =
        |kind| AlignEngine::new(kind, config.scheme.clone(), config.containment, config.overlap);
    let tiered = engine(AlignEngineKind::Tiered);
    // The same task list through the reference 3-matrix fill, the scalar
    // one-pass fill and (where detected) the AVX2 one-pass fill.
    let mut engines = vec![
        ("reference_3matrix", engine(AlignEngineKind::Reference)),
        ("onepass_scalar", engine(AlignEngineKind::Tiered).with_scalar_fill()),
    ];
    if tiered.kernel_label() != "scalar" {
        engines.push(("onepass_avx2", engine(AlignEngineKind::Tiered)));
    }

    let sweep = thread_sweep(2, args.smoke);
    let gcells = |seconds: f64| total_cells as f64 / 1e9 / seconds;
    let mut identical = true;
    let mut runs = Vec::new();
    let mut seconds = Vec::new(); // [engine][thread count]
    let (mut tiers, mut computed, mut skipped) = ([0u64; 4], 0, 0);
    let mut expected: Option<Vec<bool>> = None;
    for (label, engine) in &engines {
        let mut per_threads = Vec::new();
        for &threads in &sweep.counts {
            let (secs, outcome) = time_min(reps, || run_tasks(engine, set, &tasks, threads));
            // Bit-identity of verdicts — the whole point of the design.
            identical &= *expected.get_or_insert_with(|| outcome.0.clone()) == outcome.0;
            // Reported for the last engine, the one that ships.
            (tiers, computed, skipped) = (outcome.1, outcome.2, outcome.3);
            runs.push(format!(
                "    {{ \"engine\": \"{label}\", \"threads\": {threads}, \"seconds\": {secs:.6}, \"gcells_per_s\": {:.4} }}",
                gcells(secs)
            ));
            per_threads.push(secs);
        }
        seconds.push(per_threads);
    }
    assert!(identical, "engine verdicts diverged from reference — this is a bug");

    let n = tasks.len() as f64;
    let last = seconds.len() - 1;
    // 1 → 2 threads of the shipped engine; refused on a 1-core host.
    let thread_speedup = seconds[last][0] / seconds[last][sweep.counts.len() - 1];
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"align\",\n",
            "  \"dataset\": \"{label}\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  \"n_tasks\": {n_tasks},\n",
            "  \"n_containment\": {n_rr},\n",
            "  \"n_overlap\": {n_ccd},\n",
            "  \"reps\": {reps},\n",
            "  {cores_field},\n",
            "  \"kernel\": \"{kernel}\",\n",
            "  \"total_cells\": {cells},\n",
            "  \"outputs_identical\": {identical},\n",
            "  \"tiered\": {{ \"cells_computed\": {tcc}, \"cells_skipped\": {tsk} }},\n",
            "  \"tier_hit_rates\": {{ \"screen\": {t0:.4}, \"score_reject\": {t1:.4}, \"traced\": {t3:.4} }},\n",
            "  \"runs\": [\n{runs}\n  ],\n",
            "  \"onepass_vs_reference_1t\": {vs_ref:.3},\n",
            "  \"onepass_vs_scalar_1t\": {vs_scalar:.3},\n",
            "  {speedup}\n",
            "}}\n"
        ),
        label = data.label,
        n_seqs = set.len(),
        n_tasks = tasks.len(),
        n_rr = n_rr,
        n_ccd = tasks.len() - n_rr,
        reps = reps,
        cores_field = cores_field(sweep.cores),
        kernel = tiered.kernel_label(),
        cells = total_cells,
        identical = identical,
        tcc = computed,
        tsk = skipped,
        t0 = tiers[0] as f64 / n,
        t1 = tiers[1] as f64 / n,
        t3 = tiers[3] as f64 / n,
        runs = runs.join(",\n"),
        // Same thread count, same host: kernel ratios, not scaling claims.
        vs_ref = seconds[0][0] / seconds[last][0],
        vs_scalar = seconds[1][0] / seconds[last][0],
        speedup = claim_f64(sweep.cores, "speedup_1_to_2_threads", thread_speedup),
    );

    eprintln!(
        "align_bench: {:.2} Gcells/s on one thread ({:.2}x the reference fill), kernel {}",
        gcells(seconds[last][0]),
        seconds[0][0] / seconds[last][0],
        tiered.kernel_label()
    );
    emit("align", &json, args.smoke);
}
