//! Alignment-engine benchmark: the reference three-matrix fill against the
//! engine's one-pass fills — the scalar twin pair by pair, the batch kernel
//! at each width the host runs (sixteen pairs a fill on AVX2, thirty-two on
//! AVX-512BW) — on the RR (containment) and CCD (overlap) candidate
//! streams of a paper-like workload, at 1 and 2 threads, emitting a
//! machine-readable `BENCH_align.json` — the alignment twin of
//! `BENCH_index.json`. The inter-pair rows see the task list the way
//! `Verifier` hands it over: lists of at most `batch_size` candidates, each
//! sorted by shape and cut into groups of the width's lanes.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin align_bench [scale]
//! cargo run --release -p pfam-bench --bin align_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that every engine returns identical verdicts on every candidate.

use pfam_align::{AlignEngine, AlignEngineKind, AlignScratch, Anchor, PairQuery, PairVerdict};
use pfam_bench::{
    claim_f64, cores_field, dataset_160k_like, emit, thread_sweep, time_min, BenchArgs,
};
use pfam_cluster::ClusterConfig;
use pfam_seq::{SeqId, SequenceSet};
use pfam_suffix::{
    parallel_pairs, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, SuffixTree,
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

/// What one pass over the task list returns: the engine's answer to every
/// task, in task order.
type Outcome = Vec<PairVerdict>;

/// The task list as `Verifier` batches it: per list of `batch_size` tasks,
/// the task indices sorted by `(n, m)` and cut into groups of a register's
/// `lanes`.
fn shape_sorted_groups(
    set: &SequenceSet,
    tasks: &[Task],
    batch_size: usize,
    lanes: usize,
) -> Vec<Vec<Vec<usize>>> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    let lists = order.chunks_mut(batch_size).map(|list| {
        list.sort_unstable_by_key(|&k| (set.seq_len(tasks[k].1), set.seq_len(tasks[k].0), k));
        list.chunks(lanes).map(<[usize]>::to_vec).collect()
    });
    lists.collect()
}

/// Real cells over the cells the batch fills of `lanes` lay out: every
/// group pads its lanes to its own `m_max × n_max`, and a short group
/// leaves lanes empty.
fn lane_occupancy(
    set: &SequenceSet,
    tasks: &[Task],
    lists: &[Vec<Vec<usize>>],
    lanes: usize,
) -> f64 {
    let (mut real, mut padded) = (0u64, 0u64);
    for group in lists.iter().flatten() {
        let shape = |&k: &usize| (set.seq_len(tasks[k].0) as u64, set.seq_len(tasks[k].1) as u64);
        real += group.iter().map(shape).map(|(m, n)| m * n).sum::<u64>();
        let m_max = group.iter().map(|k| shape(k).0).max().unwrap_or(0);
        let n_max = group.iter().map(|k| shape(k).1).max().unwrap_or(0);
        padded += lanes as u64 * m_max * n_max;
    }
    real as f64 / padded as f64
}

/// Run every task through `engine` on `threads` workers, each with its own
/// scratch arena: pair by pair through `judge_with` (task `k` to worker
/// `k mod threads`), or — given `lists` — group by group through
/// `judge_batch` (list `k` to worker `k mod threads`). The verdicts come
/// back in task order.
fn run_tasks(
    engine: &AlignEngine,
    set: &SequenceSet,
    tasks: &[Task],
    lists: Option<&[Vec<Vec<usize>>]>,
    threads: usize,
) -> Outcome {
    let ask = |containment| if containment { PairQuery::X_IN_Y } else { PairQuery::OVERLAP };
    let worker = |t: usize| -> Vec<(usize, PairVerdict)> {
        let mut scratch = AlignScratch::new();
        let mut verdicts = Vec::with_capacity(tasks.len() / threads + 1);
        let Some(lists) = lists else {
            for (k, &(a, b, _, containment)) in tasks.iter().enumerate().skip(t).step_by(threads) {
                let (x, y) = (set.codes(a), set.codes(b));
                verdicts.push((k, engine.judge_with(x, y, ask(containment), &mut scratch)));
            }
            return verdicts;
        };
        let mut answers = Vec::with_capacity(engine.batch_lanes());
        for group in lists.iter().skip(t).step_by(threads).flatten() {
            let asked: Vec<_> = group
                .iter()
                .map(|&k| (set.codes(tasks[k].0), set.codes(tasks[k].1), ask(tasks[k].3)))
                .collect();
            answers.clear();
            engine.judge_batch(&asked, &mut answers);
            verdicts.extend(group.iter().copied().zip(answers.iter().copied()));
        }
        verdicts
    };
    let mut per_task: Vec<Option<PairVerdict>> = vec![None; tasks.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || worker(t))).collect();
        for (k, v) in handles.into_iter().flat_map(|h| h.join().expect("align worker panicked")) {
            per_task[k] = Some(v);
        }
    });
    per_task.into_iter().map(|v| v.expect("every task was judged")).collect()
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
        let matches = MaximalMatchConfig {
            min_len: psi,
            max_pairs_per_node: config.max_pairs_per_node,
            dedup: true,
        };
        let (pairs, _) = parallel_pairs(&tree, matches, 1);
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
    // one-pass fill and the batch kernel at each width the host runs, across
    // the pairs of a group of its lanes.
    let groups = |lanes| shape_sorted_groups(set, &tasks, config.batch_size, lanes);
    let (narrow, wide) = (groups(16), groups(32));
    let mut engines = vec![
        ("reference_3matrix", engine(AlignEngineKind::Reference), None),
        ("onepass_scalar", engine(AlignEngineKind::Tiered).with_lanes(0), None),
    ];
    if tiered.kernel_label() != "scalar" {
        let avx2 = engine(AlignEngineKind::Tiered).with_lanes(16);
        engines.push(("interpair_avx2", avx2, Some(&narrow[..])));
    }
    if tiered.kernel_label() == "avx512" {
        engines.push(("interpair_avx512", engine(AlignEngineKind::Tiered), Some(&wide[..])));
    }
    // The interpair row that ships, if any: the widest.
    let shipped_label = engines.last().map(|e| e.0).filter(|l| l.starts_with("interpair"));

    let sweep = thread_sweep(2, args.smoke);
    let gcells = |seconds: f64| total_cells as f64 / 1e9 / seconds;
    let mut identical = true;
    let mut runs = Vec::new();
    let mut seconds = Vec::new(); // [engine][thread count]
    let mut shipped = Outcome::new();
    // Accept / reject is one answer over every engine; tier and cell
    // counters are one answer over the one-pass fills.
    let accepts = |o: &Outcome| o.iter().map(|v| v.x_in_y || v.overlap).collect::<Vec<_>>();
    let (mut expected, mut expected_onepass): (Option<Vec<bool>>, Option<Outcome>) = (None, None);
    for (label, engine, lists) in &engines {
        let mut per_threads = Vec::new();
        for &threads in &sweep.counts {
            let (secs, outcome) =
                time_min(reps, || run_tasks(engine, set, &tasks, *lists, threads));
            // Bit-identity of verdicts — the whole point of the design.
            identical &= *expected.get_or_insert_with(|| accepts(&outcome)) == accepts(&outcome);
            if engine.kind() == AlignEngineKind::Tiered {
                identical &= *expected_onepass.get_or_insert_with(|| outcome.clone()) == outcome;
            }
            runs.push(format!(
                "    {{ \"engine\": \"{label}\", \"threads\": {threads}, \"seconds\": {secs:.6}, \"gcells_per_s\": {:.4} }}",
                gcells(secs)
            ));
            per_threads.push(secs);
            shipped = outcome;
        }
        seconds.push(per_threads);
    }
    assert!(identical, "engine verdicts diverged from reference — this is a bug");
    // Reported for the last engine, the one that ships.
    let mut tiers = [0u64; 4];
    shipped.iter().for_each(|v| tiers[v.tier as usize] += 1);
    let computed: u64 = shipped.iter().map(|v| v.cells_computed).sum();
    let skipped: u64 = shipped.iter().map(|v| v.cells_skipped).sum();

    let n = tasks.len() as f64;
    let (last, two) = (seconds.len() - 1, sweep.counts.len() - 1);
    // 1 → 2 threads of the shipped engine; refused on a 1-core host.
    let thread_speedup = seconds[last][0] / seconds[last][two];
    // Same thread count, same host: kernel ratios, not scaling claims.
    // `null` where the host has no vector kernel to quote.
    let row = |label: &str| engines.iter().position(|(l, ..)| *l == label);
    let ratio = |base: &str, new: &str, t: usize| match (row(base), row(new)) {
        (Some(b), Some(n)) => format!("{:.3}", seconds[b][t] / seconds[n][t]),
        _ => "null".to_string(),
    };
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
            "  \"batch_size\": {batch_size},\n",
            "  \"lane_occupancy\": {occupancy:.4},\n",
            "  \"lane_occupancy_wide\": {occupancy_wide:.4},\n",
            "  \"runs\": [\n{runs}\n  ],\n",
            "  \"interpair_vs_reference_1t\": {vs_ref},\n",
            "  \"interpair_vs_scalar_1t\": {vs_scalar_1t},\n",
            "  \"interpair_vs_scalar_{two_t}t\": {vs_scalar_2t},\n",
            "  \"wide_vs_narrow_1t\": {wide_1t},\n",
            "  \"wide_vs_narrow_{two_t}t\": {wide_2t},\n",
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
        batch_size = config.batch_size,
        occupancy = lane_occupancy(set, &tasks, &narrow, 16),
        occupancy_wide = lane_occupancy(set, &tasks, &wide, 32),
        runs = runs.join(",\n"),
        vs_ref = ratio("reference_3matrix", shipped_label.unwrap_or(""), 0),
        vs_scalar_1t = ratio("onepass_scalar", shipped_label.unwrap_or(""), 0),
        vs_scalar_2t = ratio("onepass_scalar", shipped_label.unwrap_or(""), two),
        wide_1t = ratio("interpair_avx2", "interpair_avx512", 0),
        wide_2t = ratio("interpair_avx2", "interpair_avx512", two),
        two_t = sweep.counts[two],
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
