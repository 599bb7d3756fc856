//! Ablation studies for the design choices DESIGN.md §5 calls out. Each
//! row is one `PipelineConfig::run` — the default configuration with one
//! existing field changed — read through its traces and `fills:` counts:
//!
//! 1. the maximal-match filter: the whole run's RR + CCD + BGG fills vs
//!    all-versus-all alignment (counted, not run: every pair once),
//! 3. the shingle (s1, c1) parameters' effect on quality,
//! 4. the τ post-filter for the `Bd` reduction,
//! 5. low-complexity masking (`cluster.mask`),
//! 6. master batch size vs filter sharpness (`cluster.batch_size`),
//! 7. Shingle vs greedy peeling on the run's own component graphs.
//!
//! (Ablation 2, pair order, is retired: inside the pipeline the order only
//! moves fills between CCD and BGG — EXPERIMENTS.md, "Ablations".)
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin ablations [scale]
//! ```

use pfam_bench::dataset_160k_like;
use pfam_cluster::ClusterConfig;
use pfam_core::{evaluate, FillReport, PipelineConfig, PipelineResult, Reduction};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{SeqId, SequenceSet};
use pfam_shingle::ShingleParams;

/// `rr / ccd / bgg = total` fills of one run.
fn fills(r: &PipelineResult) -> String {
    let f = FillReport::from_result(r);
    let [rr, ccd, bgg] = f.phases.map(|p| p.0);
    format!("{rr} / {ccd} / {bgg} = {}", f.total_fills())
}

/// The work of the all-versus-all baseline (`run_all_pairs_baseline`) on
/// `set`, which aligns every pair once: n(n−1)/2 alignments and
/// Σ_{a<b} |a|·|b| = ((Σ|a|)² − Σ|a|²) / 2 DP cells.
fn all_pairs_work(set: &SequenceSet) -> (u64, u64) {
    let lens = (0..set.len() as u32).map(|i| set.codes(SeqId(i)).len() as u64);
    let (sum, sum_sq) = lens.fold((0, 0), |(s, q), l| (s + l, q + l * l));
    let n = set.len() as u64;
    (n * n.saturating_sub(1) / 2, (sum * sum - sum_sq) / 2)
}

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let data = dataset_160k_like(scale, 0xAB1A);
    println!("ablations on {} ({} reads)\n", data.label, data.set.len());
    let defaults = PipelineConfig::default();
    let with_cluster = |cluster: ClusterConfig| PipelineConfig { cluster, ..defaults.clone() };
    let base = defaults.run(&data.set);

    // ---------- 1. maximal-match filter on/off ----------
    println!("== 1. the whole run vs all-versus-all alignment ==");
    let (exhaustive_alignments, exhaustive_cells) = all_pairs_work(&data.set);
    let report = FillReport::from_result(&base);
    let cells: u64 = report.phases.iter().map(|p| p.1).sum();
    let saved = |ours: f64, theirs: f64| (1.0 - ours / theirs.max(1.0)) * 100.0;
    println!("fills rr / ccd / bgg = total: {}", fills(&base));
    println!(
        "alignments: run {} vs exhaustive {} ({:.1}% saved)",
        report.total_fills(),
        exhaustive_alignments,
        saved(report.total_fills() as f64, exhaustive_alignments as f64)
    );
    println!(
        "DP cells: run {cells} vs exhaustive {} ({:.1}% saved)",
        exhaustive_cells,
        saved(cells as f64, exhaustive_cells as f64)
    );

    // ---------- 3. shingle (s, c) quality sweep ----------
    println!("\n== 3. shingle (s1, c1) sweep: quality of detected families ==");
    println!("s1\tc1\t#DS\tPR%\tSE%");
    for (s1, c1) in [(2usize, 50usize), (5, 100), (5, 300), (8, 300), (5, 800)] {
        let pc = PipelineConfig {
            shingle: ShingleParams { s1, c1, ..defaults.shingle },
            ..defaults.clone()
        };
        let r = pc.run(&data.set);
        let q = evaluate(&r, &data.benchmark);
        println!(
            "{s1}\t{c1}\t{}\t{:.2}\t{:.2}",
            r.dense_subgraphs.len(),
            q.measures.precision * 100.0,
            q.measures.sensitivity * 100.0
        );
    }

    // ---------- 4. τ post-filter ----------
    println!("\n== 4. τ post-filter for Bd ==");
    println!("tau\t#DS\t#covered\tPR%");
    for tau in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let pc =
            PipelineConfig { reduction: Reduction::GlobalSimilarity { tau }, ..defaults.clone() };
        let r = pc.run(&data.set);
        let q = evaluate(&r, &data.benchmark);
        println!(
            "{tau}\t{}\t{}\t{:.2}",
            r.dense_subgraphs.len(),
            r.sequences_in_subgraphs(),
            q.measures.precision * 100.0
        );
    }

    // ---------- 5. masking ----------
    println!("\n== 5. low-complexity masking ==");
    let masked = with_cluster(ClusterConfig {
        mask: Some(MaskParams::default()),
        ..defaults.cluster.clone()
    })
    .run(&data.set);
    let generated =
        |r: &PipelineResult| r.traces.0.total_generated() + r.traces.1.total_generated();
    println!("mask\tRR+CCD generated\t#DS\tPR%\tSE%\tfills rr / ccd / bgg = total");
    for (label, r) in [("off", &base), ("on", &masked)] {
        let q = evaluate(r, &data.benchmark);
        println!(
            "{label}\t{}\t{}\t{:.2}\t{:.2}\t{}",
            generated(r),
            r.dense_subgraphs.len(),
            q.measures.precision * 100.0,
            q.measures.sensitivity * 100.0,
            fills(r)
        );
    }
    println!("components identical: {}", base.components == masked.components);

    // ---------- 6. batch size vs filter sharpness ----------
    println!("\n== 6. master batch size vs transitive-closure filter ==");
    println!("batch\tCCD filter%\tfills rr / ccd / bgg = total");
    for batch in [16usize, 128, 1024, 8192] {
        let r = with_cluster(ClusterConfig { batch_size: batch, ..defaults.cluster.clone() })
            .run(&data.set);
        println!("{batch}\t{:.2}\t{}", r.traces.1.filter_ratio() * 100.0, fills(&r));
    }

    // ---------- 7. Shingle vs greedy densest-subgraph peeling ----------
    println!("\n== 7. Shingle detection vs Charikar peeling (per component) ==");
    let mut peel_count = 0usize;
    let mut peel_covered = 0usize;
    let mut peel_pure = true;
    for cg in &base.component_graphs {
        for part in pfam_graph::greedy_dense_decomposition(&cg.graph, 5, 2.0) {
            peel_count += 1;
            peel_covered += part.len();
            let fams: std::collections::HashSet<Option<u32>> = part
                .iter()
                .map(|&l| {
                    let id = cg.original_id(l);
                    data.benchmark.iter().position(|c| c.contains(&id)).map(|f| f as u32)
                })
                .collect();
            peel_pure &= fams.len() <= 1;
        }
    }
    println!("method\t#DS\t#covered\tfamily-pure");
    println!(
        "shingle\t{}\t{}\ttrue (tested)",
        base.dense_subgraphs.len(),
        base.sequences_in_subgraphs()
    );
    println!("peeling\t{peel_count}\t{peel_covered}\t{peel_pure}");
    println!(
        "(peeling is the classical 1/2-approx baseline; the Shingle algorithm\n\
         was chosen by the paper because it streams and parallelises)"
    );
}
