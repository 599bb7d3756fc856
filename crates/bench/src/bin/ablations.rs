//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. the maximal-match filter (vs all-versus-all alignment),
//! 2. longest-match-first pair ordering (vs shuffled order),
//! 3. the shingle (s, c) parameters' effect on quality,
//! 4. the τ post-filter for the `Bd` reduction,
//! 5. low-complexity masking,
//! 6. master batch size vs filter sharpness.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin ablations [scale]
//! ```

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pfam_bench::dataset_160k_like;
use pfam_cluster::{run_all_pairs_baseline, run_ccd, run_ccd_from_pairs, ClusterConfig};
use pfam_core::{evaluate, PipelineConfig, Reduction};
use pfam_seq::complexity::MaskParams;
use pfam_shingle::ShingleParams;
use pfam_suffix::{parallel_pairs, GeneralizedSuffixArray, MaximalMatchConfig, SuffixTree};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let data = dataset_160k_like(scale, 0xAB1A);
    println!("ablations on {} ({} reads)\n", data.label, data.set.len());
    let config = ClusterConfig::default();

    // ---------- 1. maximal-match filter on/off ----------
    println!("== 1. maximal-match filtering vs all-versus-all ==");
    let ours = run_ccd(&data.set, &config);
    let base = run_all_pairs_baseline(&data.set, &config);
    println!(
        "alignments: filtered {} vs exhaustive {} ({:.1}% saved)",
        ours.trace.total_aligned(),
        base.n_alignments,
        (1.0 - ours.trace.total_aligned() as f64 / base.n_alignments.max(1) as f64) * 100.0
    );

    // ---------- 2. pair ordering ----------
    println!("\n== 2. longest-match-first vs shuffled pair order ==");
    let gsa = GeneralizedSuffixArray::build(&data.set);
    let tree = SuffixTree::build(&gsa);
    let matches = MaximalMatchConfig {
        min_len: config.psi_ccd,
        max_pairs_per_node: config.max_pairs_per_node,
        dedup: true,
    };
    let (pairs, _) = parallel_pairs(&tree, matches, 1);
    let ordered = run_ccd_from_pairs(&data.set, pairs.clone(), &config);
    let mut shuffled_pairs = pairs;
    shuffled_pairs.shuffle(&mut StdRng::seed_from_u64(0x0D3));
    let shuffled = run_ccd_from_pairs(&data.set, shuffled_pairs, &config);
    println!(
        "aligned: ordered {} vs shuffled {} (components identical: {})",
        ordered.trace.total_aligned(),
        shuffled.trace.total_aligned(),
        ordered.components == shuffled.components
    );

    // ---------- 3. shingle (s, c) quality sweep ----------
    println!("\n== 3. shingle (s, c) sweep: quality of detected families ==");
    println!("s\tc\t#DS\tPR%\tSE%");
    for (s1, c1) in [(2usize, 50usize), (5, 100), (5, 300), (8, 300), (5, 800)] {
        let pc = PipelineConfig {
            shingle: ShingleParams { s1, c1, s2: 2, c2: 40, seed: 0xab },
            ..PipelineConfig::default()
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
        let pc = PipelineConfig {
            reduction: Reduction::GlobalSimilarity { tau },
            ..PipelineConfig::default()
        };
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
    let masked_config = ClusterConfig { mask: Some(MaskParams::default()), ..config.clone() };
    let masked = run_ccd(&data.set, &masked_config);
    println!(
        "pairs generated: unmasked {} vs masked {} (components identical: {})",
        ours.trace.total_generated(),
        masked.trace.total_generated(),
        ours.components == masked.components
    );

    // ---------- 6. batch size vs filter sharpness ----------
    println!("\n== 6. master batch size vs transitive-closure filter ==");
    println!("batch\tfilter%\taligned");
    for batch in [16usize, 128, 1024, 8192] {
        let r = run_ccd(&data.set, &ClusterConfig { batch_size: batch, ..config.clone() });
        println!("{batch}\t{:.2}\t{}", r.trace.filter_ratio() * 100.0, r.trace.total_aligned());
    }

    // ---------- 7. Shingle vs greedy densest-subgraph peeling ----------
    println!("\n== 7. Shingle detection vs Charikar peeling (per component) ==");
    let r = PipelineConfig::default().run(&data.set);
    let shingle_count = r.dense_subgraphs.len();
    let shingle_covered = r.sequences_in_subgraphs();
    let mut peel_count = 0usize;
    let mut peel_covered = 0usize;
    let mut peel_pure = true;
    for cg in &r.component_graphs {
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
    println!("shingle\t{shingle_count}\t{shingle_covered}\ttrue (tested)");
    println!("peeling\t{peel_count}\t{peel_covered}\t{peel_pure}");
    println!(
        "(peeling is the classical 1/2-approx baseline; the Shingle algorithm\n\
         was chosen by the paper because it streams and parallelises)"
    );
}
