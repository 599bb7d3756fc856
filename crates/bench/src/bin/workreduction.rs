//! Section V work-reduction measurement — the paper reports that on the
//! 40K input, 168 M promising pairs were generated, only 7 M were
//! selected for alignment, and an all-versus-all approach would have
//! needed ≈ 800 M alignments (a ~99 % reduction). The counts are the CCD
//! trace of the pipeline's own run: a pair RR already filled is answered
//! by its pair ledger, not filled again.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin workreduction [scale]
//! ```

use pfam_bench::dataset_160k_like;
use pfam_cluster::run_all_pairs_baseline;
use pfam_core::PipelineConfig;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    // The paper's 40K input is a quarter of its 160K set.
    let data = dataset_160k_like(scale * 0.25, 0x40);
    println!("work-reduction study on {} ({} reads)", data.label, data.set.len());

    let config = PipelineConfig::default();
    let result = config.run(&data.set);
    let ccd = &result.traces.1;

    let n = result.non_redundant.len() as u64;
    let all_vs_all = n * (n - 1) / 2;
    let generated = ccd.total_generated() as u64;
    let aligned = ccd.total_aligned() as u64;
    let hits = ccd.total_ledger_hits() as u64;

    println!("\n== CCD work accounting ==");
    println!("non-redundant sequences : {n}");
    println!("all-versus-all pairs    : {all_vs_all}");
    println!("promising pairs         : {generated}");
    println!("alignments performed    : {aligned}");
    println!("answered by RR's ledger : {hits}");
    let saved = |done: u64| (1.0 - done as f64 / all_vs_all.max(1) as f64) * 100.0;
    println!(
        "reduction vs all-pairs  : {:.2}% ({:.2}% counting the ledger's answers as alignments)",
        saved(aligned),
        saved(aligned + hits)
    );
    println!(
        "filter ratio within CCD : {:.2}% of generated pairs skipped",
        ccd.filter_ratio() * 100.0
    );

    // Cross-check against an actually-executed baseline (affordable at
    // bench scales; the paper could only estimate the 800M figure).
    let (nr, _) = data.set.subset(&result.non_redundant);
    let base = run_all_pairs_baseline(&nr, &config.cluster);
    // The baseline numbers the non-redundant reads 0..n; the pipeline's
    // components carry input ids.
    let base_components: Vec<Vec<_>> = base
        .components
        .iter()
        .map(|c| c.iter().map(|id| result.non_redundant[id.index()]).collect())
        .collect();
    println!("\n== executed baseline ==");
    println!("baseline alignments     : {}", base.n_alignments);
    println!("baseline DP cells       : {}", base.align_cells);
    println!("pipeline DP cells       : {}", ccd.total_cells());
    println!(
        "cell-level reduction    : {:.2}%",
        (1.0 - ccd.total_cells() as f64 / base.align_cells.max(1) as f64) * 100.0
    );
    // The maximal-match filter (ψ = 10) is a necessary condition only for
    // high-identity pairs; distant pairs passing the lenient 30 % overlap
    // test without any 10-residue exact match are invisible to it, so the
    // heuristic may keep a few components apart that the exhaustive
    // baseline merges. Report both counts rather than exact equality.
    println!(
        "components: baseline {} vs heuristic {} (exact match: {})",
        base_components.len(),
        result.components.len(),
        base_components == result.components
    );
    println!("\npaper (40K input): 168M promising pairs → 7M aligned, ~800M all-pairs (≈99% cut)");
}
