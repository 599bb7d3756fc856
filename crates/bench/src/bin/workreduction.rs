//! Section V work-reduction measurement — the paper reports that on the
//! 40K input, 168 M promising pairs were generated, only 7 M were
//! selected for alignment, and an all-versus-all approach would have
//! needed ≈ 800 M alignments (a ~99 % reduction).
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin workreduction [scale]
//! ```

use pfam_bench::dataset_160k_like;
use pfam_cluster::{run_all_pairs_baseline, run_ccd, run_redundancy_removal, ClusterConfig};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    // The paper's 40K input is a quarter of its 160K set.
    let data = dataset_160k_like(scale * 0.25, 0x40);
    println!("work-reduction study on {} ({} reads)", data.label, data.set.len());

    let config = ClusterConfig::default();
    let rr = run_redundancy_removal(&data.set, &config);
    let (nr, _) = data.set.subset(&rr.kept);
    let ccd = run_ccd(&nr, &config);

    let n = nr.len() as u64;
    let all_vs_all = n * (n - 1) / 2;
    let generated = ccd.trace.total_generated() as u64;
    let aligned = ccd.trace.total_aligned() as u64;

    println!("\n== CCD work accounting ==");
    println!("non-redundant sequences : {n}");
    println!("all-versus-all pairs    : {all_vs_all}");
    println!("promising pairs         : {generated}");
    println!("alignments performed    : {aligned}");
    println!(
        "reduction vs all-pairs  : {:.2}%",
        (1.0 - aligned as f64 / all_vs_all.max(1) as f64) * 100.0
    );
    println!(
        "filter ratio within CCD : {:.2}% of generated pairs skipped",
        ccd.trace.filter_ratio() * 100.0
    );

    // Cross-check against an actually-executed baseline (affordable at
    // bench scales; the paper could only estimate the 800M figure).
    let base = run_all_pairs_baseline(&nr, &config);
    println!("\n== executed baseline ==");
    println!("baseline alignments     : {}", base.n_alignments);
    println!("baseline DP cells       : {}", base.align_cells);
    println!("pipeline DP cells       : {}", ccd.trace.total_cells());
    println!(
        "cell-level reduction    : {:.2}%",
        (1.0 - ccd.trace.total_cells() as f64 / base.align_cells.max(1) as f64) * 100.0
    );
    // The maximal-match filter (ψ = 10) is a necessary condition only for
    // high-identity pairs; distant pairs passing the lenient 30 % overlap
    // test without any 10-residue exact match are invisible to it, so the
    // heuristic may keep a few components apart that the exhaustive
    // baseline merges. Report both counts rather than exact equality.
    println!(
        "components: baseline {} vs heuristic {} (exact match: {})",
        base.components.len(),
        ccd.components.len(),
        base.components == ccd.components
    );
    println!("\npaper (40K input): 168M promising pairs → 7M aligned, ~800M all-pairs (≈99% cut)");
}
