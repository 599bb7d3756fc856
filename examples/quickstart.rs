//! Quickstart: generate a small synthetic metagenome, run the four-phase
//! pipeline, and print a Table-I-style summary plus quality measures.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pfam::core::{evaluate, PipelineConfig, TableOneRow};
use pfam::datagen::{DatasetConfig, SyntheticDataset};

fn main() {
    // A deterministic synthetic data set: 20 families, ~400 members,
    // fragments, redundant reads and noise (see pfam-datagen docs).
    let data = SyntheticDataset::generate(&DatasetConfig::default());
    println!(
        "generated {} reads ({} residues, mean length {:.0})",
        data.set.len(),
        data.set.total_residues(),
        data.set.mean_len()
    );

    let config = PipelineConfig::default();
    let result = config.run(&data.set);

    println!("\n== pipeline summary (Table-I format) ==");
    println!("{}", TableOneRow::header());
    println!("{}", TableOneRow::from_result(&result, config.min_component_size));

    let (rr, ccd, bgg) = &result.traces;
    println!("\n== work counters ==");
    println!(
        "RR : {} pairs generated, {} aligned, {} sequences removed",
        rr.total_generated(),
        rr.total_aligned(),
        result.n_input - result.non_redundant.len()
    );
    println!(
        "CCD: {} pairs generated, {} aligned ({:.1}% filtered by transitive closure)",
        ccd.total_generated(),
        ccd.total_aligned(),
        ccd.filter_ratio() * 100.0
    );
    println!("BGG: {} alignments for full per-component graphs", bgg.total_aligned());

    let quality = evaluate(&result, &data.benchmark_clusters());
    println!("\n== quality vs ground truth ==");
    println!("{}", quality.measures);

    println!("\ntop dense subgraphs:");
    for ds in result.dense_subgraphs.iter().take(5) {
        println!(
            "  {} members, density {:.0}%, component {}",
            ds.members.len(),
            ds.density.density * 100.0,
            ds.component
        );
    }
}
