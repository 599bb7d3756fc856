//! The domain-based (`Bm`) reduction: families that share *domains* —
//! long exact word blocks — rather than global similarity, detected via
//! the word-vs-sequence bipartite graph (the paper's Section III second
//! formulation, proposed there as future work and implemented here).
//!
//! ```sh
//! cargo run --release --example domain_families
//! ```

use pfam::core::{PipelineConfig, Reduction};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};

fn main() {
    // Families that share domain blocks across family boundaries.
    let data = SyntheticDataset::generate(&DatasetConfig {
        n_families: 12,
        n_members: 240,
        n_shared_domains: 4,
        domain_len: 40,
        families_per_domain: 3,
        fragment_prob: 0.1,
        mutation: MutationModel {
            substitution_rate: 0.10,
            conservative_fraction: 0.6,
            insertion_rate: 0.0,
            deletion_rate: 0.0,
        },
        seed: 0xD03A11,
        ..DatasetConfig::default()
    });
    println!("{} reads across 12 families, 4 shared domain blocks", data.set.len());

    // Run both reductions on the same input.
    let global = PipelineConfig {
        reduction: Reduction::GlobalSimilarity { tau: 0.5 },
        ..PipelineConfig::default()
    }
    .run(&data.set);
    let domain =
        PipelineConfig { reduction: Reduction::DomainBased { w: 10 }, ..PipelineConfig::default() }
            .run(&data.set);

    println!("\n== global-similarity reduction (Bd) ==");
    summarize(&global, &data);
    println!("\n== domain-based reduction (Bm, w = 10) ==");
    summarize(&domain, &data);

    println!(
        "\nBoth reductions run on the same connected components; Bm groups \
         sequences on shared exact words, so families linked only by a \
         common domain can surface there."
    );
}

fn summarize(result: &pfam::core::PipelineResult, data: &SyntheticDataset) {
    println!(
        "{} dense subgraphs covering {} sequences (largest {})",
        result.dense_subgraphs.len(),
        result.sequences_in_subgraphs(),
        result.dense_subgraphs.first().map_or(0, |d| d.members.len())
    );
    let quality = pfam::core::evaluate(result, &data.benchmark_clusters());
    println!("quality vs ground truth: {}", quality.measures);
}
