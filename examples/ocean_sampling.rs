//! A Global-Ocean-Sampling-style run: a larger, heavily skewed synthetic
//! metagenome, the full pipeline, the Figure-5 size histogram, and the
//! work-reduction comparison against the all-pairs GOS baseline.
//!
//! ```sh
//! cargo run --release --example ocean_sampling [scale]
//! ```
//!
//! `scale` multiplies the data-set size (default 1.0 ≈ 900 reads; the
//! shapes do not depend on it).

use pfam::cluster::run_all_pairs_baseline;
use pfam::core::{evaluate, PipelineConfig, TableOneRow};
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::metrics::Histogram;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config_data = DatasetConfig {
        n_families: 40,
        n_members: 800,
        size_skew: 1.2, // GOS-like: a few giants, a long tail
        n_noise: 80,
        seed: 0x0CEA,
        ..DatasetConfig::default()
    }
    .scaled(scale);
    let data = SyntheticDataset::generate(&config_data);
    println!(
        "ocean sample: {} reads, {} families, skew {:.1}",
        data.set.len(),
        config_data.n_families,
        config_data.size_skew
    );

    let config = PipelineConfig::default();
    let result = config.run(&data.set);

    println!("\n{}", TableOneRow::header());
    println!("{}", TableOneRow::from_result(&result, config.min_component_size));

    // Figure-5 style histogram of dense-subgraph sizes.
    println!("\n== dense subgraph size distribution (Figure 5 format) ==");
    let hist = Histogram::new(5, result.dense_subgraphs.iter().map(|d| d.members.len()));
    print!("{}", hist.render());
    println!("largest subgraph: {} members", hist.max_value());

    // Quality against the generator's ground truth (the "GOS benchmark").
    let quality = evaluate(&result, &data.benchmark_clusters());
    println!("\n== quality vs benchmark ==\n{}", quality.measures);

    // Work reduction vs the all-versus-all baseline, on a subsample so the
    // baseline stays affordable.
    let sample: Vec<_> = data.set.ids().take(data.set.len().min(400)).collect();
    let (sub, _) = data.set.subset(&sample);
    let base = run_all_pairs_baseline(&sub, &config.cluster);
    let ours = pfam::cluster::run_ccd(&sub, &config.cluster);
    println!("\n== work reduction on a {}-read subsample ==", sub.len());
    println!("baseline alignments : {}", base.n_alignments);
    println!("pipeline alignments : {}", ours.trace.total_aligned());
    println!(
        "reduction           : {:.1}%",
        (1.0 - ours.trace.total_aligned() as f64 / base.n_alignments.max(1) as f64) * 100.0
    );
}
