//! Figure 5 — distribution of dense-subgraph sizes on the 22K-like set
//! (width-5 buckets, skewed, one dominant subgraph excluded from the plot
//! in the paper and reported separately here too).
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin fig5 [scale]
//! ```

use pfam_bench::dataset_22k_like;
use pfam_core::PipelineConfig;
use pfam_metrics::Histogram;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let data = dataset_22k_like(scale, 0x22);
    println!("running pipeline on {}…", data.label);
    let result = PipelineConfig::default().run(&data.set);

    let sizes: Vec<usize> = result.dense_subgraphs.iter().map(|d| d.members.len()).collect();
    let largest = sizes.iter().copied().max().unwrap_or(0);
    // The paper plots all subgraphs except the single giant one.
    let plotted = Histogram::new(5, sizes.iter().copied().filter(|&s| s < largest));

    println!("\n== Figure 5: dense-subgraph size distribution ==");
    print!("{}", plotted.render());
    println!("(largest subgraph: {largest} members — excluded from the plot, as in the paper)");
    println!("\ntotal dense subgraphs: {}", sizes.len());
    let small = sizes.iter().filter(|&&s| s * 3 < largest.max(1)).count();
    println!(
        "Shape checks (paper: 134 DS from one component, skewed toward small sizes,\n\
         largest ~7K of 22K): majority of subgraphs below a third of the giant: {}",
        small * 2 >= sizes.len()
    );
}
