//! Table I — qualitative assessment on the 160K-like and 22K-like sets.
//!
//! Prints the same columns the paper reports (#input, #NR, #CC, #DS,
//! #seq-in-DS, mean degree, mean density, largest DS) for both workloads,
//! alongside the paper's own numbers for shape comparison.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin table1 [scale]
//! ```

use pfam_bench::{dataset_160k_like, dataset_22k_like};
use pfam_core::{PipelineConfig, TableOneRow};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();

    println!("== Table I (reproduced at scale {scale}) ==");
    println!("Workload\t{}", TableOneRow::header());
    for data in [dataset_160k_like(scale, 0x160), dataset_22k_like(scale, 0x22)] {
        let result = config.run(&data.set);
        let row = TableOneRow::from_result(&result, config.min_component_size);
        println!("{}\t{}", data.label, row);
    }

    println!("\n== paper's Table I (for shape comparison; absolute numbers");
    println!("   are data-dependent — 28.6M-ORF CAMERA vs synthetic) ==");
    println!("160,000\t138,633\t1,861\t850\t66,083\t26\t76%\t13,263");
    println!("22,186\t21,348\t1\t134\t11,524\t20\t78%\t6,828");
    println!("\nShape checks: #NR < #input (redundancy removed); in the multi-");
    println!("family set some components yield no dense subgraph (#DS < #CC,");
    println!("paper: 850 DS from 1,861 CC); the single-component set fragments");
    println!("into many subgraphs (#DS >> #CC = 1) with one dominant giant;");
    println!("mean density well above 50% in both.");
}
