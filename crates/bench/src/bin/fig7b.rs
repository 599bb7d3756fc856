//! Figure 7b — serial dense-subgraph-detection run-time as a function of
//! input size and the shingle parameters (s, c) = (5, 100 / 200 / 300 /
//! 400). Wall-clock measured on this machine; the paper's claim is the
//! *ordering* (run-time grows with c) and rough linearity in input size.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin fig7b [scale]
//! ```

use std::time::Instant;

use pfam_bench::dataset_160k_like;
use pfam_core::PipelineConfig;
use pfam_graph::BipartiteGraph;
use pfam_shingle::{shingle_clusters, ShingleParams};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();

    // The component graphs the pipeline built (components of at least five
    // members), duplicated into bipartite graphs, for increasing input sizes.
    let fractions = [0.25, 0.5, 0.75, 1.0];
    let mut inputs = Vec::new();
    for (i, f) in fractions.iter().enumerate() {
        let data = dataset_160k_like(scale * f, 0x7B + i as u64);
        let result = config.run(&data.set);
        let bds: Vec<BipartiteGraph> = result
            .component_graphs
            .iter()
            .map(|g| BipartiteGraph::duplicate_from(&g.graph))
            .collect();
        let n_vertices: usize = bds.iter().map(|b| b.n_right()).sum();
        eprintln!(
            "prepared {} components / {} vertices for n={}",
            bds.len(),
            n_vertices,
            data.set.len()
        );
        inputs.push((data.set.len(), bds));
    }

    println!("\n== Figure 7b: serial DSD run-time (ms) vs input size and c ==");
    print!("n\\(s,c)");
    for c in [100usize, 200, 300, 400] {
        print!("\t(5,{c})");
    }
    println!();
    let mut per_c_totals = [0.0f64; 4];
    for (n, bds) in &inputs {
        print!("{n}");
        for (ci, c) in [100usize, 200, 300, 400].into_iter().enumerate() {
            let params = ShingleParams { s1: 5, c1: c, s2: 2, c2: 40, seed: 0x7b };
            let start = Instant::now();
            for bd in bds {
                let _ = shingle_clusters(bd, &params);
            }
            let ms = start.elapsed().as_secs_f64() * 1e3;
            per_c_totals[ci] += ms;
            print!("\t{ms:.1}");
        }
        println!();
    }
    println!(
        "\nShape check (paper: run-time increases with c because more shingles\n\
         are generated): totals per c = {:.1} / {:.1} / {:.1} / {:.1} ms — monotone: {}",
        per_c_totals[0],
        per_c_totals[1],
        per_c_totals[2],
        per_c_totals[3],
        per_c_totals.windows(2).all(|w| w[0] <= w[1] * 1.05)
    );
}
