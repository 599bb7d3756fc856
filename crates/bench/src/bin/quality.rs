//! Section V quality comparison — PR / SE / OQ / CC of the pipeline's
//! dense-subgraph clustering against the benchmark clustering, for both
//! workloads (paper, 160K set: PR 95.75 %, SE 56.89 %, OQ 55.49 %,
//! CC 73.04 %; the signature is PR ≫ SE because dense subgraphs fragment
//! the coarser benchmark families).
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin quality [scale]
//! ```

use pfam_bench::{dataset_160k_like, dataset_22k_like};
use pfam_core::PipelineConfig;
use pfam_metrics::{labels_from_clusters, pair_confusion, QualityMeasures};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();

    println!("== quality vs benchmark clustering ==");
    for data in [dataset_160k_like(scale, 0x160), dataset_22k_like(scale, 0x22)] {
        let result = config.run(&data.set);
        // For the 22K-like set the paper's benchmark is ONE cluster (the
        // whole GOS cluster); our subfamily benchmark is evaluated too.
        let n = data.set.len();
        let test = labels_from_clusters(n, &result.subgraph_clusters());
        let bench_lists: Vec<Vec<u32>> =
            data.benchmark.iter().map(|c| c.iter().map(|id| id.0).collect()).collect();
        let bench = labels_from_clusters(n, &bench_lists);
        let m = QualityMeasures::from_confusion(&pair_confusion(&test, &bench));
        let sm = pfam_metrics::set_measures(&test, &bench);
        println!("{}\n  vs subfamily benchmark: {}", data.label, m);
        println!(
            "    set measures: purity={:.2}% inverse-purity={:.2}% F={:.2}%",
            sm.purity * 100.0,
            sm.inverse_purity * 100.0,
            sm.f_measure * 100.0
        );

        // Coarsened benchmarks: merging ground-truth families round-robin
        // into k superclusters interpolates toward the paper's situation,
        // where the GOS benchmark was far coarser than our dense subgraphs.
        for k in [8usize, 2, 1] {
            if k >= data.benchmark.len() {
                continue;
            }
            let mut coarse: Vec<Vec<u32>> = vec![Vec::new(); k];
            for (f, members) in data.benchmark.iter().enumerate() {
                coarse[f % k].extend(members.iter().map(|id| id.0));
            }
            let bench_k = labels_from_clusters(n, &coarse);
            let m_k = QualityMeasures::from_confusion(&pair_confusion(&test, &bench_k));
            println!("  vs {k}-supercluster benchmark: {m_k}");
        }
    }

    println!("\npaper (160K set): PR=95.75% SE=56.89% OQ=55.49% CC=73.04%");
    println!(
        "Shape check: PR should be high (subgraphs rarely mix benchmark\n\
         clusters) while SE is lower (dense subgraphs fragment them) —\n\
         most visible against the one-cluster benchmark."
    );
}
