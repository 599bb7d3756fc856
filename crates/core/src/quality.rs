//! Quality evaluation of a pipeline run against a benchmark clustering
//! (Section V): the Test clustering is our dense subgraphs, the Benchmark
//! plays the role of the GOS clusters.

use pfam_metrics::{labels_from_clusters, pair_confusion, PairConfusion, QualityMeasures};
use pfam_seq::SeqId;

use crate::pipeline::PipelineResult;

/// Confusion counts plus the four derived measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Raw pairwise confusion.
    pub confusion: PairConfusion,
    /// PR / SE / OQ / CC.
    pub measures: QualityMeasures,
}

/// Compare the pipeline's dense subgraphs against `benchmark` clusters
/// (both over the same id universe of `n` input sequences). As in the
/// paper, only sequences clustered under *both* schemes count.
pub fn evaluate(result: &PipelineResult, benchmark: &[Vec<SeqId>]) -> QualityReport {
    let n = result.n_input;
    let test = labels_from_clusters(n, &result.subgraph_clusters());
    let bench_lists: Vec<Vec<u32>> =
        benchmark.iter().map(|c| c.iter().map(|id| id.0).collect()).collect();
    let bench = labels_from_clusters(n, &bench_lists);
    let confusion = pair_confusion(&test, &bench);
    QualityReport { confusion, measures: QualityMeasures::from_confusion(&confusion) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use pfam_datagen::{DatasetConfig, MutationModel, SyntheticDataset};

    #[test]
    fn high_precision_against_ground_truth() {
        let d = SyntheticDataset::generate(&DatasetConfig {
            n_families: 3,
            n_members: 36,
            n_noise: 4,
            redundancy_frac: 0.0,
            fragment_prob: 0.0,
            mutation: MutationModel {
                substitution_rate: 0.12,
                conservative_fraction: 0.6,
                insertion_rate: 0.0,
                deletion_rate: 0.0,
            },
            seed: 55,
            ..DatasetConfig::tiny(55)
        });
        let r = PipelineConfig::for_tests().run(&d.set);
        let q = evaluate(&r, &d.benchmark_clusters());
        // The paper's signature: precision near 1, sensitivity possibly
        // lower (dense subgraphs fragment the coarser benchmark families).
        assert!(q.measures.precision > 0.9, "PR = {}", q.measures.precision);
        assert!(q.measures.sensitivity > 0.0);
        assert!(q.measures.sensitivity <= q.measures.precision + 1e-9);
        assert!(q.confusion.tp > 0);
    }

    #[test]
    fn empty_benchmark_degenerates_gracefully() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(56));
        let r = PipelineConfig::for_tests().run(&d.set);
        let q = evaluate(&r, &[]);
        assert_eq!(q.confusion.tp, 0);
        assert_eq!(q.measures.precision, 0.0);
    }
}
