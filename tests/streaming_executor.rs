//! End-to-end identity for the fused streaming BGG→DSD executor: on
//! synthetic datasets, the streaming path must reproduce the barrier
//! reference exactly — component graphs, alignment records, dense
//! subgraphs, and shingle counters — for both bipartite reductions, at
//! the executor level and through the full pipeline. The pipeline's back
//! half builds its graphs from what CCD already knows instead of mining
//! each component; it is held against the barrier reference over the same
//! component queue — same graphs, same families, a share of the work.

use pfam::cluster::run_ccd;
use pfam::core::{
    barrier_components, stream_components, ComponentOutput, PipelineConfig, Reduction,
};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::seq::SeqId;
use pfam::shingle::ShingleStats;

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 4,
        n_members: 24,
        n_noise: 6,
        redundancy_frac: 0.1,
        fragment_prob: 0.0,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.0,
            deletion_rate: 0.0,
        },
        seed,
        ..DatasetConfig::tiny(seed)
    })
}

fn assert_outputs_identical(streamed: &[ComponentOutput], barrier: &[ComponentOutput]) {
    assert_eq!(streamed.len(), barrier.len());
    for (s, b) in streamed.iter().zip(barrier) {
        assert_eq!(s.graph.members, b.graph.members);
        assert_eq!(s.graph.graph, b.graph.graph);
        assert_eq!(s.record, b.record);
        assert_eq!(s.subgraphs, b.subgraphs);
        assert_eq!(s.stats, b.stats);
    }
}

fn executor_identity(config: &PipelineConfig, seed: u64) {
    let d = dataset(seed);
    let ccd = run_ccd(&d.set, &config.cluster);
    let queue: Vec<&[SeqId]> = ccd
        .components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    assert!(!queue.is_empty(), "dataset must produce components to stream");
    let streamed = stream_components(&d.set, config, &queue);
    let barrier = barrier_components(&d.set, config, &queue);
    assert_outputs_identical(&streamed, &barrier);
}

#[test]
fn executor_identity_global_similarity() {
    let config = PipelineConfig::for_tests();
    for seed in [901, 902, 903] {
        executor_identity(&config, seed);
    }
}

#[test]
fn executor_identity_domain_based() {
    let mut config = PipelineConfig::for_tests();
    config.reduction = Reduction::DomainBased { w: 10 };
    for seed in [904, 905] {
        executor_identity(&config, seed);
    }
}

fn pipeline_identity(config: &PipelineConfig, seed: u64) {
    let d = dataset(seed);
    let streamed = config.run(&d.set);
    let queue: Vec<&[SeqId]> = streamed
        .components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    let barrier = barrier_components(&d.set, config, &queue);
    assert_eq!(streamed.component_graphs.len(), barrier.len());
    let mut stats = ShingleStats::default();
    let mut families: Vec<Vec<SeqId>> = Vec::new();
    for ((s, record), b) in
        streamed.component_graphs.iter().zip(&streamed.traces.2.batches).zip(&barrier)
    {
        assert_eq!(s.members, b.graph.members);
        assert_eq!(s.graph, b.graph.graph);
        // The pipeline verifies only the pairs CCD deferred — by RR's
        // ledger or by one fill — where the reference aligns every
        // promising pair of the component.
        assert_eq!(record.n_aligned + record.n_ledger_hits, record.n_generated, "BGG trace");
        assert!(record.n_generated <= b.record.n_generated, "deferred ⊂ the component's pairs");
        assert!(record.n_aligned <= b.record.n_aligned);
        stats.absorb(&b.stats);
        for local in &b.subgraphs {
            families.push(local.iter().map(|&l| b.graph.original_id(l)).collect());
        }
    }
    assert_eq!(streamed.shingle_stats, stats);
    families.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    let reported: Vec<&Vec<SeqId>> = streamed.dense_subgraphs.iter().map(|d| &d.members).collect();
    assert_eq!(reported, families.iter().collect::<Vec<_>>());
}

#[test]
fn pipeline_identity_global_similarity() {
    pipeline_identity(&PipelineConfig::for_tests(), 906);
}

#[test]
fn pipeline_identity_domain_based() {
    let mut config = PipelineConfig::for_tests();
    config.reduction = Reduction::DomainBased { w: 10 };
    pipeline_identity(&config, 907);
}
