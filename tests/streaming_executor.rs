//! End-to-end identity for the fused BGG→DSD executor: on synthetic
//! datasets, `stream_components` must reproduce, component by component,
//! the plain composition it fuses — `component_graph` → bipartite
//! reduction → `detect_dense_subgraphs`, the chain the benchmark adapter
//! spells by hand — graphs, alignment records, dense subgraphs and shingle
//! counters, whatever order it schedules in. The
//! pipeline's back half builds its graphs from what CCD already knows
//! instead of mining each component; it is held against
//! `stream_components` over the same component queue — same graphs, same
//! families, a share of the work — under the test parameters and under
//! the paper's, on reads with fragments and redundancy.

use pfam::cluster::{component_graph, run_ccd};
use pfam::core::{stream_components, PipelineConfig, Reduction};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::graph::BipartiteGraph;
use pfam::seq::SeqId;
use pfam::shingle::{detect_dense_subgraphs, DenseSubgraphConfig, ReductionMode, ShingleStats};

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

fn executor_identity(config: &PipelineConfig, seed: u64) {
    let d = dataset(seed);
    let ccd = run_ccd(&d.set, &config.cluster);
    let mut queue: Vec<&[SeqId]> = ccd
        .components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    assert!(!queue.is_empty(), "dataset must produce components to stream");
    // Smallest first: the executor dispatches largest first and has to
    // hand the outputs back in this order.
    queue.sort_by_key(|c| c.len());
    let streamed = stream_components(&d.set, config, &queue);
    assert_eq!(streamed.len(), queue.len());
    for (members, out) in queue.iter().zip(&streamed) {
        let (graph, record) = component_graph(&d.set, members, &config.cluster);
        let Reduction::GlobalSimilarity { tau } = config.reduction;
        let dsd_config = DenseSubgraphConfig {
            params: config.shingle,
            mode: ReductionMode::GlobalSimilarity { tau },
            min_size: config.min_subgraph_size,
            disjoint: true,
        };
        let bipartite = BipartiteGraph::duplicate_from(&graph.graph);
        let (subgraphs, stats) = detect_dense_subgraphs(&bipartite, &dsd_config);
        assert_eq!(out.graph.members, graph.members);
        assert_eq!(out.graph.graph, graph.graph);
        assert_eq!(out.record, record);
        assert_eq!(out.subgraphs, subgraphs);
        assert_eq!(out.stats, stats);
    }
}

#[test]
fn executor_identity_global_similarity() {
    let config = PipelineConfig::for_tests();
    for seed in [901, 902, 903] {
        executor_identity(&config, seed);
    }
}

/// Hold the pipeline's back half against `stream_components` on `d`;
/// returns how many components it streamed.
fn pipeline_identity(config: &PipelineConfig, d: &SyntheticDataset) -> usize {
    let streamed = config.run(&d.set);
    let queue: Vec<&[SeqId]> = streamed
        .components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    let mined = stream_components(&d.set, config, &queue);
    assert_eq!(streamed.component_graphs.len(), mined.len());
    let mut stats = ShingleStats::default();
    let mut families: Vec<Vec<SeqId>> = Vec::new();
    for ((s, record), b) in
        streamed.component_graphs.iter().zip(&streamed.traces.2.batches).zip(&mined)
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
    mined.len()
}

/// The 160K-like recipe (many skewed families, fragments, redundancy,
/// noise) at 2 % scale: 39 reads, 5 components under the paper's
/// parameters.
fn dataset_160k_like() -> SyntheticDataset {
    SyntheticDataset::generate(
        &DatasetConfig {
            n_families: 60,
            n_members: 1600,
            size_skew: 1.1,
            ancestor_len: 120..220,
            fragment_prob: 0.25,
            redundancy_frac: 0.14,
            n_noise: 160,
            seed: 0xb99,
            ..DatasetConfig::default()
        }
        .scaled(0.02),
    )
}

#[test]
fn pipeline_identity_global_similarity() {
    assert!(pipeline_identity(&PipelineConfig::for_tests(), &dataset(906)) > 0);
    // The paper's ψ (15 / 10) on reads with fragments and redundancy.
    let paper =
        PipelineConfig { min_component_size: 2, min_subgraph_size: 2, ..PipelineConfig::default() };
    let d = dataset_160k_like();
    assert_eq!(d.set.len(), 39);
    assert_eq!(pipeline_identity(&paper, &d), 5);
}
