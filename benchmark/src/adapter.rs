//! The only file of the benchmark that names a `pfam_*` item (the list is in
//! README.md, "Frozen surface"): the traced in-process pass.
//!
//! It first runs the pipeline exactly as `run_pipeline` composes it, one span
//! per phase, then each layer alone on the same inputs. Spans are taken here,
//! around the calls; the counts are the ones the layers already return.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use pfam_align::Anchor;
use pfam_cluster::{component_graph, run_ccd, run_redundancy_removal, ClusterConfig, PhaseTrace};
use pfam_core::{stream_components, PipelineConfig, Reduction};
use pfam_graph::BipartiteGraph;
use pfam_seq::fasta::read_fasta;
use pfam_seq::{materialize_subset, MemoryBudget, SeqId, SequenceSet, SubsetStore};
use pfam_shingle::{detect_dense_subgraphs, DenseSubgraphConfig, ReductionMode, ShingleStats};
use pfam_suffix::{
    estimated_index_bytes, parallel_pairs, ChunkPlan, GeneralizedSuffixArray, MatchPair,
    MaximalMatchConfig, PartitionedMiner, SuffixTree,
};

use crate::cli::TableOne;
use crate::trace::Tracer;

/// Candidates the single-threaded alignment replay goes through.
const REPLAY_PAIRS: usize = 20_000;

/// Estimated resident bytes of the suffix index over such an input — what the
/// budget of `sparse_budgeted` is a share of.
pub fn index_bytes_estimate(n_residues: usize, n_seqs: usize) -> u64 {
    estimated_index_bytes(n_residues, n_seqs)
}

/// Label of the alignment kernel this host dispatches to (`avx2`, `sse2`, …).
pub fn kernel_label() -> &'static str {
    ClusterConfig::default().engine().kernel_label()
}

/// What the traced pass measured: per-layer metrics by name, and the Table-I
/// figures to hold against the CLI's.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub table_one: TableOne,
}

fn match_config(cluster: &ClusterConfig, psi: u32) -> MaximalMatchConfig {
    MaximalMatchConfig { min_len: psi, max_pairs_per_node: cluster.max_pairs_per_node, dedup: true }
}

/// GSA, tree and pair mining over `set` at cut-off `psi`, each in a span.
fn index_alone(
    set: &SequenceSet,
    cluster: &ClusterConfig,
    psi: u32,
    spans: [&'static str; 3],
    tracer: &mut Tracer,
) -> Vec<MatchPair> {
    let threads = cluster.index_threads();
    let gsa = tracer.span(spans[0], || GeneralizedSuffixArray::build_parallel(set, threads));
    let tree = tracer.span(spans[1], || SuffixTree::build(&gsa));
    tracer.span(spans[2], || parallel_pairs(&tree, match_config(cluster, psi), threads).0)
}

/// The pairs of `PartitionedMiner` over `set` under `budget`, chunked by the
/// rule `PartitionedMinedSource::new` applies: a third of the budget per
/// chunk, halved until the largest task fits. Returns the chunk count too.
fn mine_partitioned(
    set: &SequenceSet,
    cluster: &ClusterConfig,
    psi: u32,
    budget: u64,
) -> (Vec<MatchPair>, usize) {
    let lens: Vec<u32> = set.ids().map(|id| set.seq_len(id) as u32).collect();
    let budget = MemoryBudget::limited(budget);
    let mut target = (budget.remaining() / 3).max(1);
    loop {
        let plan = ChunkPlan::plan(&lens, target);
        let n_chunks = plan.n_chunks();
        let loader = |r: std::ops::Range<u32>| pfam_seq::SeqStore::load_range(set, r);
        match PartitionedMiner::try_new(
            plan,
            loader,
            match_config(cluster, psi),
            cluster.index_threads(),
            &budget,
        ) {
            Ok(miner) => return (miner.collect(), n_chunks),
            Err(e) => {
                assert!(n_chunks < lens.len(), "budget too small for one-read chunks: {e}");
                target = (target / 2).max(1);
            }
        }
    }
}

/// Pairs generated, filtered and aligned in one phase, and the cells computed.
fn phase_counts(m: &mut BTreeMap<&'static str, f64>, names: [&'static str; 4], trace: &PhaseTrace) {
    m.insert(names[0], trace.total_generated() as f64);
    m.insert(names[1], trace.total_filtered() as f64);
    m.insert(names[2], trace.total_aligned() as f64);
    m.insert(names[3], trace.total_cells_computed() as f64);
}

fn sorted_keys(pairs: &[MatchPair]) -> Vec<(u32, u32, u32)> {
    let mut keys: Vec<_> = pairs.iter().map(|p| (p.a.0, p.b.0, p.len)).collect();
    keys.sort_unstable();
    keys
}

/// Run the traced pass over `fasta`. `budget` is the `--mem-budget` of the
/// workload, if it has one. Panics on a broken internal condition (a layer
/// alone disagreeing with the same layer inside the pipeline).
pub fn traced_pass(fasta: &Path, budget: Option<u64>, tracer: &mut Tracer) -> Traced {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let config = PipelineConfig::default().with_mem_budget(budget.unwrap_or(0));
    let cluster = &config.cluster;

    // ---- seq ----
    let file = File::open(fasta).expect("the workload's FASTA exists");
    let fasta_bytes = file.metadata().expect("FASTA metadata").len();
    let set = tracer
        .span("seq.fasta_parse", || read_fasta(BufReader::new(file)))
        .expect("the generator writes well-formed FASTA");
    m.insert("seq.fasta_parse_s", tracer.seconds("seq.fasta_parse"));
    m.insert("seq.fasta_mb_per_s", fasta_bytes as f64 / 1e6 / tracer.seconds("seq.fasta_parse"));
    m.insert("seq.residues", set.total_residues() as f64);

    // ---- the pipeline, as `run_pipeline` composes it ----
    let pipeline_started = Instant::now();
    let rr = tracer.span("cluster.rr", || run_redundancy_removal(&set, cluster));
    let ccd = tracer.span("cluster.ccd", || {
        let nr_store = SubsetStore::new(&set, rr.kept.clone());
        run_ccd(&nr_store, cluster)
    });
    let components: Vec<Vec<SeqId>> = ccd
        .components
        .iter()
        .map(|c| c.iter().map(|&local| rr.kept[local.index()]).collect())
        .collect();
    let selected: Vec<&[SeqId]> = components
        .iter()
        .filter(|c| c.len() >= config.min_component_size)
        .map(|c| c.as_slice())
        .collect();
    let outputs = tracer.span("core.back_half", || stream_components(&set, &config, &selected));
    let pipeline_s = pipeline_started.elapsed().as_secs_f64();

    let phase_s: f64 =
        ["cluster.rr", "cluster.ccd", "core.back_half"].iter().map(|s| tracer.seconds(s)).sum();
    m.insert("core.pipeline_s", pipeline_s);
    m.insert("core.back_half_s", tracer.seconds("core.back_half"));
    m.insert("core.span_cover", phase_s / pipeline_s);
    m.insert("core.largest_component", components.iter().map(Vec::len).max().unwrap_or(0) as f64);
    m.insert("cluster.rr_s", tracer.seconds("cluster.rr"));
    m.insert("cluster.ccd_s", tracer.seconds("cluster.ccd"));

    let mut shingle = ShingleStats::default();
    let (mut cells_bgg, mut skipped_bgg, mut aligned_bgg) = (0u64, 0u64, 0usize);
    for out in &outputs {
        shingle.absorb(&out.stats);
        cells_bgg += out.record.cells_computed;
        skipped_bgg += out.record.cells_skipped;
        aligned_bgg += out.record.n_aligned;
    }
    let n_dense: usize = outputs.iter().map(|o| o.subgraphs.len()).sum();
    let table_one = (rr.kept.len(), selected.len(), n_dense);

    phase_counts(
        &mut m,
        ["cluster.rr_generated", "cluster.rr_filtered", "cluster.rr_aligned", "align.cells_rr"],
        &rr.trace,
    );
    phase_counts(
        &mut m,
        ["cluster.ccd_generated", "cluster.ccd_filtered", "cluster.ccd_aligned", "align.cells_ccd"],
        &ccd.trace,
    );
    m.insert("cluster.ccd_filter_ratio", ccd.trace.filter_ratio());
    m.insert("cluster.n_nonredundant", rr.kept.len() as f64);
    m.insert("cluster.n_components", selected.len() as f64);
    m.insert("align.cells_bgg", cells_bgg as f64);
    m.insert(
        "align.cells_skipped",
        (rr.trace.total_cells_skipped() + ccd.trace.total_cells_skipped() + skipped_bgg) as f64,
    );
    m.insert(
        "align.n_alignments",
        (rr.trace.total_aligned() + ccd.trace.total_aligned() + aligned_bgg) as f64,
    );
    m.insert("shingle.pass1_shingles", shingle.pass1_shingles as f64);
    m.insert("shingle.pass2_shingles", shingle.pass2_shingles as f64);
    m.insert("shingle.n_dense_subgraphs", n_dense as f64);

    // ---- suffix, alone: ψ_rr over the input, ψ_ccd over the non-redundant set ----
    let pairs_rr = index_alone(
        &set,
        cluster,
        cluster.psi_rr,
        ["suffix.gsa_rr", "suffix.tree", "suffix.mine_rr"],
        tracer,
    );
    let nr_set = materialize_subset(&set, &rr.kept);
    let pairs_ccd = index_alone(
        &nr_set,
        cluster,
        cluster.psi_ccd,
        ["suffix.gsa_ccd", "suffix.tree", "suffix.mine_ccd"],
        tracer,
    );
    let build_s = tracer.seconds("suffix.gsa_rr")
        + tracer.seconds("suffix.gsa_ccd")
        + tracer.seconds("suffix.tree");
    let index_rr_s = tracer.seconds("suffix.gsa_rr") + tracer.seconds("suffix.mine_rr");
    let index_ccd_s = tracer.seconds("suffix.gsa_ccd") + tracer.seconds("suffix.mine_ccd");
    m.insert("suffix.gsa_rr_s", tracer.seconds("suffix.gsa_rr"));
    m.insert("suffix.gsa_ccd_s", tracer.seconds("suffix.gsa_ccd"));
    m.insert("suffix.tree_s", tracer.seconds("suffix.tree"));
    m.insert("suffix.mine_rr_s", tracer.seconds("suffix.mine_rr"));
    m.insert("suffix.mine_ccd_s", tracer.seconds("suffix.mine_ccd"));
    m.insert("suffix.pairs_rr", pairs_rr.len() as f64);
    m.insert("suffix.pairs_ccd", pairs_ccd.len() as f64);
    m.insert(
        "suffix.index_residues_per_s",
        (set.total_residues() + nr_set.total_residues()) as f64 / build_s,
    );
    m.insert(
        "suffix.index_bytes_est",
        estimated_index_bytes(set.total_residues(), set.len()) as f64,
    );
    // Each phase minus its index alone; the tree span is shared by both
    // builds, so it is split by residues indexed.
    let tree_rr_s = tracer.seconds("suffix.tree") * set.total_residues() as f64
        / (set.total_residues() + nr_set.total_residues()) as f64;
    m.insert("cluster.rr_nonindex_s", tracer.seconds("cluster.rr") - index_rr_s - tree_rr_s);
    m.insert(
        "cluster.ccd_nonindex_s",
        tracer.seconds("cluster.ccd") - index_ccd_s - (tracer.seconds("suffix.tree") - tree_rr_s),
    );

    // ---- suffix, partitioned: only where the workload has a budget ----
    let (mut part_s, mut part_chunks, mut part_slowdown) = (0.0, 0.0, 0.0);
    if let Some(budget) = budget {
        let (pairs, n_chunks) = tracer
            .span("suffix.part_mine", || mine_partitioned(&set, cluster, cluster.psi_rr, budget));
        assert_eq!(
            sorted_keys(&pairs),
            sorted_keys(&pairs_rr),
            "partitioned and monolithic pair sets differ"
        );
        part_s = tracer.seconds("suffix.part_mine");
        part_chunks = n_chunks as f64;
        part_slowdown = part_s / (index_rr_s + tree_rr_s);
    }
    m.insert("suffix.part_mine_s", part_s);
    m.insert("suffix.part_chunks", part_chunks);
    m.insert("suffix.part_slowdown", part_slowdown);

    // ---- cluster (BGG), graph, shingle: per selected component ----
    let graphs: Vec<_> = tracer.span("cluster.bgg", || {
        selected.iter().map(|members| component_graph(&set, members, cluster)).collect()
    });
    m.insert("cluster.bgg_s", tracer.seconds("cluster.bgg"));
    m.insert("cluster.bgg_pairs", graphs.iter().map(|(_, r)| r.n_generated).sum::<usize>() as f64);
    m.insert(
        "cluster.bgg_edges",
        graphs.iter().map(|(g, _)| g.graph.n_edges()).sum::<usize>() as f64,
    );

    let bipartite: Vec<BipartiteGraph> = tracer.span("graph.bipartite", || {
        graphs.iter().map(|(g, _)| BipartiteGraph::duplicate_from(&g.graph)).collect()
    });
    m.insert("graph.bipartite_s", tracer.seconds("graph.bipartite"));
    m.insert(
        "graph.bipartite_edges",
        bipartite.iter().map(BipartiteGraph::n_edges).sum::<usize>() as f64,
    );

    let Reduction::GlobalSimilarity { tau } = config.reduction else {
        panic!("the default reduction is global similarity");
    };
    let dsd_config = DenseSubgraphConfig {
        params: config.shingle,
        mode: ReductionMode::GlobalSimilarity { tau },
        min_size: config.min_subgraph_size,
        disjoint: true,
    };
    let dense: Vec<_> = tracer.span("shingle.dsd", || {
        bipartite.iter().map(|bd| detect_dense_subgraphs(bd, &dsd_config).0).collect()
    });
    m.insert("shingle.dsd_s", tracer.seconds("shingle.dsd"));
    assert_eq!(
        dense.iter().map(Vec::len).sum::<usize>(),
        n_dense,
        "DSD alone and DSD inside the pipeline report different family counts"
    );

    // ---- align, alone: replay the first ψ_ccd candidates on one thread ----
    let engine = cluster.engine();
    let mut tiers = [0u64; 4];
    let mut replay_cells = 0u64;
    let replayed = pairs_ccd.len().min(REPLAY_PAIRS);
    tracer.span("align.replay", || {
        for p in &pairs_ccd[..replayed] {
            let anchor = Anchor { x_pos: p.a_pos, y_pos: p.b_pos, len: p.len };
            let v = engine.overlaps(nr_set.codes(p.a), nr_set.codes(p.b), Some(anchor));
            tiers[v.tier as usize] += 1;
            replay_cells += v.cells_computed;
        }
    });
    m.insert(
        "align.replay_gcells_per_s",
        replay_cells as f64 / 1e9 / tracer.seconds("align.replay"),
    );
    for (name, &n) in
        ["align.tier0_share", "align.tier1_share", "align.tier2_share", "align.tier3_share"]
            .into_iter()
            .zip(&tiers)
    {
        m.insert(name, if replayed == 0 { 0.0 } else { n as f64 / replayed as f64 });
    }

    Traced { metrics: m, table_one }
}
