//! Phase 3 — bipartite graph generation (Section IV-C).
//!
//! For each connected component the dense-subgraph stage needs the *full*
//! similarity graph among its members — the CCD phase stops aligning a
//! pair as soon as its endpoints are co-clustered, so its edge list is a
//! spanning subset, not the whole graph. As in the paper, this phase runs
//! a modified PaCE pass per component that applies only the maximal-match
//! heuristic (no transitive-closure skipping) and verifies every promising
//! pair.

use rayon::prelude::*;

use pfam_graph::CsrGraph;
use pfam_seq::{materialize_subset, SeqId, SeqStore};
use pfam_suffix::{maximal::all_pairs, with_match_tree};

use crate::config::ClusterConfig;
use crate::core::{Candidate, CorePhase, Verifier};
use crate::trace::{BatchRecord, PhaseTrace};

/// The similarity graph of one connected component.
#[derive(Debug, Clone)]
pub struct ComponentGraph {
    /// The component's members (original set ids, ascending).
    pub members: Vec<SeqId>,
    /// Similarity graph over `0..members.len()` (local indices).
    pub graph: CsrGraph,
}

impl ComponentGraph {
    /// Map a local vertex back to the original sequence id.
    pub fn original_id(&self, local: u32) -> SeqId {
        self.members[local as usize]
    }
}

/// Reusable per-worker buffers for repeated [`component_graph_with`]
/// calls: candidate pairs, accepted edges, and the CSR pair staging area.
/// Grow-only, so a worker processing components largest-first allocates
/// only on its first (largest) component.
#[derive(Debug, Default)]
pub struct BggScratch {
    candidates: Vec<Candidate>,
    edges: Vec<(u32, u32)>,
    csr_pairs: Vec<(u32, u32)>,
}

impl BggScratch {
    /// Fresh, empty scratch.
    pub fn new() -> BggScratch {
        BggScratch::default()
    }

    /// Bytes currently held by the grow-only buffers — what this scratch
    /// contributes when an executor registers its arenas against a
    /// [`pfam_seq::MemoryBudget`]. Capacity, not length: the arena keeps
    /// its high-water allocation across components.
    pub fn footprint_bytes(&self) -> u64 {
        (self.candidates.capacity() * std::mem::size_of::<Candidate>()) as u64
            + (self.edges.capacity() * std::mem::size_of::<(u32, u32)>()) as u64
            + (self.csr_pairs.capacity() * std::mem::size_of::<(u32, u32)>()) as u64
    }
}

/// Build the similarity graph of one component.
///
/// Returns the graph plus the alignment work performed (for the trace).
pub fn component_graph(
    set: &dyn SeqStore,
    members: &[SeqId],
    config: &ClusterConfig,
) -> (ComponentGraph, BatchRecord) {
    component_graph_with(set, members, config, &mut BggScratch::new())
}

/// [`component_graph`] through a worker's [`BggScratch`] — identical
/// output, no per-component buffer allocation at steady state. (The
/// suffix index itself is rebuilt per component: its arrays are sized by
/// the component's residues and owned by the `GeneralizedSuffixArray`.)
pub fn component_graph_with(
    set: &dyn SeqStore,
    members: &[SeqId],
    config: &ClusterConfig,
    scratch: &mut BggScratch,
) -> (ComponentGraph, BatchRecord) {
    let mut sorted: Vec<SeqId> = members.to_vec();
    sorted.sort_unstable();
    if sorted.len() <= 1 {
        return (
            ComponentGraph { graph: CsrGraph::from_edges(sorted.len(), &[]), members: sorted },
            BatchRecord::default(),
        );
    }
    // Index only the component members (local ids 0..k): materialized
    // through the store trait, so a paged store reads just this
    // component's pages. The per-component GSA registers against the
    // budget; components are small relative to the index plane's chunks,
    // so a refused reservation degrades to accounting-only (BGG never
    // aborts mid-pipeline — the budgeted entry's feasibility check is the
    // fallible surface).
    let subset = materialize_subset(set, &sorted);
    let _gsa_held = config
        .mem
        .budget
        .try_reserve(
            "bgg-gsa",
            pfam_suffix::estimated_index_bytes(subset.total_residues(), subset.len()),
        )
        .ok();
    // One thread: components already run side by side in the back half.
    let pairs = with_match_tree(&subset, config.psi_ccd, config.max_pairs_per_node, 1, all_pairs);
    let n_generated = pairs.len();
    scratch.candidates.clear();
    scratch.candidates.extend(pairs.iter().map(|p| Candidate { a: p.a, b: p.b }));
    let verifier = Verifier::new(config, CorePhase::Ccd);
    let verdicts = verifier.verify_par(&subset, &scratch.candidates);
    scratch.edges.clear();
    let mut task_cells = Vec::with_capacity(verdicts.len());
    let (mut cells_computed, mut cells_skipped) = (0u64, 0u64);
    for v in verdicts {
        task_cells.push(v.cells);
        cells_computed += v.cells_computed;
        cells_skipped += v.cells_skipped;
        if v.accept {
            scratch.edges.push((v.a, v.b));
        }
    }
    let record = BatchRecord {
        n_generated,
        n_aligned: task_cells.len(),
        align_cells: task_cells.iter().sum(),
        task_cells,
        cells_computed,
        cells_skipped,
        ..BatchRecord::default()
    };
    let graph = CsrGraph::from_edges_reusing(sorted.len(), &scratch.edges, &mut scratch.csr_pairs);
    (ComponentGraph { graph, members: sorted }, record)
}

/// Build similarity graphs for every component with ≥ `min_size` members,
/// in parallel across components. Returns the graphs plus a combined
/// trace.
pub fn all_component_graphs(
    set: &dyn SeqStore,
    components: &[Vec<SeqId>],
    min_size: usize,
    config: &ClusterConfig,
) -> (Vec<ComponentGraph>, PhaseTrace) {
    let selected: Vec<&Vec<SeqId>> = components.iter().filter(|c| c.len() >= min_size).collect();
    let results: Vec<(ComponentGraph, BatchRecord)> =
        selected.par_iter().map(|members| component_graph(set, members, config)).collect();
    let mut graphs = Vec::with_capacity(results.len());
    let mut trace = PhaseTrace {
        index_residues: selected
            .iter()
            .flat_map(|c| c.iter())
            .map(|&id| set.seq_len(id) as u64)
            .sum(),
        ..PhaseTrace::default()
    };
    for (g, record) in results {
        graphs.push(g);
        trace.batches.push(record);
    }
    (graphs, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_seq::{SequenceSet, SequenceSetBuilder};

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    fn config() -> ClusterConfig {
        ClusterConfig::for_short_sequences()
    }

    const FAM: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";

    #[test]
    fn clique_for_identical_members() {
        let set = set_of(&[FAM, FAM, FAM, FAM]);
        let members: Vec<SeqId> = set.ids().collect();
        let (cg, record) = component_graph(&set, &members, &config());
        assert_eq!(cg.graph.n_vertices(), 4);
        assert_eq!(cg.graph.n_edges(), 6, "identical members form a clique");
        assert!(record.n_aligned >= 6);
    }

    #[test]
    fn full_edge_set_exceeds_ccd_spanning_edges() {
        // CCD stops aligning once merged; BGG must find *all* edges.
        let seqs = vec![FAM; 8];
        let set = set_of(&seqs);
        let ccd = crate::ccd::run_ccd(&set, &crate::ClusterConfig { batch_size: 4, ..config() });
        assert_eq!(ccd.components.len(), 1);
        let (cg, _) = component_graph(&set, &ccd.components[0], &config());
        assert_eq!(cg.graph.n_edges(), 28, "all C(8,2) edges");
        assert!(ccd.edges.len() < 28, "CCD found only spanning edges");
    }

    #[test]
    fn singleton_component() {
        let set = set_of(&[FAM]);
        let (cg, record) = component_graph(&set, &[SeqId(0)], &config());
        assert_eq!(cg.graph.n_vertices(), 1);
        assert_eq!(cg.graph.n_edges(), 0);
        assert_eq!(record.n_aligned, 0);
    }

    #[test]
    fn local_ids_map_back() {
        let set = set_of(&["WWWWHHHHGGGGCCCC", FAM, FAM]);
        let (cg, _) = component_graph(&set, &[SeqId(1), SeqId(2)], &config());
        assert_eq!(cg.original_id(0), SeqId(1));
        assert_eq!(cg.original_id(1), SeqId(2));
        assert!(cg.graph.has_edge(0, 1));
    }

    #[test]
    fn all_graphs_filters_small_components() {
        let set = set_of(&[FAM, FAM, "WWWWHHHHGGGGCCCC"]);
        let components = vec![vec![SeqId(0), SeqId(1)], vec![SeqId(2)]];
        let (graphs, trace) = all_component_graphs(&set, &components, 2, &config());
        assert_eq!(graphs.len(), 1);
        assert_eq!(trace.batches.len(), 1);
    }

    #[test]
    fn members_sorted_regardless_of_input_order() {
        let set = set_of(&[FAM, FAM]);
        let (cg, _) = component_graph(&set, &[SeqId(1), SeqId(0)], &config());
        assert_eq!(cg.members, vec![SeqId(0), SeqId(1)]);
    }

    #[test]
    fn scratch_reuse_is_identical_across_components() {
        let set = set_of(&[FAM, FAM, FAM, FAM, "WWWWHHHHGGGGCCCC", FAM, FAM]);
        let comps: Vec<Vec<SeqId>> = vec![
            vec![SeqId(0), SeqId(1), SeqId(2), SeqId(3)],
            vec![SeqId(5), SeqId(6)],
            vec![SeqId(4)],
        ];
        let mut scratch = BggScratch::new();
        for members in &comps {
            let (want_cg, want_rec) = component_graph(&set, members, &config());
            let (got_cg, got_rec) = component_graph_with(&set, members, &config(), &mut scratch);
            assert_eq!(got_cg.members, want_cg.members);
            assert_eq!(got_cg.graph, want_cg.graph);
            assert_eq!(got_rec, want_rec);
        }
    }
}
