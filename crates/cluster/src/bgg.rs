//! Phase 3 — bipartite graph generation (Section IV-C).
//!
//! The dense-subgraph stage needs the *full* similarity graph among a
//! component's members, and CCD stops aligning a pair once its ends are
//! co-clustered. But CCD sees every ψ_ccd pair of the run and leaves each
//! as exactly one of an *edge* (aligned, accepted), *rejected* (aligned,
//! refused) or *deferred* (dropped by the closure filter unaligned — both
//! ends in one final component). So for a component C
//!
//! ```text
//! edges(C) = CCD's edges inside C  ∪  { p ∈ deferred(C) : verdict(p) }
//! ```
//!
//! and [`KnownPairs`] builds the graphs from exactly that: only deferred
//! pairs are verified, by the run's pair ledger where RR already filled
//! them, by CCD's own master loop where it filled a pair ahead of its
//! batch and then deferred it, and by one fill otherwise. A caller with no
//! CCD bookkeeping — a bare member list — gets its pairs from a suffix
//! index of the component alone ([`component_graph`]), every promising
//! pair verified. Both supplies feed one loop that verifies in slices of
//! [`VERIFY_SLICE`] pairs, the length of the master loop's window: the
//! verifier's candidate list is that long, whatever the component's size.

use std::sync::Arc;

use pfam_graph::CsrGraph;
use pfam_seq::{materialize_subset, Reservation, SeqId, SeqStore, SubsetStore};
use pfam_suffix::{estimated_index_bytes, parallel_pairs, with_match_tree};

use crate::config::ClusterConfig;
use crate::core::{CorePhase, Verdict, Verifier, VerifyOn, VERIFY_SLICE};
use crate::ledger::PairLedger;
use crate::trace::BatchRecord;

/// The similarity graph of one connected component.
#[derive(Debug, Clone, PartialEq)]
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

/// Verify `pairs` over `set` slice by slice: each slice's work is folded
/// into `record` and its accepted pairs — as the `local` index of each end
/// — into `edges` before the next slice is drawn.
fn verify_into(
    verifier: &Verifier,
    set: &dyn SeqStore,
    mut pairs: impl Iterator<Item = (u32, u32)>,
    local: impl Fn(u32) -> u32,
    record: &mut BatchRecord,
    edges: &mut Vec<(u32, u32)>,
) {
    let mut slice = Vec::new();
    loop {
        slice.clear();
        slice.extend(pairs.by_ref().take(VERIFY_SLICE));
        if slice.is_empty() {
            return;
        }
        record.n_generated += slice.len();
        for v in verifier.verify(set, &slice, VerifyOn::Pool) {
            record.note_verdict(&v);
            if v.accept {
                edges.push((local(v.a), local(v.b)));
            }
        }
    }
}

/// Build the similarity graph of one component from its members alone.
///
/// The members are indexed on their own (local ids `0..k`, copied out of
/// the store; a refused `bgg-gsa` reservation degrades to accounting-only) and
/// every ψ_ccd pair of that index is verified: a modified PaCE pass with
/// the maximal-match heuristic and no closure filter, as in the paper.
/// The pairs are mined into one vector, 20 B a pair, held while they are
/// verified. Returns the graph plus the alignment work performed (for the
/// trace).
pub fn component_graph(
    set: &dyn SeqStore,
    members: &[SeqId],
    config: &ClusterConfig,
) -> (ComponentGraph, BatchRecord) {
    let mut sorted: Vec<SeqId> = members.to_vec();
    sorted.sort_unstable();
    let mut record = BatchRecord::default();
    let mut edges = Vec::new();
    if sorted.len() > 1 {
        let subset = materialize_subset(set, &sorted);
        let index_bytes = estimated_index_bytes(subset.total_residues(), subset.len());
        let _gsa_held = config.budget.try_reserve("bgg-gsa", index_bytes).ok();
        let verifier = Verifier::new(config, CorePhase::Ccd);
        // One thread: components already run side by side in the back half.
        with_match_tree(&subset, config.psi_ccd, config.max_pairs_per_node, 1, |tree, matches| {
            let (pairs, _) = parallel_pairs(tree, matches, 1);
            let pairs = pairs.into_iter().map(|p| (p.a.0, p.b.0));
            verify_into(&verifier, &subset, pairs, |local| local, &mut record, &mut edges)
        });
    }
    (ComponentGraph { graph: CsrGraph::from_edges(sorted.len(), &edges), members: sorted }, record)
}

/// What a finished front half knows about the ψ_ccd pairs inside its
/// components — the back half's pair supply when CCD mined the exact
/// stream. Ids are CCD's: position `i` of RR's kept list.
pub struct KnownPairs<'a> {
    /// RR's survivors under those ids.
    store: SubsetStore<'a>,
    /// CCD's criterion, answered from RR's ledger and CCD's fills ahead
    /// where it can be.
    verifier: Verifier,
    /// CCD's fills ahead dropped with the components under the size cut.
    ahead_dropped: usize,
    components: &'a [Vec<SeqId>],
    /// Id → rank among its component's members.
    local_of: Vec<u32>,
    /// CCD's accepted edges and the pairs it deferred.
    edges: ByComponent,
    deferred: ByComponent,
    /// The deferred pairs and the verdicts filled ahead on the run's
    /// budget, for as long as they are held.
    _deferred_held: Option<Reservation>,
}

/// Bytes reserved per deferred pair held.
const DEFERRED_PAIR_BYTES: u64 = std::mem::size_of::<(u32, u32)>() as u64;
/// Bytes reserved per verdict filled ahead held.
const FILLED_VERDICT_BYTES: u64 = std::mem::size_of::<Verdict>() as u64;

/// Pairs sorted by the component their ends share: component `c` owns
/// `pairs[ends[c - 1]..ends[c]]`.
struct ByComponent {
    pairs: Vec<(u32, u32)>,
    ends: Vec<usize>,
}

impl ByComponent {
    /// Group `pairs` over `n` components, dropping repeats (and any pair a
    /// damaged checkpoint put across two components).
    fn new(mut pairs: Vec<(u32, u32)>, comp_of: &[u32], n: usize) -> ByComponent {
        pairs.retain(|&(a, b)| comp_of[a as usize] == comp_of[b as usize]);
        pairs.sort_unstable_by_key(|&(a, b)| (comp_of[a as usize], a, b));
        pairs.dedup();
        pairs.shrink_to_fit();
        let mut ends = vec![0usize; n];
        for &(a, _) in &pairs {
            ends[comp_of[a as usize] as usize] += 1;
        }
        let mut total = 0;
        for end in &mut ends {
            total += *end;
            *end = total;
        }
        ByComponent { pairs, ends }
    }

    fn of(&self, c: usize) -> &[(u32, u32)] {
        &self.pairs[c.checked_sub(1).map_or(0, |prev| self.ends[prev])..self.ends[c]]
    }
}

impl<'a> KnownPairs<'a> {
    /// Gather what CCD left over the reads `kept` of `input`: its
    /// `components` and accepted `edges`, the `deferred` pairs it never
    /// admitted, and the verdicts of those it `filled_ahead` all the same.
    /// `ledger` is RR's, over the same ids. Graphs will be asked for
    /// components of at least `min_size` members only, so the deferred
    /// pairs and verdicts of smaller ones — never to be read — are dropped
    /// here; the rest are reserved on the budget (`deferred-pairs`, 8 B a
    /// pair and 40 B a verdict) while this value lives. A refusal is
    /// accounting-only: the pairs are needed for a correct graph.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        input: &'a dyn SeqStore,
        config: &ClusterConfig,
        kept: &[SeqId],
        ledger: &Arc<PairLedger>,
        components: &'a [Vec<SeqId>],
        edges: &[(SeqId, SeqId)],
        mut deferred: Vec<(u32, u32)>,
        mut filled_ahead: Vec<Verdict>,
        min_size: usize,
    ) -> KnownPairs<'a> {
        let (mut comp_of, mut local_of) = (vec![0u32; kept.len()], vec![0u32; kept.len()]);
        for (c, members) in components.iter().enumerate() {
            for (local, id) in members.iter().enumerate() {
                comp_of[id.index()] = c as u32;
                local_of[id.index()] = local as u32;
            }
        }
        let edges = edges.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let large = |a: u32| components[comp_of[a as usize] as usize].len() >= min_size;
        deferred.retain(|&(a, _)| large(a));
        let deferred = ByComponent::new(deferred, &comp_of, components.len());
        let n_ahead = filled_ahead.len();
        filled_ahead.retain(|v| large(v.a) && comp_of[v.a as usize] == comp_of[v.b as usize]);
        let verifier = Verifier::new(config, CorePhase::Ccd)
            .with_ledger(ledger.clone())
            .with_filled(filled_ahead);
        let held = deferred.pairs.len() as u64 * DEFERRED_PAIR_BYTES
            + verifier.n_filled() as u64 * FILLED_VERDICT_BYTES;
        KnownPairs {
            store: SubsetStore::new(input, kept.to_vec()),
            ahead_dropped: n_ahead - verifier.n_filled(),
            verifier,
            components,
            local_of,
            edges: ByComponent::new(edges, &comp_of, components.len()),
            deferred,
            _deferred_held: config.budget.try_reserve("deferred-pairs", held).ok(),
        }
    }

    /// CCD's verdicts filled ahead: `(held, dropped)` — held for the
    /// graphs, dropped with the components under the size cut.
    pub fn filled_ahead(&self) -> (usize, usize) {
        (self.verifier.n_filled(), self.ahead_dropped)
    }

    /// Deferred pairs inside component `c` — the work its graph costs.
    pub fn n_deferred(&self, c: usize) -> usize {
        self.deferred.of(c).len()
    }

    /// The similarity graph of component `c` (members as `input` ids):
    /// CCD's edges inside it plus its deferred pairs that verify.
    pub fn component_graph(&self, c: usize) -> (ComponentGraph, BatchRecord) {
        let local = |id: u32| self.local_of[id as usize];
        let mut edges: Vec<(u32, u32)> =
            self.edges.of(c).iter().map(|&(a, b)| (local(a), local(b))).collect();
        let mut record = BatchRecord::default();
        let pairs = self.deferred.of(c).iter().copied();
        verify_into(&self.verifier, &self.store, pairs, local, &mut record, &mut edges);
        let members: Vec<SeqId> =
            self.components[c].iter().map(|&id| self.store.original_id(id)).collect();
        (ComponentGraph { graph: CsrGraph::from_edges(members.len(), &edges), members }, record)
    }
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
    fn full_edge_set_exceeds_ccd_spanning_edges() {
        // CCD stops aligning once merged; BGG must find *all* edges.
        let set = set_of(&[FAM; 8]);
        let ccd = crate::ccd::run_ccd(&set, &crate::ClusterConfig { batch_size: 4, ..config() });
        assert_eq!(ccd.components.len(), 1);
        let (cg, record) = component_graph(&set, &ccd.components[0], &config());
        assert_eq!(cg.graph.n_edges(), 28, "all C(8,2) edges");
        assert!(ccd.edges.len() < 28, "CCD found only spanning edges");
        assert_eq!((record.n_generated, record.n_aligned), (28, 28));
    }

    #[test]
    fn singletons_and_unsorted_members() {
        let set = set_of(&["WWWWHHHHGGGGCCCC", FAM, FAM]);
        let (cg, record) = component_graph(&set, &[SeqId(0)], &config());
        assert_eq!((cg.graph.n_vertices(), cg.graph.n_edges(), record.n_aligned), (1, 0, 0));
        let (cg, _) = component_graph(&set, &[SeqId(2), SeqId(1)], &config());
        assert_eq!(cg.members, vec![SeqId(1), SeqId(2)], "sorted whatever the input order");
        assert_eq!(cg.original_id(1), SeqId(2));
        assert_eq!(cg.graph.neighbors(0), &[1]);
    }
}
