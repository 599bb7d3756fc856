//! Engine configuration: the user-tunable cutoffs of the paper
//! (footnote 3: "the cutoffs mentioned as part of our approach ... are
//! values that can be specified by the user as software parameters").

use pfam_align::{AlignEngine, AlignEngineKind, ContainmentParams, OverlapParams};
use pfam_seq::complexity::MaskParams;
use pfam_seq::{MemoryBudget, ScoringScheme};

/// Configuration shared by the RR and CCD phases.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Scoring scheme for verification alignments (BLOSUM62 11/1 default).
    pub scheme: ScoringScheme,
    /// Maximal-match length cutoff ψ for the RR phase. The paper derives
    /// ψ from the similarity cutoff: 98 % over 100 aligned residues forces
    /// a 33-residue exact match; for the 95 % containment test a more
    /// permissive ψ is used so that true containments are not missed.
    pub psi_rr: u32,
    /// Maximal-match cutoff ψ for the CCD phase (paper: 10 residues).
    pub psi_ccd: u32,
    /// Definition-1 containment parameters.
    pub containment: ContainmentParams,
    /// Definition-2 overlap parameters.
    pub overlap: OverlapParams,
    /// Master-round batch size: pairs pulled from the generator per round.
    pub batch_size: usize,
    /// Per-tree-node pair cap (guards low-complexity blowups).
    pub max_pairs_per_node: usize,
    /// Optional low-complexity masking applied to the *index* copy of the
    /// sequences: masked residues become `X` and generate no promising
    /// pairs, while verification alignments still see the original
    /// residues. `None` disables masking.
    pub mask: Option<MaskParams>,
    /// Worker-thread count for index construction and pair generation:
    /// `0` uses every available core, `n` uses exactly `n` workers (`1`
    /// runs on the calling thread). Outputs are bit-identical for every
    /// value.
    pub threads: usize,
    /// Which alignment engine the verification alignments run through.
    /// `Tiered` (default) is length screen → one-pass fill → direction
    /// traceback; `Reference` pins the full-matrix baseline. Verdicts — and therefore components and
    /// `families.tsv` — are bit-identical for both.
    pub align_engine: AlignEngineKind,
    /// The memory budget the index structures, the pair ledger and the
    /// deferred pairs reserve against; the index plane sizes its plan from
    /// it ([`crate::source::index_plan`]). *Shared* accounting state:
    /// clones share one counter, so a pipeline-wide budget threads through
    /// every phase's reservations. Default: unlimited (accounting only,
    /// nothing refused). Pair streams (and therefore every result) are
    /// bit-identical for every budget.
    pub budget: MemoryBudget,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            scheme: ScoringScheme::blosum62_default(),
            psi_rr: 15,
            psi_ccd: 10,
            containment: ContainmentParams::default(),
            overlap: OverlapParams::default(),
            // Small master rounds keep the transitive-closure filter sharp:
            // merges from one round prune the next round's pairs. PaCE
            // filters per pair; 128 is a batch granularity that preserves
            // most of that effect while still amortising worker dispatch.
            batch_size: 128,
            max_pairs_per_node: 100_000,
            mask: None,
            threads: 0,
            align_engine: AlignEngineKind::default(),
            budget: MemoryBudget::default(),
        }
    }
}

impl ClusterConfig {
    /// Config with small ψ values for short test sequences.
    pub fn for_short_sequences() -> ClusterConfig {
        ClusterConfig { psi_rr: 8, psi_ccd: 5, ..Default::default() }
    }

    /// Thread count for index construction: the `threads` knob as-is
    /// (`0` still means "all cores"; resolution happens downstream).
    pub fn index_threads(&self) -> usize {
        self.threads
    }

    /// Build the alignment engine this config selects (one per phase run;
    /// the engine is `Sync` and shared across worker threads).
    pub fn engine(&self) -> AlignEngine {
        AlignEngine::new(self.align_engine, self.scheme.clone(), self.containment, self.overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        let c = ClusterConfig::default();
        assert_eq!(c.psi_ccd, 10);
        assert_eq!(c.containment.min_similarity, 0.95);
        assert_eq!(c.overlap.min_similarity, 0.30);
        assert_eq!(c.overlap.min_longer_coverage, 0.80);
    }

    #[test]
    fn short_sequence_config_loosens_psi() {
        let c = ClusterConfig::for_short_sequences();
        assert!(c.psi_ccd < ClusterConfig::default().psi_ccd);
    }

    #[test]
    fn index_threads_follow_the_threads_knob() {
        let mut c = ClusterConfig::default();
        assert_eq!(c.index_threads(), 0); // all cores by default
        c.threads = 4;
        assert_eq!(c.index_threads(), 4);
        c.threads = 1;
        assert_eq!(c.index_threads(), 1); // the calling thread only
    }
}
