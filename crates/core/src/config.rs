//! Pipeline-level configuration.

use pfam_cluster::ClusterConfig;
use pfam_shingle::ShingleParams;

/// The bipartite reduction the dense-subgraph stage uses (Section III):
/// `Bd`, global-similarity duplication of the component graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduction {
    /// `Bd`: global-similarity duplication, post-filtered with τ.
    GlobalSimilarity {
        /// Agreement cutoff τ for `|A∩B| / |A∪B|`.
        tau: f64,
    },
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// RR + CCD engine parameters.
    pub cluster: ClusterConfig,
    /// Shingle parameters for dense-subgraph detection.
    pub shingle: ShingleParams,
    /// The bipartite reduction and its τ.
    pub reduction: Reduction,
    /// Only components with at least this many members reach the
    /// dense-subgraph stage (paper: 5).
    pub min_component_size: usize,
    /// Minimum reported dense-subgraph size (paper: 5).
    pub min_subgraph_size: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            cluster: ClusterConfig::default(),
            shingle: ShingleParams::default(),
            reduction: Reduction::GlobalSimilarity { tau: 0.5 },
            min_component_size: 5,
            min_subgraph_size: 5,
        }
    }
}

impl PipelineConfig {
    /// A configuration suited to small synthetic test sets: shorter ψ,
    /// cheaper shingles, size cutoffs of 2.
    pub fn for_tests() -> PipelineConfig {
        PipelineConfig {
            cluster: ClusterConfig::for_short_sequences(),
            shingle: ShingleParams { s1: 2, c1: 60, s2: 1, c2: 20, seed: 0x7e57 },
            reduction: Reduction::GlobalSimilarity { tau: 0.3 },
            min_component_size: 2,
            min_subgraph_size: 2,
        }
    }

    /// Cap the index plane's working memory at `bytes`: the GSA goes
    /// partitioned when the monolithic index would not fit. Results are
    /// bit-identical for every cap; `0` removes the limit.
    pub fn with_mem_budget(mut self, bytes: u64) -> PipelineConfig {
        self.cluster.budget = if bytes == 0 {
            pfam_seq::MemoryBudget::unlimited()
        } else {
            pfam_seq::MemoryBudget::limited(bytes)
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.min_component_size, 5);
        assert_eq!(c.min_subgraph_size, 5);
        assert_eq!(c.shingle.s1, 5);
        assert_eq!(c.shingle.c1, 300);
        assert!(matches!(c.reduction, Reduction::GlobalSimilarity { .. }));
    }

    #[test]
    fn test_config_is_smaller() {
        let c = PipelineConfig::for_tests();
        assert!(c.shingle.c1 < 300);
        assert_eq!(c.min_subgraph_size, 2);
    }

    #[test]
    fn with_mem_budget_reaches_the_cluster_layer() {
        let c = PipelineConfig::for_tests();
        assert!(!c.cluster.budget.is_limited(), "unlimited by default");
        let c = c.with_mem_budget(1 << 20);
        assert_eq!(c.cluster.budget.remaining(), 1 << 20);
        let c = c.with_mem_budget(0);
        assert!(!c.cluster.budget.is_limited(), "0 clears the cap");
    }
}
