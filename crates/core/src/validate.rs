//! Configuration validation: catch nonsense parameter combinations before
//! a multi-minute pipeline run silently produces garbage.

use crate::config::{PipelineConfig, Reduction};

/// A rejected configuration, with the offending parameter spelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Which parameter is invalid.
    pub parameter: &'static str,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.parameter, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Check `config` for internal consistency. Returns every problem found,
/// not just the first.
pub fn validate(config: &PipelineConfig) -> Vec<ConfigError> {
    let mut errors = Vec::new();
    let mut err = |parameter: &'static str, reason: String| {
        errors.push(ConfigError { parameter, reason });
    };

    if config.cluster.psi_ccd == 0 {
        err("cluster.psi_ccd", "ψ must be at least 1".into());
    }
    if config.cluster.psi_rr == 0 {
        err("cluster.psi_rr", "ψ must be at least 1".into());
    }
    if config.cluster.batch_size == 0 {
        err("cluster.batch_size", "batch size must be at least 1".into());
    }
    if config.cluster.max_pairs_per_node == 0 {
        err("cluster.max_pairs_per_node", "per-node cap must be at least 1".into());
    }
    for (name, v) in [
        ("cluster.containment.min_similarity", config.cluster.containment.min_similarity),
        ("cluster.containment.min_coverage", config.cluster.containment.min_coverage),
        ("cluster.overlap.min_similarity", config.cluster.overlap.min_similarity),
        ("cluster.overlap.min_longer_coverage", config.cluster.overlap.min_longer_coverage),
    ] {
        if !(0.0..=1.0).contains(&v) || v.is_nan() {
            err(name, format!("{v} is not a fraction in [0, 1]"));
        }
    }
    if config.shingle.s1 == 0 {
        err("shingle.s1", "shingle size must be at least 1".into());
    }
    if config.shingle.c1 == 0 {
        err("shingle.c1", "permutation count must be at least 1".into());
    }
    if config.shingle.s2 == 0 {
        err("shingle.s2", "shingle size must be at least 1".into());
    }
    if config.shingle.c2 == 0 {
        err("shingle.c2", "permutation count must be at least 1".into());
    }
    let Reduction::GlobalSimilarity { tau } = config.reduction;
    if !(0.0..=1.0).contains(&tau) || tau.is_nan() {
        err("reduction.tau", format!("{tau} is not a fraction in [0, 1]"));
    }
    if config.min_subgraph_size > config.min_component_size {
        err(
            "min_subgraph_size",
            format!(
                "minimum subgraph size {} exceeds minimum component size {} — no component \
                 could ever yield a subgraph that large after filtering",
                config.min_subgraph_size, config.min_component_size
            ),
        );
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    #[test]
    fn defaults_are_valid() {
        assert!(validate(&PipelineConfig::default()).is_empty());
        assert!(validate(&PipelineConfig::for_tests()).is_empty());
    }

    #[test]
    fn zero_psi_rejected() {
        let mut c = PipelineConfig::default();
        c.cluster.psi_ccd = 0;
        let errs = validate(&c);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].parameter, "cluster.psi_ccd");
        assert!(errs[0].to_string().contains("psi_ccd"));
    }

    #[test]
    fn out_of_range_fractions_rejected() {
        let mut c = PipelineConfig::default();
        c.cluster.overlap.min_similarity = 1.5;
        c.cluster.containment.min_coverage = -0.1;
        let errs = validate(&c);
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn bad_tau_rejected() {
        let c = PipelineConfig {
            reduction: crate::config::Reduction::GlobalSimilarity { tau: f64::NAN },
            ..PipelineConfig::default()
        };
        let errs = validate(&c);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].parameter, "reduction.tau");
    }

    #[test]
    fn inconsistent_sizes_rejected() {
        let c = PipelineConfig {
            min_component_size: 3,
            min_subgraph_size: 10,
            ..PipelineConfig::default()
        };
        let errs = validate(&c);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].parameter, "min_subgraph_size");
    }

    #[test]
    fn multiple_errors_all_reported() {
        let mut c = PipelineConfig::default();
        c.cluster.psi_rr = 0;
        c.cluster.batch_size = 0;
        c.shingle.c1 = 0;
        assert_eq!(validate(&c).len(), 3);
    }
}
