//! Descriptive statistics over sequence collections.

use crate::sequence::SequenceSet;

/// Summary of the length distribution of a [`SequenceSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct LengthStats {
    /// Number of sequences.
    pub count: usize,
    /// Total residues.
    pub total: usize,
    /// Shortest sequence length (0 for an empty set).
    pub min: usize,
    /// Longest sequence length (0 for an empty set).
    pub max: usize,
    /// Mean length.
    pub mean: f64,
    /// Median length (lower median for even counts; 0 for empty).
    pub median: usize,
    /// Population standard deviation of lengths.
    pub std_dev: f64,
}

impl LengthStats {
    /// Compute length statistics for `set`.
    pub fn of(set: &SequenceSet) -> LengthStats {
        let mut lens: Vec<usize> = set.ids().map(|id| set.seq_len(id)).collect();
        if lens.is_empty() {
            return LengthStats {
                count: 0,
                total: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0,
                std_dev: 0.0,
            };
        }
        lens.sort_unstable();
        let count = lens.len();
        let total: usize = lens.iter().sum();
        let mean = total as f64 / count as f64;
        let var = lens.iter().map(|&l| (l as f64 - mean).powi(2)).sum::<f64>() / count as f64;
        LengthStats {
            count,
            total,
            min: lens[0],
            max: lens[count - 1],
            mean,
            median: lens[(count - 1) / 2],
            std_dev: var.sqrt(),
        }
    }
}

impl std::fmt::Display for LengthStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} total={} len[min={} median={} mean={:.1} max={}] sd={:.1}",
            self.count, self.total, self.min, self.median, self.mean, self.max, self.std_dev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SequenceSetBuilder;

    fn set_of(lens: &[usize]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, &l) in lens.iter().enumerate() {
            b.push_codes(format!("s{i}"), vec![0u8; l]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn empty_set_stats() {
        let s = LengthStats::of(&SequenceSet::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sequence() {
        let s = LengthStats::of(&set_of(&[7]));
        assert_eq!((s.min, s.max, s.median), (7, 7, 7));
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn known_distribution() {
        let s = LengthStats::of(&set_of(&[2, 4, 4, 4, 5, 5, 7, 9]));
        assert_eq!(s.count, 8);
        assert_eq!(s.total, 40);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 9);
        assert_eq!(s.median, 4);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_fields() {
        let s = LengthStats::of(&set_of(&[3, 5]));
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("total=8"));
    }
}
