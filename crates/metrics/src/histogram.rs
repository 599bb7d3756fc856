//! Fixed-width bucket histograms (Figure 5 reports the dense-subgraph size
//! distribution in width-5 buckets labelled "5-9", "10-14", …).

/// A histogram over fixed-width integer buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: usize,
    /// `counts[i]` covers values `[i·width, (i+1)·width)`.
    counts: Vec<u64>,
    n_samples: u64,
}

impl Histogram {
    /// Build a histogram of `values` with buckets of `width`.
    pub fn new(width: usize, values: impl IntoIterator<Item = usize>) -> Histogram {
        assert!(width >= 1, "bucket width must be positive");
        let mut counts: Vec<u64> = Vec::new();
        let mut n_samples = 0;
        for v in values {
            let bucket = v / width;
            if bucket >= counts.len() {
                counts.resize(bucket + 1, 0);
            }
            counts[bucket] += 1;
            n_samples += 1;
        }
        Histogram { width, counts, n_samples }
    }

    /// Non-empty buckets as `(label, count)`, in increasing bucket order,
    /// labelled "lo-hi" like the paper's Figure 5 axis.
    pub fn non_empty(&self) -> Vec<(String, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (format!("{}-{}", i * self.width, (i + 1) * self.width - 1), c))
            .collect()
    }

    /// Simple textual rendering, one bucket per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, count) in self.non_empty() {
            let bar: String = std::iter::repeat_n('#', count.min(60) as usize).collect();
            out.push_str(&format!("{label:>9} | {count:>6} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_assigned_correctly() {
        let h = Histogram::new(5, [5, 9, 10, 14, 15, 100]);
        let counts: Vec<u64> = h.non_empty().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, [2, 2, 1, 1], "5-9, 10-14, 15-19 and 100-104; nothing between");
        assert_eq!(h.n_samples, 6);
    }

    #[test]
    fn labels_match_paper_style() {
        let h = Histogram::new(5, [7, 12]);
        let buckets = h.non_empty();
        assert_eq!(buckets[0].0, "5-9");
        assert_eq!(buckets[1].0, "10-14");
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(5, []);
        assert_eq!(h.n_samples, 0);
        assert!(h.non_empty().is_empty());
        assert_eq!(h.render(), "");
    }

    #[test]
    fn render_contains_counts() {
        let h = Histogram::new(10, [3, 3, 3]);
        let text = h.render();
        assert!(text.contains("0-9"));
        assert!(text.contains('3'));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = Histogram::new(0, [1]);
    }
}
