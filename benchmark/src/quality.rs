//! Pairwise precision and sensitivity of a reported clustering against the
//! generator's labels (the paper's §V measures), over every read: a read in
//! no reported family is a singleton, and so is every noise read in truth.

use std::collections::HashMap;

fn pairs(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Pairs reported together that belong together ÷ pairs reported together.
    pub precision: f64,
    /// Pairs reported together that belong together ÷ pairs that belong together.
    pub sensitivity: f64,
}

/// `families` hold read indices into `labels`; the families are disjoint.
pub fn pairwise<S: AsRef<str>>(families: &[Vec<usize>], labels: &[S]) -> Quality {
    let mut together_and_right = 0u64;
    let mut together = 0u64;
    for family in families {
        together += pairs(family.len());
        let mut by_label: HashMap<&str, usize> = HashMap::new();
        for &read in family {
            *by_label.entry(labels[read].as_ref()).or_default() += 1;
        }
        together_and_right += by_label.values().map(|&n| pairs(n)).sum::<u64>();
    }
    let mut by_label: HashMap<&str, usize> = HashMap::new();
    for label in labels {
        *by_label.entry(label.as_ref()).or_default() += 1;
    }
    let belong_together: u64 = by_label.values().map(|&n| pairs(n)).sum();
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    Quality {
        precision: ratio(together_and_right, together),
        sensitivity: ratio(together_and_right, belong_together),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_family_example_by_hand() {
        // Truth: A = {0,1,2,3}, B = {4,5,6}, C = {7,8}, noise 9.
        let labels = ["A", "A", "A", "A", "B", "B", "B", "C", "C", "n0"];
        // Reported: {0,1,2} (3 right pairs), {3,4,5} (1 right of 3),
        // {7,8,9} (1 right of 3); read 6 is left out.
        let families = vec![vec![0, 1, 2], vec![3, 4, 5], vec![7, 8, 9]];
        let q = pairwise(&families, &labels);
        // 5 right pairs of 9 reported; truth holds 6 + 3 + 1 = 10 pairs.
        assert_eq!(q, Quality { precision: 5.0 / 9.0, sensitivity: 0.5 });
    }

    #[test]
    fn perfect_and_empty_clusterings() {
        let labels = ["A", "A", "B", "B"];
        let q = pairwise(&[vec![0, 1], vec![2, 3]], &labels);
        assert_eq!(q, Quality { precision: 1.0, sensitivity: 1.0 });
        assert_eq!(pairwise(&[], &labels), Quality { precision: 0.0, sensitivity: 0.0 });
    }
}
