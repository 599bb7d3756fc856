//! Residue composition statistics.
//!
//! Used for data-quality reporting (does a synthetic set look like real
//! protein?) and by the generator's own validation: the relative entropy
//! of a set's composition against the Robinson–Robinson background should
//! be near zero for protein-like data and large for biased data.

use crate::alphabet::ALPHABET_SIZE;
use crate::sequence::SequenceSet;

/// Background amino-acid frequencies (Robinson & Robinson), workspace
/// residue order, excluding `X`.
pub const BACKGROUND_FREQS: [f64; 20] = [
    0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.051, 0.091, 0.057, 0.022,
    0.039, 0.052, 0.071, 0.058, 0.013, 0.032, 0.064,
];

/// Observed residue composition of a sequence collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    counts: [u64; ALPHABET_SIZE],
    total: u64,
}

impl Composition {
    /// Count residues across the whole set.
    pub fn of(set: &SequenceSet) -> Composition {
        let mut counts = [0u64; ALPHABET_SIZE];
        for seq in set.iter() {
            for &c in seq.codes {
                counts[c as usize] += 1;
            }
        }
        Composition { total: counts.iter().sum(), counts }
    }

    /// Observed frequency of residue code `c` (including `X`).
    pub fn frequency(&self, c: u8) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[c as usize] as f64 / self.total as f64
        }
    }

    /// Fraction of `X` residues.
    pub fn unknown_fraction(&self) -> f64 {
        self.frequency((ALPHABET_SIZE - 1) as u8)
    }

    /// Kullback–Leibler divergence (bits) of the observed standard-residue
    /// distribution from the background, ignoring `X`. Near 0 for
    /// protein-like data.
    pub fn relative_entropy_vs_background(&self) -> f64 {
        let standard_total: u64 = self.counts[..20].iter().sum();
        if standard_total == 0 {
            return 0.0;
        }
        let mut kl = 0.0;
        for (c, &bg) in BACKGROUND_FREQS.iter().enumerate() {
            let p = self.counts[c] as f64 / standard_total as f64;
            if p > 0.0 {
                kl += p * (p / bg).log2();
            }
        }
        kl.max(0.0)
    }

    /// Shannon entropy (bits) of the full observed distribution.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / self.total as f64;
                -p * p.log2()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::SequenceSetBuilder;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn background_sums_to_about_one() {
        let total: f64 = BACKGROUND_FREQS.iter().sum();
        assert!((total - 1.0).abs() < 0.01);
    }

    #[test]
    fn frequencies_counted() {
        let set = set_of(&["AAAA", "CCCC"]);
        let comp = Composition::of(&set);
        assert_eq!(comp.total, 8);
        assert!((comp.frequency(0) - 0.5).abs() < 1e-12); // A
        assert!((comp.frequency(4) - 0.5).abs() < 1e-12); // C
        assert_eq!(comp.frequency(5), 0.0);
    }

    #[test]
    fn unknown_fraction_tracks_x() {
        let set = set_of(&["AXXA"]);
        assert!((Composition::of(&set).unknown_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn background_sampled_data_has_low_divergence() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let codes = pfam_datagen_shim::random_peptide_local(&mut rng, 50_000);
        let mut b = SequenceSetBuilder::new();
        b.push_codes("sample".into(), codes).unwrap();
        let comp = Composition::of(&b.finish());
        let kl = comp.relative_entropy_vs_background();
        assert!(kl < 0.01, "background-sampled data diverges: {kl}");
    }

    /// Local residue sampler mirroring `pfam-datagen`'s (which cannot be a
    /// dependency here without a cycle).
    mod pfam_datagen_shim {
        use super::super::BACKGROUND_FREQS;
        use rand::Rng;
        pub fn random_peptide_local<R: Rng>(rng: &mut R, len: usize) -> Vec<u8> {
            (0..len)
                .map(|_| {
                    let mut x: f64 = rng.gen_range(0.0..1.0);
                    for (code, &p) in BACKGROUND_FREQS.iter().enumerate() {
                        if x < p {
                            return code as u8;
                        }
                        x -= p;
                    }
                    19
                })
                .collect()
        }
    }

    #[test]
    fn biased_data_has_high_divergence() {
        let set = set_of(&["WWWWWWWWWWWWWWWW"]);
        let kl = Composition::of(&set).relative_entropy_vs_background();
        assert!(kl > 3.0, "poly-W should diverge strongly, got {kl}");
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(Composition::of(&SequenceSet::default()).entropy_bits(), 0.0);
        let uniform = set_of(&["ARNDCQEGHILKMFPSTWYV"]);
        let e = Composition::of(&uniform).entropy_bits();
        assert!((e - 20f64.log2()).abs() < 1e-9);
        let mono = set_of(&["AAAAAA"]);
        assert_eq!(Composition::of(&mono).entropy_bits(), 0.0);
    }

    #[test]
    fn empty_set_is_safe() {
        let comp = Composition::of(&SequenceSet::default());
        assert_eq!(comp.total, 0);
        assert_eq!(comp.frequency(0), 0.0);
        assert_eq!(comp.relative_entropy_vs_background(), 0.0);
    }
}
