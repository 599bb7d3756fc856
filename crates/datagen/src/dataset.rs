//! Whole-dataset synthesis: families, fragments, redundancy, noise and
//! ground truth.
//!
//! This is the repository's substitute for the CAMERA/GOS sequence
//! download. The generator reproduces the statistical structure the
//! pipeline's heuristics exploit:
//!
//! * families descend from a common ancestor and share long exact words
//!   (so maximal-match filtering finds them),
//! * family sizes follow a skewed (Zipf-like) distribution — the GOS data
//!   had ~300 K clusters but only 542 with ≥ 2000 members,
//! * a fraction of reads are ≥95 %-contained copies of other reads (the
//!   redundancy the RR phase removes),
//! * shotgun-style fragments truncate members to a sub-range,
//! * noise ORFs belong to no family,
//! * optional shared *domains*: word blocks inserted into several families,
//!   so families that share only a domain block must still come out apart
//!   (`tests/pipeline_end_to_end.rs`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam_seq::{SeqId, SequenceSet, SequenceSetBuilder};

use crate::mutation::{random_peptide, MutationModel};

/// Configuration of a synthetic data set.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of protein families.
    pub n_families: usize,
    /// Total family members across all families (before redundancy/noise).
    pub n_members: usize,
    /// Zipf exponent for family sizes (0 = uniform, 1 ≈ GOS-like skew).
    pub size_skew: f64,
    /// Ancestor length range.
    pub ancestor_len: std::ops::Range<usize>,
    /// Mutation model applied ancestor → member.
    pub mutation: MutationModel,
    /// Probability a member is a fragment, and the surviving fraction range.
    pub fragment_prob: f64,
    /// Fragment length as a fraction of the member, sampled uniformly.
    pub fragment_frac: std::ops::Range<f64>,
    /// Fraction of extra reads that are near-exact contained copies.
    pub redundancy_frac: f64,
    /// Number of unrelated noise ORFs.
    pub n_noise: usize,
    /// Noise ORF length range.
    pub noise_len: std::ops::Range<usize>,
    /// Number of shared domain blocks (0 disables domain sharing).
    pub n_shared_domains: usize,
    /// Length of each shared domain block.
    pub domain_len: usize,
    /// How many families receive each shared domain.
    pub families_per_domain: usize,
    /// RNG seed: the entire data set is a pure function of the config.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            n_families: 20,
            n_members: 400,
            size_skew: 1.0,
            ancestor_len: 120..260,
            mutation: MutationModel::default(),
            fragment_prob: 0.2,
            fragment_frac: 0.5..0.95,
            redundancy_frac: 0.1,
            n_noise: 40,
            noise_len: 60..180,
            n_shared_domains: 0,
            domain_len: 30,
            families_per_domain: 3,
            seed: 0xCA3E2A,
        }
    }
}

impl DatasetConfig {
    /// A small config for fast unit tests.
    pub fn tiny(seed: u64) -> DatasetConfig {
        DatasetConfig {
            n_families: 4,
            n_members: 40,
            n_noise: 6,
            redundancy_frac: 0.15,
            seed,
            ..Default::default()
        }
    }

    /// Scale the member and noise counts by `factor` (≥ 0) and the family
    /// count by `√factor`: mean family size grows by `√factor`. Everything
    /// else — size skew, fragment and redundancy rates, lengths, mutation
    /// model — stays as it is.
    pub fn scaled(mut self, factor: f64) -> DatasetConfig {
        self.n_members = ((self.n_members as f64) * factor).round().max(1.0) as usize;
        self.n_families = ((self.n_families as f64) * factor.sqrt()).round().max(1.0) as usize;
        self.n_noise = ((self.n_noise as f64) * factor).round() as usize;
        self
    }
}

/// Why a read exists — the generator's ground-truth label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Regular member of family `family` (possibly fragmented).
    Member {
        /// Family index.
        family: u32,
        /// Whether the read was truncated to a fragment.
        fragment: bool,
    },
    /// A ≥95 %-contained near-copy of read `of`.
    Redundant {
        /// The read this one is contained in.
        of: SeqId,
        /// Family of the original.
        family: u32,
    },
    /// Unrelated noise.
    Noise,
}

impl Provenance {
    /// The family this read descends from, if any.
    pub fn family(&self) -> Option<u32> {
        match *self {
            Provenance::Member { family, .. } | Provenance::Redundant { family, .. } => {
                Some(family)
            }
            Provenance::Noise => None,
        }
    }
}

/// A generated data set plus its ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The sequences, in generation order.
    pub set: SequenceSet,
    /// Per-read provenance (parallel to `set` ids).
    pub provenance: Vec<Provenance>,
    /// Family ancestors (for inspection and domain diagnostics).
    pub ancestors: Vec<Vec<u8>>,
}

impl SyntheticDataset {
    /// Generate a data set from `config` (deterministic in the seed).
    pub fn generate(config: &DatasetConfig) -> SyntheticDataset {
        assert!(config.n_families >= 1, "need at least one family");
        assert!(!config.ancestor_len.is_empty(), "empty ancestor length range");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // --- Ancestors, with optional shared domain blocks. ---
        let mut ancestors: Vec<Vec<u8>> = (0..config.n_families)
            .map(|_| {
                let len = rng.gen_range(config.ancestor_len.clone());
                random_peptide(&mut rng, len)
            })
            .collect();
        for _ in 0..config.n_shared_domains {
            let domain = random_peptide(&mut rng, config.domain_len);
            for _ in 0..config.families_per_domain {
                let f = rng.gen_range(0..config.n_families);
                let anc = &mut ancestors[f];
                if anc.len() > config.domain_len {
                    let at = rng.gen_range(0..anc.len() - config.domain_len);
                    anc[at..at + config.domain_len].copy_from_slice(&domain);
                }
            }
        }

        // --- Skewed family sizes. ---
        let sizes = skewed_sizes(config.n_families, config.n_members, config.size_skew);

        let mut builder = SequenceSetBuilder::new();
        let mut provenance = Vec::new();
        let push = |builder: &mut SequenceSetBuilder,
                    provenance: &mut Vec<Provenance>,
                    header: String,
                    codes: Vec<u8>,
                    p: Provenance|
         -> SeqId {
            let id = builder.push_codes(header, codes).expect("generator never emits empties");
            provenance.push(p);
            id
        };

        // --- Members. ---
        for (family, &size) in sizes.iter().enumerate() {
            for m in 0..size {
                let mut codes = config.mutation.mutate(&ancestors[family], &mut rng);
                let mut fragment = false;
                if rng.gen_bool(config.fragment_prob) {
                    let frac = rng.gen_range(config.fragment_frac.clone());
                    let keep = ((codes.len() as f64 * frac) as usize).max(10).min(codes.len());
                    let start = rng.gen_range(0..=codes.len() - keep);
                    codes = codes[start..start + keep].to_vec();
                    fragment = true;
                }
                push(
                    &mut builder,
                    &mut provenance,
                    format!("fam{family}_m{m}{}", if fragment { "_frag" } else { "" }),
                    codes,
                    Provenance::Member { family: family as u32, fragment },
                );
            }
        }

        // --- Redundant contained copies. ---
        // The builder is append-only, so finish the regular reads first and
        // copy ≥95 % windows out of the finished set: a verbatim window is
        // guaranteed to satisfy Definition 1 against its original.
        let n_regular = provenance.len();
        let n_redundant = ((n_regular as f64) * config.redundancy_frac).round() as usize;
        let set_so_far = builder.finish();
        let mut builder = SequenceSetBuilder::with_capacity(
            set_so_far.len() + n_redundant + config.n_noise,
            set_so_far.total_residues() * 2,
        );
        for seq in set_so_far.iter() {
            builder.push_codes(seq.header.to_owned(), seq.codes.to_vec()).expect("non-empty");
        }
        for r in 0..n_redundant {
            let of = SeqId(rng.gen_range(0..n_regular as u32));
            let original = set_so_far.codes(of);
            let keep = ((original.len() as f64) * rng.gen_range(0.95..1.0)) as usize;
            let keep = keep.clamp(1, original.len());
            let start = rng.gen_range(0..=original.len() - keep);
            let codes = original[start..start + keep].to_vec();
            let family = provenance[of.index()].family().expect("copies come from members");
            push(
                &mut builder,
                &mut provenance,
                format!("red{r}_of_{}", of.0),
                codes,
                Provenance::Redundant { of, family },
            );
        }

        // --- Noise. ---
        for i in 0..config.n_noise {
            let len = rng.gen_range(config.noise_len.clone());
            push(
                &mut builder,
                &mut provenance,
                format!("noise{i}"),
                random_peptide(&mut rng, len),
                Provenance::Noise,
            );
        }

        SyntheticDataset { set: builder.finish(), provenance, ancestors }
    }

    /// The benchmark clustering: one cluster per family (members and
    /// redundant copies together), noise excluded. Plays the role of the
    /// GOS clustering in the paper's quality comparison.
    pub fn benchmark_clusters(&self) -> Vec<Vec<SeqId>> {
        let n_fams = self.provenance.iter().filter_map(|p| p.family()).max().map_or(0, |m| m + 1);
        let mut clusters = vec![Vec::new(); n_fams as usize];
        for (i, p) in self.provenance.iter().enumerate() {
            if let Some(f) = p.family() {
                clusters[f as usize].push(SeqId(i as u32));
            }
        }
        clusters.retain(|c| !c.is_empty());
        clusters
    }
}

/// Zipf-like sizes: `size_i ∝ 1 / (i+1)^skew`, scaled to sum ≈ `total`,
/// every family getting at least one member.
pub fn skewed_sizes(n_families: usize, total: usize, skew: f64) -> Vec<usize> {
    assert!(n_families >= 1);
    let weights: Vec<f64> = (0..n_families).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| ((w / wsum) * total as f64).round().max(1.0) as usize).collect();
    // Adjust the largest family so totals match exactly.
    let assigned: usize = sizes.iter().sum();
    if assigned < total {
        sizes[0] += total - assigned;
    } else {
        let mut excess = assigned - total;
        let reducible = sizes[0].saturating_sub(1);
        let cut = excess.min(reducible);
        sizes[0] -= cut;
        excess -= cut;
        let _ = excess; // tiny configs may keep a one-or-two overshoot
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticDataset::generate(&DatasetConfig::tiny(7));
        let b = SyntheticDataset::generate(&DatasetConfig::tiny(7));
        assert_eq!(a.set.len(), b.set.len());
        for (x, y) in a.set.iter().zip(b.set.iter()) {
            assert_eq!(x.codes, y.codes);
            assert_eq!(x.header, y.header);
        }
        let c = SyntheticDataset::generate(&DatasetConfig::tiny(8));
        let differs = a.set.len() != c.set.len()
            || a.set.iter().zip(c.set.iter()).any(|(x, y)| x.codes != y.codes);
        assert!(differs, "different seeds must differ");
    }

    /// Ids of the reads injected as redundant copies.
    fn redundant_ids(d: &SyntheticDataset) -> impl Iterator<Item = SeqId> + '_ {
        let redundant = |p: &Provenance| matches!(p, Provenance::Redundant { .. });
        d.set.ids().filter(move |id| redundant(&d.provenance[id.index()]))
    }

    #[test]
    fn counts_add_up() {
        let config = DatasetConfig::tiny(1);
        let d = SyntheticDataset::generate(&config);
        let members =
            d.provenance.iter().filter(|p| matches!(p, Provenance::Member { .. })).count();
        let redundant = redundant_ids(&d).count();
        let noise = d.provenance.iter().filter(|p| matches!(p, Provenance::Noise)).count();
        assert_eq!(members + redundant + noise, d.set.len());
        assert_eq!(noise, config.n_noise);
        assert!(members >= config.n_members - 2 && members <= config.n_members + 2);
        assert_eq!(redundant, ((members as f64) * config.redundancy_frac).round() as usize);
    }

    #[test]
    fn skewed_sizes_sum_and_skew() {
        let sizes = skewed_sizes(10, 1000, 1.0);
        let total: usize = sizes.iter().sum();
        assert!((998..=1002).contains(&total), "total {total}");
        assert!(sizes[0] > sizes[9], "skew must order sizes");
        assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn skewed_sizes_uniform_when_flat() {
        let sizes = skewed_sizes(5, 100, 0.0);
        assert!(sizes.iter().all(|&s| (19..=24).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn redundant_reads_are_contained_in_their_original() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(3));
        for id in redundant_ids(&d) {
            let Provenance::Redundant { of, .. } = d.provenance[id.index()] else { unreachable!() };
            let copy = d.set.codes(id);
            let original = d.set.codes(of);
            // The copy is a verbatim window of the original.
            let found = original.windows(copy.len()).any(|w| w == copy);
            assert!(found, "redundant read {id} is not a window of {of}");
            assert!(copy.len() as f64 >= original.len() as f64 * 0.95 - 1.0);
        }
    }

    #[test]
    fn family_members_share_long_words() {
        let mut config = DatasetConfig::tiny(4);
        config.fragment_prob = 0.0;
        let d = SyntheticDataset::generate(&config);
        let clusters = d.benchmark_clusters();
        // Any two members of a family should share some 10-length word
        // with reasonably high probability; check at least one pair does.
        let big = clusters.iter().max_by_key(|c| c.len()).unwrap();
        let a = d.set.codes(big[0]);
        let b = d.set.codes(big[1]);
        let words_a: std::collections::HashSet<&[u8]> = a.windows(10).collect();
        assert!(
            b.windows(10).any(|w| words_a.contains(w)),
            "family members should share a 10-word"
        );
    }

    #[test]
    fn noise_belongs_to_no_family() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(5));
        for p in &d.provenance {
            if matches!(p, Provenance::Noise) {
                assert_eq!(p.family(), None);
            }
        }
    }

    #[test]
    fn benchmark_clusters_cover_non_noise() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(6));
        let covered: usize = d.benchmark_clusters().iter().map(|c| c.len()).sum();
        let non_noise = d.provenance.iter().filter(|p| !matches!(p, Provenance::Noise)).count();
        assert_eq!(covered, non_noise);
    }

    #[test]
    fn shared_domains_create_cross_family_words() {
        let config = DatasetConfig {
            n_shared_domains: 2,
            domain_len: 25,
            families_per_domain: 3,
            fragment_prob: 0.0,
            mutation: MutationModel {
                substitution_rate: 0.0,
                insertion_rate: 0.0,
                deletion_rate: 0.0,
                ..MutationModel::default()
            },
            seed: 12,
            ..DatasetConfig::tiny(12)
        };
        let d = SyntheticDataset::generate(&config);
        // With identical inheritance, at least one cross-family pair of
        // ancestors shares a 25-window.
        let mut found = false;
        'outer: for i in 0..d.ancestors.len() {
            let set: std::collections::HashSet<&[u8]> = d.ancestors[i].windows(25).collect();
            for j in i + 1..d.ancestors.len() {
                if d.ancestors[j].windows(25).any(|w| set.contains(w)) {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "shared domains should appear in multiple ancestors");
    }

    #[test]
    fn generated_data_is_protein_like() {
        // The whole point of the CAMERA substitute: residue composition
        // must look like real protein (near-zero KL divergence from the
        // Robinson–Robinson background) and contain essentially no X.
        let d = SyntheticDataset::generate(&DatasetConfig {
            n_members: 300,
            ..DatasetConfig::tiny(77)
        });
        let comp = pfam_seq::Composition::of(&d.set);
        let kl = comp.relative_entropy_vs_background();
        assert!(kl < 0.02, "composition diverges from background: {kl}");
        assert!(comp.unknown_fraction() < 1e-9);
        assert!(comp.entropy_bits() > 4.0, "protein entropy ≈ 4.18 bits");
    }

    #[test]
    fn scaled_config_scales() {
        let base = DatasetConfig::default();
        let double = base.clone().scaled(2.0);
        assert_eq!(double.n_members, base.n_members * 2);
        assert!(double.n_families > base.n_families);

        // The 160 K-like workload's shape, at 4× and at the paper's ≈ 80×:
        // families grow by √factor, so mean family size does too, and the
        // rates stay put.
        let base = DatasetConfig {
            n_families: 60,
            n_members: 1600,
            size_skew: 1.1,
            fragment_prob: 0.25,
            redundancy_frac: 0.14,
            n_noise: 160,
            ..DatasetConfig::default()
        };
        let mean_size = |c: &DatasetConfig| c.n_members as f64 / c.n_families as f64;
        for factor in [4.0f64, 80.0] {
            let scaled = base.clone().scaled(factor);
            assert_eq!(scaled.n_members, 1600 * factor as usize);
            assert_eq!(scaled.n_noise, 160 * factor as usize);
            assert_eq!(scaled.n_families, (60.0 * factor.sqrt()).round() as usize);
            let growth = mean_size(&scaled) / mean_size(&base);
            assert!((growth / factor.sqrt() - 1.0).abs() < 1e-3, "×{factor}: mean size ×{growth}");
            let rates = |c: &DatasetConfig| (c.size_skew, c.fragment_prob, c.redundancy_frac);
            assert_eq!(rates(&scaled), rates(&base), "×{factor}");
        }
    }
}
