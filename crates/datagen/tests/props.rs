//! Property tests over the synthetic-data generator.

use proptest::prelude::*;

use pfam_datagen::{skewed_sizes, DatasetConfig, MutationModel, Provenance, SyntheticDataset};

fn small_config() -> impl Strategy<Value = DatasetConfig> {
    (
        1usize..6,   // n_families
        4usize..40,  // n_members
        0usize..8,   // n_noise
        0.0f64..0.3, // redundancy_frac
        0..1000u64,  // seed
    )
        .prop_map(|(n_families, n_members, n_noise, redundancy_frac, seed)| DatasetConfig {
            n_families,
            n_members,
            n_noise,
            redundancy_frac,
            fragment_prob: 0.2,
            seed,
            ..DatasetConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn provenance_is_parallel_to_the_set(config in small_config()) {
        let d = SyntheticDataset::generate(&config);
        prop_assert_eq!(d.provenance.len(), d.set.len());
        prop_assert!(!d.set.is_empty());
    }

    #[test]
    fn counts_match_the_config(config in small_config()) {
        let d = SyntheticDataset::generate(&config);
        let members = d
            .provenance
            .iter()
            .filter(|p| matches!(p, Provenance::Member { .. }))
            .count();
        let noise = d
            .provenance
            .iter()
            .filter(|p| matches!(p, Provenance::Noise))
            .count();
        prop_assert_eq!(noise, config.n_noise);
        // skewed_sizes rounds: members within ±n_families of the target.
        prop_assert!(
            (members as i64 - config.n_members as i64).unsigned_abs()
                <= config.n_families as u64 + 2
        );
        let redundant =
            d.provenance.iter().filter(|p| matches!(p, Provenance::Redundant { .. })).count();
        let expect = ((members as f64) * config.redundancy_frac).round() as usize;
        prop_assert_eq!(redundant, expect);
    }

    #[test]
    fn redundant_reads_are_windows_of_their_original(config in small_config()) {
        let d = SyntheticDataset::generate(&config);
        for id in d.set.ids() {
            let Provenance::Redundant { of, family } = d.provenance[id.index()] else {
                continue;
            };
            let copy = d.set.codes(id);
            let original = d.set.codes(of);
            prop_assert!(original.windows(copy.len()).any(|w| w == copy));
            prop_assert_eq!(d.provenance[of.index()].family(), Some(family));
        }
    }

    #[test]
    fn benchmark_clusters_partition_non_noise(config in small_config()) {
        let d = SyntheticDataset::generate(&config);
        let mut seen = std::collections::HashSet::new();
        for cluster in d.benchmark_clusters() {
            for id in cluster {
                prop_assert!(seen.insert(id), "duplicate membership");
                prop_assert!(d.provenance[id.index()].family().is_some());
            }
        }
        let non_noise =
            d.provenance.iter().filter(|p| p.family().is_some()).count();
        prop_assert_eq!(seen.len(), non_noise);
    }

    #[test]
    fn skewed_sizes_invariants(
        n_families in 1usize..20,
        total in 1usize..500,
        skew in 0.0f64..2.0,
    ) {
        let sizes = skewed_sizes(n_families, total, skew);
        prop_assert_eq!(sizes.len(), n_families);
        prop_assert!(sizes.iter().all(|&s| s >= 1));
        // Monotone non-increasing.
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        let sum: usize = sizes.iter().sum();
        prop_assert!(
            (sum as i64 - total as i64).unsigned_abs() <= n_families as u64 + 2,
            "sum {} vs target {}", sum, total
        );
    }

    #[test]
    fn mutation_never_empties(codes in prop::collection::vec(0u8..20, 1..50), seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = MutationModel {
            substitution_rate: 0.5,
            conservative_fraction: 0.5,
            insertion_rate: 0.2,
            deletion_rate: 0.4,
        };
        let out = model.mutate(&codes, &mut rng);
        prop_assert!(!out.is_empty());
        prop_assert!(out.iter().all(|&c| c < 20));
    }
}
