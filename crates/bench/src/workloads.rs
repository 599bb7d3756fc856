//! Paper-analogous workloads.
//!
//! The paper evaluates on two CAMERA samples:
//!
//! * a **160 K** set spanning 221 GOS clusters (multi-component, skewed),
//! * a **22 K** set spanning *one* large GOS cluster (a single connected
//!   component that fragments into 134 dense subgraphs).
//!
//! These constructors synthesise data with the same structure at a
//! configurable scale (`scale = 1.0` ≈ 2 K reads — large enough for every
//! shape to show, small enough to iterate on; pass a larger scale to the
//! experiment binaries to move toward paper-sized runs). [`ladder`] lays
//! the paper's 10 K … 160 K performance series out as five 160K-like sets
//! of one seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pfam_datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam_seq::{SeqId, SequenceSet, SequenceSetBuilder};

/// A workload plus its benchmark clustering.
pub struct PaperDataset {
    /// The reads.
    pub set: SequenceSet,
    /// Benchmark clusters (ground-truth families / subfamilies).
    pub benchmark: Vec<Vec<SeqId>>,
    /// Human-readable label.
    pub label: String,
}

/// The recipe of [`dataset_160k_like`], scaled.
fn config_160k_like(scale: f64, seed: u64) -> DatasetConfig {
    DatasetConfig {
        n_families: 60,
        n_members: 1600,
        size_skew: 1.1,
        ancestor_len: 120..220, // paper: mean 163 residues
        fragment_prob: 0.25,
        redundancy_frac: 0.14, // paper: 160 K → 138.6 K non-redundant
        n_noise: 160,
        seed,
        ..DatasetConfig::default()
    }
    .scaled(scale)
}

/// The 160 K-like workload: many skewed families, fragments, redundancy,
/// noise — reproduces the multi-component regime of Table I's first row.
pub fn dataset_160k_like(scale: f64, seed: u64) -> PaperDataset {
    let config = config_160k_like(scale, seed);
    let data = SyntheticDataset::generate(&config);
    PaperDataset {
        benchmark: data.benchmark_clusters(),
        label: format!("160K-like (n={}, scale {scale})", data.set.len()),
        set: data.set,
    }
}

/// The 22 K-like workload: *one* giant connected component that fragments
/// into many dense subgraphs — the paper's 22 K set (1 CC → 134 DS,
/// largest 6,828 of 21,348).
///
/// Construction mirrors multi-domain protein families (the paper's
/// Figure 1): a long ancestral architecture is viewed through sliding
/// 256-residue windows at a stride of 80. Members of subfamily `i` are
/// mutated copies of window `i`. Adjacent windows overlap by 176 residues
/// (69 % of the longer sequence — below the 80 % coverage cutoff, so
/// regular members of different subfamilies share NO edge), while a few
/// *bridge* reads sit at half-stride offsets (84 % mutual coverage with
/// both neighbors — enough to fuse the whole ladder into one connected
/// component). Coverage, not similarity, is the discriminator, exactly as
/// in real domain-architecture data.
pub fn dataset_22k_like(scale: f64, seed: u64) -> PaperDataset {
    const WINDOW: usize = 256; // paper: the 22 K set averages 256 residues
    const STRIDE: usize = 80;
    let n_members = ((400.0 * scale).round() as usize).max(20);
    let n_subfamilies = ((12.0 * scale.sqrt()).round() as usize).clamp(2, 64);
    let mut rng = StdRng::seed_from_u64(seed);

    let member_divergence = MutationModel {
        substitution_rate: 0.08,
        conservative_fraction: 0.6,
        insertion_rate: 0.002,
        deletion_rate: 0.002,
    };

    let ancestor = pfam_datagen::random_peptide(&mut rng, WINDOW + STRIDE * (n_subfamilies - 1));
    let window_of = |i: usize| &ancestor[i * STRIDE..i * STRIDE + WINDOW];

    let sizes = pfam_datagen::skewed_sizes(n_subfamilies, n_members, 1.0);
    let mut builder = SequenceSetBuilder::new();
    let mut benchmark: Vec<Vec<SeqId>> = vec![Vec::new(); n_subfamilies];
    for (sf, &size) in sizes.iter().enumerate() {
        for m in 0..size {
            let mut codes = member_divergence.mutate(window_of(sf), &mut rng);
            // Mild fragmentation: stays above the coverage cutoff within
            // the subfamily, trims the graph toward paper-like densities.
            if rng.gen_bool(0.3) {
                let frac = rng.gen_range(0.85..1.0);
                let keep = ((codes.len() as f64 * frac) as usize).clamp(20, codes.len());
                let start = rng.gen_range(0..=codes.len() - keep);
                codes = codes[start..start + keep].to_vec();
            }
            let id =
                builder.push_codes(format!("sf{sf}_m{m}"), codes).expect("members are non-empty");
            benchmark[sf].push(id);
        }
    }
    // Bridges: ONE half-stride read between each adjacent window pair.
    // A single bridge suffices to connect the component; it also cannot
    // merge subfamilies at the shingle level (pass II needs s₂ = 2 common
    // producing vertices, and distinct subfamilies share only this one).
    #[allow(clippy::needless_range_loop)]
    for sf in 0..n_subfamilies - 1 {
        let start = sf * STRIDE + STRIDE / 2;
        let span = &ancestor[start..start + WINDOW];
        let codes = member_divergence.mutate(span, &mut rng);
        let id = builder.push_codes(format!("bridge{sf}"), codes).expect("bridges are non-empty");
        benchmark[sf].push(id);
    }
    let set = builder.finish();
    PaperDataset {
        benchmark,
        label: format!("22K-like (n={}, {} subfamilies, scale {scale})", set.len(), n_subfamilies),
        set,
    }
}

/// One rung of the 160K-like ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// The paper's name for the input size: `10k` … `160k`.
    pub label: &'static str,
    /// Family members the rung's set is generated with.
    pub members: usize,
    /// The scale `dataset_160k_like` is called at.
    pub scale: f64,
}

impl Rung {
    /// The rung's reads.
    pub fn dataset(&self) -> PaperDataset {
        dataset_160k_like(self.scale, LADDER_SEED)
    }
}

/// Seed of every rung: the ladder is one recipe at five sizes.
const LADDER_SEED: u64 = 0x160;

/// The paper's 10 K / 20 K / 40 K / 80 K / 160 K series as one ladder of
/// 160K-like sets: rung `m` (100 … 1 600) is
/// `dataset_160k_like(scale × m / 1600, 0x160)`, so member counts double
/// from rung to rung and the top rung is Table I's 160K-like input.
/// `ladder(S)` at a larger `S` reruns the series at larger n.
pub fn ladder(scale: f64) -> [Rung; 5] {
    [(100, "10k"), (200, "20k"), (400, "40k"), (800, "80k"), (1600, "160k")].map(|(m, label)| {
        // m / 1600 is a power of two, so the top rung's scale is `scale`.
        let scale = scale * (m as f64 / 1600.0);
        Rung { label, members: config_160k_like(scale, LADDER_SEED).n_members, scale }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_deterministic() {
        let a = dataset_160k_like(0.05, 1);
        let b = dataset_160k_like(0.05, 1);
        assert_eq!(a.set.len(), b.set.len());
        for (x, y) in a.set.iter().zip(b.set.iter()) {
            assert_eq!(x.codes, y.codes);
        }
    }

    #[test]
    fn benchmark_covers_members() {
        let d = dataset_22k_like(0.1, 2);
        let covered: usize = d.benchmark.iter().map(|c| c.len()).sum();
        assert_eq!(covered, d.set.len(), "22K-like has no noise reads");
    }

    #[test]
    fn the_ladder_doubles_up_to_table_ones_input() {
        for scale in [1.0, 0.5] {
            let rungs = ladder(scale);
            let labels: Vec<&str> = rungs.iter().map(|r| r.label).collect();
            assert_eq!(labels, ["10k", "20k", "40k", "80k", "160k"]);
            for w in rungs.windows(2) {
                assert_eq!(w[0].members * 2, w[1].members, "{} → {}", w[0].label, w[1].label);
            }
        }
        assert_eq!(ladder(1.0)[4].members, 1600);
        // The top rung is Table I's input, read for read.
        let top = ladder(0.5)[4].dataset();
        let table_one = dataset_160k_like(0.5, 0x160);
        assert_eq!(top.label, table_one.label);
        assert_eq!(top.set.len(), table_one.set.len());
        for (x, y) in top.set.iter().zip(table_one.set.iter()) {
            assert_eq!((x.header, x.codes), (y.header, y.codes));
        }
    }

    #[test]
    fn labels_describe_the_sets() {
        assert!(dataset_160k_like(0.05, 3).label.contains("160K-like"));
        assert!(dataset_22k_like(0.05, 3).label.contains("22K-like"));
    }
}
