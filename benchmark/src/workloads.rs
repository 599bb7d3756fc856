//! The four workloads. Why each exists is recorded in `BENCHMARK.json` and
//! in `README.md`; the recipes are at scale 1, and one scale constant per
//! workload sizes a run.

use crate::gen::{FamilyRecipe, LadderRecipe, Recipe};

pub struct Workload {
    pub name: &'static str,
    base: Recipe,
    /// Chosen so one `pfam` run takes about 1.5 s on the reference host
    /// (2 cores): the total run-time cap of the benchmark contract leaves
    /// room for no more. Shrink this, never the repetitions.
    scale: f64,
    /// `Some(share)`: run `pfam run --checkpoint-dir D --mem-budget B` with
    /// `B = share ×` the estimated index bytes of the input; `None`: run
    /// `pfam cluster`.
    pub budget_share: Option<f64>,
    /// 0.9 × the lowest value seen over seeds 11, 12 and 100–109 when the
    /// workload was defined. A run whose quality falls under a floor fails.
    pub precision_floor: f64,
    pub sensitivity_floor: f64,
    pub default_seed_fnv64: u64,
}

/// `--smoke` shrinks every workload by this factor.
const SMOKE_FACTOR: f64 = 0.1;

impl Workload {
    pub fn recipe(&self, smoke: bool) -> Recipe {
        self.base.scaled(if smoke { self.scale * SMOKE_FACTOR } else { self.scale })
    }
}

/// The metagenomic long tail: a few small families drowned in noise ORFs.
const SPARSE: Recipe = Recipe::Families(FamilyRecipe {
    n_families: 100,
    n_members: 2_000,
    size_skew: 0.0,
    ancestor_len: (120, 220),
    fragment_prob: 0.25,
    redundancy_frac: 0.14,
    n_noise: 100_000,
    noise_len: (60, 180),
});

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mixed_families",
        base: Recipe::Families(FamilyRecipe {
            n_families: 85,
            n_members: 3_200,
            size_skew: 1.1,
            ancestor_len: (120, 220),
            fragment_prob: 0.25,
            redundancy_frac: 0.14,
            n_noise: 320,
            noise_len: (60, 180),
        }),
        scale: 0.28,
        budget_share: None,
        precision_floor: 0.9,
        sensitivity_floor: 0.43,
        default_seed_fnv64: 0x1a58_f276_8acf_e6e0,
    },
    Workload {
        name: "giant_component",
        base: Recipe::Ladder(LadderRecipe { n_subfamilies: 18, n_members: 880 }),
        scale: 0.22,
        budget_share: None,
        precision_floor: 0.9,
        sensitivity_floor: 0.87,
        default_seed_fnv64: 0x2604_4ae9_0d5e_5264,
    },
    Workload {
        name: "sparse_singletons",
        base: SPARSE,
        scale: 0.25,
        budget_share: None,
        precision_floor: 0.9,
        sensitivity_floor: 0.42,
        default_seed_fnv64: 0x2b85_1c4a_4ca6_9889,
    },
    Workload {
        name: "sparse_budgeted",
        base: SPARSE,
        scale: 0.07,
        budget_share: Some(0.4),
        precision_floor: 0.9,
        sensitivity_floor: 0.41,
        default_seed_fnv64: 0x75ce_ce36_e03e_2b4f,
    },
];
