//! Pair shapes that have broken a SIMD fill before, shared by the
//! forced-path suite (`engine_props.rs`) and the batch kernel's unit tests
//! in `src/onepass.rs`, which include this file by path.

use pfam_datagen::{random_peptide, MutationModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub type Pair = (Vec<u8>, Vec<u8>);

/// A mutated homolog pair: ancestor-derived sequences whose similarity
/// straddles the containment/overlap cutoffs (the interesting regime).
pub fn mutated_pair(seed: u64, len: usize, rate: f64, indel: f64) -> Pair {
    let mut rng = StdRng::seed_from_u64(seed);
    let ancestor = random_peptide(&mut rng, len);
    let model = MutationModel {
        substitution_rate: rate,
        conservative_fraction: 0.5,
        insertion_rate: indel,
        deletion_rate: indel,
    };
    (model.mutate(&ancestor, &mut rng), model.mutate(&ancestor, &mut rng))
}

/// Pairs whose optimal alignment is far from unique — where the
/// traceback's tie-breaks decide the spans: homopolymers, tandem repeats
/// out of phase, equal lengths.
pub fn tie_heavy() -> Vec<Pair> {
    let tandem = |unit: &[u8], len: usize, phase: usize| -> Vec<u8> {
        (0..len).map(|i| unit[(i + phase) % unit.len()]).collect()
    };
    let mut pairs = vec![
        (vec![1; 40], vec![1; 40]),
        (vec![1; 50], vec![1; 37]),
        (vec![1; 37], vec![1; 50]),
        (vec![9; 64], vec![9; 61]),
    ];
    for (unit, len) in [(&[0u8, 3, 7][..], 45usize), (&[2, 2, 11, 5][..], 64), (&[4, 15][..], 33)] {
        for phase in 0..unit.len() {
            pairs.push((tandem(unit, len, 0), tandem(unit, len, phase)));
            pairs.push((tandem(unit, len, phase), tandem(unit, len - 3, 0)));
            pairs.push((tandem(unit, len - 2, 1), tandem(unit, len, phase)));
        }
    }
    // Equal-length homologs: overlap coverage is measured on `x` on a tie.
    for seed in 0..6u64 {
        let (a, b) = mutated_pair(500 + seed, 80, 0.04 * seed as f64, 0.0);
        let n = a.len().min(b.len());
        pairs.push((a[..n].to_vec(), b[..n].to_vec()));
    }
    pairs
}

/// Shapes a batch is ragged in: a single residue, equal lengths, one lane
/// far longer than the rest (in `x`, then in `y`), a lane of `X`s, an empty
/// side (screened out before any lane is filled).
pub fn ragged() -> Vec<Pair> {
    let homolog = |seed: u64, len: usize| mutated_pair(seed, len, 0.08, 0.02);
    let mut pairs = vec![(vec![4u8], vec![4u8]), (vec![4], homolog(1, 40).1)];
    pairs.extend((2..6).map(|seed| {
        let (a, b) = homolog(seed, 48);
        let n = a.len().min(b.len());
        (a[..n].to_vec(), b[..n].to_vec())
    }));
    let (long_a, long_b) = homolog(6, 400);
    pairs.push((long_a.clone(), long_b[..60].to_vec()));
    pairs.push((long_a[100..150].to_vec(), long_b));
    pairs.push((vec![20; 45], vec![20; 52]));
    pairs.push((vec![20; 30], homolog(7, 64).0));
    pairs.push((Vec::new(), vec![3; 9]));
    pairs.extend((8..14).map(|seed| homolog(seed, 20 + 17 * (seed as usize % 5))));
    pairs
}
