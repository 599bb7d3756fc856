//! Pair shapes that have broken a SIMD fill before, shared by the
//! forced-path suite (`engine_props.rs`) and the unit tests of the batch
//! kernel (`src/onepass.rs`) and of the engine's forced widths
//! (`src/engine.rs`), which include this file by path.

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

/// The population RR, CCD and BGG align, plus every shape that has broken
/// a SIMD kernel before: widths around the lane count, single residues,
/// homopolymers, all-`X`, empty inputs.
pub fn corpus() -> Vec<Pair> {
    let mut pairs = Vec::new();
    for seed in 0..48u64 {
        // Mutation rates across the accept/reject boundary; every third
        // pair indel-rich, to force long E/F runs through the traceback.
        let rate = 0.02 + 0.4 * ((seed % 12) as f64 / 12.0);
        let indel = if seed % 3 == 0 { 0.06 } else { rate / 20.0 };
        let (a, b) = mutated_pair(seed, 30 + (seed % 7) as usize * 25, rate, indel);
        // A fragment of one homolog against the other (RR's containment case).
        let cut = a.len() * (50 + (seed as usize * 7) % 46) / 100;
        let start = (seed as usize * 5) % (a.len() - cut + 1);
        pairs.push((a[start..start + cut].to_vec(), b.clone()));
        pairs.push((a, b));
    }
    let mut rng = StdRng::seed_from_u64(0x0dd);
    for len in [40usize, 90, 200] {
        pairs.push((random_peptide(&mut rng, len), random_peptide(&mut rng, len + 13)));
    }
    let (long, _) = mutated_pair(99, 60, 0.1, 0.02);
    for n in [1usize, 15, 16, 17, 31, 32, 33] {
        let (_, other) = mutated_pair(100 + n as u64, 60, 0.1, 0.02);
        pairs.push((long.clone(), other[..n].to_vec()));
        pairs.push((other[5..5 + n.min(50)].to_vec(), long.clone()));
    }
    let all_x = vec![20u8; 40];
    pairs.push((vec![1; 300], vec![1; 7]));
    pairs.push((vec![18; 33], vec![18; 33]));
    pairs.push((all_x.clone(), all_x.clone()));
    pairs.push((all_x, (0..20).collect()));
    pairs.push((vec![0], vec![0]));
    pairs.push((vec![5], vec![9]));
    pairs.push((Vec::new(), vec![3]));
    pairs.push((vec![7], Vec::new()));
    pairs
}
