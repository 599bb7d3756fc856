//! The benchmark's own workload generator (std-only).
//!
//! Ported from `pfam-datagen` and `pfam_bench::dataset_22k_like` but calling
//! neither, so a later change to those crates cannot shift a workload. The
//! program under test sees only the FASTA file written here.
//!
//! Everything that sets how much work a workload is — family count and
//! sizes, ancestor lengths, which members are fragments and how long, which
//! reads are copied — is a function of the recipe alone. The seed picks
//! residues, mutations and where a fragment or a copy starts, so two seeds
//! give different inputs of the same shape and their timings are comparable.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Residue letters in the order of [`BACKGROUND`].
const LETTERS: &[u8; 20] = b"ARNDCQEGHILKMFPSTWYV";

/// Background amino-acid frequencies (Robinson & Robinson), per mille.
const BACKGROUND: [u32; 20] =
    [78, 51, 45, 54, 19, 43, 63, 74, 22, 51, 91, 57, 22, 39, 52, 71, 58, 13, 32, 64];

/// For each residue, the residues BLOSUM62 scores positively against it.
const CONSERVATIVE: [&[u8]; 20] = [
    b"S", b"QK", b"DHS", b"NE", b"", b"REK", b"DQK", b"", b"NY", b"LMV", b"IMV", b"RQE", b"ILV",
    b"WY", b"", b"ANT", b"S", b"FY", b"HFW", b"ILM",
];

/// xoshiro256**, seeded through splitmix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` far below 2^32, so the modulo bias is nil).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// One residue index from the background distribution.
    fn residue(&mut self) -> u8 {
        let total: u32 = BACKGROUND.iter().sum();
        let mut x = self.below(total as usize) as u32;
        for (i, &p) in BACKGROUND.iter().enumerate() {
            if x < p {
                return i as u8;
            }
            x -= p;
        }
        unreachable!("x is below the sum of the weights")
    }

    fn peptide(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.residue()).collect()
    }
}

/// Point-mutation rates, ancestor → member.
#[derive(Clone, Copy)]
struct Mutation {
    substitution: f64,
    conservative: f64,
    indel: f64,
}

/// ~12 % divergence from the ancestor: two members are ~20 % apart, below
/// the 95 % containment cut-off and far above the 30 % overlap cut-off.
const FAMILY_MUTATION: Mutation = Mutation { substitution: 0.12, conservative: 0.6, indel: 0.003 };
const LADDER_MUTATION: Mutation = Mutation { substitution: 0.12, conservative: 0.6, indel: 0.002 };

impl Mutation {
    fn apply(&self, ancestor: &[u8], rng: &mut Rng) -> Vec<u8> {
        let mut out = Vec::with_capacity(ancestor.len() + 4);
        for &c in ancestor {
            if rng.chance(self.indel) {
                continue;
            }
            if rng.chance(self.indel) {
                out.push(rng.residue());
            }
            out.push(if rng.chance(self.substitution) { self.substitute(c, rng) } else { c });
        }
        if out.is_empty() {
            out.push(ancestor[0]);
        }
        out
    }

    fn substitute(&self, c: u8, rng: &mut Rng) -> u8 {
        let partners = CONSERVATIVE[c as usize];
        if rng.chance(self.conservative) && !partners.is_empty() {
            let letter = partners[rng.below(partners.len())];
            return LETTERS.iter().position(|&l| l == letter).expect("partner is a residue") as u8;
        }
        loop {
            let cand = rng.residue();
            if cand != c && !partners.contains(&LETTERS[cand as usize]) {
                return cand;
            }
        }
    }
}

/// One generated read: FASTA header, residue indices, ground-truth label.
pub struct Read {
    pub header: String,
    pub residues: Vec<u8>,
    /// Family label; every noise read carries a label of its own.
    pub label: String,
}

/// Skewed families + fragments + contained copies + noise (`pfam-datagen`'s
/// shape). Counts are at scale 1.
#[derive(Clone, Copy, Debug)]
pub struct FamilyRecipe {
    pub n_families: usize,
    pub n_members: usize,
    /// Zipf exponent of the family sizes (0 = equal sizes).
    pub size_skew: f64,
    pub ancestor_len: (usize, usize),
    pub fragment_prob: f64,
    pub redundancy_frac: f64,
    pub n_noise: usize,
    pub noise_len: (usize, usize),
}

/// One connected ladder of overlapping windows (`dataset_22k_like`'s shape).
#[derive(Clone, Copy, Debug)]
pub struct LadderRecipe {
    pub n_subfamilies: usize,
    pub n_members: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum Recipe {
    Families(FamilyRecipe),
    Ladder(LadderRecipe),
}

impl Recipe {
    /// Every count × `factor`, so family sizes and the noise share stay put.
    pub fn scaled(self, factor: f64) -> Recipe {
        let n = |x: usize| ((x as f64) * factor).round() as usize;
        match self {
            Recipe::Families(r) => Recipe::Families(FamilyRecipe {
                n_families: n(r.n_families).max(1),
                n_members: n(r.n_members).max(1),
                n_noise: n(r.n_noise),
                ..r
            }),
            Recipe::Ladder(r) => Recipe::Ladder(LadderRecipe {
                n_subfamilies: n(r.n_subfamilies).max(2),
                n_members: n(r.n_members).max(20),
            }),
        }
    }

    pub fn generate(&self, seed: u64) -> Vec<Read> {
        let mut rng = Rng::new(seed);
        match self {
            Recipe::Families(r) => families(r, &mut rng),
            Recipe::Ladder(r) => ladder(r, &mut rng),
        }
    }
}

/// `size_i ∝ 1 / (i+1)^skew`, every family at least one member, the largest
/// absorbing the rounding so the total is exact.
fn skewed_sizes(n_families: usize, total: usize, skew: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n_families).map(|i| ((i + 1) as f64).powf(-skew)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> =
        weights.iter().map(|w| ((w / wsum) * total as f64).round().max(1.0) as usize).collect();
    let assigned: usize = sizes.iter().sum();
    sizes[0] = (sizes[0] + total).saturating_sub(assigned).max(1);
    sizes
}

/// A length in `lo..hi` that depends on the index only, never on the seed.
fn strided_len(i: usize, (lo, hi): (usize, usize)) -> usize {
    lo + (i * 37) % (hi - lo)
}

/// Cut member `m` of a family down to a fragment, on a fixed schedule: one
/// member in every `1 / prob`, the kept shares swept evenly over `share`. How
/// many fragments a family has and how long they are is thereby the same for
/// every seed; the seed picks where a fragment starts.
fn fragment(residues: &mut Vec<u8>, m: usize, prob: f64, share: (f64, f64), rng: &mut Rng) -> bool {
    let ordinal = ((m + 1) as f64 * prob) as usize;
    if ordinal == (m as f64 * prob) as usize {
        return false;
    }
    let sweep = (ordinal as f64 * 0.618_033_988_749_895).fract();
    let keep = (residues.len() as f64 * (share.0 + (share.1 - share.0) * sweep)) as usize;
    let keep = keep.clamp(10.min(residues.len()), residues.len());
    let start = rng.below(residues.len() - keep + 1);
    *residues = residues[start..start + keep].to_vec();
    true
}

fn families(r: &FamilyRecipe, rng: &mut Rng) -> Vec<Read> {
    let ancestors: Vec<Vec<u8>> =
        (0..r.n_families).map(|f| rng.peptide(strided_len(f, r.ancestor_len))).collect();
    let sizes = skewed_sizes(r.n_families, r.n_members, r.size_skew);
    let mut reads = Vec::new();
    for (f, &size) in sizes.iter().enumerate() {
        for m in 0..size {
            let mut residues = FAMILY_MUTATION.apply(&ancestors[f], rng);
            let fragment = fragment(&mut residues, m, r.fragment_prob, (0.5, 0.95), rng);
            let tag = if fragment { "_frag" } else { "" };
            reads.push(Read {
                header: format!("fam{f}_m{m}{tag}"),
                residues,
                label: format!("f{f}"),
            });
        }
    }
    // Contained copies: a verbatim ≥ 95 % window of a regular read always
    // passes the containment test against its original.
    let n_regular = reads.len();
    let n_redundant = ((n_regular as f64) * r.redundancy_frac).round() as usize;
    for i in 0..n_redundant {
        let of = i * n_regular / n_redundant;
        let original = &reads[of].residues;
        let keep = ((original.len() as f64 * rng.between(0.95, 1.0)) as usize).max(1);
        let start = rng.below(original.len() - keep + 1);
        reads.push(Read {
            header: format!("red{i}_of_{of}"),
            residues: original[start..start + keep].to_vec(),
            label: reads[of].label.clone(),
        });
    }
    for i in 0..r.n_noise {
        let len = r.noise_len.0 + rng.below(r.noise_len.1 - r.noise_len.0);
        reads.push(Read {
            header: format!("noise{i}"),
            residues: rng.peptide(len),
            label: format!("n{i}"),
        });
    }
    reads
}

/// A long ancestor seen through 256-residue windows every 80 residues.
/// Adjacent windows overlap by 69 % of their length — under the 80 %
/// coverage cut-off, so subfamilies share no edge — and one bridge read at
/// each half-stride (84 % coverage of both neighbours) fuses the ladder into
/// a single connected component.
fn ladder(r: &LadderRecipe, rng: &mut Rng) -> Vec<Read> {
    const WINDOW: usize = 256;
    const STRIDE: usize = 80;
    let ancestor = rng.peptide(WINDOW + STRIDE * (r.n_subfamilies - 1));
    let sizes = skewed_sizes(r.n_subfamilies, r.n_members, 1.0);
    let mut reads = Vec::new();
    for (sf, &size) in sizes.iter().enumerate() {
        let window = &ancestor[sf * STRIDE..sf * STRIDE + WINDOW];
        for m in 0..size {
            let mut residues = LADDER_MUTATION.apply(window, rng);
            fragment(&mut residues, m, 0.3, (0.85, 1.0), rng);
            reads.push(Read { header: format!("sf{sf}_m{m}"), residues, label: format!("f{sf}") });
        }
    }
    for sf in 0..r.n_subfamilies - 1 {
        let start = sf * STRIDE + STRIDE / 2;
        reads.push(Read {
            header: format!("bridge{sf}"),
            residues: LADDER_MUTATION.apply(&ancestor[start..start + WINDOW], rng),
            label: format!("f{sf}"),
        });
    }
    reads
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

/// The FASTA text of `reads`, 60 residues a line.
pub fn fasta_bytes(reads: &[Read]) -> Vec<u8> {
    let mut out = Vec::new();
    for read in reads {
        out.push(b'>');
        out.extend_from_slice(read.header.as_bytes());
        out.push(b'\n');
        for line in read.residues.chunks(60) {
            out.extend(line.iter().map(|&c| LETTERS[c as usize]));
            out.push(b'\n');
        }
    }
    out
}

/// `header <TAB> label`, one line per read, in FASTA order.
pub fn write_truth(reads: &[Read], path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "#header\tfamily")?;
    for read in reads {
        writeln!(w, "{}\t{}", read.header, read.label)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn same_seed_same_reads_other_seed_other_reads() {
        let recipe = WORKLOADS[0].recipe(true);
        let a = fasta_bytes(&recipe.generate(3));
        assert_eq!(a, fasta_bytes(&recipe.generate(3)));
        assert_ne!(a, fasta_bytes(&recipe.generate(4)));
    }

    #[test]
    fn read_and_residue_counts_do_not_depend_on_the_seed_much() {
        for w in WORKLOADS {
            let recipe = w.recipe(true);
            let (a, b) = (recipe.generate(1), recipe.generate(2));
            assert_eq!(a.len(), b.len(), "{}", w.name);
            let residues = |r: &[Read]| r.iter().map(|x| x.residues.len()).sum::<usize>() as f64;
            let ratio = residues(&a) / residues(&b);
            assert!((0.9..1.1).contains(&ratio), "{}: residue ratio {ratio}", w.name);
        }
    }

    #[test]
    fn sizes_are_exact_and_skewed() {
        let sizes = skewed_sizes(10, 1000, 1.1);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes[0] > sizes[9] && sizes.iter().all(|&s| s >= 1));
        assert!(skewed_sizes(5, 100, 0.0).iter().all(|&s| s == 20));
    }

    #[test]
    fn redundant_reads_are_windows_of_their_original() {
        let Recipe::Families(r) = WORKLOADS[0].recipe(true) else { panic!("family recipe") };
        let reads = families(&r, &mut Rng::new(5));
        let copies: Vec<&Read> = reads.iter().filter(|r| r.header.starts_with("red")).collect();
        assert!(!copies.is_empty());
        for copy in copies {
            let of: usize = copy.header.rsplit('_').next().unwrap().parse().unwrap();
            let original = &reads[of].residues;
            assert!(original.windows(copy.residues.len()).any(|w| w == copy.residues));
            assert_eq!(copy.label, reads[of].label);
        }
    }

    /// Pins each default-seed, full-scale FASTA: a change here shifts every
    /// number measured so far, and the baseline must be taken again.
    #[test]
    fn default_seed_fasta_checksums_are_pinned() {
        let sum = |w: &crate::workloads::Workload| {
            format!("{:#018x}", fnv64(&fasta_bytes(&w.recipe(false).generate(crate::DEFAULT_SEED))))
        };
        let generated: Vec<_> = WORKLOADS.iter().map(|w| (w.name, sum(w))).collect();
        let pinned: Vec<_> =
            WORKLOADS.iter().map(|w| (w.name, format!("{:#018x}", w.default_seed_fnv64))).collect();
        assert_eq!(generated, pinned);
    }
}
