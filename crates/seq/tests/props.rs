//! Property tests over the sequence substrate.

use proptest::prelude::*;

use pfam_seq::alphabet::{decode, encode};
use pfam_seq::complexity::{mask_low_complexity, MaskParams};
use pfam_seq::fasta::{read_fasta, write_fasta};
use pfam_seq::{Composition, LengthStats, SequenceSetBuilder};

fn residue_string() -> impl Strategy<Value = String> {
    "[ARNDCQEGHILKMFPSTWYVX]{1,60}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fasta_round_trip(seqs in prop::collection::vec(residue_string(), 1..8)) {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("seq {i} with description"), s.as_bytes()).unwrap();
        }
        let set = b.finish();
        let mut text = Vec::new();
        write_fasta(&set, &mut text, 60).unwrap();
        let reparsed = read_fasta(&text[..]).unwrap();
        prop_assert_eq!(set.len(), reparsed.len());
        for (a, b) in set.iter().zip(reparsed.iter()) {
            prop_assert_eq!(a.header, b.header);
            prop_assert_eq!(a.codes, b.codes);
        }
    }

    #[test]
    fn encode_decode_identity(s in residue_string()) {
        prop_assert_eq!(decode(&encode(s.as_bytes()).unwrap()), s);
    }

    #[test]
    fn masking_preserves_length_and_only_masks(codes in prop::collection::vec(0u8..20, 0..80)) {
        let masked = mask_low_complexity(&codes, &MaskParams::default());
        prop_assert_eq!(masked.len(), codes.len());
        for (&before, &after) in codes.iter().zip(&masked) {
            prop_assert!(after == before || after == 20, "masking may only write X");
        }
    }

    #[test]
    fn composition_frequencies_sum_to_one(seqs in prop::collection::vec(residue_string(), 1..5)) {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_letters(format!("s{i}"), s.as_bytes()).unwrap();
        }
        let set = b.finish();
        let comp = Composition::of(&set);
        let total: f64 = (0..21u8).map(|c| comp.frequency(c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Every residue counted: each frequency is its share of the total.
        let stats = LengthStats::of(&set);
        let mut counts = [0usize; 21];
        for s in &set {
            for &c in s.codes {
                counts[c as usize] += 1;
            }
        }
        for (c, &n) in counts.iter().enumerate() {
            prop_assert!((comp.frequency(c as u8) - n as f64 / stats.total as f64).abs() < 1e-12);
        }
    }
}
