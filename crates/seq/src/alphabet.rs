//! The 20-letter amino-acid alphabet plus the ambiguity code `X`.
//!
//! Residues are stored internally as small integers `0..=20` so that
//! substitution matrices are plain 2-D lookups and suffix structures can use
//! dense rank arrays. The unknown residue `X` (code 20) matches nothing
//! exactly and scores via the matrix's ambiguity row.

use crate::SeqError;

/// Number of distinct residue codes, including the ambiguity code `X`.
pub const ALPHABET_SIZE: usize = 21;

/// The canonical one-letter residue ordering used throughout the workspace.
///
/// Index in this array == internal residue code.
pub const RESIDUE_LETTERS: [u8; ALPHABET_SIZE] = [
    b'A', b'R', b'N', b'D', b'C', b'Q', b'E', b'G', b'H', b'I', b'L', b'K', b'M', b'F', b'P', b'S',
    b'T', b'W', b'Y', b'V', b'X',
];

/// One amino-acid residue, stored as its internal code (`0..=20`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AminoAcid(u8);

impl AminoAcid {
    /// The ambiguity residue `X`.
    pub const UNKNOWN: AminoAcid = AminoAcid(20);

    /// Parse a one-letter amino-acid code (case-insensitive).
    ///
    /// Non-standard codes are normalised: `B`/`Z`/`J`/`U`/`O` and `*` map to
    /// [`AminoAcid::UNKNOWN`], matching common practice for metagenomic ORF
    /// sets where rare selenocysteine/stop-read-through codes appear.
    #[inline]
    pub fn from_letter(letter: u8) -> Result<AminoAcid, SeqError> {
        let up = letter.to_ascii_uppercase();
        match up {
            b'A' => Ok(AminoAcid(0)),
            b'R' => Ok(AminoAcid(1)),
            b'N' => Ok(AminoAcid(2)),
            b'D' => Ok(AminoAcid(3)),
            b'C' => Ok(AminoAcid(4)),
            b'Q' => Ok(AminoAcid(5)),
            b'E' => Ok(AminoAcid(6)),
            b'G' => Ok(AminoAcid(7)),
            b'H' => Ok(AminoAcid(8)),
            b'I' => Ok(AminoAcid(9)),
            b'L' => Ok(AminoAcid(10)),
            b'K' => Ok(AminoAcid(11)),
            b'M' => Ok(AminoAcid(12)),
            b'F' => Ok(AminoAcid(13)),
            b'P' => Ok(AminoAcid(14)),
            b'S' => Ok(AminoAcid(15)),
            b'T' => Ok(AminoAcid(16)),
            b'W' => Ok(AminoAcid(17)),
            b'Y' => Ok(AminoAcid(18)),
            b'V' => Ok(AminoAcid(19)),
            b'X' | b'B' | b'Z' | b'J' | b'U' | b'O' | b'*' => Ok(AminoAcid::UNKNOWN),
            other => Err(SeqError::InvalidResidue { byte: other, position: 0 }),
        }
    }

    /// The internal code (`0..=20`).
    #[inline]
    pub fn code(self) -> u8 {
        self.0
    }

    /// The canonical upper-case one-letter code.
    #[inline]
    pub fn letter(self) -> u8 {
        RESIDUE_LETTERS[self.0 as usize]
    }
}

impl std::fmt::Display for AminoAcid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.letter() as char)
    }
}

/// Encode an ASCII residue string into internal codes, one table lookup
/// a byte ([`AminoAcid::from_letter`] for every byte, built once).
///
/// Returns the position of the first invalid byte on failure.
pub fn encode(residues: &[u8]) -> Result<Vec<u8>, SeqError> {
    static CODES: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    let table = CODES.get_or_init(|| {
        std::array::from_fn(|b| {
            AminoAcid::from_letter(b as u8).map_or(NOT_A_RESIDUE, AminoAcid::code)
        })
    });
    let mut seen = 0;
    let codes: Vec<u8> = residues
        .iter()
        .map(|&byte| {
            let code = table[byte as usize];
            seen |= code;
            code
        })
        .collect();
    if seen & NOT_A_RESIDUE == 0 {
        return Ok(codes);
    }
    let position = codes.iter().position(|&code| code == NOT_A_RESIDUE).expect("one was seen");
    Err(SeqError::InvalidResidue { byte: residues[position], position })
}

/// What [`encode`]'s table holds for a byte [`AminoAcid::from_letter`]
/// refuses: the one code with a bit no residue code has.
const NOT_A_RESIDUE: u8 = 0x80;

/// Decode internal codes back to an ASCII string.
pub fn decode(codes: &[u8]) -> String {
    codes.iter().map(|&c| RESIDUE_LETTERS[c as usize] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_byte_table_is_from_letter() {
        for byte in 0..=u8::MAX {
            let got = encode(&[b'A', byte]).map(|codes| codes[1]);
            let want = AminoAcid::from_letter(byte)
                .map(AminoAcid::code)
                .map_err(|_| SeqError::InvalidResidue { byte, position: 1 });
            assert_eq!(got, want, "byte {byte:#04x}");
        }
    }

    #[test]
    fn round_trip_all_letters() {
        for code in 0..ALPHABET_SIZE as u8 {
            let aa = AminoAcid(code);
            let back = AminoAcid::from_letter(aa.letter()).unwrap();
            assert_eq!(aa, back);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(AminoAcid::from_letter(b'a').unwrap().letter(), b'A');
        assert_eq!(AminoAcid::from_letter(b'w').unwrap().letter(), b'W');
    }

    #[test]
    fn ambiguity_codes_map_to_unknown() {
        for b in [b'X', b'B', b'Z', b'J', b'U', b'O', b'*', b'x'] {
            assert_eq!(AminoAcid::from_letter(b).unwrap(), AminoAcid::UNKNOWN);
        }
    }

    #[test]
    fn invalid_bytes_rejected() {
        for b in [b'1', b' ', b'-', b'@', 0u8, 255u8] {
            assert!(AminoAcid::from_letter(b).is_err(), "byte {b} should be invalid");
        }
    }

    #[test]
    fn encode_reports_position() {
        let err = encode(b"ACD1EF").unwrap_err();
        assert_eq!(err, SeqError::InvalidResidue { byte: b'1', position: 3 });
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = b"MKVLAARNDCQEGHILKMFPSTWYVX";
        let codes = encode(s).unwrap();
        assert_eq!(decode(&codes).as_bytes(), s);
    }

    #[test]
    fn display_prints_letter() {
        assert_eq!(AminoAcid::from_letter(b'W').unwrap().to_string(), "W");
    }
}
