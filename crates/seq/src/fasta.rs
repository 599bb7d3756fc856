//! Minimal, strict FASTA reading and writing.
//!
//! The CAMERA download the paper uses is plain multi-line FASTA of peptide
//! records. This parser accepts exactly that: `>`-headers, wrapped sequence
//! lines, `\n` or `\r\n` endings, and blank lines between records. It
//! rejects data before the first header and residue bytes outside the
//! alphabet, reporting the record and position.

use std::io::{BufRead, Write};

use crate::sequence::{SequenceSet, SequenceSetBuilder};
use crate::SeqError;

/// Parse FASTA from any buffered reader into a [`SequenceSet`].
pub fn read_fasta<R: BufRead>(reader: R) -> Result<SequenceSet, SeqError> {
    let mut builder = SequenceSetBuilder::new();
    let mut header: Option<String> = None;
    let mut residues: Vec<u8> = Vec::new();

    let flush = |header: &mut Option<String>,
                 residues: &mut Vec<u8>,
                 builder: &mut SequenceSetBuilder|
     -> Result<(), SeqError> {
        if let Some(h) = header.take() {
            builder.push_letters(h, residues)?;
            residues.clear();
        }
        Ok(())
    };

    for line in reader.lines() {
        let line = line?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('>') {
            flush(&mut header, &mut residues, &mut builder)?;
            header = Some(h.trim().to_owned());
        } else {
            if header.is_none() {
                return Err(SeqError::Format("sequence data before first '>' header".to_owned()));
            }
            residues.extend_from_slice(line.trim().as_bytes());
        }
    }
    flush(&mut header, &mut residues, &mut builder)?;
    Ok(builder.finish())
}

/// Write a [`SequenceSet`] as FASTA, wrapping residues at `width` columns.
pub fn write_fasta<W: Write>(set: &SequenceSet, mut w: W, width: usize) -> Result<(), SeqError> {
    let width = width.max(1);
    for seq in set.iter() {
        writeln!(w, ">{}", seq.header)?;
        let letters = seq.to_letters();
        let bytes = letters.as_bytes();
        for chunk in bytes.chunks(width) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqId;

    #[test]
    fn parses_simple_records() {
        let set = read_fasta(">a\nACDEF\n>b desc here\nMK\nVL\n".as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.header(SeqId(0)), "a");
        assert_eq!(set.header(SeqId(1)), "b desc here");
        assert_eq!(set.get(SeqId(1)).to_letters(), "MKVL");
    }

    #[test]
    fn handles_crlf_and_blank_lines() {
        let set = read_fasta(">a\r\nAC\r\n\r\n>b\r\nMK\r\n".as_bytes()).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(SeqId(0)).to_letters(), "AC");
    }

    #[test]
    fn rejects_leading_garbage() {
        let err = read_fasta("ACDEF\n>a\nMK\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SeqError::Format(_)));
    }

    #[test]
    fn rejects_empty_record() {
        let err = read_fasta(">a\n>b\nMK\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SeqError::EmptySequence { .. }));
    }

    #[test]
    fn rejects_bad_residue() {
        let err = read_fasta(">a\nAC9EF\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SeqError::InvalidResidue { byte: b'9', .. }));
    }

    #[test]
    fn round_trip() {
        let original = ">a\nACDEFGHIKLMNPQRSTVWY\n>b two\nMKVLW\n";
        let set = read_fasta(original.as_bytes()).unwrap();
        let mut rendered = Vec::new();
        write_fasta(&set, &mut rendered, 60).unwrap();
        let reparsed = read_fasta(&rendered[..]).unwrap();
        assert_eq!(reparsed.len(), set.len());
        for (x, y) in set.iter().zip(reparsed.iter()) {
            assert_eq!(x.header, y.header);
            assert_eq!(x.codes, y.codes);
        }
    }

    #[test]
    fn wrapping_respects_width() {
        let set = read_fasta(">a\nAAAAAAAAAA\n".as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_fasta(&set, &mut buf, 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, ">a\nAAAA\nAAAA\nAA\n");
    }

    #[test]
    fn empty_input_is_empty_set() {
        let set = read_fasta("".as_bytes()).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn ambiguity_codes_normalised() {
        let set = read_fasta(">a\nAB*Z\n".as_bytes()).unwrap();
        assert_eq!(set.get(SeqId(0)).to_letters(), "AXXX");
    }
}
