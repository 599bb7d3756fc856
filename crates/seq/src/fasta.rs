//! Minimal, strict FASTA reading and writing.
//!
//! The CAMERA download the paper uses is plain multi-line FASTA of peptide
//! records. This parser accepts exactly that: `>`-headers, wrapped sequence
//! lines, `\n` or `\r\n` endings, and blank lines between records. It
//! rejects data before the first header, residue bytes outside the
//! alphabet (reporting the position within the record), empty records and
//! headers that are not UTF-8.

use std::io::{BufRead, Write};

use crate::sequence::{SequenceSet, SequenceSetBuilder};
use crate::SeqError;

/// Parse FASTA from any buffered reader into a [`SequenceSet`].
///
/// The input is read a line at a time into one buffer, and a record's
/// residue lines are gathered as bytes into another, encoded once the
/// record ends: only headers become strings.
pub fn read_fasta<R: BufRead>(mut reader: R) -> Result<SequenceSet, SeqError> {
    let mut builder = SequenceSetBuilder::new();
    let mut header: Option<String> = None;
    let (mut line, mut residues) = (Vec::new(), Vec::new());
    let mut records = 0;
    let mut flush = |header: Option<String>, residues: &mut Vec<u8>| match header {
        Some(done) => {
            builder.push_letters(done, residues)?;
            residues.clear();
            Ok::<_, SeqError>(())
        }
        None => Ok(()),
    };
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let mut text = line.strip_suffix(b"\n").unwrap_or(&line);
        while let Some(rest) = text.strip_suffix(b"\r") {
            text = rest;
        }
        if text.is_empty() {
            continue;
        }
        if let Some(h) = text.strip_prefix(b">") {
            flush(header.take(), &mut residues)?;
            let h = std::str::from_utf8(h).map_err(|_| {
                SeqError::Format(format!("header of record {records} is not UTF-8"))
            })?;
            header = Some(h.trim().to_owned());
            records += 1;
        } else if header.is_none() {
            return Err(SeqError::Format("sequence data before first '>' header".to_owned()));
        } else {
            residues.extend_from_slice(trim_whitespace(text));
        }
    }
    flush(header, &mut residues)?;
    Ok(builder.finish())
}

/// `line` without the whitespace `str::trim` would take off its ends: ASCII
/// whitespace and the vertical tab, and — in a line that is not ASCII but
/// is UTF-8 — Unicode's too.
fn trim_whitespace(line: &[u8]) -> &[u8] {
    if !line.is_ascii() {
        if let Ok(text) = std::str::from_utf8(line) {
            return text.trim().as_bytes();
        }
    }
    let blank = |b: &u8| b.is_ascii_whitespace() || *b == 0x0B;
    let start = line.iter().position(|b| !blank(b)).unwrap_or(line.len());
    let end = line.iter().rposition(|b| !blank(b)).map_or(start, |last| last + 1);
    &line[start..end]
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
        // The position is within the record, over its wrapped lines.
        let err = read_fasta(">a\nMK\n>b\nACD\n  EF*\u{00e9}\n".as_bytes()).unwrap_err();
        assert_eq!(err, SeqError::InvalidResidue { byte: 0xC3, position: 6 });
    }

    #[test]
    fn a_header_that_is_not_utf8_is_a_format_error() {
        let err = read_fasta(&b">a\nMK\n>b\xff\xfe\nACD\n"[..]).unwrap_err();
        assert_eq!(err, SeqError::Format("header of record 1 is not UTF-8".to_owned()));
    }

    #[test]
    fn lines_are_trimmed_as_before() {
        // Spaces, tabs, vertical tabs and form feeds around residues and
        // headers go; a carriage return left over and a last line with no
        // newline are fine.
        let text = ">  a b \t\r\r\n \x0bMK\x0c\n\tVL \r\n\n>\u{00a0}c\u{00a0}\nW\u{00a0}";
        let set = read_fasta(text.as_bytes()).unwrap();
        assert_eq!((set.header(SeqId(0)), set.header(SeqId(1))), ("a b", "c"));
        assert_eq!(set.get(SeqId(0)).to_letters(), "MKVL");
        assert_eq!(set.get(SeqId(1)).to_letters(), "W");
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
