//! Byte-level mutation of the parsers this repository owns: FASTA
//! (`read_fasta`), the trace TSV that `pfam replay` reads
//! (`PhaseTrace::from_tsv`), the checkpoint file header
//! (`read_checkpoint`) and the three checkpoint payloads
//! (`RrState` / `CcdState` / `DsdState::decode`).
//!
//! Each parser gets a real artifact of a tiny pipeline run, then every
//! single-byte change of it — the byte set to `0x00`, set to `0xFF`, its
//! low bit flipped — and every truncation. A case may parse or fail with
//! the parser's own error type; it may not panic. The payloads are swept
//! behind the file's CRC on purpose: a checksum-valid file is what a buggy
//! writer, or a deliberate edit, hands the decoder. A payload is also read
//! to its last byte, so none of its truncations may decode. The header is
//! swept as a file, since `read_checkpoint` takes a path.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use common::{hooks_in, scratch_dir};
use pfam::cluster::PhaseTrace;
use pfam::core::checkpoint::{component_files, read_checkpoint, CcdState, DsdState, RrState};
use pfam::core::{run_pipeline, Phase, PipelineConfig};
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::seq::fasta::{read_fasta, write_fasta};

/// The artifacts under test, each as the bytes a reader would be handed.
struct Artifacts {
    fasta: Vec<u8>,
    trace: Vec<u8>,
    rr_file: Vec<u8>,
    rr: Vec<u8>,
    ccd: Vec<u8>,
    dsd: Vec<u8>,
}

/// One checkpointed run over a few short families: its input as FASTA,
/// its CCD trace as TSV, its whole `rr.ckpt`, and the payloads of its
/// `rr.ckpt`, its `ccd.ckpt` and its largest component file.
fn artifacts() -> &'static Artifacts {
    static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let set = SyntheticDataset::generate(&DatasetConfig {
            n_families: 3,
            n_members: 24,
            n_noise: 2,
            ancestor_len: 40..60,
            noise_len: 40..60,
            fragment_prob: 0.0,
            ..DatasetConfig::tiny(0xB17E)
        })
        .set;
        let mut fasta = Vec::new();
        write_fasta(&set, &mut fasta, 60).expect("write to memory");

        let dir = scratch_dir("byte-mutation");
        let result = run_pipeline(&set, &PipelineConfig::for_tests(), &hooks_in(&dir))
            .expect("checkpointed run");
        let payload = |path: &std::path::Path| read_checkpoint(path).expect("checkpoint").2;
        let components = component_files(&dir).expect("the component files");
        let size = |path: &&std::path::PathBuf| std::fs::metadata(path).map_or(0, |m| m.len());
        let largest = components.iter().max_by_key(size);
        let artifacts = Artifacts {
            fasta,
            trace: result.traces.1.to_tsv().into_bytes(),
            rr_file: std::fs::read(Phase::Rr.path_in(&dir)).expect("rr.ckpt"),
            rr: payload(&Phase::Rr.path_in(&dir)),
            ccd: payload(&Phase::Ccd.path_in(&dir)),
            dsd: payload(largest.expect("a component file")),
        };
        let _ = std::fs::remove_dir_all(&dir);
        artifacts
    })
}

/// What the mutants of one artifact came to.
#[derive(Debug, Default)]
struct Sweep {
    parsed: usize,
    refused: usize,
    /// The cases that panicked, by mutation.
    panicked: Vec<String>,
    /// Truncations among the `parsed` cases.
    truncations_parsed: usize,
}

/// Hand every single-byte change and every truncation of `artifact` to
/// `parse`.
fn sweep<T, E>(artifact: &[u8], parse: impl Fn(&[u8]) -> Result<T, E>) -> Sweep {
    let mut out = Sweep::default();
    let mut case = |what: &dyn Fn() -> String, bytes: &[u8], truncated: bool| {
        let parsed = catch_unwind(AssertUnwindSafe(|| parse(bytes).is_ok()));
        match parsed {
            Ok(true) => {
                out.parsed += 1;
                out.truncations_parsed += usize::from(truncated);
            }
            Ok(false) => out.refused += 1,
            Err(_) => out.panicked.push(what()),
        }
    };
    let mut bytes = artifact.to_vec();
    for at in 0..artifact.len() {
        let original = artifact[at];
        for value in [0x00, 0xFF, original ^ 1] {
            if value != original {
                bytes[at] = value;
                case(&|| format!("byte {at}: {original:#04x} -> {value:#04x}"), &bytes, false);
            }
        }
        bytes[at] = original;
    }
    for len in 0..artifact.len() {
        case(&|| format!("truncated to {len} bytes"), &artifact[..len], true);
    }
    out
}

/// No mutant panicked, and the parser refused some: the sweep reached it.
fn assert_typed(what: &str, artifact: &[u8], swept: Sweep) {
    assert!(artifact.len() > 100, "{what}: a {}-byte artifact is no sample", artifact.len());
    assert!(swept.panicked.is_empty(), "{what}: panicked on {:?}", swept.panicked);
    assert!(swept.refused > 0, "{what}: refused nothing ({swept:?})");
}

#[test]
fn fasta_mutants_parse_or_are_a_seq_error() {
    let fasta = &artifacts().fasta;
    assert_typed("read_fasta", fasta, sweep(fasta, |bytes| read_fasta(bytes)));
}

#[test]
fn trace_mutants_parse_or_are_an_error_message() {
    // `pfam replay` reads the file as UTF-8 first; a mutant that is not
    // UTF-8 reaches the parser with its bad bytes replaced.
    let trace = &artifacts().trace;
    let parse = |bytes: &[u8]| PhaseTrace::from_tsv(&String::from_utf8_lossy(bytes));
    assert_typed("PhaseTrace::from_tsv", trace, sweep(trace, parse));
}

/// [`assert_typed`] for a checkpoint payload, which is also read to its
/// last byte (`Dec::done`): the artifact decodes and no truncation does.
fn assert_payload<T, E>(what: &str, payload: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(decode(payload).is_ok(), "{what}: the artifact itself decodes");
    let swept = sweep(payload, decode);
    assert_eq!(swept.truncations_parsed, 0, "{what}: a truncated payload decoded");
    assert_typed(what, payload, swept);
}

#[test]
fn rr_payload_mutants_decode_or_are_a_ckpt_error() {
    assert_payload("RrState::decode", &artifacts().rr, RrState::decode);
}

#[test]
fn ccd_payload_mutants_decode_or_are_a_ckpt_error() {
    assert_payload("CcdState::decode", &artifacts().ccd, CcdState::decode);
}

#[test]
fn dsd_payload_mutants_decode_or_are_a_ckpt_error() {
    assert_payload("DsdState::decode", &artifacts().dsd, DsdState::decode);
}

#[test]
fn checkpoint_header_mutants_and_truncations_are_a_ckpt_error() {
    // Magic, version, phase, fingerprint, payload length, CRC: 32 bytes.
    // `read_checkpoint` cannot know which fingerprint a run expects, so a
    // changed fingerprint reads back as that other fingerprint (the run then
    // refuses it as a mismatch); every other change of a header byte, and
    // every truncation of the file, is a `CkptError`.
    const FINGERPRINT: std::ops::Range<usize> = 12..20;
    let file = &artifacts().rr_file;
    let dir = scratch_dir("header-mutation");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join("rr.ckpt");
    let read_back = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write a mutant");
        catch_unwind(AssertUnwindSafe(|| read_checkpoint(&path)))
    };
    let (_, fingerprint, _) = read_back(file).expect("no panic").expect("the file reads back");
    let (mut panicked, mut read, mut refused) = (Vec::new(), Vec::new(), 0);
    let mut case = |what: String, bytes: &[u8], may_read: bool| match read_back(bytes) {
        Err(_) => panicked.push(what),
        Ok(Err(_)) => refused += 1,
        Ok(Ok((_, other, _))) if may_read && other != fingerprint => {}
        Ok(Ok(_)) => read.push(what),
    };
    let mut bytes = file.clone();
    for at in 0..32 {
        let original = file[at];
        for value in [0x00, 0xFF, original ^ 1] {
            if value != original {
                bytes[at] = value;
                let what = format!("byte {at}: {original:#04x} -> {value:#04x}");
                case(what, &bytes, FINGERPRINT.contains(&at));
            }
        }
        bytes[at] = original;
    }
    for len in 0..file.len() {
        case(format!("truncated to {len} bytes"), &file[..len], false);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(panicked.is_empty(), "read_checkpoint panicked on {panicked:?}");
    assert!(read.is_empty(), "read_checkpoint accepted {read:?}");
    assert!(refused > file.len(), "refused only {refused} cases");
}
