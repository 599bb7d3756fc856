//! Versioned, checksummed checkpoint files for the pipeline (DESIGN.md
//! §robustness).
//!
//! Every unit of the run a kill should not lose is one file, written once,
//! when the unit finishes, so a killed job resumes at the unit in flight
//! and reaches a final clustering *identical* to the uninterrupted run:
//!
//! * redundancy removal — the survivor set and the pair ledger
//!   ([`RrState`], `rr.ckpt`);
//! * connected-component detection — the survivor count, accepted edges,
//!   deferred pairs and trace ([`CcdState`], `ccd.ckpt`); the forest is
//!   rebuilt from the edges on load;
//! * BGG+DSD — each component of the queue, in a file of its own,
//!   `dsd-<queue position>.ckpt`, with its graph, dense subgraphs and work
//!   counters ([`DsdState`]).
//!
//! # File format
//!
//! ```text
//! magic "PFCK" | u32 version | u32 phase | u64 fingerprint | u64 payload_len | u32 crc32 | payload
//! ```
//!
//! All integers little-endian. The CRC-32 (IEEE) covers the payload only.
//! Files are written atomically (`<path>.tmp` + rename), so a crash
//! mid-write leaves the previous checkpoint intact; a torn or tampered
//! file fails the checksum and is reported, never silently half-loaded.
//! The fingerprint ([`fingerprint`]) names the input and the parameters
//! the file's contents depend on; a run resumes only from files that
//! carry its own.

use std::io::Write;
use std::path::{Path, PathBuf};

use pfam_cluster::{ClusterConfig, ComponentGraph, PhaseTrace};
use pfam_graph::CsrGraph;
use pfam_seq::{SeqId, SeqStore};
use pfam_shingle::minwise::splitmix64;
use pfam_shingle::{ShingleParams, ShingleStats};

use crate::config::{PipelineConfig, Reduction};
use crate::executor::ComponentOutput;

/// Magic bytes opening every checkpoint file.
pub const MAGIC: &[u8; 4] = b"PFCK";
/// Current format version. v2 added the generation-plan pin (which
/// chunking of the index the pair order came from) to the CCD payload; v3
/// the pair ledger to the RR payload and the deferred pairs to the CCD
/// payload — what a resumed run needs to align exactly what an
/// uninterrupted one does; v4 the run fingerprint to the header. v5 has
/// v4's layout but another meaning: the plan pin is a chunk target in
/// bytes of the index *estimate*, the estimate went from 16 to 7 bytes per
/// text position, and the same pin now cuts other chunks — a v4 cursor
/// replayed here would skip and repeat pairs. v6 has that layout too: the
/// fingerprint folds no sketch word and `u64::MAX` is no longer a plan pin
/// (it named the retired LSH candidate stream). v7 drops the plan pin from
/// the CCD payload: every plan mines one stream, so a cursor is a position
/// in it under any budget. v8 has v7's layout, but its fingerprint folds
/// every residue, not only every length: a v7 file may name another input
/// of the same shape. v9 keyed each finished DSD component by its queue
/// position, with its own BGG record and Shingle counters, where v8 held a
/// prefix of the queue and running totals; v10 writes each one once, in a
/// file of its own ([`component_path`]), where v9 re-encoded every finished
/// one into `dsd.ckpt`. v11's `ccd.ckpt` holds the finished phase only (the
/// survivor count, edges, deferred pairs and trace), where v10's could hold
/// a mid-phase cursor with its union-find arrays and a `complete` byte. An
/// older file is [`CkptError::BadVersion`]: there is no compatibility path.
pub const VERSION: u32 = 11;
/// Bytes before the payload.
const HEADER_LEN: usize = 32;

/// Which phase a checkpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Redundancy removal (complete).
    Rr,
    /// Connected-component detection (complete).
    Ccd,
    /// Bipartite generation + dense subgraph detection: one file per
    /// finished component.
    Dsd,
}

impl Phase {
    fn code(self) -> u32 {
        match self {
            Phase::Rr => 1,
            Phase::Ccd => 2,
            Phase::Dsd => 3,
        }
    }

    fn from_code(code: u32) -> Option<Phase> {
        match code {
            1 => Some(Phase::Rr),
            2 => Some(Phase::Ccd),
            3 => Some(Phase::Dsd),
            _ => None,
        }
    }

    /// Conventional file name inside a checkpoint directory; for DSD, the
    /// pattern of its component files ([`component_path`]).
    pub fn file_name(self) -> &'static str {
        match self {
            Phase::Rr => "rr.ckpt",
            Phase::Ccd => "ccd.ckpt",
            Phase::Dsd => "dsd-*.ckpt",
        }
    }

    /// Conventional path of RR's or CCD's file inside `dir`.
    pub fn path_in(self, dir: &Path) -> PathBuf {
        dir.join(self.file_name())
    }
}

/// The file of the back half's component at queue `position` inside `dir`.
pub fn component_path(dir: &Path, position: usize) -> PathBuf {
    dir.join(format!("dsd-{position}.ckpt"))
}

/// Every component file inside `dir` (`dsd-*.ckpt`), in name order.
pub fn component_files(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let io = |e: std::io::Error| CkptError::Io(format!("{}: {e}", dir.display()));
    let entries = std::fs::read_dir(dir).and_then(|dir| dir.map(|e| Ok(e?.path())).collect());
    let mut files: Vec<PathBuf> = entries.map_err(io)?;
    let component = |name: &str| name.starts_with("dsd-") && name.ends_with(".ckpt");
    files.retain(|path| path.file_name().and_then(|name| name.to_str()).is_some_and(component));
    files.sort();
    Ok(files)
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure (message includes the path).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Unknown phase code in the header.
    BadPhase(u32),
    /// The payload failed its CRC-32 — torn write or corruption.
    BadChecksum,
    /// The file or payload ended early / decoded inconsistently.
    Corrupt(&'static str),
    /// The file was written for another input or under other
    /// result-affecting parameters ([`fingerprint`]): resuming from it
    /// would return that run's answer, not this one's.
    Mismatch(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::BadPhase(p) => write!(f, "unknown checkpoint phase code {p}"),
            CkptError::BadChecksum => {
                write!(f, "checkpoint checksum mismatch (torn write or corruption)")
            }
            CkptError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CkptError::Mismatch(file) => write!(
                f,
                "checkpoint mismatch: {file} was written for a different input or different \
                 parameters — rerun with the original ones, or without --resume"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

// ---------------------------------------------------------------- CRC-32

/// CRC-32 (IEEE 802.3, reflected), the zlib/PNG polynomial.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ------------------------------------------------------------- raw files

/// Atomically write `payload` as a phase checkpoint of the run
/// `fingerprint` names: the bytes land in `<path>.tmp` first and are
/// renamed into place, so `path` always holds either the previous
/// checkpoint or the complete new one. Returns the bytes written.
pub fn write_checkpoint(
    path: &Path,
    phase: Phase,
    fingerprint: u64,
    payload: &[u8],
) -> Result<u64, CkptError> {
    let mut bytes = Vec::with_capacity(payload.len() + HEADER_LEN);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&phase.code().to_le_bytes());
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);

    let tmp = path.with_extension("ckpt.tmp");
    let io = |e: std::io::Error| CkptError::Io(format!("{}: {e}", tmp.display()));
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(&bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| CkptError::Io(format!("renaming {}: {e}", path.display())))?;
    Ok(bytes.len() as u64)
}

/// Read and validate a checkpoint, returning its phase, the fingerprint
/// of the run that wrote it, and its payload.
pub fn read_checkpoint(path: &Path) -> Result<(Phase, u64, Vec<u8>), CkptError> {
    let bytes =
        std::fs::read(path).map_err(|e| CkptError::Io(format!("{}: {e}", path.display())))?;
    // The version word sits where every format has had it, so an older
    // (shorter-headed) file is reported as its version, not as truncated.
    if bytes.len() < 8 {
        return Err(CkptError::Corrupt("file shorter than header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let mut header = Dec::new(&bytes[4..]);
    let version = header.u32()?;
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Corrupt("file shorter than header"));
    }
    let code = header.u32()?;
    let phase = Phase::from_code(code).ok_or(CkptError::BadPhase(code))?;
    let fingerprint = header.u64()?;
    let len = header.u64()?;
    let checksum = header.u32()?;
    let payload = &bytes[HEADER_LEN..];
    if (payload.len() as u64) < len {
        return Err(CkptError::Corrupt("payload shorter than header claims"));
    }
    if payload.len() as u64 != len {
        return Err(CkptError::Corrupt("trailing bytes after payload"));
    }
    if crc32(payload) != checksum {
        return Err(CkptError::BadChecksum);
    }
    Ok((phase, fingerprint, payload.to_vec()))
}

// ----------------------------------------------------------- fingerprint

/// The 64-bit name of the answer a run computes: the input (the read
/// count, the residue count, every read's length and residues) and every
/// parameter a phase's output depends on. Each checkpoint file carries the
/// fingerprint of the run that wrote it, and a run resumes only from files
/// carrying its own.
///
/// Thread counts, the alignment engine, the memory budget and when the
/// snapshots were written are left out on purpose: results are
/// identical across them (every budget mines one pair stream), so a killed
/// run may be resumed under other values.
pub fn fingerprint(input: &dyn SeqStore, config: &PipelineConfig) -> u64 {
    // Destructured in full, so a new field has to be placed on one side.
    let PipelineConfig { cluster, shingle, reduction, min_component_size, min_subgraph_size } =
        config;
    let ClusterConfig {
        scheme,
        psi_rr,
        psi_ccd,
        containment,
        overlap,
        batch_size,
        max_pairs_per_node,
        mask,
        threads: _,
        align_engine: _,
        budget: _,
    } = cluster;
    let ShingleParams { s1, c1, s2, c2, seed: shingle_seed } = *shingle;

    let mut h = Fold(0);
    h.word(input.len() as u64);
    h.word(input.total_residues() as u64);
    // Each read's length, then its codes eight to a word (the last word
    // zero-padded: the length says where the read ends).
    for i in 0..input.len() {
        let codes = input.codes(SeqId(i as u32));
        h.word(codes.len() as u64);
        for chunk in codes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(word));
        }
    }
    let codes = 0..pfam_seq::alphabet::ALPHABET_SIZE as u8;
    for (a, b) in codes.clone().flat_map(|a| codes.clone().map(move |b| (a, b))) {
        h.word(scheme.matrix.score_codes(a, b) as u64);
    }
    h.word(scheme.gap_open as u64);
    h.word(scheme.gap_extend as u64);
    h.word(*psi_rr as u64);
    h.word(*psi_ccd as u64);
    for fraction in [
        containment.min_similarity,
        containment.min_coverage,
        overlap.min_similarity,
        overlap.min_longer_coverage,
    ] {
        h.word(fraction.to_bits());
    }
    h.word(*batch_size as u64);
    h.word(*max_pairs_per_node as u64);
    match mask {
        None => h.word(0),
        Some(mask) => {
            h.word(1);
            h.word(mask.window as u64);
            h.word(mask.min_entropy_bits.to_bits());
        }
    }
    // Tag word `0`, then τ: the fold every written checkpoint carries
    // (`fingerprint_of_a_fixed_input_is_pinned`).
    let Reduction::GlobalSimilarity { tau } = *reduction;
    h.word(0);
    h.word(tau.to_bits());
    for count in [s1, c1, s2, c2, *min_component_size, *min_subgraph_size] {
        h.word(count as u64);
    }
    h.word(shingle_seed);
    h.0
}

/// A running 64-bit digest of a word stream.
struct Fold(u64);

impl Fold {
    fn word(&mut self, v: u64) {
        self.0 = splitmix64(self.0 ^ v);
    }
}

// ----------------------------------------------------------- byte codec

/// Little-endian byte encoder for checkpoint payloads.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Finish and take the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed `u32` slice.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, vs: &[u8]) {
        self.u64(vs.len() as u64);
        self.buf.extend_from_slice(vs);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a length-prefixed list of `u32` pairs.
    pub fn pairs(&mut self, vs: &[(u32, u32)]) {
        self.u64(vs.len() as u64);
        for &(a, b) in vs {
            self.u32(a);
            self.u32(b);
        }
    }
}

/// Matching decoder; every getter bounds-checks and fails with
/// [`CkptError::Corrupt`] instead of panicking.
pub struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, at: 0 }
    }

    /// Assert the payload was fully consumed.
    pub fn done(&self) -> Result<(), CkptError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(CkptError::Corrupt("payload has trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let slice =
            self.buf.get(self.at..self.at + n).ok_or(CkptError::Corrupt("payload truncated"))?;
        self.at += n;
        Ok(slice)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn len_prefix(&mut self) -> Result<usize, CkptError> {
        let n = self.u64()?;
        // Cheap sanity bound: a length can never exceed the bytes left.
        if n > (self.buf.len() - self.at) as u64 {
            return Err(CkptError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed `u32` list.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CkptError> {
        let n = self.len_prefix()?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| CkptError::Corrupt("string is not UTF-8"))
    }

    /// Read a length-prefixed list of `u32` pairs.
    pub fn pairs(&mut self) -> Result<Vec<(u32, u32)>, CkptError> {
        let n = self.len_prefix()?;
        (0..n).map(|_| Ok((self.u32()?, self.u32()?))).collect()
    }
}

fn encode_trace(e: &mut Enc, trace: &PhaseTrace) {
    e.str(&trace.to_tsv());
}

fn decode_trace(d: &mut Dec<'_>) -> Result<PhaseTrace, CkptError> {
    PhaseTrace::from_tsv(&d.str()?).map_err(|_| CkptError::Corrupt("bad trace TSV"))
}

// ----------------------------------------------------------- phase state

/// Redundancy removal, complete: the survivor set, what was removed, and
/// the overlap answers its fills left behind.
#[derive(Debug, Clone, PartialEq)]
pub struct RrState {
    /// Kept (non-redundant) sequence ids, ascending.
    pub kept: Vec<u32>,
    /// `(removed, container)` pairs, in removal order.
    pub removed: Vec<(u32, u32)>,
    /// The pair ledger's `(a, b, overlap)` entries, ids as positions in
    /// `kept` ([`pfam_cluster::PairLedger::entries`]).
    pub ledger: Vec<(u32, u32, bool)>,
    /// Fills the ledger could not record ([`pfam_cluster::PairLedger::dropped`]).
    pub ledger_dropped: u64,
    /// RR work trace.
    pub trace: PhaseTrace,
}

impl RrState {
    /// Serialize to a checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32s(&self.kept);
        e.pairs(&self.removed);
        for answer in [true, false] {
            let pairs = self.ledger.iter().filter(|l| l.2 == answer).map(|&(a, b, _)| (a, b));
            e.pairs(&pairs.collect::<Vec<_>>());
        }
        e.u64(self.ledger_dropped);
        encode_trace(&mut e, &self.trace);
        e.finish()
    }

    /// Parse an [`RrState::encode`] payload.
    pub fn decode(payload: &[u8]) -> Result<RrState, CkptError> {
        let mut d = Dec::new(payload);
        let kept = d.u32s()?;
        if !kept.windows(2).all(|w| w[0] < w[1]) {
            return Err(CkptError::Corrupt("survivor ids not strictly ascending"));
        }
        let removed = d.pairs()?;
        let mut ledger = Vec::new();
        for answer in [true, false] {
            ledger.extend(d.pairs()?.into_iter().map(|(a, b)| (a, b, answer)));
        }
        if ledger.iter().any(|&(a, b, _)| a.max(b) as usize >= kept.len()) {
            return Err(CkptError::Corrupt("ledger pair outside the survivor set"));
        }
        let ledger_dropped = d.u64()?;
        let trace = decode_trace(&mut d)?;
        d.done()?;
        Ok(RrState { kept, removed, ledger, ledger_dropped, trace })
    }
}

/// Connected-component detection, complete: what the phase found over
/// RR's survivors. The union-find forest is not stored: a resume rebuilds
/// it from the edges ([`pfam_cluster::CcdResult::from_edges`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CcdState {
    /// Reads the phase clustered: RR's survivors, under dense ids.
    pub survivors: usize,
    /// Accepted edges, in verification order.
    pub edges: Vec<(u32, u32)>,
    /// Pairs the closure filter dropped, in arrival order.
    pub deferred: Vec<(u32, u32)>,
    /// CCD work trace.
    pub trace: PhaseTrace,
}

impl CcdState {
    /// Serialize to a checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.survivors as u64);
        e.pairs(&self.edges);
        e.pairs(&self.deferred);
        encode_trace(&mut e, &self.trace);
        e.finish()
    }

    /// Parse a [`CcdState::encode`] payload.
    pub fn decode(payload: &[u8]) -> Result<CcdState, CkptError> {
        let mut d = Dec::new(payload);
        let survivors = usize::try_from(d.u64()?)
            .map_err(|_| CkptError::Corrupt("survivor count past the address space"))?;
        let edges = d.pairs()?;
        let deferred = d.pairs()?;
        if edges.iter().chain(&deferred).any(|&(a, b)| a.max(b) as usize >= survivors) {
            return Err(CkptError::Corrupt("pair outside the clustered set"));
        }
        let trace = decode_trace(&mut d)?;
        d.done()?;
        Ok(CcdState { survivors, edges, deferred, trace })
    }
}

/// One finished component of the back half: its queue position and its
/// output — what one `dsd-<position>.ckpt` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct DsdState {
    /// Where the component sits in the back half's queue.
    pub position: usize,
    /// Its graph, dense subgraphs, BGG record and Shingle counters.
    pub output: ComponentOutput,
}

impl DsdState {
    /// Serialize the component `out` at queue `position`, read where it
    /// lies.
    pub fn encode(position: usize, out: &ComponentOutput) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(position as u64);
        e.u32s(&out.graph.members.iter().map(|id| id.0).collect::<Vec<_>>());
        e.pairs(&csr_edge_list(&out.graph.graph));
        e.u64(out.subgraphs.len() as u64);
        for subgraph in &out.subgraphs {
            e.u32s(subgraph);
        }
        let s = &out.stats;
        for count in [s.pass1_shingles, s.distinct_s1, s.pass2_shingles, s.components] {
            e.u64(count as u64);
        }
        // The BGG record last, as a trace of one batch, like every phase's.
        encode_trace(
            &mut e,
            &PhaseTrace { batches: vec![out.record.clone()], ..PhaseTrace::default() },
        );
        e.finish()
    }

    /// Parse a [`DsdState::encode`] payload.
    pub fn decode(payload: &[u8]) -> Result<DsdState, CkptError> {
        let mut d = Dec::new(payload);
        let position = usize::try_from(d.u64()?)
            .map_err(|_| CkptError::Corrupt("queue position past the address space"))?;
        let members = d.u32s()?;
        let edges = d.pairs()?;
        let n_sub = d.u64()? as usize;
        let mut subgraphs = Vec::with_capacity(n_sub.min(1 << 20));
        for _ in 0..n_sub {
            subgraphs.push(d.u32s()?);
        }
        let local = |&v: &u32| (v as usize) < members.len();
        if !edges.iter().all(|(a, b)| local(a) && local(b)) {
            return Err(CkptError::Corrupt("component edge outside its members"));
        }
        if !subgraphs.iter().flatten().all(local) {
            return Err(CkptError::Corrupt("dense subgraph outside its component"));
        }
        let stats = ShingleStats {
            pass1_shingles: d.u64()? as usize,
            distinct_s1: d.u64()? as usize,
            pass2_shingles: d.u64()? as usize,
            components: d.u64()? as usize,
        };
        let Ok([record]) = <[_; 1]>::try_from(decode_trace(&mut d)?.batches) else {
            return Err(CkptError::Corrupt("a component has one BGG record"));
        };
        d.done()?;
        let graph = ComponentGraph {
            graph: CsrGraph::from_edges(members.len(), &edges),
            members: members.into_iter().map(SeqId).collect(),
        };
        Ok(DsdState { position, output: ComponentOutput { graph, record, subgraphs, stats } })
    }
}

/// The undirected edge list of a component graph, `(u, v)` with `u < v`
/// in ascending order — the canonical serialized form.
fn csr_edge_list(graph: &CsrGraph) -> Vec<(u32, u32)> {
    let higher = |u: u32| graph.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v));
    (0..graph.n_vertices() as u32).flat_map(higher).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_cluster::BatchRecord;

    fn sample_trace() -> PhaseTrace {
        PhaseTrace {
            index_residues: 1234,
            nodes_visited: 99,
            batches: vec![BatchRecord {
                n_generated: 10,
                n_filtered: 3,
                n_aligned: 2,
                align_cells: 12,
                task_cells: vec![5, 7],
                ..BatchRecord::default()
            }],
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pfck-test-round-trip");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("x.ckpt");
        let payload = b"some phase payload".to_vec();
        write_checkpoint(&path, Phase::Ccd, 0xF1E2_D3C4_B5A6_9788, &payload).expect("write");
        let (phase, fingerprint, back) = read_checkpoint(&path).expect("read");
        assert_eq!(phase, Phase::Ccd);
        assert_eq!(fingerprint, 0xF1E2_D3C4_B5A6_9788);
        assert_eq!(back, payload);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join("pfck-test-corruption");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("x.ckpt");
        write_checkpoint(&path, Phase::Rr, 7, b"payload bytes here").expect("write");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip one payload byte: checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(read_checkpoint(&path), Err(CkptError::BadChecksum)));
        // Truncation.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).expect("rewrite");
        assert!(matches!(read_checkpoint(&path), Err(CkptError::Corrupt(_))));
        // Wrong magic.
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(read_checkpoint(&path), Err(CkptError::BadMagic)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_of_a_fixed_input_is_pinned() {
        // Checkpoints already on disk carry these values: a fold that
        // changes them refuses every one of them as a mismatch, so it has to
        // come with a new `VERSION`.
        use pfam_seq::SequenceSetBuilder;
        let mut b = SequenceSetBuilder::new();
        for (i, read) in ["MKVLWAAKND", "MKVLW", "ACDEFGHIKLMNPQRSTVWY"].iter().enumerate() {
            b.push_letters(format!("s{i}"), read.as_bytes()).unwrap();
        }
        let set = b.finish();
        assert_eq!(fingerprint(&set, &PipelineConfig::default()), 0x3307_c5ae_9949_d909);
        assert_eq!(fingerprint(&set, &PipelineConfig::for_tests()), 0xab70_d642_c305_d68a);
    }

    #[test]
    fn fingerprint_covers_what_changes_the_answer_and_nothing_else() {
        use pfam_seq::SequenceSetBuilder;
        let set_of = |reads: &[&str]| {
            let mut b = SequenceSetBuilder::new();
            for (i, read) in reads.iter().enumerate() {
                b.push_letters(format!("s{i}"), read.as_bytes()).unwrap();
            }
            b.finish()
        };
        let set = set_of(&["MKVLWAAKND", "MKVLW"]);
        let base = PipelineConfig::default();
        let name = fingerprint(&set, &base);
        assert_eq!(name, fingerprint(&set, &base.clone()), "a pure function");

        let changed: [fn(&mut PipelineConfig); 11] = [
            |c| c.cluster.scheme.gap_open += 1,
            |c| c.cluster.psi_rr += 1,
            |c| c.cluster.psi_ccd += 1,
            |c| c.cluster.containment.min_coverage = 0.9,
            |c| c.cluster.overlap.min_similarity = 0.4,
            |c| c.cluster.batch_size *= 2,
            |c| c.cluster.max_pairs_per_node -= 1,
            |c| c.cluster.mask = Some(Default::default()),
            |c| c.reduction = Reduction::GlobalSimilarity { tau: 0.4 },
            |c| c.shingle.c1 += 1,
            |c| c.min_subgraph_size -= 1,
        ];
        for (i, change) in changed.iter().enumerate() {
            let mut config = base.clone();
            change(&mut config);
            assert_ne!(fingerprint(&set, &config), name, "parameter {i}");
        }
        // Same reads and residues, other lengths; one read more; and the
        // same lengths with one residue changed.
        assert_ne!(fingerprint(&set_of(&["MKVLWAAK", "MKVLWND"]), &base), name);
        assert_ne!(fingerprint(&set_of(&["MKVLWAAKND", "MKVL", "W"]), &base), name);
        assert_ne!(fingerprint(&set_of(&["MKVLWAAKND", "MKVLY"]), &base), name);

        let mut unchanged = base.clone().with_mem_budget(1 << 20);
        unchanged.cluster.threads = 1;
        unchanged.cluster.align_engine = pfam_cluster::AlignEngineKind::Reference;
        assert_eq!(fingerprint(&set, &unchanged), name);
    }

    #[test]
    fn rr_state_round_trip() {
        let s = RrState {
            kept: vec![0, 2, 5, 9],
            removed: vec![(1, 0), (3, 2)],
            ledger: vec![(0, 2, true), (1, 3, true), (0, 1, false)],
            ledger_dropped: 7,
            trace: sample_trace(),
        };
        assert_eq!(RrState::decode(&s.encode()).expect("decode"), s);
        let outside = RrState { ledger: vec![(0, 4, true)], ..s };
        assert!(matches!(RrState::decode(&outside.encode()), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn ccd_state_round_trip() {
        let s = CcdState {
            survivors: 4,
            edges: vec![(0, 1), (2, 3)],
            deferred: vec![(0, 1), (1, 3)],
            trace: sample_trace(),
        };
        assert_eq!(CcdState::decode(&s.encode()).expect("decode"), s);
        for outside in [(0, 4), (4, 1)] {
            let edge = CcdState { edges: vec![outside], ..s.clone() };
            let deferred = CcdState { deferred: vec![outside], ..s.clone() };
            for state in [edge, deferred] {
                assert!(matches!(CcdState::decode(&state.encode()), Err(CkptError::Corrupt(_))));
            }
        }
    }

    #[test]
    fn dsd_state_round_trip() {
        let output = ComponentOutput {
            graph: ComponentGraph {
                graph: CsrGraph::from_edges(3, &[(0, 1), (1, 2)]),
                members: [3, 4, 8].map(SeqId).to_vec(),
            },
            record: sample_trace().batches[0].clone(),
            subgraphs: vec![vec![0, 1, 2]],
            stats: ShingleStats {
                pass1_shingles: 4,
                distinct_s1: 3,
                pass2_shingles: 2,
                components: 1,
            },
        };
        let s = DsdState { position: 4, output };
        assert_eq!(DsdState::decode(&DsdState::encode(4, &s.output)).expect("decode"), s);
    }
}
