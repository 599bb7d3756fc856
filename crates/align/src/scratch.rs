//! Per-worker DP arena shared by every buffer-reuse alignment entry point.

use crate::interpair::BatchBuf;
use crate::local::AffineMatrices;
use crate::onepass::OnePassBuf;

/// Reusable per-worker DP arena shared by the alignment engine and the
/// buffer-reuse alignment entry point of the oracle (`local_affine_with`).
///
/// Buffers only ever grow; a worker thread that has processed one large
/// pair never allocates again for smaller ones.
pub struct AlignScratch {
    /// Full Gotoh H/E/F matrices for the reference traceback alignments.
    pub(crate) mat: AffineMatrices,
    /// Rolling H row for the two-row i32 kernels.
    pub(crate) row_h: Vec<i32>,
    /// Rolling F row for the two-row i32 kernels.
    pub(crate) row_f: Vec<i32>,
    /// Profile, i16 rows and direction bytes of the one-pass fill.
    pub(crate) onepass: OnePassBuf,
    /// Profiles, lane rows and packed directions of the batch fill.
    pub(crate) batch: BatchBuf,
}

impl AlignScratch {
    /// An empty arena; buffers are sized lazily on first use.
    pub fn new() -> Self {
        AlignScratch {
            mat: AffineMatrices { w: 1, h: Vec::new(), e: Vec::new(), f: Vec::new() },
            row_h: Vec::new(),
            row_f: Vec::new(),
            onepass: OnePassBuf::default(),
            batch: BatchBuf::default(),
        }
    }
}

impl Default for AlignScratch {
    fn default() -> Self {
        Self::new()
    }
}
