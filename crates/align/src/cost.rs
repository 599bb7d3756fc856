//! Predicted DP-cell cost per pair — the scheduler's unit of account.
//!
//! Verification cost varies by orders of magnitude across pairs: the
//! one-pass fill of [`crate::engine`] costs the full rectangle `m·n`, a
//! pair the length screen rejects costs nothing. A lease's expected
//! service time therefore cannot be read off its pair count.
//!
//! [`CostModel`] predicts the cells a pair will actually cost as
//! `m·n × escape_rate`, where the rate — the share of rectangle cells that
//! escape the screen into the fill — is estimated *online* from the engine's own
//! `cells_computed` counters (`m·n` for every pair that reaches the fill,
//! 0 for a screen reject): every absorbed verdict feeds `observe`, and
//! `predict` scales the rectangle by the running ratio
//! `Σ cells_computed / Σ m·n`. Uncalibrated, the rate is 1 — the
//! prediction is the full rectangle, which orders pairs correctly by
//! length product.
//!
//! The model is deliberately *scheduling-only*: predictions decide how
//! a lease is re-issued speculatively, never what a verdict is, so a
//! stale or even wildly wrong estimate can cost wall-clock but cannot
//! change components. That is what makes lock-free sharing (two atomics,
//! relaxed ordering) safe — readers may see the totals mid-update and the
//! worst case is a slightly off deadline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cells a pair is predicted to cost even when the screen resolves it:
/// cache misses, dispatch. Keeps predictions nonzero so no lease is
/// ever predicted free.
const FLOOR_CELLS: u64 = 64;

/// The escape rate never drops below this: even a workload the screen
/// fully resolves pays the per-pair floor, and a zero rate would collapse
/// every prediction onto the floor and erase the length ordering.
const MIN_RATE: f64 = 1.0 / 1024.0;

/// Online predictor of per-pair verification cost in DP cells.
///
/// `Sync` and internally atomic: one instance is shared by the master
/// (predicting) and every worker or absorb path (observing).
#[derive(Debug, Default)]
pub struct CostModel {
    /// Σ full `m·n` rectangles over observed verdicts.
    observed_full: AtomicU64,
    /// Σ `cells_computed` over observed verdicts.
    observed_computed: AtomicU64,
}

impl CostModel {
    /// A fresh, uncalibrated model (escape rate 1: predictions equal the
    /// full rectangle).
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Feed one verdict's counters: the full rectangle of the pair and
    /// the cells the engine actually evaluated.
    pub fn observe(&self, cells_full: u64, cells_computed: u64) {
        self.observed_full.fetch_add(cells_full, Ordering::Relaxed);
        self.observed_computed.fetch_add(cells_computed, Ordering::Relaxed);
    }

    /// Verdicts' worth of rectangle cells observed so far.
    pub fn observed_cells(&self) -> u64 {
        self.observed_full.load(Ordering::Relaxed)
    }

    /// The running escape-rate estimate: the fraction of rectangle cells
    /// the engine actually computes, in `[MIN_RATE, 1]`.
    /// `1.0` until the first observation arrives.
    pub fn escape_rate(&self) -> f64 {
        let full = self.observed_full.load(Ordering::Relaxed);
        if full == 0 {
            return 1.0;
        }
        let computed = self.observed_computed.load(Ordering::Relaxed);
        (computed as f64 / full as f64).clamp(MIN_RATE, 1.0)
    }

    /// Predicted cost, in DP cells, of verifying a pair with sequence
    /// lengths `la` and `lb`.
    pub fn predict(&self, la: usize, lb: usize) -> u64 {
        let rect = (la as u64) * (lb as u64);
        (((rect as f64) * self.escape_rate()) as u64).max(FLOOR_CELLS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_predicts_the_full_rectangle() {
        let m = CostModel::new();
        assert_eq!(m.escape_rate(), 1.0);
        assert_eq!(m.predict(100, 200), 20_000);
    }

    #[test]
    fn calibration_scales_predictions_by_the_escape_rate() {
        let m = CostModel::new();
        // Engine computed a tenth of the rectangles it was shown.
        m.observe(10_000, 1_000);
        assert!((m.escape_rate() - 0.1).abs() < 1e-12);
        assert_eq!(m.predict(100, 100), 1_000);
    }

    #[test]
    fn predictions_never_go_below_the_floor() {
        let m = CostModel::new();
        m.observe(1_000_000, 0); // the screen resolved everything
        assert_eq!(m.escape_rate(), MIN_RATE);
        assert_eq!(m.predict(2, 2), FLOOR_CELLS);
    }

    #[test]
    fn rate_is_clamped_to_one() {
        let m = CostModel::new();
        // The engine never reports more than m·n per pair, but a foreign
        // or stale counter must not extrapolate beyond the rectangle.
        m.observe(100, 150);
        assert_eq!(m.escape_rate(), 1.0);
    }

    #[test]
    fn longer_pairs_always_predict_higher() {
        let m = CostModel::new();
        m.observe(50_000, 5_000);
        assert!(m.predict(500, 500) > m.predict(100, 100));
        assert!(m.predict(100, 100) > m.predict(60, 60));
    }

    #[test]
    fn observation_is_cumulative_across_threads() {
        let m = CostModel::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        m.observe(100, 25);
                    }
                });
            }
        });
        assert_eq!(m.observed_cells(), 400_000);
        assert!((m.escape_rate() - 0.25).abs() < 1e-12);
    }
}
