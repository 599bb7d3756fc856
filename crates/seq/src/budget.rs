//! Explicit memory-budget accounting for the index plane.
//!
//! Every large allocation in the pipeline — suffix-array text, LCP
//! arrays, the windowed miner's text and windows, the pair ledger,
//! deferred pairs — registers
//! against a shared [`MemoryBudget`] before it materialises. Over-budget
//! construction is a *typed error* ([`BudgetError`]), never an abort: the
//! caller decides whether to degrade (smaller index chunks,
//! accounting-only) or to propagate.
//!
//! Accounting is RAII: [`MemoryBudget::try_reserve`] returns a
//! [`Reservation`] that releases its bytes on drop, so a failed or
//! early-returning construction can never leak budget. The budget is
//! `Clone + Send + Sync` (an `Arc` around atomics) and one instance is
//! threaded from the CLI through `PipelineConfig`/`ClusterConfig` down to
//! every consumer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reservation request that would exceed the configured limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// What tried to allocate (e.g. `"gsa-index"`, `"pair-ledger"`).
    pub what: &'static str,
    /// Bytes the failed reservation asked for.
    pub requested: u64,
    /// Bytes already reserved when the request arrived.
    pub in_use: u64,
    /// The configured limit.
    pub limit: u64,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exceeded: {} requested {} B with {} B of {} B in use",
            self.what, self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for BudgetError {}

#[derive(Debug, Default)]
struct BudgetInner {
    /// `0` = unlimited.
    limit: u64,
    used: AtomicU64,
}

/// Shared, thread-safe byte accounting with an optional hard limit.
///
/// `MemoryBudget::default()` (and [`MemoryBudget::unlimited`]) never
/// refuses a reservation but still counts what is reserved
/// ([`MemoryBudget::used`]).
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl MemoryBudget {
    /// A budget that admits everything (but still counts usage).
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget::default()
    }

    /// A budget capped at `limit_bytes` (`0` means unlimited).
    pub fn limited(limit_bytes: u64) -> MemoryBudget {
        MemoryBudget { inner: Arc::new(BudgetInner { limit: limit_bytes, ..Default::default() }) }
    }

    /// Whether a limit is configured at all.
    pub fn is_limited(&self) -> bool {
        self.inner.limit != 0
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Bytes still available (`u64::MAX` when unlimited).
    pub fn remaining(&self) -> u64 {
        if self.inner.limit == 0 {
            u64::MAX
        } else {
            self.inner.limit.saturating_sub(self.used())
        }
    }

    /// Whether a reservation of `bytes` would be admitted right now.
    pub fn would_fit(&self, bytes: u64) -> bool {
        self.inner.limit == 0 || bytes <= self.remaining()
    }

    /// Reserve `bytes` for `what`, or explain why not. The returned
    /// [`Reservation`] releases the bytes when dropped.
    pub fn try_reserve(&self, what: &'static str, bytes: u64) -> Result<Reservation, BudgetError> {
        let inner = &self.inner;
        // CAS loop: admit only if the running total stays within limit.
        let mut used = inner.used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_add(bytes);
            if inner.limit != 0 && new > inner.limit {
                return Err(BudgetError {
                    what,
                    requested: bytes,
                    in_use: used,
                    limit: inner.limit,
                });
            }
            match inner.used.compare_exchange_weak(used, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Ok(Reservation { budget: self.clone(), bytes }),
                Err(actual) => used = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        // Saturating: a release can never underflow even if misused.
        let mut used = self.inner.used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_sub(bytes);
            match self.inner.used.compare_exchange_weak(
                used,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => used = actual,
            }
        }
    }
}

/// RAII guard for reserved bytes: dropping it returns the bytes to the
/// budget. Obtained from [`MemoryBudget::try_reserve`].
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: u64,
}

impl Reservation {
    /// Shrink the reservation to `bytes` (useful once the real size of a
    /// structure is known and smaller than the estimate). Growing is not
    /// allowed — take a second reservation and [`merge`](Self::merge) it.
    pub fn shrink_to(&mut self, bytes: u64) {
        if bytes < self.bytes {
            self.budget.release(self.bytes - bytes);
            self.bytes = bytes;
        }
    }

    /// Fold `other` — a reservation on the same budget — into this one, so
    /// a structure that grows in steps holds a single guard.
    pub fn merge(&mut self, mut other: Reservation) {
        debug_assert!(Arc::ptr_eq(&self.budget.inner, &other.budget.inner));
        // `other` drops holding nothing.
        self.bytes += std::mem::take(&mut other.bytes);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything_but_tracks() {
        let b = MemoryBudget::unlimited();
        assert!(!b.is_limited());
        let r = b.try_reserve("x", 1 << 40).unwrap();
        assert_eq!(b.used(), 1 << 40);
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn limited_refuses_over_budget_with_typed_error() {
        let b = MemoryBudget::limited(100);
        let r = b.try_reserve("a", 60).unwrap();
        let err = b.try_reserve("b", 50).unwrap_err();
        assert_eq!(err.what, "b");
        assert_eq!(err.requested, 50);
        assert_eq!(err.in_use, 60);
        assert_eq!(err.limit, 100);
        assert!(err.to_string().contains("memory budget exceeded"));
        drop(r);
        assert!(b.try_reserve("b", 50).is_ok(), "release frees the bytes");
    }

    #[test]
    fn clones_share_accounting() {
        let a = MemoryBudget::limited(100);
        let b = a.clone();
        let _r = a.try_reserve("x", 80).unwrap();
        assert_eq!(b.used(), 80);
        assert!(b.try_reserve("y", 40).is_err());
    }

    #[test]
    fn shrink_releases_the_difference() {
        let b = MemoryBudget::limited(100);
        let mut r = b.try_reserve("x", 90).unwrap();
        r.shrink_to(30);
        assert_eq!(b.used(), 30);
        assert_eq!(r.bytes, 30);
        // Growing is a no-op.
        r.shrink_to(50);
        assert_eq!(b.used(), 30);
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn merge_moves_the_bytes_under_one_guard() {
        let b = MemoryBudget::limited(100);
        let mut r = b.try_reserve("x", 30).unwrap();
        r.merge(b.try_reserve("x", 20).unwrap());
        assert_eq!((b.used(), r.bytes), (50, 50));
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn remaining_and_would_fit() {
        let b = MemoryBudget::limited(100);
        assert_eq!(b.remaining(), 100);
        assert!(b.would_fit(100));
        assert!(!b.would_fit(101));
        let _r = b.try_reserve("x", 100).unwrap();
        assert_eq!(b.remaining(), 0);
        assert!(!b.would_fit(1));
        assert!(MemoryBudget::unlimited().would_fit(u64::MAX));
    }

    #[test]
    fn concurrent_reservations_never_exceed_limit() {
        let b = MemoryBudget::limited(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        if let Ok(r) = b.try_reserve("t", 7) {
                            assert!(b.used() <= 1000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(b.used(), 0);
    }
}
