//! The pair ledger — what redundancy removal already knows about overlap.
//!
//! RR and CCD ask different questions of the same alignment: the engine
//! fills a pair once and reads containment *and* overlap off the same
//! statistics ([`pfam_align::AlignEngine::judge`]). RR therefore leaves a
//! ledger: for every pair it filled whose two reads both survive, the
//! overlap answer, re-keyed to the dense survivor ids CCD and the back
//! half number their reads by. [`crate::core::Verifier`] looks a pair up
//! here before it fills it.
//!
//! The ledger is a **cache**: a miss means "align", never "no". It is
//! reserved on the run's [`MemoryBudget`] (8 bytes a pair); when a
//! reservation is refused it stops recording and the later phases fill
//! what it would have answered.

use pfam_seq::{MemoryBudget, Reservation};

/// Bytes reserved per recorded pair.
const ENTRY_BYTES: u64 = std::mem::size_of::<u64>() as u64;

fn key(a: u32, b: u32) -> u64 {
    ((a.min(b) as u64) << 32) | a.max(b) as u64
}

/// Overlap answers by unordered pair of sequence ids.
#[derive(Debug, Default)]
pub struct PairLedger {
    /// Keys of the pairs that overlap / do not; ascending once sealed.
    yes: Vec<u64>,
    no: Vec<u64>,
    /// Answers offered after the budget refused, hence not held.
    dropped: u64,
    /// `Some` while recording continues.
    budget: Option<MemoryBudget>,
    held: Option<Reservation>,
}

impl PartialEq for PairLedger {
    fn eq(&self, other: &Self) -> bool {
        self.yes == other.yes && self.no == other.no
    }
}

impl PairLedger {
    /// An open ledger reserving against `budget` as it grows.
    pub(crate) fn recording(budget: &MemoryBudget) -> PairLedger {
        PairLedger { budget: Some(budget.clone()), ..PairLedger::default() }
    }

    /// Append `(a, b, overlap)` answers, all or none: a refused
    /// reservation closes the ledger for good.
    pub(crate) fn record(&mut self, answers: &[(u32, u32, bool)]) {
        let grant = self
            .budget
            .as_ref()
            .and_then(|b| b.try_reserve("pair-ledger", answers.len() as u64 * ENTRY_BYTES).ok());
        let Some(grant) = grant else {
            self.budget = None;
            self.dropped += answers.len() as u64;
            return;
        };
        match &mut self.held {
            Some(held) => held.merge(grant),
            None => self.held = Some(grant),
        }
        for &(a, b, overlap) in answers {
            if overlap { &mut self.yes } else { &mut self.no }.push(key(a, b));
        }
    }

    /// Close the ledger: keep the pairs whose ids both have a dense id in
    /// `dense_of` (`u32::MAX` = none), under those ids, sorted for lookup.
    pub(crate) fn sealed(mut self, dense_of: &[u32]) -> PairLedger {
        for keys in [&mut self.yes, &mut self.no] {
            keys.retain_mut(|k| {
                let (a, b) = (dense_of[(*k >> 32) as usize], dense_of[*k as u32 as usize]);
                *k = key(a, b);
                a != u32::MAX && b != u32::MAX
            });
        }
        self.sorted()
    }

    /// Stop recording; sort for lookup and release what was over-reserved.
    fn sorted(mut self) -> PairLedger {
        for keys in [&mut self.yes, &mut self.no] {
            keys.sort_unstable();
            keys.shrink_to_fit();
        }
        let bytes = self.len() as u64 * ENTRY_BYTES;
        if let Some(held) = &mut self.held {
            held.shrink_to(bytes);
        }
        self.budget = None;
        self
    }

    /// A sealed ledger of `entries` (a checkpoint's, or a test's) whose
    /// recording had already dropped `dropped` answers, or the empty one —
    /// every entry dropped too — when `budget` refuses it.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (u32, u32, bool)>,
        dropped: u64,
        budget: &MemoryBudget,
    ) -> PairLedger {
        let mut ledger = PairLedger { dropped, ..PairLedger::recording(budget) };
        ledger.record(&entries.into_iter().collect::<Vec<_>>());
        ledger.sorted()
    }

    /// The recorded overlap answer for `{a, b}`, if any.
    pub fn lookup(&self, a: u32, b: u32) -> Option<bool> {
        let k = key(a, b);
        if self.yes.binary_search(&k).is_ok() {
            Some(true)
        } else if self.no.binary_search(&k).is_ok() {
            Some(false)
        } else {
            None
        }
    }

    /// Every `(a, b, overlap)` held, `a < b`.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u32, bool)> + '_ {
        let unkey = |overlap| move |&k: &u64| ((k >> 32) as u32, k as u32, overlap);
        self.yes.iter().map(unkey(true)).chain(self.no.iter().map(unkey(false)))
    }

    /// Pairs held.
    pub fn len(&self) -> usize {
        self.yes.len() + self.no.len()
    }

    /// Whether the ledger answers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers that went unrecorded after the budget refused.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealing_rekeys_to_survivors_and_answers_either_order() {
        let budget = MemoryBudget::unlimited();
        let mut ledger = PairLedger::recording(&budget);
        ledger.record(&[(5, 2, true), (2, 7, false), (3, 5, true)]);
        assert_eq!(budget.used(), 3 * ENTRY_BYTES);
        // Read 3 was removed; 2, 5, 7 survive as 0, 1, 2.
        let mut dense_of = vec![u32::MAX; 8];
        for (dense, orig) in [2usize, 5, 7].into_iter().enumerate() {
            dense_of[orig] = dense as u32;
        }
        let ledger = ledger.sealed(&dense_of);
        assert_eq!(ledger.lookup(0, 1), Some(true));
        assert_eq!(ledger.lookup(2, 0), Some(false));
        assert_eq!(ledger.lookup(1, 2), None, "a miss means align");
        assert_eq!(ledger.len(), 2);
        assert_eq!(budget.used(), 2 * ENTRY_BYTES, "the removed read's pair is released");
        let copy = PairLedger::from_entries(ledger.entries(), 0, &MemoryBudget::unlimited());
        assert_eq!(copy, ledger);
        drop(ledger);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn a_refused_reservation_stops_recording() {
        let budget = MemoryBudget::limited(3 * ENTRY_BYTES);
        let mut ledger = PairLedger::recording(&budget);
        ledger.record(&[(0, 1, true), (0, 2, false)]);
        ledger.record(&[(1, 2, true), (1, 3, true)]);
        ledger.record(&[(2, 3, false)]);
        assert_eq!(ledger.dropped(), 3, "closed for good, even when a later batch would fit");
        let ledger = ledger.sealed(&[0, 1, 2, 3]);
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.lookup(1, 2), None);
        assert!(PairLedger::from_entries([(0, 1, true)], 0, &budget).len() == 1);
        let refused = PairLedger::from_entries((0..9).map(|i| (i, i + 1, true)), 2, &budget);
        assert!(refused.is_empty() && refused.dropped() == 11);
    }
}
