//! End-of-run health accounting for the supervision plane.
//!
//! Every recovery mechanism the fault-tolerant driver uses — transient
//! retries ([`crate::retry`]), lease timeouts, circuit-breaker
//! quarantine, supervisor respawn, speculative re-execution — increments
//! a per-worker counter here, and the aggregate rides the phase trace
//! ([`crate::trace::BatchRecord`]). None of it affects verdicts: the
//! report answers "what did recovery cost" for a run whose output is
//! bit-identical with or without it.
//!
//! This module must stay free of `unwrap`/`expect` (tier-1 greps it):
//! see the note in [`crate::retry`].

/// Recovery counters for one worker slot (index = worker, rank − 1 under
/// the MPI transport). A respawned incarnation keeps its predecessor's
/// slot — the slot tracks the *rank*, not the thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Leases this worker completed (its verdicts were applied).
    pub leases_completed: u64,
    /// Transient send failures retried against this worker.
    pub retries: u64,
    /// Leases recovered from this worker by timeout while it was alive.
    pub timeouts: u64,
    /// Whether the circuit breaker quarantined this worker.
    pub quarantined: bool,
    /// Replacement incarnations the supervisor spawned for this rank.
    pub respawns: u64,
    /// Speculative duplicates issued because this worker straggled.
    pub spec_issued: u64,
    /// Speculative races this worker won (its verdict landed first for a
    /// lease originally issued elsewhere).
    pub spec_wins: u64,
}

/// Per-worker recovery counters plus aggregates; returned by
/// [`crate::ft::run_ccd_ft`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// One slot per worker, indexed by worker id.
    pub workers: Vec<WorkerHealth>,
}

impl HealthReport {
    /// A report with `n` zeroed worker slots.
    pub fn new(n: usize) -> Self {
        HealthReport { workers: vec![WorkerHealth::default(); n] }
    }

    /// The slot for worker `w`, growing the table if needed (lets the
    /// policy layer record against workers it learns about lazily).
    pub fn worker_mut(&mut self, w: usize) -> &mut WorkerHealth {
        if w >= self.workers.len() {
            self.workers.resize(w + 1, WorkerHealth::default());
        }
        &mut self.workers[w]
    }

    /// Total transient retries across the pool.
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Total lease-timeout recoveries across the pool.
    pub fn total_timeouts(&self) -> u64 {
        self.workers.iter().map(|w| w.timeouts).sum()
    }

    /// Total supervisor respawns across the pool.
    pub fn total_respawns(&self) -> u64 {
        self.workers.iter().map(|w| w.respawns).sum()
    }

    /// Total speculative duplicates issued.
    pub fn total_spec_issued(&self) -> u64 {
        self.workers.iter().map(|w| w.spec_issued).sum()
    }

    /// Total speculative races won by a duplicate.
    pub fn total_spec_wins(&self) -> u64 {
        self.workers.iter().map(|w| w.spec_wins).sum()
    }

    /// How many workers ended the run quarantined.
    pub fn n_quarantined(&self) -> usize {
        self.workers.iter().filter(|w| w.quarantined).count()
    }

    /// Human-readable end-of-run table (one line per worker plus totals).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "worker  leases  retries  timeouts  respawns  spec_issued  spec_wins  quarantined\n",
        );
        for (w, h) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "{w:>6}  {:>6}  {:>7}  {:>8}  {:>8}  {:>11}  {:>9}  {}\n",
                h.leases_completed,
                h.retries,
                h.timeouts,
                h.respawns,
                h.spec_issued,
                h.spec_wins,
                if h.quarantined { "yes" } else { "no" },
            ));
        }
        out.push_str(&format!(
            "totals  retries={} timeouts={} respawns={} spec_issued={} spec_wins={} quarantined={}\n",
            self.total_retries(),
            self.total_timeouts(),
            self.total_respawns(),
            self.total_spec_issued(),
            self.total_spec_wins(),
            self.n_quarantined(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_mut_grows_the_table() {
        let mut report = HealthReport::default();
        report.worker_mut(2).retries = 5;
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.total_retries(), 5);
        assert_eq!(report.workers[0], WorkerHealth::default());
    }

    #[test]
    fn aggregates_sum_per_worker_counters() {
        let mut report = HealthReport::new(2);
        report.worker_mut(0).timeouts = 2;
        report.worker_mut(0).spec_issued = 1;
        report.worker_mut(1).spec_wins = 1;
        report.worker_mut(1).quarantined = true;
        assert_eq!(report.total_timeouts(), 2);
        assert_eq!(report.total_spec_issued(), 1);
        assert_eq!(report.total_spec_wins(), 1);
        assert_eq!(report.n_quarantined(), 1);
        let table = report.render();
        assert!(table.contains("quarantined"));
        assert!(table.lines().count() >= 4, "header + 2 workers + totals");
    }
}
