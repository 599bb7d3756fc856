//! A true threaded master–worker CCD engine (crossbeam channels).
//!
//! The batched engine in [`crate::ccd`] is the deterministic reference;
//! this module is the architecture-faithful variant: one master thread
//! owns the pair generator and the union-find clustering, a pool of
//! worker threads pulls verification tasks from a bounded channel, and
//! results stream back asynchronously — the PaCE paradigm, literally.
//!
//! The final connected components are *identical* to the batched engine's
//! (and order-independent): a pair is only skipped when its endpoints are
//! already connected, in which case verifying it could not change
//! reachability; every verified pair's verdict is a pure function of the
//! two sequences.
//!
//! Worker failure is contained, not propagated: a panic inside the verify
//! function is caught on the worker thread and reported to the master as
//! a failure message, so the run returns [`MwError::WorkerPanicked`]
//! instead of deadlocking on a lost task or unwinding through the scope.
//!
//! The dispatch loop itself is [`crate::policy::MwDispatch`] over the
//! in-process [`crate::transport::LocalTransport`]; this entry point
//! resolves the pool size and maps scheduler errors onto [`MwError`].

use pfam_seq::SequenceSet;

use crate::ccd::CcdResult;
use crate::config::ClusterConfig;
use crate::core::ClusterCore;
use crate::policy::{DriveError, MwDispatch, WorkPolicy};
use crate::source::{with_mined_source, PairSource};
use pfam_align::CostModel;

/// Statistics specific to the threaded run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MwStats {
    /// Worker threads used.
    pub n_workers: usize,
    /// Maximum number of tasks that were in flight at once.
    pub peak_in_flight: usize,
}

/// Why a threaded master–worker run failed.
#[derive(Debug)]
pub enum MwError {
    /// A worker thread panicked while verifying a pair; the payload's
    /// panic message is preserved.
    WorkerPanicked(String),
}

impl std::fmt::Display for MwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MwError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for MwError {}

/// Run CCD with `n_workers` real worker threads and a streaming master.
///
/// `n_workers == 0` selects the available parallelism.
pub fn run_ccd_master_worker(
    set: &SequenceSet,
    config: &ClusterConfig,
    n_workers: usize,
) -> Result<(CcdResult, MwStats), MwError> {
    // Streamed tasks carry no anchors (the engine ignores them anyway);
    // the engine is `Sync` and shared across workers, each using its own
    // thread-local scratch arena.
    let engine = config.engine();
    run_ccd_master_worker_with(set, config, n_workers, &move |x, y| {
        engine.overlaps(x, y, None).accept
    })
}

/// [`run_ccd_master_worker`] with an injectable verification function —
/// the hook the fault-injection tests use to make a worker panic
/// mid-task. `verify` receives the two sequences' code slices and returns
/// whether the pair passes.
pub fn run_ccd_master_worker_with<V>(
    set: &SequenceSet,
    config: &ClusterConfig,
    n_workers: usize,
    verify: &V,
) -> Result<(CcdResult, MwStats), MwError>
where
    V: Fn(&[u8], &[u8]) -> bool + Sync,
{
    let n_workers = if n_workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        n_workers
    };
    if set.is_empty() {
        return Ok((CcdResult::empty(), MwStats { n_workers, peak_in_flight: 0 }));
    }

    // The streaming master consumes pairs one at a time from the serial
    // generator (threads = 1): parallelism lives in the worker pool here,
    // not in the mining.
    with_mined_source(set, config, config.psi_ccd, 1, |source| {
        let mut core = ClusterCore::new_ccd(set);
        // The injectable verify closure reports no cell counters, so
        // the model stays uncalibrated here: predictions are the full
        // m·n rectangle, i.e. pure length-product ordering.
        let cost = CostModel::new();
        let mut policy =
            MwDispatch { source: &mut *source, verify, cost: &cost, n_workers, peak_in_flight: 0 };
        let outcome = policy.drive(&mut core);
        let peak_in_flight = policy.peak_in_flight;
        match outcome {
            Ok(()) => {
                core.set_nodes_visited(source.nodes_visited());
                Ok((CcdResult::from_core(core), MwStats { n_workers, peak_in_flight }))
            }
            Err(DriveError::WorkerPanicked(msg)) => Err(MwError::WorkerPanicked(msg)),
            Err(e) => unreachable!("the in-process transport cannot fail: {e}"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::run_ccd;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};
    use pfam_seq::SequenceSetBuilder;

    fn set_of(seqs: &[&str]) -> SequenceSet {
        let mut b = SequenceSetBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            match b.push_letters(format!("s{i}"), s.as_bytes()) {
                Ok(_) => {}
                Err(e) => panic!("bad test sequence: {e:?}"),
            }
        }
        b.finish()
    }

    fn ok<T>(r: Result<T, MwError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }

    #[test]
    fn components_match_batched_engine_on_synthetic_data() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(81));
        let config = ClusterConfig::default();
        let batched = run_ccd(&d.set, &config);
        for workers in [1usize, 2, 4] {
            let (threaded, stats) = ok(run_ccd_master_worker(&d.set, &config, workers));
            assert_eq!(
                threaded.components, batched.components,
                "{workers} workers must reproduce the batched components"
            );
            assert_eq!(stats.n_workers, workers);
        }
    }

    #[test]
    fn merge_count_is_invariant() {
        // n_merges = n - #components regardless of execution order.
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(82));
        let config = ClusterConfig::default();
        let (r, _) = ok(run_ccd_master_worker(&d.set, &config, 3));
        assert_eq!(r.n_merges, d.set.len() - r.components.len());
    }

    #[test]
    fn empty_set() {
        let (r, stats) =
            ok(run_ccd_master_worker(&SequenceSet::new(), &ClusterConfig::default(), 2));
        assert!(r.components.is_empty());
        assert_eq!(stats.peak_in_flight, 0);
    }

    #[test]
    fn single_family_connects() {
        const FAM: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";
        let seqs = vec![FAM; 10];
        let set = set_of(&seqs);
        let (r, stats) = ok(run_ccd_master_worker(&set, &ClusterConfig::for_short_sequences(), 4));
        assert_eq!(r.components.len(), 1);
        assert!(stats.peak_in_flight >= 1);
        // The streaming filter's savings depend on how fast verdicts come
        // back (under CPU contention the master can push every pair before
        // the first result returns), so only the ceiling is deterministic.
        assert!(r.trace.total_aligned() <= 45, "aligned {}", r.trace.total_aligned());
        assert_eq!(r.n_merges, 9);
    }

    #[test]
    fn zero_workers_uses_available_parallelism() {
        let set = set_of(&["MKVLWAAKND", "MKVLWAAKND"]);
        let (r, stats) = ok(run_ccd_master_worker(&set, &ClusterConfig::for_short_sequences(), 0));
        assert!(stats.n_workers >= 1);
        assert_eq!(r.components.len(), 1);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_deadlock() {
        // Regression: a panic in the verify function used to unwind the
        // worker thread, silently lose its in-flight task, and either
        // hang the master on a dead pool or explode out of the scope.
        // It must surface as a task failure with the panic message.
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(83));
        let config = ClusterConfig::default();
        let boom = |_: &[u8], _: &[u8]| -> bool { panic!("injected verify failure") };
        match run_ccd_master_worker_with(&d.set, &config, 3, &boom) {
            Err(MwError::WorkerPanicked(msg)) => {
                assert!(msg.contains("injected verify failure"), "message: {msg}");
            }
            Ok(_) => panic!("expected the worker panic to surface as an error"),
        }
    }

    #[test]
    fn panic_on_one_task_only_still_fails_cleanly() {
        // Only the very first verified pair panics; later tasks verify
        // normally on surviving workers. The run must still report the
        // failure rather than return a silently incomplete clustering.
        use std::sync::atomic::{AtomicBool, Ordering};
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(84));
        let config = ClusterConfig::default();
        let fired = AtomicBool::new(false);
        let boom_once = |x: &[u8], y: &[u8]| -> bool {
            if !fired.swap(true, Ordering::SeqCst) {
                panic!("first task dies");
            }
            pfam_align::overlaps(x, y, &config.scheme, &config.overlap)
        };
        match run_ccd_master_worker_with(&d.set, &config, 2, &boom_once) {
            Err(MwError::WorkerPanicked(msg)) => assert!(msg.contains("first task dies")),
            Ok(_) => panic!("lost task must not produce an Ok clustering"),
        }
    }
}
