//! Property tests for the fault-tolerant CCD engine: under any seeded
//! kill/drop/delay schedule — or a straggler — that leaves the master
//! and at least one worker alive, `run_ccd_ft` must produce components
//! identical to the batched in-memory reference — worker failures cost
//! requeued leases, never correctness.

use std::sync::Arc;
use std::time::Duration;

use pfam::cluster::{run_ccd, run_ccd_ft, ClusterConfig, FtError};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::sim::{FaultEvent, FaultSchedule};

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 3,
        n_members: 24,
        n_noise: 4,
        redundancy_frac: 0.0,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.002,
            deletion_rate: 0.002,
        },
        seed,
        ..DatasetConfig::tiny(seed)
    })
}

fn config() -> ClusterConfig {
    // Small batches so a schedule's kills and drops land mid-phase, not
    // after the work is already done.
    ClusterConfig { batch_size: 16, ..ClusterConfig::default() }
}

#[test]
fn components_survive_any_seeded_schedule() {
    let d = dataset(814);
    let config = config();
    let reference = run_ccd(&d.set, &config);
    let mut requeued = 0;
    for seed in 0..16u64 {
        let schedule = Arc::new(FaultSchedule::seeded(seed, 4, 2));
        let killed = schedule.killed_ranks();
        let r = run_ccd_ft(&d.set, &config, 4, schedule)
            .unwrap_or_else(|e| panic!("seed {seed} (killed {killed:?}): {e}"));
        assert_eq!(
            r.components, reference.components,
            "seed {seed} (killed ranks {killed:?}) changed the clustering"
        );
        assert_eq!(r.n_merges, reference.n_merges, "seed {seed} merge count");
        requeued += r.trace.total_requeued();
    }
    // The sweep has to exercise recovery, not just survive schedules that
    // never strand a lease.
    assert!(requeued >= 1, "no seeded schedule requeued a lease");
}

/// A worker that is alive but slower than `LEASE_TIMEOUT`: its lease goes
/// to a peer, its own answer arrives afterwards and is discarded by lease
/// id — the batch is applied once.
#[test]
fn straggler_past_the_lease_timeout_is_requeued_and_its_late_verdict_discarded() {
    let d = dataset(818);
    let config = config();
    let reference = run_ccd(&d.set, &config);
    let slow = |rank, from_event, to_event, ms| FaultEvent::SlowRange {
        rank,
        from_event,
        to_event,
        per_op: Duration::from_millis(ms),
    };
    // Rank 1 sends its first request at full speed, so it is leased a
    // batch; its next operations — the poll that picks the task up and the
    // send that answers it, or two polls — sleep 300 ms each, so the
    // verdict leaves ≥ 600 ms after the lease was issued, against a 250 ms
    // timeout the master checks before every receive. Rank 2 sleeps
    // through all of that: the late verdict finds the batch still queued
    // (nothing else can finish the run first), and rank 2 wakes before
    // rank 1's third slow operation lets it ask again.
    let schedule = Arc::new(FaultSchedule::new().with(slow(1, 1, 4, 300)).with(slow(2, 0, 1, 700)));
    let r = run_ccd_ft(&d.set, &config, 3, schedule).expect("a straggler world still finishes");
    assert_eq!(r.components, reference.components);
    assert_eq!(r.n_merges, reference.n_merges);
    assert!(r.trace.total_requeued() >= 1, "the overdue lease was never requeued");
    // Absorbing the late copy as well would count its alignments twice.
    assert_eq!(r.trace.total_generated(), r.trace.total_filtered() + r.trace.total_aligned());
}

#[test]
fn fault_free_ft_engine_matches_reference_exactly() {
    let d = dataset(815);
    let config = config();
    let reference = run_ccd(&d.set, &config);
    let r =
        run_ccd_ft(&d.set, &config, 3, Arc::new(FaultSchedule::new())).expect("fault-free world");
    assert_eq!(r.components, reference.components);
    assert_eq!(r.n_merges, reference.n_merges);
}

#[test]
fn heavier_kill_budget_with_more_workers_still_converges() {
    let d = dataset(816);
    let config = config();
    let reference = run_ccd(&d.set, &config);
    for seed in [3u64, 11, 27] {
        let schedule = Arc::new(FaultSchedule::seeded(seed, 6, 4));
        let r = run_ccd_ft(&d.set, &config, 6, schedule).expect("≥1 worker survives");
        assert_eq!(r.components, reference.components, "seed {seed}");
    }
}

#[test]
fn losing_every_worker_reports_an_error() {
    let d = dataset(817);
    // Kill both workers of a 3-rank world almost immediately.
    let schedule = Arc::new(
        FaultSchedule::new()
            .with(FaultEvent::KillRank { rank: 1, event: 2 })
            .with(FaultEvent::KillRank { rank: 2, event: 2 }),
    );
    match run_ccd_ft(&d.set, &config(), 3, schedule) {
        Err(FtError::NoWorkersLeft) => {}
        other => panic!("expected NoWorkersLeft, got {other:?}"),
    }
}
