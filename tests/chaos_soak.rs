//! Chaos soak for the supervision & recovery plane: seeded schedules
//! mixing kills, drops, delays, transient link flakes, supervisor
//! respawns and straggler windows, driven through the fault-tolerant CCD
//! engine. Under every schedule that leaves the master and at least one
//! worker (original or respawned) alive, the components must be
//! bit-identical to the batched reference — recovery costs latency and
//! shows up in the health report, never in the clustering.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pfam::cluster::{run_ccd, run_ccd_ft, ClusterConfig, RecoveryParams};
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
    // Small batches so faults land mid-phase, not after the work is done.
    ClusterConfig { batch_size: 16, ..ClusterConfig::default() }
}

/// A mid-run worker kill with respawn enabled: the replacement
/// incarnation must pick up the leases its predecessor lost and drive the
/// run to the same clustering. With only one worker in the world, every
/// lease after the kill is *provably* completed by the respawn.
#[test]
fn respawned_worker_completes_leases() {
    let d = dataset(901);
    let mut config = config();
    config.recovery = RecoveryParams {
        max_respawns: 2,
        respawn_grace: Duration::from_secs(5),
        ..RecoveryParams::default()
    };
    let reference = run_ccd(&d.set, &config);
    // 2 ranks: master + a single worker, killed after a few operations.
    // Until the supervisor respawns it, the pool is fully dead — only the
    // grace window keeps the master from giving up.
    let schedule = Arc::new(FaultSchedule::new().with(FaultEvent::KillRank { rank: 1, event: 6 }));
    let (r, health) = run_ccd_ft(&d.set, &config, 2, schedule).expect("respawn restores the pool");
    assert_eq!(r.components, reference.components);
    assert_eq!(r.n_merges, reference.n_merges);
    assert!(
        health.total_respawns() >= 1,
        "the kill must have forced a respawn:\n{}",
        health.render()
    );
    assert!(
        health.workers[0].leases_completed >= 1,
        "the respawned incarnation completed the remaining leases:\n{}",
        health.render()
    );
}

/// A straggling worker holding a lease past its cost-model deadline gets
/// speculatively duplicated onto an idle peer; the duplicate's verdict
/// lands first and wins the race, the straggler's late answer is
/// discarded as stale — and the clustering is identical either way.
#[test]
fn speculative_duplicate_wins_a_straggler_race() {
    let d = dataset(902);
    let mut config = config();
    config.batch_size = 8;
    config.recovery = RecoveryParams {
        // Lease timeouts would also recover the straggler; push them far
        // out so speculation is demonstrably the mechanism at work.
        lease_timeout: Duration::from_secs(30),
        speculate: true,
        spec_min_wait: Duration::from_millis(10),
        spec_slack: 1.0,
        ..RecoveryParams::default()
    };
    let reference = run_ccd(&d.set, &config);
    // The race is real concurrency, so the win is not guaranteed on any
    // single run — but identity must hold on every run. Retry a few
    // times for the demonstration, asserting correctness throughout.
    let mut observed_win = false;
    for attempt in 0..5 {
        // Worker 1's first operation (its pull request) runs at full
        // speed, so it acquires a lease — then every later operation
        // crawls, leaving that lease outstanding long past its deadline
        // while worker 2 drains the rest of the source and goes idle.
        let schedule = Arc::new(FaultSchedule::new().with(FaultEvent::SlowRange {
            rank: 1,
            from_event: 1,
            to_event: 100_000,
            per_op: Duration::from_millis(20),
        }));
        let (r, health) =
            run_ccd_ft(&d.set, &config, 3, schedule).expect("straggler worlds still finish");
        assert_eq!(r.components, reference.components, "attempt {attempt}");
        assert_eq!(r.n_merges, reference.n_merges, "attempt {attempt}");
        if health.total_spec_wins() >= 1 {
            assert!(health.total_spec_issued() >= 1, "{}", health.render());
            assert_eq!(
                r.trace.total_spec_wins() as u64,
                health.total_spec_wins(),
                "trace and health report agree on wins"
            );
            observed_win = true;
            break;
        }
    }
    assert!(observed_win, "no speculative duplicate won in 5 straggler runs");
}

/// A persistently flaky link trips the circuit breaker: the peer is
/// quarantined onto the liveness board, its leases are recovered for the
/// healthy worker, and the run completes identically.
#[test]
fn exhausted_retry_budget_quarantines_the_flaky_worker() {
    let d = dataset(903);
    let mut config = config();
    config.recovery = RecoveryParams { retry_budget: 2, ..RecoveryParams::default() };
    let reference = run_ccd(&d.set, &config);
    // Every early master→rank-1 send is rejected — far more than the
    // budget of 2 tolerates — while worker 2's links stay clean.
    let schedule = Arc::new(FaultSchedule::new().with(FaultEvent::FlakyLink {
        from: 0,
        to: 1,
        start_seq: 0,
        count: 50,
    }));
    let (r, health) = run_ccd_ft(&d.set, &config, 3, schedule).expect("worker 2 carries the run");
    assert_eq!(r.components, reference.components);
    assert_eq!(r.n_merges, reference.n_merges);
    assert!(health.workers[0].quarantined, "worker 1 must be quarantined:\n{}", health.render());
    assert!(health.workers[0].retries >= 1, "the breaker tripped after real retries");
    assert!(!health.workers[1].quarantined, "the healthy worker stays in the pool");
    assert!(r.trace.total_retries() >= 1, "retries ride the phase trace");
}

/// The soak itself: seeded chaos schedules (kills + drops + delays +
/// transient flakes + straggler windows + respawn-then-die-again) with
/// speculation and respawn enabled. Components and merge counts must be bit-identical to the reference on
/// every seed, and every run must finish within a sane wall-clock bound.
#[test]
fn seeded_chaos_schedules_preserve_components() {
    let d = dataset(904);
    let mut config = config();
    config.recovery = RecoveryParams {
        retry_budget: 8, // above any seeded flake window
        speculate: true,
        spec_min_wait: Duration::from_millis(20),
        max_respawns: 2,
        respawn_grace: Duration::from_secs(5),
        ..RecoveryParams::default()
    };
    let reference = run_ccd(&d.set, &config);
    for seed in 0..10u64 {
        let schedule = Arc::new(FaultSchedule::seeded_chaos(seed, 4));
        let killed = schedule.killed_ranks();
        let started = Instant::now();
        let (r, health) = run_ccd_ft(&d.set, &config, 4, schedule)
            .unwrap_or_else(|e| panic!("seed {seed} (killed {killed:?}): {e}"));
        let elapsed = started.elapsed();
        assert_eq!(
            r.components,
            reference.components,
            "seed {seed} (killed {killed:?}, health:\n{})",
            health.render()
        );
        assert_eq!(r.n_merges, reference.n_merges, "seed {seed} merge count");
        assert!(
            elapsed < Duration::from_secs(30),
            "seed {seed} took {elapsed:?} — recovery must stay bounded"
        );
    }
}
