//! Fault-tolerance benchmark: the leased-pull CCD engine run healthy and
//! under a mid-run worker kill with supervisor respawn enabled, emitting
//! a machine-readable `BENCH_ft.json`.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin ft_bench [scale]
//! cargo run --release -p pfam-bench --bin ft_bench -- --test   # smoke
//! ```
//!
//! Three measurements on the same length-skewed dataset:
//!
//! * `reference` — the in-process batched driver, the determinism anchor;
//! * `healthy` — the master–worker ft engine with no injected faults;
//! * `faulted` — the same engine with one worker killed mid-run and the
//!   supervisor respawning a replacement incarnation.
//!
//! The bench asserts — and records — that all three produce identical
//! connected components; the recovery cost shows up only as wall-clock
//! (`time_to_recover_s` = faulted − healthy) and in the health counters.
//! Comparative claims go through the honesty guard and are refused on a
//! 1-core host.

use std::sync::Arc;
use std::time::Duration;

use pfam_bench::{claim, cores_field, detected_cores, emit, time_min, BenchArgs};
use pfam_cluster::{run_ccd, run_ccd_ft, ClusterConfig, HealthReport, RecoveryParams};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_mpi::NoFaults;
use pfam_seq::SequenceSet;
use pfam_sim::{FaultEvent, FaultSchedule};

/// A length-skewed workload: family ancestors drawn from 60..900 residues
/// give lease costs spanning ~two orders of magnitude, so a lost lease is
/// genuinely expensive to lose and visibly cheap to recover.
fn skewed_set(scale: f64, seed: u64) -> SequenceSet {
    let config = DatasetConfig {
        n_families: ((16.0 * scale).round() as usize).max(3),
        n_members: ((200.0 * scale).round() as usize).max(16),
        size_skew: 1.2,
        ancestor_len: 60..900,
        fragment_prob: 0.2,
        seed,
        ..DatasetConfig::default()
    };
    SyntheticDataset::generate(&config).set
}

/// One engine run's timing row.
struct Row {
    mode: &'static str,
    seconds: f64,
    pairs_per_sec: f64,
    health: HealthReport,
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.08, 0.5);
    let reps = args.reps();
    let cores = detected_cores();
    // Master + two workers: enough that a kill leaves the run alive while
    // the supervisor brings the replacement up.
    let n_ranks = 3usize;

    let set = skewed_set(scale, 0xF7);
    let config = ClusterConfig {
        batch_size: 16, // small leases: the kill lands mid-phase
        recovery: RecoveryParams {
            max_respawns: 2,
            respawn_grace: Duration::from_secs(5),
            ..RecoveryParams::default()
        },
        ..ClusterConfig::default()
    };
    eprintln!(
        "ft_bench: skewed-length set ({} reads, {} residues), {} rank(s), {} rep(s)",
        set.len(),
        set.total_residues(),
        n_ranks,
        reps
    );

    // The determinism anchor: the in-process batched driver.
    let (ref_seconds, reference) = time_min(reps, || run_ccd(&set, &config));
    eprintln!("ft_bench: reference: {ref_seconds:.3}s, {} components", reference.components.len());

    let mut rows: Vec<Row> = Vec::new();
    for mode in ["healthy", "faulted"] {
        let (seconds, (result, health)) = time_min(reps, || {
            let injector: Arc<dyn pfam_mpi::FaultInjector> = match mode {
                "healthy" => Arc::new(NoFaults),
                // Kill worker rank 1 a few operations in — after it has
                // taken leases, well before the source drains.
                _ => {
                    Arc::new(FaultSchedule::new().with(FaultEvent::KillRank { rank: 1, event: 8 }))
                }
            };
            run_ccd_ft(&set, &config, n_ranks, injector)
                .expect("the supervised engine recovers from a single worker kill")
        });
        assert_eq!(
            result.components, reference.components,
            "{mode} run diverged from the batched reference — this is a bug"
        );
        let pairs_per_sec = result.trace.total_generated() as f64 / seconds;
        eprintln!(
            "ft_bench: {mode}: {seconds:.3}s, {} respawns, {} requeued, {} retries",
            health.total_respawns(),
            result.trace.total_requeued(),
            health.total_retries()
        );
        rows.push(Row { mode, seconds, pairs_per_sec, health });
    }
    let identical = true; // asserted above for every row

    let faulted_respawns = rows[1].health.total_respawns();
    assert!(faulted_respawns >= 1, "the mid-run kill must force at least one supervisor respawn");

    let mode_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"mode\": \"{}\", \"seconds\": {:.6}, \"pairs_per_sec\": {:.0}, ",
                    "\"respawns\": {}, \"retries\": {}, \"timeouts\": {}, \"quarantined\": {} }}"
                ),
                r.mode,
                r.seconds,
                r.pairs_per_sec,
                r.health.total_respawns(),
                r.health.total_retries(),
                r.health.total_timeouts(),
                r.health.n_quarantined(),
            )
        })
        .collect();
    // Recovery cost: the extra wall-clock the kill + respawn added on top
    // of the healthy distributed run, and the throughput retained.
    let time_to_recover = (rows[1].seconds - rows[0].seconds).max(0.0);
    let recovery = claim(
        cores,
        "recovery",
        &format!(
            concat!(
                "{{ \"time_to_recover_s\": {:.6}, \"faulted_over_healthy\": {:.3}, ",
                "\"throughput_retained\": {:.3} }}"
            ),
            time_to_recover,
            rows[1].seconds / rows[0].seconds,
            rows[1].pairs_per_sec / rows[0].pairs_per_sec,
        ),
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ft\",\n",
            "  \"dataset\": \"skewed-length (n={n_seqs}, scale {scale})\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  \"reps\": {reps},\n",
            "  {cores_field},\n",
            "  \"n_ranks\": {n_ranks},\n",
            "  \"reference_seconds\": {ref_seconds:.6},\n",
            "  \"components_identical\": {identical},\n",
            "  \"modes\": [\n{rows}\n  ],\n",
            "  {recovery}\n",
            "}}\n"
        ),
        n_seqs = set.len(),
        scale = scale,
        reps = reps,
        cores_field = cores_field(cores),
        n_ranks = n_ranks,
        ref_seconds = ref_seconds,
        identical = identical,
        rows = mode_rows.join(",\n"),
        recovery = recovery,
    );

    eprintln!("ft_bench: components identical, {faulted_respawns} respawn(s)");
    emit("ft", &json, args.smoke);
}
