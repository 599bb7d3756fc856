//! Fault-tolerance benchmark: the leased-pull CCD engine run healthy and
//! with one of its two workers killed mid-run, emitting a
//! machine-readable `BENCH_ft.json`.
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
//! * `faulted` — the same engine with one of two workers killed mid-run
//!   while it holds a lease: the lease is requeued and the survivor
//!   carries the rest.
//!
//! The bench asserts — and records — that all three produce identical
//! connected components; the recovery cost shows up only as wall-clock
//! (`time_to_recover_s` = faulted − healthy, i.e. mostly the price of
//! finishing on one worker) and in the trace's `requeued` count.
//! Comparative claims go through the honesty guard and are refused on a
//! 1-core host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pfam_bench::{claim, cores_field, detected_cores, emit, time_min, BenchArgs};
use pfam_cluster::{run_ccd, run_ccd_ft, ClusterConfig};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_mpi::{FaultInjector, MessageFate, NoFaults};
use pfam_seq::SequenceSet;

/// Kills worker rank 1 while it holds a lease: armed when the master
/// sends it its ninth task, it fires at the worker's next operation — the
/// poll that would have picked the task up. (A kill keyed on the worker's
/// operation count lands on an idle poll as often as not, and then there
/// is nothing to recover.)
#[derive(Default)]
struct KillHoldingLease {
    armed: AtomicBool,
}

impl FaultInjector for KillHoldingLease {
    fn kill_now(&self, rank: usize, _event: u64) -> bool {
        rank == 1 && self.armed.load(Ordering::SeqCst)
    }

    fn message_fate(&self, from: usize, to: usize, _tag: u32, seq: u64) -> MessageFate {
        if (from, to, seq) == (0, 1, 8) {
            self.armed.store(true, Ordering::SeqCst);
        }
        MessageFate::Deliver
    }
}

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
    requeued: usize,
}

fn main() {
    let args = BenchArgs::parse();
    // 920 reads by default: at 150 (scale 0.5) a run is 0.09 s and losing a
    // worker does not show.
    let scale = args.scale(0.08, 4.0);
    let reps = args.reps();
    let cores = detected_cores();
    // Master + two workers: a kill leaves one to carry the run.
    let n_ranks = 3usize;

    let set = skewed_set(scale, 0xF7);
    let config = ClusterConfig {
        batch_size: 16, // small leases: the kill lands mid-phase
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
        let (seconds, result) = time_min(reps, || {
            let injector: Arc<dyn FaultInjector> = match mode {
                "healthy" => Arc::new(NoFaults),
                _ => Arc::new(KillHoldingLease::default()),
            };
            run_ccd_ft(&set, &config, n_ranks, injector)
                .expect("one surviving worker carries the run")
        });
        assert_eq!(
            result.components, reference.components,
            "{mode} run diverged from the batched reference — this is a bug"
        );
        let pairs_per_sec = result.trace.total_generated() as f64 / seconds;
        let requeued = result.trace.total_requeued();
        eprintln!("ft_bench: {mode}: {seconds:.3}s, {requeued} requeued");
        rows.push(Row { mode, seconds, pairs_per_sec, requeued });
    }
    let identical = true; // asserted above for every row

    let mode_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"mode\": \"{}\", \"seconds\": {:.6}, \"pairs_per_sec\": {:.0}, ",
                    "\"requeued\": {} }}"
                ),
                r.mode, r.seconds, r.pairs_per_sec, r.requeued,
            )
        })
        .collect();
    // Recovery cost: the extra wall-clock of losing a worker mid-run on
    // top of the healthy distributed run, and the throughput retained.
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

    eprintln!("ft_bench: components identical, {} lease(s) requeued", rows[1].requeued);
    emit("ft", &json, args.smoke);
}
