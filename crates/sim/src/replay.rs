//! Trace replay: discrete-event simulation of a phase on `p` ranks.
//!
//! One rank is the master, the remaining `p − 1` are workers (the paper's
//! master–worker decomposition). Each recorded batch round unfolds as:
//!
//! 1. workers generate the round's promising pairs (parallel),
//! 2. pairs travel to the master (latency + bandwidth),
//! 3. the master filters every pair — *serial*, independent of `p`,
//! 4. surviving alignment tasks are dispatched (serial master time +
//!    message costs) and executed on workers under greedy list scheduling,
//! 5. results return and the master applies them (serial); a candidate the
//!    pair ledger answered is applied too, with no task behind it.
//!
//! Because steps 3–5 do not shrink with `p` while steps 1, 2 and 4's
//! compute does, phases whose batches are filter-dominated (CCD) stop
//! scaling at high `p`, while alignment-dominated phases (RR) scale nearly
//! linearly — exactly the Table II / Figure 7a behaviour.

use pfam_cluster::PhaseTrace;

use crate::machine::MachineModel;
use crate::scheduler::list_schedule_makespan;

/// Where the simulated time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimBreakdown {
    /// Parallel index (GST) construction.
    pub index: f64,
    /// Worker-side pair generation.
    pub generation: f64,
    /// Message latency + bandwidth.
    pub communication: f64,
    /// Serial master work (filter + dispatch + apply).
    pub master: f64,
    /// Worker alignment compute (max over workers per round).
    pub compute: f64,
}

impl SimBreakdown {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.index + self.generation + self.communication + self.master + self.compute
    }
}

/// Result of simulating one phase at one processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Rank count simulated (including the master).
    pub p: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Component breakdown.
    pub breakdown: SimBreakdown,
}

/// Simulate `trace` on `p` ranks (`p ≥ 2`: one master plus workers).
///
/// ```
/// use pfam_cluster::{BatchRecord, PhaseTrace};
/// use pfam_sim::{simulate_phase, MachineModel};
///
/// let trace = PhaseTrace {
///     index_residues: 100_000,
///     nodes_visited: 0,
///     batches: vec![BatchRecord {
///         n_generated: 1000,
///         n_filtered: 400,
///         n_aligned: 600,
///         align_cells: 600 * 25_000,
///         task_cells: vec![25_000; 600],
///         ..BatchRecord::default()
///     }],
/// };
/// let m = MachineModel::bluegene_l();
/// let fast = simulate_phase(&trace, &m, 512);
/// let slow = simulate_phase(&trace, &m, 32);
/// assert!(fast.seconds <= slow.seconds);
/// ```
///
/// The master and the worker pool form a two-stage pipeline: workers
/// generate pairs and execute alignments while the master filters,
/// dispatches and applies. Steady-state wall-clock is therefore
/// `index + communication + max(master stage, worker stage)` — batches
/// overlap across the pipeline, but neither stage can go faster than its
/// own serial (master) or pooled (workers) capacity.
pub fn simulate_phase(trace: &PhaseTrace, machine: &MachineModel, p: usize) -> SimReport {
    assert!(p >= 2, "need a master and at least one worker");
    let workers = (p - 1) as f64;
    let mut b = SimBreakdown {
        index: trace.index_residues as f64 * machine.index_time_per_residue / workers,
        ..SimBreakdown::default()
    };
    // Per-round latency grows as log₂ p: collectives ride the BG/L tree
    // network. This is what makes very large p slightly *worse* for
    // master-bound phases (the paper's CCD column rises again from p=128
    // to p=512).
    let round_latency = machine.latency * (p as f64).log2();
    let mut master = 0.0f64;
    let mut all_tasks: Vec<f64> = Vec::new();
    for batch in &trace.batches {
        // Workers: pair generation (parallel across the pool).
        b.generation += batch.n_generated as f64 * machine.pair_gen_time / workers;
        // Messages: pair gather + task scatter + result gather per round.
        if batch.n_generated > 0 {
            b.communication +=
                round_latency + batch.n_generated as f64 * machine.pair_bytes * machine.byte_time;
        }
        // Master: filter every pair, apply each ledger hit's verdict (no
        // dispatch, no message, no worker), dispatch and apply the survivors.
        master += batch.n_generated as f64 * machine.master_filter_time
            + batch.n_ledger_hits as f64 * machine.master_apply_time;
        if batch.n_aligned > 0 {
            master +=
                batch.n_aligned as f64 * (machine.master_dispatch_time + machine.master_apply_time);
            b.communication += 2.0 * round_latency
                + 2.0 * batch.n_aligned as f64 * machine.task_bytes * machine.byte_time;
            all_tasks.extend(batch.task_cells.iter().map(|&c| c as f64 * machine.cell_time));
        }
    }
    // Workers: alignment compute, list-scheduled over the whole run (the
    // pipeline keeps the pool fed across batch boundaries).
    let compute = list_schedule_makespan(&all_tasks, p - 1);
    // Pipeline: the slower stage bounds throughput; the faster one hides
    // inside it. Record the visible (non-overlapped) parts.
    let worker_stage = b.generation + compute;
    if master >= worker_stage {
        b.master = master;
        b.compute = 0.0;
        b.generation = 0.0;
    } else {
        b.master = 0.0;
        b.compute = compute;
    }
    SimReport { p, seconds: b.total(), breakdown: b }
}

/// Simulate several phases back to back (e.g. RR then CCD) and sum.
pub fn simulate_phases(traces: &[&PhaseTrace], machine: &MachineModel, p: usize) -> SimReport {
    let mut total = SimBreakdown::default();
    for t in traces {
        let r = simulate_phase(t, machine, p);
        total.index += r.breakdown.index;
        total.generation += r.breakdown.generation;
        total.communication += r.breakdown.communication;
        total.master += r.breakdown.master;
        total.compute += r.breakdown.compute;
    }
    SimReport { p, seconds: total.total(), breakdown: total }
}

/// Sweep processor counts, reporting `(p, seconds, speedup_vs_base)` with
/// speedups relative to the first (smallest) entry of `ps` — the paper
/// computes speedups relative to its 32-node runs.
pub fn speedup_sweep(
    traces: &[&PhaseTrace],
    machine: &MachineModel,
    ps: &[usize],
) -> Vec<(usize, f64, f64)> {
    assert!(!ps.is_empty());
    let base = simulate_phases(traces, machine, ps[0]).seconds;
    ps.iter()
        .map(|&p| {
            let s = simulate_phases(traces, machine, p).seconds;
            (p, s, base / s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfam_cluster::BatchRecord;

    /// A batch where almost everything is filtered (CCD-like).
    fn filter_dominated_batch() -> BatchRecord {
        BatchRecord {
            n_generated: 100_000,
            n_filtered: 99_950,
            n_aligned: 50,
            align_cells: 50 * 25_000,
            task_cells: vec![25_000; 50],
            ..BatchRecord::default()
        }
    }

    /// A batch where alignment compute dominates (RR-like).
    fn compute_dominated_batch() -> BatchRecord {
        BatchRecord {
            n_generated: 20_000,
            n_filtered: 2_000,
            n_aligned: 18_000,
            align_cells: 18_000 * 25_000,
            task_cells: vec![25_000; 18_000],
            ..BatchRecord::default()
        }
    }

    fn trace_of(batches: Vec<BatchRecord>) -> PhaseTrace {
        PhaseTrace { index_residues: 1_000_000, nodes_visited: 0, batches }
    }

    #[test]
    fn more_processors_never_slower() {
        let trace = trace_of(vec![compute_dominated_batch(), filter_dominated_batch()]);
        let m = MachineModel::bluegene_l();
        let mut prev = f64::INFINITY;
        for p in [2, 4, 8, 16, 32, 64, 128, 256, 512] {
            let r = simulate_phase(&trace, &m, p);
            assert!(r.seconds <= prev + 1e-12, "p={p}");
            prev = r.seconds;
        }
    }

    #[test]
    fn compute_dominated_scales_nearly_linearly() {
        let trace = trace_of(vec![compute_dominated_batch(); 8]);
        let m = MachineModel::bluegene_l();
        let t32 = simulate_phase(&trace, &m, 32).seconds;
        let t512 = simulate_phase(&trace, &m, 512).seconds;
        let speedup = t32 / t512;
        // Ideal would be ~16.5 (511/31 workers); accept ≥ 8.
        assert!(speedup > 8.0, "speedup only {speedup:.2}");
    }

    #[test]
    fn filter_dominated_saturates() {
        let trace = trace_of(vec![filter_dominated_batch(); 8]);
        let m = MachineModel::bluegene_l();
        let t32 = simulate_phase(&trace, &m, 32).seconds;
        let t512 = simulate_phase(&trace, &m, 512).seconds;
        let speedup = t32 / t512;
        assert!(speedup < 4.0, "filter-dominated phase should saturate, got speedup {speedup:.2}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let trace = trace_of(vec![compute_dominated_batch()]);
        let r = simulate_phase(&trace, &MachineModel::bluegene_l(), 16);
        assert!((r.breakdown.total() - r.seconds).abs() < 1e-12);
        // Pipeline overlap: exactly one of the two stages is visible.
        let master_visible = r.breakdown.master > 0.0;
        let compute_visible = r.breakdown.compute > 0.0;
        assert!(master_visible != compute_visible, "one stage hides in the other");
        assert!(compute_visible, "this trace is compute-dominated");
        assert!(r.breakdown.index > 0.0);
    }

    #[test]
    fn filter_dominated_shows_master_stage() {
        let trace = trace_of(vec![filter_dominated_batch(); 4]);
        let r = simulate_phase(&trace, &MachineModel::bluegene_l(), 512);
        assert!(r.breakdown.master > 0.0, "master stage should dominate at high p");
        assert_eq!(r.breakdown.compute, 0.0);
    }

    #[test]
    fn a_ledger_hit_costs_the_master_one_apply() {
        let m = MachineModel::bluegene_l();
        let cost = |hits: usize| {
            let batch = BatchRecord { n_ledger_hits: hits, ..filter_dominated_batch() };
            let r = simulate_phase(&trace_of(vec![batch]), &m, 512);
            assert!(r.breakdown.master > 0.0, "master-bound");
            r.seconds
        };
        for k in [1, 7, 1_000] {
            let extra = cost(k) - cost(0);
            assert!((extra - k as f64 * m.master_apply_time).abs() < 1e-12, "k={k}: {extra}");
        }
    }

    #[test]
    fn phases_sum() {
        let a = trace_of(vec![compute_dominated_batch()]);
        let c = trace_of(vec![filter_dominated_batch()]);
        let m = MachineModel::bluegene_l();
        let combined = simulate_phases(&[&a, &c], &m, 64).seconds;
        let separate = simulate_phase(&a, &m, 64).seconds + simulate_phase(&c, &m, 64).seconds;
        assert!((combined - separate).abs() < 1e-9);
    }

    #[test]
    fn speedup_sweep_is_relative_to_first() {
        let trace = trace_of(vec![compute_dominated_batch(); 4]);
        let m = MachineModel::bluegene_l();
        let sweep = speedup_sweep(&[&trace], &m, &[32, 64, 128]);
        assert_eq!(sweep.len(), 3);
        assert!((sweep[0].2 - 1.0).abs() < 1e-12);
        assert!(sweep[1].2 > 1.0);
        assert!(sweep[2].2 > sweep[1].2);
    }

    #[test]
    fn empty_trace_costs_only_index() {
        let trace = PhaseTrace { index_residues: 100, ..PhaseTrace::default() };
        let r = simulate_phase(&trace, &MachineModel::bluegene_l(), 4);
        assert!(r.seconds > 0.0);
        assert_eq!(r.breakdown.master, 0.0);
        assert_eq!(r.breakdown.compute, 0.0);
    }

    #[test]
    #[should_panic(expected = "master and at least one worker")]
    fn single_rank_rejected() {
        let trace = PhaseTrace::default();
        let _ = simulate_phase(&trace, &MachineModel::bluegene_l(), 1);
    }
}
