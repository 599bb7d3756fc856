//! The machine model: cost constants of a distributed-memory
//! master–worker cluster.
//!
//! Constants are expressed in seconds per unit of *recorded work* (DP
//! cells, pairs, residues, bytes). The defaults approximate a 700 MHz
//! BlueGene/L compute node in co-processor mode with a 3D-torus
//! interconnect — not to match the paper's absolute run-times (our traces
//! come from scaled-down data sets) but to place the serial master costs,
//! communication latencies and worker compute in a realistic ratio, which
//! is what determines the scaling *shape*.

/// Cost constants of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Seconds per alignment DP cell on one worker core.
    pub cell_time: f64,
    /// Seconds per residue of index (GST) construction per rank.
    pub index_time_per_residue: f64,
    /// Seconds per promising pair generated on a worker.
    pub pair_gen_time: f64,
    /// Master-side seconds to filter one incoming pair (union-find lookups
    /// plus bookkeeping) — the serial bottleneck of the CCD phase.
    pub master_filter_time: f64,
    /// Master-side seconds to dispatch one alignment task.
    pub master_dispatch_time: f64,
    /// Master-side seconds to apply one alignment result (cluster merge).
    pub master_apply_time: f64,
    /// One-way message latency in seconds.
    pub latency: f64,
    /// Seconds per byte of message payload.
    pub byte_time: f64,
    /// Payload bytes per pair record.
    pub pair_bytes: f64,
    /// Payload bytes per task/result record.
    pub task_bytes: f64,
}

impl MachineModel {
    /// Approximate BlueGene/L node constants (700 MHz PPC440,
    /// ~175 MB/s per torus link, ~3 µs MPI latency).
    pub fn bluegene_l() -> MachineModel {
        MachineModel {
            // ~25 M Smith-Waterman cells/s on a 700 MHz core.
            cell_time: 4.0e-8,
            // Suffix-tree construction ~2 M residues/s per rank.
            index_time_per_residue: 5.0e-7,
            pair_gen_time: 2.0e-7,
            master_filter_time: 2.5e-7,
            master_dispatch_time: 4.0e-7,
            master_apply_time: 5.0e-7,
            latency: 3.0e-6,
            byte_time: 1.0 / 175.0e6,
            pair_bytes: 12.0,
            task_bytes: 16.0,
        }
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        MachineModel::bluegene_l()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_positive() {
        let m = MachineModel::bluegene_l();
        assert!(m.cell_time > 0.0);
        assert!(m.latency > 0.0);
        assert!(m.byte_time > 0.0);
        assert!(m.master_filter_time > 0.0);
    }
}
