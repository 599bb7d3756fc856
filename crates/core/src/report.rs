//! Table-I-style summaries of a pipeline run.

use std::time::Duration;

use pfam_suffix::WindowStats;

use crate::checkpoint::Phase;
use crate::pipeline::PipelineResult;

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Input sequences.
    pub n_input: usize,
    /// Non-redundant sequences after RR.
    pub n_non_redundant: usize,
    /// Connected components with ≥ `cc_min` members.
    pub n_components: usize,
    /// Dense subgraphs reported.
    pub n_dense_subgraphs: usize,
    /// Sequences covered by dense subgraphs.
    pub n_seq_in_subgraphs: usize,
    /// Mean vertex degree across reported subgraphs (size-weighted).
    pub mean_degree: f64,
    /// Mean subgraph density (unweighted, as in the paper).
    pub mean_density: f64,
    /// Size of the largest dense subgraph.
    pub largest: usize,
}

impl TableOneRow {
    /// Summarise `result`, counting components of at least `cc_min`
    /// members (the paper reports components of size ≥ 5).
    pub fn from_result(result: &PipelineResult, cc_min: usize) -> TableOneRow {
        let n_ds = result.dense_subgraphs.len();
        let covered = result.sequences_in_subgraphs();
        let largest = result.dense_subgraphs.iter().map(|d| d.members.len()).max().unwrap_or(0);
        let mean_degree = if covered == 0 {
            0.0
        } else {
            result
                .dense_subgraphs
                .iter()
                .map(|d| d.density.mean_degree * d.members.len() as f64)
                .sum::<f64>()
                / covered as f64
        };
        let mean_density = if n_ds == 0 {
            0.0
        } else {
            result.dense_subgraphs.iter().map(|d| d.density.density).sum::<f64>() / n_ds as f64
        };
        TableOneRow {
            n_input: result.n_input,
            n_non_redundant: result.non_redundant.len(),
            n_components: result.components_of_size(cc_min).len(),
            n_dense_subgraphs: n_ds,
            n_seq_in_subgraphs: covered,
            mean_degree,
            mean_density,
            largest,
        }
    }

    /// Header matching the paper's column names.
    pub fn header() -> &'static str {
        "#Input seq.\t#NR seq.\t#CC\t#DS\t#Seq in DS\tMean degree\tMean density\tLargest DS"
    }
}

impl std::fmt::Display for TableOneRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.0}%\t{}",
            self.n_input,
            self.n_non_redundant,
            self.n_components,
            self.n_dense_subgraphs,
            self.n_seq_in_subgraphs,
            self.mean_degree,
            self.mean_density * 100.0,
            self.largest
        )
    }
}

/// Where the run's alignments went: per phase (RR, CCD, BGG) the pairs the
/// engine filled, the cells of those fills, and the candidates the pair
/// ledger answered instead — one stderr line of `pfam cluster|run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillReport {
    /// `(fills, cells computed, ledger hits)` of RR, CCD and BGG.
    pub phases: [(usize, u64, usize); 3],
    /// RR fills the ledger could not record; each may have been filled a
    /// second time ([`PipelineResult::ledger_dropped`]).
    pub ledger_dropped: u64,
}

impl FillReport {
    /// Read the counts off `result`'s phase traces.
    pub fn from_result(result: &PipelineResult) -> FillReport {
        let (rr, ccd, bgg) = &result.traces;
        let phases = [rr, ccd, bgg]
            .map(|t| (t.total_aligned(), t.total_cells_computed(), t.total_ledger_hits()));
        FillReport { phases, ledger_dropped: result.ledger_dropped }
    }

    /// Pairs filled over the whole run. With nothing dropped from the
    /// ledger these are distinct pairs: no pair was aligned twice.
    pub fn total_fills(&self) -> usize {
        self.phases.iter().map(|p| p.0).sum()
    }
}

impl std::fmt::Display for FillReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fills:")?;
        for (name, (fills, cells, hits)) in ["rr", "ccd", "bgg"].into_iter().zip(self.phases) {
            let mcells = cells as f64 / 1e6;
            write!(f, " {name} {fills} pairs / {mcells:.1} Mcells (+{hits} ledger hits),")?;
        }
        let mcells = self.phases.iter().map(|p| p.1).sum::<u64>() as f64 / 1e6;
        write!(f, " total {} pairs / {mcells:.1} Mcells", self.total_fills())?;
        match self.ledger_dropped {
            0 => write!(f, ", each filled once"),
            n => write!(f, ", up to {n} filled twice (the ledger's reservation was refused)"),
        }
    }
}

/// What the master loops filled ahead of admission and no batch then
/// admitted — the stderr line of `pfam cluster|run` after `fills:`. None
/// of it is in the `fills:` counts: RR's are dropped, and CCD's are
/// counted where the back half reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AheadReport {
    /// RR fills whose pair lost a read before its batch came: dropped.
    pub rr_discarded: usize,
    /// CCD fills of pairs the closure filter then deferred, held for the
    /// component graphs.
    pub ccd_held: usize,
    /// CCD fills of deferred pairs in components under the size cut:
    /// dropped.
    pub ccd_discarded: usize,
}

impl std::fmt::Display for AheadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ahead: rr {} fills discarded, ccd {} filled for the back half, {} discarded",
            self.rr_discarded, self.ccd_held, self.ccd_discarded
        )
    }
}

/// What the windowed miner held in each phase that mined windows — the
/// stderr line of `pfam cluster|run` after `ahead:`, printed only when a
/// phase ran under a memory budget its monolithic index did not fit. A
/// phase loaded from its checkpoint mined nothing and is left out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowReport {
    /// RR's windows, when it mined windows.
    pub rr: Option<WindowStats>,
    /// CCD's windows, when it mined windows.
    pub ccd: Option<WindowStats>,
}

impl WindowReport {
    /// Whether no phase mined windows: the report has no line.
    pub fn is_empty(&self) -> bool {
        self.rr.is_none() && self.ccd.is_none()
    }
}

impl std::fmt::Display for WindowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "windows:")?;
        let phases = [("rr", self.rr), ("ccd", self.ccd)];
        let mut phases = phases.iter().filter_map(|&(name, s)| Some((name, s?)));
        if let Some((name, s)) = phases.next() {
            write!(f, " {name} {} ({} suffixes, {} kept)", s.windows, s.suffixes, s.kept)?;
        }
        for (name, s) in phases {
            write!(f, ", {name} {} ({}, {})", s.windows, s.suffixes, s.kept)?;
        }
        Ok(())
    }
}

/// The snapshots a run with a checkpoint directory wrote — the last
/// stderr line of `pfam run`, after `phases:`. A phase loaded from its
/// checkpoint wrote none.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointReport {
    /// `(snapshots, bytes)` written for RR, CCD and DSD.
    pub phases: [(usize, u64); 3],
    /// Time the snapshots took, from building each payload to its rename.
    pub seconds: f64,
}

impl CheckpointReport {
    /// Count one snapshot of `phase`: `bytes` on disk, written in `took`.
    pub(crate) fn add(&mut self, phase: Phase, bytes: u64, took: Duration) {
        let slot = match phase {
            Phase::Rr => 0,
            Phase::Ccd => 1,
            Phase::Dsd => 2,
        };
        self.phases[slot].0 += 1;
        self.phases[slot].1 += bytes;
        self.seconds += took.as_secs_f64();
    }
}

impl std::fmt::Display for CheckpointReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoints:")?;
        for (name, (count, bytes)) in ["rr", "ccd", "dsd"].into_iter().zip(self.phases) {
            write!(f, " {name} {count} ({:.1} MB),", bytes as f64 / 1e6)?;
        }
        write!(f, " {:.2} s", self.seconds)
    }
}

/// Where a run's wall-clock, CPU and memory went, phase by phase — the
/// stderr line of `pfam cluster|run` after `windows:` (or `ahead:`).
///
/// `index`, `rr`, `ccd` and `back half` are the walls between the phase
/// boundaries of [`crate::run_pipeline`], each less the snapshot reads and
/// writes it waited on; with `checkpoints` they add up to the run's wall.
/// `index` is the plan and the monolithic index both phases mine. On the
/// windowed route each phase sorts its own windows as it mines them, so
/// that time is inside `rr` and `ccd` and `index` is the plan alone. The
/// back half's component files are written on its workers, inside its
/// wall: `checkpoints` counts them too, and is then more than the time
/// the run waited on snapshots.
///
/// `cpu` is the process's user + system CPU over each span, every thread
/// and the snapshot I/O in it included, so the four add up to the
/// pipeline's CPU; `VmHWM` is the process's peak resident set at each
/// span's end, so the first span whose figure rises is where the peak
/// grew. Both are read from `/proc/self` and print `n/a` where it cannot
/// be read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseReport {
    /// Seconds to the index both phases mine.
    pub index_s: f64,
    /// Seconds of redundancy removal.
    pub rr_s: f64,
    /// Seconds of connected-component detection.
    pub ccd_s: f64,
    /// Seconds of the fused BGG→DSD pass and the result's assembly.
    pub back_half_s: f64,
    /// Where the back half's workers spent their time.
    pub workers: WorkerSeconds,
    /// Seconds of snapshot reads and writes, `fingerprint` of the input
    /// included; 0 without a checkpoint directory.
    pub checkpoints_s: f64,
    /// CPU seconds of the index, rr, ccd and back-half spans; `None` where
    /// the process's counters cannot be read.
    pub cpu_s: Option<[f64; 4]>,
    /// The process's `VmHWM` in bytes at the end of the index, rr, ccd and
    /// back-half spans; `None` where it cannot be read.
    pub hwm_bytes: Option<[u64; 4]>,
}

impl std::fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = &self.workers;
        write!(
            f,
            "phases: index {:.3} s, rr {:.3} s, ccd {:.3} s, back half {:.3} s \
             (bgg {:.3} / dsd {:.3} worker wall-s, overlapping; heaviest {:.3} / {:.3}), \
             checkpoints {:.3} s",
            self.index_s,
            self.rr_s,
            self.ccd_s,
            self.back_half_s,
            w.bgg_s,
            w.dsd_s,
            w.heaviest.0,
            w.heaviest.1,
            self.checkpoints_s,
        )?;
        let spans = |values: [String; 4], unit: &str| {
            format!(
                "index {}, rr {}, ccd {}, back half {} {unit}",
                values[0], values[1], values[2], values[3]
            )
        };
        match self.cpu_s {
            Some(cpu) => write!(f, "; cpu {}", spans(cpu.map(|s| format!("{s:.2}")), "s"))?,
            None => write!(f, "; cpu n/a")?,
        }
        match self.hwm_bytes {
            Some(hwm) => {
                let mib = hwm.map(|b| format!("{:.1}", b as f64 / (1 << 20) as f64));
                write!(f, "; VmHWM {}", spans(mib, "MiB"))
            }
            None => write!(f, "; VmHWM n/a"),
        }
    }
}

/// Worker wall-seconds of the back half ([`crate::executor`]): building
/// the component graphs (BGG) and detecting their dense subgraphs (DSD),
/// summed over the components it ran, and the pair of the component that
/// took the longest. They overlap: a component's BGG fills run on the
/// pool beside the other components' workers, so their sum can pass the
/// back half's CPU; `PhaseReport::cpu_s` is the CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerSeconds {
    /// BGG seconds over every component.
    pub bgg_s: f64,
    /// DSD seconds over every component.
    pub dsd_s: f64,
    /// `(bgg, dsd)` seconds of the component with the largest sum.
    pub heaviest: (f64, f64),
}

impl WorkerSeconds {
    /// Count one component's `(bgg, dsd)` seconds.
    pub(crate) fn add(&mut self, component: (f64, f64)) {
        self.bgg_s += component.0;
        self.dsd_s += component.1;
        if component.0 + component.1 > self.heaviest.0 + self.heaviest.1 {
            self.heaviest = component;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};

    #[test]
    fn row_reflects_result() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(33));
        let r = PipelineConfig::for_tests().run(&d.set);
        let row = TableOneRow::from_result(&r, 2);
        assert_eq!(row.n_input, d.set.len());
        assert_eq!(row.n_non_redundant, r.non_redundant.len());
        assert_eq!(row.n_dense_subgraphs, r.dense_subgraphs.len());
        assert!(row.mean_density >= 0.0 && row.mean_density <= 1.0);
        assert!(row.largest <= row.n_seq_in_subgraphs);
    }

    #[test]
    fn fill_report_reads_the_traces() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(34));
        let r = PipelineConfig::for_tests().run(&d.set);
        let report = FillReport::from_result(&r);
        assert_eq!(report.phases[0].2, 0, "RR fills, it never looks up");
        assert!(report.phases[2].2 > 0, "BGG is answered by RR's fills");
        assert_eq!(report.total_fills(), report.phases.iter().map(|p| p.0).sum::<usize>());
        let line = report.to_string();
        assert!(line.starts_with("fills: rr ") && line.ends_with("each filled once"), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn ahead_report_is_one_line() {
        let report = AheadReport { rr_discarded: 1674, ccd_held: 302, ccd_discarded: 0 };
        let line = "ahead: rr 1674 fills discarded, ccd 302 filled for the back half, 0 discarded";
        assert_eq!(report.to_string(), line);
    }

    #[test]
    fn window_report_is_one_line_of_the_phases_that_mined_windows() {
        let rr = WindowStats { windows: 6, suffixes: 861_201, kept: 17_367 };
        let ccd = WindowStats { windows: 6, suffixes: 857_632, kept: 13_740 };
        let both = WindowReport { rr: Some(rr), ccd: Some(ccd) };
        let line = "windows: rr 6 (861201 suffixes, 17367 kept), ccd 6 (857632, 13740)";
        assert_eq!(both.to_string(), line);
        let resumed = WindowReport { rr: None, ccd: Some(ccd) };
        assert_eq!(resumed.to_string(), "windows: ccd 6 (857632 suffixes, 13740 kept)");
        assert!(!resumed.is_empty() && WindowReport::default().is_empty());
    }

    #[test]
    fn checkpoint_report_is_one_line_of_counts_bytes_and_seconds() {
        let mut report = CheckpointReport::default();
        report.add(Phase::Rr, 16_600_000, Duration::from_millis(120));
        for bytes in [10_000_000, 30_100_000] {
            report.add(Phase::Ccd, bytes, Duration::from_millis(250));
        }
        report.add(Phase::Ccd, 0, Duration::ZERO);
        let line = "checkpoints: rr 1 (16.6 MB), ccd 3 (40.1 MB), dsd 0 (0.0 MB), 0.62 s";
        assert_eq!(report.to_string(), line);
    }

    #[test]
    fn phase_report_is_one_line_of_seconds() {
        let mut workers = WorkerSeconds::default();
        for component in [(0.25, 0.05), (1.5, 0.125), (0.5, 0.0)] {
            workers.add(component);
        }
        assert_eq!(workers.heaviest, (1.5, 0.125));
        let mut report = PhaseReport {
            index_s: 0.041,
            rr_s: 0.052,
            ccd_s: 0.011,
            back_half_s: 1.6,
            workers,
            checkpoints_s: 0.0,
            cpu_s: None,
            hwm_bytes: None,
        };
        let line = "phases: index 0.041 s, rr 0.052 s, ccd 0.011 s, back half 1.600 s \
                    (bgg 2.250 / dsd 0.175 worker wall-s, overlapping; heaviest 1.500 / 0.125), \
                    checkpoints 0.000 s";
        assert_eq!(report.to_string(), format!("{line}; cpu n/a; VmHWM n/a"));
        report.cpu_s = Some([0.04, 0.1, 0.02, 3.1]);
        report.hwm_bytes = Some([9 << 20, 10 << 20, 10 << 20, 23 << 19]);
        let usage = "; cpu index 0.04, rr 0.10, ccd 0.02, back half 3.10 s; \
                     VmHWM index 9.0, rr 10.0, ccd 10.0, back half 11.5 MiB";
        assert_eq!(report.to_string(), format!("{line}{usage}"));
    }

    #[test]
    fn display_tab_separated() {
        let row = TableOneRow {
            n_input: 100,
            n_non_redundant: 90,
            n_components: 5,
            n_dense_subgraphs: 4,
            n_seq_in_subgraphs: 60,
            mean_degree: 12.0,
            mean_density: 0.76,
            largest: 30,
        };
        let text = row.to_string();
        assert_eq!(text.split('\t').count(), 8);
        assert!(text.contains("76%"));
        assert_eq!(TableOneRow::header().split('\t').count(), 8);
    }
}
