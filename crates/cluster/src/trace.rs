//! Work-trace recording for the performance model.
//!
//! The paper's scaling experiments ran on a 512-node BlueGene/L we do not
//! have. Instead of faking timings, each phase of the engine records the
//! *work it actually performed* — index construction volume, pair-batch
//! sizes, per-alignment DP-cell costs, and the master's filter decisions.
//! The `pfam-sim` crate replays this trace through a discrete-event model
//! of a master–worker machine with any processor count, which reproduces
//! the paper's scaling *shapes* (near-linear RR, saturating CCD) from the
//! real task structure rather than from a formula.

/// One master-round of pair processing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchRecord {
    /// Pairs the workers generated for this round.
    pub n_generated: usize,
    /// Pairs the master filtered out (already co-clustered / already
    /// marked redundant).
    pub n_filtered: usize,
    /// Alignment tasks dispatched to workers — candidates the engine was
    /// asked about. Candidates the pair ledger answered are
    /// [`n_ledger_hits`](Self::n_ledger_hits), not these.
    pub n_aligned: usize,
    /// Total DP-cell cost of the dispatched alignments.
    pub align_cells: u64,
    /// Individual alignment costs (cells), in dispatch order — the unit of
    /// work the simulator schedules. Always the full `m·n` rectangle, so
    /// simulator replays are engine-independent.
    pub task_cells: Vec<u64>,
    /// DP cells the alignment engine actually evaluated: `m·n` for every
    /// pair that reached the fill.
    pub cells_computed: u64,
    /// `m·n` of every pair the engine's length screen or score threshold
    /// rejected before any traceback; zero under the reference engine.
    pub cells_skipped: u64,
    /// Candidates answered by the run's pair ledger instead of a fill.
    pub n_ledger_hits: usize,
}

impl BatchRecord {
    /// Account for one verdict's work: a ledger hit, or an alignment task
    /// and its cells.
    pub(crate) fn note_verdict(&mut self, v: &crate::core::Verdict) {
        if v.ledger_hit {
            self.n_ledger_hits += 1;
        } else {
            self.n_aligned += 1;
            self.align_cells += v.cells;
            self.task_cells.push(v.cells);
            self.cells_computed += v.cells_computed;
            self.cells_skipped += v.cells_skipped;
        }
    }
}

/// Complete trace of one phase run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Total residues indexed (GST construction volume).
    pub index_residues: u64,
    /// Suffix-tree nodes visited during pair generation.
    pub nodes_visited: u64,
    /// Master rounds in execution order.
    pub batches: Vec<BatchRecord>,
}

impl PhaseTrace {
    /// Total pairs generated across batches.
    pub fn total_generated(&self) -> usize {
        self.batches.iter().map(|b| b.n_generated).sum()
    }

    /// Total pairs the master filtered.
    pub fn total_filtered(&self) -> usize {
        self.batches.iter().map(|b| b.n_filtered).sum()
    }

    /// Total alignments executed.
    pub fn total_aligned(&self) -> usize {
        self.batches.iter().map(|b| b.n_aligned).sum()
    }

    /// Total candidates the pair ledger answered without a fill.
    pub fn total_ledger_hits(&self) -> usize {
        self.batches.iter().map(|b| b.n_ledger_hits).sum()
    }

    /// Total alignment DP cells.
    pub fn total_cells(&self) -> u64 {
        self.batches.iter().map(|b| b.align_cells).sum()
    }

    /// Total DP cells the engine actually evaluated.
    pub fn total_cells_computed(&self) -> u64 {
        self.batches.iter().map(|b| b.cells_computed).sum()
    }

    /// Total full-matrix DP cells the engine avoided.
    pub fn total_cells_skipped(&self) -> u64 {
        self.batches.iter().map(|b| b.cells_skipped).sum()
    }

    /// The filter's work-reduction ratio: filtered / generated
    /// (§V reports > 99.9 % for CCD on the 80K input).
    pub fn filter_ratio(&self) -> f64 {
        let gen = self.total_generated();
        if gen == 0 {
            0.0
        } else {
            self.total_filtered() as f64 / gen as f64
        }
    }
}

/// The batch-line columns [`PhaseTrace::to_tsv`] writes, in order — the
/// names of its `#n_generated\t…` header line.
const COLUMNS: [&str; 7] = [
    "n_generated",
    "n_filtered",
    "n_aligned",
    "task_cells",
    "cells_computed",
    "cells_skipped",
    "n_ledger_hits",
];

/// Columns earlier writers emitted for counters that no longer exist (the
/// stealing scheduler's, the supervision plane's, the leased loop's):
/// read past, by name.
const RETIRED_COLUMNS: [&str; 6] =
    ["n_chunks", "n_steals", "n_requeued", "n_retries", "n_spec_issued", "n_spec_wins"];

impl PhaseTrace {
    /// Serialize as TSV: a `key=value` header line, a line naming the
    /// batch columns, then one line per batch with the task cells
    /// comma-joined. Lets experiment drivers replay recorded traces
    /// through `pfam-sim` without re-running the clustering.
    pub fn to_tsv(&self) -> String {
        let mut out = format!(
            "#index_residues={}\tnodes_visited={}\n#{}\n",
            self.index_residues,
            self.nodes_visited,
            COLUMNS.join("\t")
        );
        for b in &self.batches {
            let cells: Vec<String> = b.task_cells.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                b.n_generated,
                b.n_filtered,
                b.n_aligned,
                cells.join(","),
                b.cells_computed,
                b.cells_skipped,
                b.n_ledger_hits
            ));
        }
        out
    }

    /// Parse the format written by [`PhaseTrace::to_tsv`], by this version
    /// or any earlier one: each batch line is read against the column
    /// names of the `#n_generated\t…` line every writer has emitted. A
    /// column this version does not write any more is skipped, one the
    /// file's writer did not know yet reads as 0, a name nobody ever wrote
    /// is an error.
    pub fn from_tsv(text: &str) -> Result<PhaseTrace, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty trace")?;
        let header = header.strip_prefix('#').ok_or("missing header line")?;
        let mut index_residues = 0u64;
        let mut nodes_visited = 0u64;
        for field in header.split('\t') {
            let (key, value) = field.split_once('=').ok_or("malformed header field")?;
            let value: u64 = value.parse().map_err(|_| format!("bad number: {value}"))?;
            match key {
                "index_residues" => index_residues = value,
                "nodes_visited" => nodes_visited = value,
                other => return Err(format!("unknown header key: {other}")),
            }
        }
        let names = lines.next().ok_or("missing column-name line")?;
        let names = names.strip_prefix('#').ok_or("missing column-name line")?;
        // `None` marks a retired column.
        let mut columns: Vec<Option<&str>> = Vec::new();
        for name in names.split('\t') {
            if COLUMNS.contains(&name) {
                columns.push(Some(name));
            } else if RETIRED_COLUMNS.contains(&name) {
                columns.push(None);
            } else {
                return Err(format!("unknown column: {name}"));
            }
        }
        let mut batches = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let values: Vec<&str> = line.split('\t').collect();
            if values.len() != columns.len() {
                return Err(format!(
                    "{} columns named, {} in: {line}",
                    columns.len(),
                    values.len()
                ));
            }
            let mut b = BatchRecord::default();
            for (name, value) in columns.iter().zip(values) {
                let Some(name) = *name else { continue };
                if name == "task_cells" {
                    if !value.is_empty() {
                        b.task_cells = value
                            .split(',')
                            .map(|c| c.parse().map_err(|_| format!("bad cell count: {c}")))
                            .collect::<Result<_, _>>()?;
                    }
                    continue;
                }
                let n: u64 = value.parse().map_err(|_| format!("bad {name} in: {line}"))?;
                match name {
                    "n_generated" => b.n_generated = n as usize,
                    "n_filtered" => b.n_filtered = n as usize,
                    "n_aligned" => b.n_aligned = n as usize,
                    "cells_computed" => b.cells_computed = n,
                    "cells_skipped" => b.cells_skipped = n,
                    "n_ledger_hits" => b.n_ledger_hits = n as usize,
                    _ => unreachable!("{name} is in COLUMNS"),
                }
            }
            if b.task_cells.len() != b.n_aligned {
                return Err(format!(
                    "n_aligned {} disagrees with {} task cells",
                    b.n_aligned,
                    b.task_cells.len()
                ));
            }
            b.align_cells = b
                .task_cells
                .iter()
                .try_fold(0u64, |sum, &c| sum.checked_add(c))
                .ok_or_else(|| format!("task cells overflow a u64 in: {line}"))?;
            batches.push(b);
        }
        Ok(PhaseTrace { index_residues, nodes_visited, batches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(generated: usize, filtered: usize, cells: &[u64]) -> BatchRecord {
        BatchRecord {
            n_generated: generated,
            n_filtered: filtered,
            n_aligned: cells.len(),
            align_cells: cells.iter().sum(),
            task_cells: cells.to_vec(),
            cells_computed: cells.iter().sum(),
            ..BatchRecord::default()
        }
    }

    #[test]
    fn totals_aggregate() {
        let trace = PhaseTrace {
            index_residues: 1000,
            nodes_visited: 5,
            batches: vec![batch(10, 7, &[100, 200]), batch(4, 4, &[])],
        };
        assert_eq!(trace.total_generated(), 14);
        assert_eq!(trace.total_filtered(), 11);
        assert_eq!(trace.total_aligned(), 2);
        assert_eq!(trace.total_cells(), 300);
        assert!((trace.filter_ratio() - 11.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let trace = PhaseTrace::default();
        assert_eq!(trace.total_generated(), 0);
        assert_eq!(trace.filter_ratio(), 0.0);
    }

    #[test]
    fn tsv_round_trip() {
        let mut trace = PhaseTrace {
            index_residues: 12345,
            nodes_visited: 67,
            batches: vec![batch(10, 7, &[100, 200, 300]), batch(4, 4, &[])],
        };
        trace.batches[0].cells_skipped = 40;
        trace.batches[1].n_ledger_hits = 5;
        let text = trace.to_tsv();
        assert_eq!(text.lines().nth(1), Some(format!("#{}", COLUMNS.join("\t")).as_str()));
        let back = PhaseTrace::from_tsv(&text).expect("own output parses");
        assert_eq!(back, trace);
        assert_eq!(back.total_ledger_hits(), 5);
    }

    /// The one batch of a trace whose column-name line is `header` and
    /// whose only batch line is `line`.
    fn parsed(header: &str, line: &str) -> BatchRecord {
        let text = format!("#index_residues=9\tnodes_visited=4\n#{header}\n{line}\n");
        let trace = PhaseTrace::from_tsv(&text).unwrap_or_else(|e| panic!("{header}: {e}"));
        assert_eq!((trace.index_residues, trace.nodes_visited), (9, 4));
        assert_eq!(trace.batches.len(), 1);
        trace.batches[0].clone()
    }

    #[test]
    fn every_layout_ever_written_lands_each_value_in_its_field() {
        const BASE: &str = "n_generated\tn_filtered\tn_aligned\ttask_cells";
        const CELLS: &str = "\tcells_computed\tcells_skipped";
        let expect = |ledger_hits| BatchRecord {
            n_generated: 20,
            n_filtered: 11,
            n_aligned: 2,
            align_cells: 80,
            task_cells: vec![50, 30],
            cells_computed: 61,
            cells_skipped: 19,
            n_ledger_hits: ledger_hits,
        };
        // 8 columns, the leased loop's last layout: `n_requeued` before
        // `n_ledger_hits`.
        let leased = format!("{BASE}{CELLS}\tn_requeued\tn_ledger_hits");
        assert_eq!(parsed(&leased, "20\t11\t2\t50,30\t61\t19\t3\t7"), expect(7));
        // 11 columns: the supervision plane's three counters between them.
        let supervised = format!(
            "{BASE}{CELLS}\tn_requeued\tn_retries\tn_spec_issued\tn_spec_wins\tn_ledger_hits"
        );
        assert_eq!(parsed(&supervised, "20\t11\t2\t50,30\t61\t19\t3\t6\t2\t1\t7"), expect(7));
        // 12 columns: the stealing scheduler's two before them, no ledger.
        let stealing = format!(
            "{BASE}{CELLS}\tn_chunks\tn_steals\tn_requeued\tn_retries\tn_spec_issued\tn_spec_wins"
        );
        assert_eq!(parsed(&stealing, "20\t11\t2\t50,30\t61\t19\t4\t2\t3\t6\t2\t1"), expect(0));
        // 10 columns; 8 that are not the leased loop's 8; 6; the first 4.
        let retries = format!("{BASE}{CELLS}\tn_requeued\tn_retries\tn_spec_issued\tn_spec_wins");
        assert_eq!(parsed(&retries, "20\t11\t2\t50,30\t61\t19\t3\t6\t2\t1"), expect(0));
        let chunked = format!("{BASE}{CELLS}\tn_chunks\tn_steals");
        assert_eq!(parsed(&chunked, "20\t11\t2\t50,30\t61\t19\t4\t2"), expect(0));
        assert_eq!(parsed(&format!("{BASE}{CELLS}"), "20\t11\t2\t50,30\t61\t19"), expect(0));
        let base = parsed(BASE, "20\t11\t2\t50,30");
        assert_eq!(base, BatchRecord { cells_computed: 0, cells_skipped: 0, ..expect(0) });
        // Today's 7.
        assert_eq!(parsed(&COLUMNS.join("\t"), "20\t11\t2\t50,30\t61\t19\t7"), expect(7));
        // A batch with nothing aligned: the cells column is empty.
        assert_eq!(parsed(BASE, "4\t4\t0\t").task_cells, Vec::<u64>::new());
    }

    #[test]
    fn tsv_round_trip_empty() {
        let trace = PhaseTrace::default();
        let back = PhaseTrace::from_tsv(&trace.to_tsv()).expect("parses");
        assert_eq!(back.batches, trace.batches);
        assert_eq!(back.index_residues, 0);
    }

    #[test]
    fn tsv_rejects_garbage() {
        const NAMES: &str = "#n_generated\tn_filtered\tn_aligned\ttask_cells";
        let with = |names: &str, line: &str| {
            PhaseTrace::from_tsv(&format!("#index_residues=1\tnodes_visited=0\n{names}\n{line}\n"))
        };
        assert!(PhaseTrace::from_tsv("").is_err());
        assert!(PhaseTrace::from_tsv("not a header\n").is_err());
        assert!(PhaseTrace::from_tsv("#index_residues=1\tnodes_visited=2\n").is_err(), "no names");
        assert!(with(NAMES, "3\t1\t1\t5").is_ok());
        assert!(with(NAMES, "bad").is_err());
        assert!(with(NAMES, "3\t1\tx\t5").is_err());
        assert!(with(NAMES, "3\t1\t2\t5").is_err(), "n_aligned against the cell count");
        assert!(with(NAMES, "3\t1\t1\t5\t5").is_err(), "a value with no name");
        assert!(with(NAMES, "3\t1\t1").is_err(), "a line cut short");
        let e = with(NAMES, "3\t1\t2\t18446744073709551615,1").unwrap_err();
        assert!(e.contains("overflow"), "{e}");
        // A column nobody ever wrote: refused, not guessed at.
        let e = with(&format!("{NAMES}\tn_stolen"), "3\t1\t1\t5\t0").unwrap_err();
        assert!(e.contains("n_stolen"), "{e}");
        assert!(with("#h", "3\t1\t1\t5").is_err());
    }
}
