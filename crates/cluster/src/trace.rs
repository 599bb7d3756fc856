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

/// Which pipeline phase a trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Redundancy removal.
    RedundancyRemoval,
    /// Connected-component detection.
    ConnectedComponents,
    /// Bipartite graph generation.
    BipartiteGeneration,
}

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
    /// Leases requeued by timeout/death recovery this round (0 outside
    /// the fault-tolerant driver).
    pub n_requeued: usize,
    /// Transient transport sends retried this round.
    pub n_retries: u64,
    /// Speculative duplicate leases issued against stragglers this round.
    pub n_spec_issued: usize,
    /// Speculative races won by a duplicate this round.
    pub n_spec_wins: usize,
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

    /// Total leases requeued by recovery (timeouts and worker deaths).
    pub fn total_requeued(&self) -> usize {
        self.batches.iter().map(|b| b.n_requeued).sum()
    }

    /// Total transient transport retries.
    pub fn total_retries(&self) -> u64 {
        self.batches.iter().map(|b| b.n_retries).sum()
    }

    /// Total speculative duplicate leases issued.
    pub fn total_speculated(&self) -> usize {
        self.batches.iter().map(|b| b.n_spec_issued).sum()
    }

    /// Total speculative races won by the duplicate.
    pub fn total_spec_wins(&self) -> usize {
        self.batches.iter().map(|b| b.n_spec_wins).sum()
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

impl PhaseTrace {
    /// Serialize as TSV: a header line, then one line per batch with the
    /// task cells comma-joined. Lets experiment drivers replay recorded
    /// traces through `pfam-sim` without re-running the clustering.
    pub fn to_tsv(&self) -> String {
        let mut out = format!(
            "#index_residues={}\tnodes_visited={}\n",
            self.index_residues, self.nodes_visited
        );
        out.push_str(
            "#n_generated\tn_filtered\tn_aligned\ttask_cells\tcells_computed\tcells_skipped\tn_requeued\tn_retries\tn_spec_issued\tn_spec_wins\tn_ledger_hits\n",
        );
        for b in &self.batches {
            let cells: Vec<String> = b.task_cells.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                b.n_generated,
                b.n_filtered,
                b.n_aligned,
                cells.join(","),
                b.cells_computed,
                b.cells_skipped,
                b.n_requeued,
                b.n_retries,
                b.n_spec_issued,
                b.n_spec_wins,
                b.n_ledger_hits
            ));
        }
        out
    }

    /// Parse the format written by [`PhaseTrace::to_tsv`].
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
        let mut batches = Vec::new();
        for line in lines.filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let n_cols = line.split('\t').count();
            let mut cols = line.split('\t');
            let mut next_num = |name: &str| -> Result<usize, String> {
                cols.next()
                    .ok_or_else(|| format!("missing column {name}"))?
                    .parse()
                    .map_err(|_| format!("bad {name} in: {line}"))
            };
            let n_generated = next_num("n_generated")?;
            let n_filtered = next_num("n_filtered")?;
            let n_aligned = next_num("n_aligned")?;
            let cells_col = cols.next().unwrap_or("");
            let task_cells: Vec<u64> = if cells_col.is_empty() {
                Vec::new()
            } else {
                cells_col
                    .split(',')
                    .map(|c| c.parse().map_err(|_| format!("bad cell count: {c}")))
                    .collect::<Result<_, _>>()?
            };
            if task_cells.len() != n_aligned {
                return Err(format!(
                    "n_aligned {} disagrees with {} task cells",
                    n_aligned,
                    task_cells.len()
                ));
            }
            // Engine, recovery and ledger counters: absent in traces
            // written before the tiered engine / recovery plane / pair
            // ledger existed — default to 0 for backward compatibility.
            let mut next_u64 = |name: &str| -> Result<u64, String> {
                match cols.next() {
                    None => Ok(0),
                    Some(v) => v.parse().map_err(|_| format!("bad {name} in: {line}")),
                }
            };
            let cells_computed = next_u64("cells_computed")?;
            let cells_skipped = next_u64("cells_skipped")?;
            // Traces written while the stealing scheduler existed carry
            // `n_chunks` and `n_steals` here (8 or 12 columns in all):
            // read past them.
            if matches!(n_cols, 8 | 12) {
                next_u64("n_chunks")?;
                next_u64("n_steals")?;
            }
            let n_requeued = next_u64("n_requeued")? as usize;
            let n_retries = next_u64("n_retries")?;
            let n_spec_issued = next_u64("n_spec_issued")? as usize;
            let n_spec_wins = next_u64("n_spec_wins")? as usize;
            let n_ledger_hits = next_u64("n_ledger_hits")? as usize;
            batches.push(BatchRecord {
                n_generated,
                n_filtered,
                n_aligned,
                align_cells: task_cells.iter().sum(),
                task_cells,
                cells_computed,
                cells_skipped,
                n_requeued,
                n_retries,
                n_spec_issued,
                n_spec_wins,
                n_ledger_hits,
            });
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
        trace.batches[0].n_requeued = 3;
        trace.batches[0].n_retries = 6;
        trace.batches[1].n_spec_issued = 2;
        trace.batches[1].n_spec_wins = 1;
        trace.batches[1].n_ledger_hits = 5;
        let text = trace.to_tsv();
        let back = PhaseTrace::from_tsv(&text).expect("own output parses");
        assert_eq!(back.index_residues, trace.index_residues);
        assert_eq!(back.nodes_visited, trace.nodes_visited);
        assert_eq!(back.batches, trace.batches);
        assert_eq!(back.total_requeued(), 3);
        assert_eq!(back.total_retries(), 6);
        assert_eq!(back.total_speculated(), 2);
        assert_eq!(back.total_spec_wins(), 1);
        assert_eq!(back.total_ledger_hits(), 5);
    }

    #[test]
    fn tsv_without_recovery_columns_defaults_to_zero() {
        // A trace written before the recovery plane existed.
        let old = "#index_residues=1\tnodes_visited=0\n#h\n2\t1\t1\t50\t50\t0\n";
        let trace = PhaseTrace::from_tsv(old).expect("old traces still parse");
        assert_eq!(trace.batches[0].n_requeued, 0);
        assert_eq!(trace.batches[0].n_retries, 0);
        assert_eq!(trace.batches[0].n_spec_issued, 0);
        assert_eq!(trace.batches[0].n_spec_wins, 0);
    }

    #[test]
    fn tsv_with_retired_scheduler_columns_still_parses() {
        // Traces written while `n_chunks`/`n_steals` existed: the two
        // columns are read past, the ones after them land where they belong.
        let pr7 = "#index_residues=1\tnodes_visited=0\n#h\n2\t1\t1\t50\t50\t0\t4\t2\t3\t6\t2\t1\n";
        let b = &PhaseTrace::from_tsv(pr7).expect("12-column traces parse").batches[0];
        assert_eq!((b.n_requeued, b.n_retries, b.n_spec_issued, b.n_spec_wins), (3, 6, 2, 1));
        let pr6 = "#index_residues=1\tnodes_visited=0\n#h\n2\t1\t1\t50\t50\t0\t4\t2\n";
        let b = &PhaseTrace::from_tsv(pr6).expect("8-column traces parse").batches[0];
        assert_eq!((b.cells_computed, b.n_requeued), (50, 0));
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
        assert!(PhaseTrace::from_tsv("").is_err());
        assert!(PhaseTrace::from_tsv("not a header\n").is_err());
        assert!(PhaseTrace::from_tsv("#index_residues=1\tnodes_visited=2\n#h\nbad\n").is_err());
        // Inconsistent n_aligned vs cell count.
        let bad = "#index_residues=1\tnodes_visited=0\n#h\n3\t1\t2\t5\n";
        assert!(PhaseTrace::from_tsv(bad).is_err());
    }
}
