//! CCD driver benchmark: every clustering driver — all thin compositions
//! over the shared `ClusterCore` state machine — timed on the same
//! paper-like workload, emitting a machine-readable `BENCH_ccd.json` with
//! pairs-per-second per driver.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin ccd_bench [scale]
//! cargo run --release -p pfam-bench --bin ccd_bench -- --test   # smoke
//! ```
//!
//! `--test` runs a tiny single-rep smoke pass and prints the JSON to
//! stdout instead of writing the file. The bench asserts — and records —
//! that every driver returns identical connected components.
//!
//! The `batched` and `from_pairs` rows run `drive_batched`, which fills a
//! window of pairs ahead of admission, so they also pay for the fills of
//! the pairs CCD then defers (`CcdResult::filled_ahead`). Only the back
//! half of `pfam run` reuses those verdicts; this bench stops at CCD and
//! throws them away. A loop that fills only admitted batches therefore
//! looks cheaper here than it is in the program. On a 2-core host a leased
//! pull loop, since deleted, read 0.030–0.053 s against 0.048–0.055 s for
//! `batched` at the default scale (faster in 4 of 5 runs), and 1.47–2.05 s
//! against 1.38–1.51 s at scale 4 (slower in 3 of 3); run as `pfam run`'s
//! CCD loop it was slower in median on every benchmark workload. A choice
//! between loops is made on `pfam run` end to end, not on this bench.

use pfam_bench::{
    commit_stamp, cores_field, dataset_160k_like, detected_cores, emit, time_min, BenchArgs,
};
use pfam_cluster::{run_ccd, run_ccd_from_pairs, run_ccd_spmd, CcdResult, ClusterConfig};
use pfam_seq::SequenceSet;
use pfam_suffix::{
    parallel_pairs, GeneralizedSuffixArray, MatchPair, MaximalMatchConfig, SuffixTree,
};

/// One driver's timing row.
struct Row {
    driver: &'static str,
    seconds: f64,
    pairs: u64,
    result: CcdResult,
}

impl Row {
    fn pairs_per_sec(&self) -> f64 {
        self.pairs as f64 / self.seconds
    }
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale(0.02, 0.15);
    let reps = args.reps();

    let data = dataset_160k_like(scale, 0xccd);
    let set = &data.set;
    let config = ClusterConfig::default();
    eprintln!(
        "ccd_bench: {} ({} reads, {} residues), {} rep(s)",
        data.label,
        set.len(),
        set.total_residues(),
        reps
    );

    // The explicit pair stream for the ablation driver (identical to what
    // the mined sources produce with the default, mask-free config).
    let pairs = mine_pairs(set, &config);
    eprintln!("ccd_bench: {} promising pairs", pairs.len());

    let mut rows: Vec<Row> = Vec::new();
    let mut push = |driver: &'static str, seconds: f64, result: CcdResult| {
        let pairs = result.trace.total_generated() as u64;
        rows.push(Row { driver, seconds, pairs, result });
    };

    let (s, r) = time_min(reps, || run_ccd(set, &config));
    push("batched", s, r);
    let (s, r) = time_min(reps, || run_ccd_from_pairs(set, pairs.clone(), &config));
    push("from_pairs", s, r);
    let (s, r) = time_min(reps, || run_ccd_spmd(set, &config, 3));
    push("spmd", s, r);

    // Identical components — the whole point of the ClusterCore refactor.
    let reference = &rows[0].result.components;
    let identical = rows.iter().all(|row| &row.result.components == reference);
    assert!(identical, "a driver diverged from the batched components — this is a bug");

    let driver_rows: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{ \"driver\": \"{}\", \"seconds\": {:.6}, \"pairs\": {}, \"pairs_per_sec\": {:.0}, \"n_components\": {} }}",
                row.driver,
                row.seconds,
                row.pairs,
                row.pairs_per_sec(),
                row.result.components.len()
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"ccd\",\n",
            "  \"commit\": \"{commit}\",\n",
            "  \"dataset\": \"{label}\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  \"n_pairs\": {n_pairs},\n",
            "  \"reps\": {reps},\n",
            "  {cores_field},\n",
            "  \"components_identical\": {identical},\n",
            "  \"drivers\": [\n{rows}\n  ]\n",
            "}}\n"
        ),
        commit = commit_stamp(),
        label = data.label,
        n_seqs = set.len(),
        n_pairs = pairs.len(),
        reps = reps,
        cores_field = cores_field(detected_cores()),
        identical = identical,
        rows = driver_rows.join(",\n"),
    );

    let best = rows
        .iter()
        .max_by(|a, b| a.pairs_per_sec().total_cmp(&b.pairs_per_sec()))
        .expect("at least one driver");
    eprintln!(
        "ccd_bench: fastest driver: {} at {:.0} pairs/sec (components identical)",
        best.driver,
        best.pairs_per_sec()
    );
    emit("ccd", &json, args.smoke);
}

/// Mine the full promising-pair stream once (no masking in the default
/// config, so the raw index view matches the drivers' own supply).
fn mine_pairs(set: &SequenceSet, config: &ClusterConfig) -> Vec<MatchPair> {
    let gsa = GeneralizedSuffixArray::build(set);
    let tree = SuffixTree::build(&gsa);
    let matches = MaximalMatchConfig {
        min_len: config.psi_ccd,
        max_pairs_per_node: config.max_pairs_per_node,
        dedup: true,
    };
    parallel_pairs(&tree, matches, 1).0
}
