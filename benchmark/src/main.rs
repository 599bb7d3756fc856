//! `pfam-benchmark` — the end-to-end and per-layer benchmark of the `pfam`
//! CLI, measured from outside the program. Started by `benchmark/run.sh`,
//! which builds `pfam` and this driver first; see `benchmark/README.md`.
//!
//! One invocation measures one workload:
//!
//! ```text
//! pfam-benchmark --pfam BIN --out-dir DIR --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! and prints, as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Without `--workload`
//! it measures every workload both ways and prints every metric by name.

mod adapter;
mod cli;
mod gen;
mod quality;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cli::{Invocation, TableOne, Usage};
use quality::Quality;
use workloads::{Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

/// Timed repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// Times a `--trace 0` run sets the workload up; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// In-process repetitions of the traced pass; the fastest is reported.
const TRACED_PASSES: usize = 2;
/// Budgeted-but-not-checkpointed runs behind `core.ckpt_overhead_s`.
const OVERHEAD_REPS: usize = 3;

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("precision", "ratio"),
    ("sensitivity", "ratio"),
    ("setup_s", "s"),
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("seq.fasta_parse_s", "s"),
    ("seq.fasta_mb_per_s", "MB/s"),
    ("seq.residues", "count"),
    ("suffix.gsa_rr_s", "s"),
    ("suffix.gsa_ccd_s", "s"),
    ("suffix.tree_s", "s"),
    ("suffix.mine_rr_s", "s"),
    ("suffix.mine_ccd_s", "s"),
    ("suffix.pairs_rr", "count"),
    ("suffix.pairs_ccd", "count"),
    ("suffix.index_residues_per_s", "1/s"),
    ("suffix.index_bytes_est", "bytes"),
    ("suffix.part_mine_s", "s"),
    ("suffix.part_chunks", "count"),
    ("suffix.part_slowdown", "ratio"),
    ("align.cells_rr", "count"),
    ("align.cells_ccd", "count"),
    ("align.cells_bgg", "count"),
    ("align.cells_skipped", "count"),
    ("align.n_alignments", "count"),
    ("align.replay_gcells_per_s", "Gcells/s"),
    ("align.tier0_share", "ratio"),
    ("align.tier1_share", "ratio"),
    ("align.tier2_share", "ratio"),
    ("align.tier3_share", "ratio"),
    ("cluster.rr_s", "s"),
    ("cluster.ccd_s", "s"),
    ("cluster.rr_nonindex_s", "s"),
    ("cluster.ccd_nonindex_s", "s"),
    ("cluster.rr_generated", "count"),
    ("cluster.rr_filtered", "count"),
    ("cluster.rr_aligned", "count"),
    ("cluster.ccd_generated", "count"),
    ("cluster.ccd_filtered", "count"),
    ("cluster.ccd_aligned", "count"),
    ("cluster.ccd_filter_ratio", "ratio"),
    ("cluster.n_nonredundant", "count"),
    ("cluster.n_components", "count"),
    ("cluster.bgg_s", "s"),
    ("cluster.bgg_pairs", "count"),
    ("cluster.bgg_edges", "count"),
    ("graph.bipartite_s", "s"),
    ("graph.bipartite_edges", "count"),
    ("shingle.dsd_s", "s"),
    ("shingle.pass1_shingles", "count"),
    ("shingle.pass2_shingles", "count"),
    ("shingle.n_dense_subgraphs", "count"),
    ("core.pipeline_s", "s"),
    ("core.back_half_s", "s"),
    ("core.span_cover", "ratio"),
    ("core.largest_component", "count"),
    ("core.ckpt_bytes", "bytes"),
    ("core.ckpt_overhead_s", "s"),
    ("core.rss_over_budget", "ratio"),
    ("core.budget_output_identical", "count"),
    ("cli.cores_busy", "cores"),
    ("cli.wall_median_s", "s"),
    ("cli.build_s", "s"),
    ("trace.cli_gap_share", "ratio"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Print `workload <TAB> metric <TAB> value <TAB> unit` lines, not JSON.
    table: bool,
    pfam: PathBuf,
    out_dir: PathBuf,
    build_ms: u64,
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        table: false,
        pfam: PathBuf::new(),
        out_dir: PathBuf::new(),
        build_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--table" => args.table = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = parsed(&flag, &value()?)?,
            "--seconds" => args.seconds = parsed(&flag, &value()?)?,
            "--trace" => args.trace = parsed::<u8>(&flag, &value()?)? != 0,
            "--pfam" => args.pfam = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--build-ms" => args.build_ms = parsed(&flag, &value()?)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.pfam.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        return Err("--pfam and --out-dir are required (use benchmark/run.sh)".into());
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The files of one workload under the output directory.
struct Files {
    fasta: PathBuf,
    truth: PathBuf,
    families: PathBuf,
    stdout: PathBuf,
    checkpoints: PathBuf,
}

/// What setting a workload up leaves behind for the measured runs.
struct Prepared {
    /// FASTA header → read index.
    index_of: HashMap<String, usize>,
    /// Ground-truth label per read index.
    labels: Vec<String>,
    mem_budget: Option<u64>,
}

/// Operations attempted and failed; why one failed goes to standard error.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

struct Runner<'a> {
    workload: &'a Workload,
    args: &'a Args,
    files: Files,
}

impl Runner<'_> {
    fn invocation(&self, mem_budget: Option<u64>, checkpointed: bool) -> Invocation<'_> {
        Invocation {
            pfam: &self.args.pfam,
            fasta: &self.files.fasta,
            out: &self.files.families,
            stdout: &self.files.stdout,
            mem_budget,
            checkpoint_dir: checkpointed.then_some(self.files.checkpoints.as_path()),
        }
    }

    /// The workload's own invocation: `pfam run` under its budget, or
    /// `pfam cluster`.
    fn measured(&self, p: &Prepared) -> Invocation<'_> {
        self.invocation(p.mem_budget, p.mem_budget.is_some())
    }

    /// Generate FASTA and truth from the seed and check the file written is
    /// the file generated (and, at the default seed, the pinned one).
    fn generate(&self) -> Result<Prepared, String> {
        let reads = self.workload.recipe(self.args.smoke).generate(self.args.seed);
        let fasta = gen::fasta_bytes(&reads);
        let io = |e: std::io::Error| format!("writing the workload: {e}");
        std::fs::write(&self.files.fasta, &fasta).map_err(io)?;
        gen::write_truth(&reads, &self.files.truth).map_err(io)?;
        let written = gen::fnv64(&std::fs::read(&self.files.fasta).map_err(io)?);
        let pinned = self.args.seed == DEFAULT_SEED && !self.args.smoke;
        if written != gen::fnv64(&fasta) || (pinned && written != self.workload.default_seed_fnv64)
        {
            return Err(format!("generator checksum mismatch ({written:#018x})"));
        }
        let n_residues = reads.iter().map(|r| r.residues.len()).sum();
        let mem_budget = self.workload.budget_share.map(|share| {
            (share * adapter::index_bytes_estimate(n_residues, reads.len()) as f64) as u64
        });
        let (headers, labels): (Vec<String>, Vec<String>) =
            reads.into_iter().map(|r| (r.header, r.label)).unzip();
        let index_of = headers.into_iter().enumerate().map(|(i, h)| (h, i)).collect();
        Ok(Prepared { index_of, labels, mem_budget })
    }

    /// One subprocess run and the checks on what it wrote. `Err` is a failed
    /// operation.
    fn run_checked(
        &self,
        inv: &Invocation<'_>,
        p: &Prepared,
    ) -> Result<(Usage, TableOne, Quality), String> {
        let (usage, table_one) = inv.run()?;
        let text = std::fs::read_to_string(&self.files.families)
            .map_err(|e| format!("reading families.tsv: {e}"))?;
        let families = cli::parse_families(&text, &p.index_of)?;
        if families.len() != table_one.2 {
            return Err(format!("{} families written, {} reported", families.len(), table_one.2));
        }
        let quality = quality::pairwise(&families, &p.labels);
        // The floors belong to the full-size workloads.
        if !self.args.smoke
            && (quality.precision < self.workload.precision_floor
                || quality.sensitivity < self.workload.sensitivity_floor)
        {
            return Err(format!("quality under its floor: {quality:?}"));
        }
        Ok((usage, table_one, quality))
    }
}

/// The result of measuring one workload one way.
struct Outcome {
    tally: Tally,
    metrics: BTreeMap<&'static str, f64>,
}

fn measure(workload: &'static Workload, args: &Args, traced: bool) -> Result<Outcome, String> {
    let dir = args.out_dir.join(workload.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let runner = Runner {
        workload,
        args,
        files: Files {
            fasta: dir.join("reads.fasta"),
            truth: dir.join("truth.tsv"),
            families: dir.join("families.tsv"),
            stdout: dir.join("stdout.txt"),
            checkpoints: dir.join("checkpoints"),
        },
    };
    let mut tally = Tally::default();

    // ---- set-up: generate, verify, one discarded warm-up run ----
    let rounds = if traced || args.smoke { 1 } else { SETUP_ROUNDS };
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..rounds {
        let started = Instant::now();
        let p = runner.generate()?;
        tally.record("warm-up run", runner.run_checked(&runner.measured(&p), &p));
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up round");

    // ---- timed repetitions, closed loop, one process at a time ----
    let (window, min_reps) = match (args.smoke, traced) {
        (true, _) => (0.0, 1),
        // The traced pass needs the other half of the time.
        (false, true) => (args.seconds / 2.0, 3),
        (false, false) => (args.seconds, MIN_REPS),
    };
    let mut runs: Vec<(Usage, TableOne, Quality)> = Vec::new();
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps || started.elapsed().as_secs_f64() < window {
        reps += 1;
        let outcome =
            runner.run_checked(&runner.measured(&p), &p).and_then(|run| match runs.first() {
                Some(first) if first.1 != run.1 => {
                    Err(format!("Table-I row changed from {:?} to {:?}", first.1, run.1))
                }
                _ => Ok(run),
            });
        runs.extend(tally.record("timed run", outcome));
    }
    let (_, table_one, quality) = *runs.first().ok_or("every timed run failed")?;
    let walls: Vec<f64> = runs.iter().map(|r| r.0.wall_s).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.0.cpu_s).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.0.peak_rss_mb).collect();
    let (wall_s, cpu_s, peak_rss_mb) = (minimum(&walls), minimum(&cpus), median(&rss));
    eprintln!(
        "{}: n = {} wall min/median/max = {:.3}/{:.3}/{:.3} s",
        workload.name,
        walls.len(),
        wall_s,
        median(&walls),
        walls.iter().copied().fold(0.0, f64::max)
    );

    if !traced {
        let metrics = BTreeMap::from([
            ("wall_s", wall_s),
            ("cpu_s", cpu_s),
            ("peak_rss_mb", peak_rss_mb),
            ("precision", quality.precision),
            ("sensitivity", quality.sensitivity),
            ("setup_s", median(&setup_s)),
        ]);
        return Ok(Outcome { tally, metrics });
    }
    let timed = Timed { table_one, wall_s, cpu_s, peak_rss_mb, wall_median_s: median(&walls) };
    let metrics = traced_metrics(&runner, &p, &timed, &mut tally)?;
    Ok(Outcome { tally, metrics })
}

/// What the timed repetitions of a `--trace 1` run hand to its traced half.
struct Timed {
    table_one: TableOne,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    wall_median_s: f64,
}

/// What the budget of a budgeted workload costs, from three more kinds of
/// subprocess run; zeros for a workload without one.
fn budget_metrics(
    runner: &Runner<'_>,
    p: &Prepared,
    timed: &Timed,
    tally: &mut Tally,
) -> Result<[(&'static str, f64); 4], String> {
    let mut metrics = [
        ("core.ckpt_bytes", 0.0),
        ("core.ckpt_overhead_s", 0.0),
        ("core.rss_over_budget", 0.0),
        ("core.budget_output_identical", 0.0),
    ];
    let Some(budget) = p.mem_budget else {
        return Ok(metrics);
    };
    let ckpt_bytes: u64 = std::fs::read_dir(&runner.files.checkpoints)
        .map_err(|e| format!("checkpoint directory: {e}"))?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let budgeted_output = std::fs::read(&runner.files.families).ok();
    let unckpt: Vec<f64> = (0..if runner.args.smoke { 1 } else { OVERHEAD_REPS })
        .filter_map(|_| {
            let inv = runner.invocation(Some(budget), false);
            tally.record("budgeted cluster run", runner.run_checked(&inv, p))
        })
        .map(|run| run.0.wall_s)
        .collect();
    let inv = runner.invocation(None, false);
    if let Some(run) = tally.record("unbudgeted cluster run", runner.run_checked(&inv, p)) {
        let name = runner.workload.name;
        eprintln!("{name}: unbudgeted `pfam cluster` wall = {:.3} s", run.0.wall_s);
    }
    let identical =
        budgeted_output.is_some() && budgeted_output == std::fs::read(&runner.files.families).ok();
    metrics[0].1 = ckpt_bytes as f64;
    metrics[1].1 = timed.wall_s - minimum(&unckpt);
    metrics[2].1 = timed.peak_rss_mb * (1 << 20) as f64 / budget as f64;
    metrics[3].1 = identical as u8 as f64;
    Ok(metrics)
}

/// The per-layer metrics: every remaining subprocess first (see `cli` on why
/// the driver must still be small), then the traced pass in process.
fn traced_metrics(
    runner: &Runner<'_>,
    p: &Prepared,
    timed: &Timed,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let budget_metrics = budget_metrics(runner, p, timed, tally)?;
    let name = runner.workload.name;

    // Interference only adds time, so the quietest repetition is reported,
    // whole: its spans sum to its own total.
    let mut best: Option<(adapter::Traced, trace::Tracer)> = None;
    for _ in 0..if runner.args.smoke { 1 } else { TRACED_PASSES } {
        let mut tracer = trace::Tracer::new(name);
        let pass = adapter::traced_pass(&runner.files.fasta, p.mem_budget, &mut tracer);
        let agrees = if pass.table_one == timed.table_one {
            Ok(())
        } else {
            Err(format!("{:?} in process, {:?} from the CLI", pass.table_one, timed.table_one))
        };
        tally.record("traced pass", agrees);
        let total = |t: &adapter::Traced| t.metrics["core.pipeline_s"];
        eprintln!("{name}: traced pass, pipeline {:.3} s", total(&pass));
        if best.as_ref().is_none_or(|(b, _)| total(&pass) < total(b)) {
            best = Some((pass, tracer));
        }
    }
    let (pass, tracer) = best.expect("at least one traced pass");
    tracer
        .write_jsonl(&runner.args.out_dir.join(format!("trace-{name}.jsonl")))
        .map_err(|e| format!("writing the trace: {e}"))?;

    let mut metrics = pass.metrics;
    metrics.extend(budget_metrics);
    metrics.insert("cli.cores_busy", timed.cpu_s / timed.wall_s);
    metrics.insert("cli.wall_median_s", timed.wall_median_s);
    metrics.insert("cli.build_s", runner.args.build_ms as f64 / 1e3);
    metrics.insert(
        "trace.cli_gap_share",
        (timed.wall_s - metrics["seq.fasta_parse_s"] - metrics["core.pipeline_s"]) / timed.wall_s,
    );
    Ok(metrics)
}

/// The result line of the benchmark contract.
fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value =
            *outcome.metrics.get(name).ok_or_else(|| format!("metric {name} not measured"))?;
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(name) = &args.workload {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == *name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let outcome = measure(workload, args, args.trace)?;
        let names = if args.trace { PER_LAYER } else { END_TO_END };
        if args.table {
            for &(metric, unit) in names {
                println!("{name}\t{metric}\t{}\t{unit}", outcome.metrics[metric]);
            }
            let pass = if args.trace { "traced" } else { "timed" };
            println!("{name}\t{pass}.attempted\t{}\tcount", outcome.tally.attempted);
            println!("{name}\t{pass}.failed\t{}\tcount", outcome.tally.failed);
            if outcome.tally.failed > 0 {
                return Err(format!("{} operations failed", outcome.tally.failed));
            }
        } else {
            println!("{}", result_json(&outcome, names)?);
        }
        return Ok(());
    }
    // Every workload, both ways, every metric by name. Each measurement gets
    // a driver process of its own: a child's peak RSS is never reported
    // below the RSS of the process that spawned it (see `cli`), and this one
    // would grow with every traced pass.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host\tnproc\t{nproc}\tcores");
    println!("host\talign_kernel\t{}\t-", adapter::kernel_label());
    let own = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut driver = std::process::Command::new(&own);
            driver.args(std::env::args_os().skip(1));
            driver.args(["--workload", workload.name, "--trace", trace, "--table"]);
            let status = driver.status().map_err(|e| format!("cannot start the driver: {e}"))?;
            if !status.success() {
                return Err(format!("{} --trace {trace}: {status}", workload.name));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pfam-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_minimum() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
    }
}
