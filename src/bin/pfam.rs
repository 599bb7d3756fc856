//! `pfam` — command-line front end for the protein-family pipeline.
//!
//! ```text
//! pfam generate --out reads.fasta [--families N] [--members N] [--seed N]
//! pfam cluster  <input.fasta> [--out families.tsv] [--tau F]
//!               [--min-size N] [--mask] [--psi N]
//!               [--mem-budget BYTES[K|M|G]] [--save-trace PREFIX]
//! pfam run      <input.fasta> --checkpoint-dir <dir> [--resume]
//!               [+ every `cluster` flag]
//! pfam replay   <trace.tsv>... [--procs 32,64,128,512]
//! pfam align    <input.fasta> <i> <j>
//! pfam stats    <input.fasta>
//! ```
//!
//! `cluster` and `run` are one program: `cluster` is `run` without a
//! checkpoint directory. `run` writes one file per finished unit, once:
//! RR's end, CCD's end, and each finished component of the back half —
//! there is no cadence flag. A
//! flag the subcommand does not take (see [`FLAGS`]) is an error, not a
//! silent no-op.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use pfam::cluster::{ClusterConfig, PhaseTrace};
use pfam::core::{run_pipeline, FillReport, PipelineConfig, PipelineHooks, Reduction, TableOneRow};
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::seq::complexity::{masked_fraction, MaskParams};
use pfam::seq::fasta::{read_fasta, write_fasta};
use pfam::seq::{LengthStats, SequenceSet};
use pfam::sim::{simulate_phase, MachineModel};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `pfam --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let handler: fn(&[String]) -> Result<(), String> = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate,
        Some("cluster") | Some("run") => cmd_cluster,
        Some("replay") => cmd_replay,
        Some("align") => cmd_align,
        Some("stats") => cmd_stats,
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            return Ok(());
        }
        Some(other) => return Err(format!("unknown command: {other}")),
    };
    check_flags(&args[0], &args[1..])?;
    handler(&args[1..])
}

const USAGE: &str = "pfam — parallel protein family identification\n\
    (reproduction of Wu & Kalyanaraman, SC 2008)\n\n\
    USAGE:\n\
    \x20 pfam generate --out <fasta> [--families N] [--members N] [--seed N]\n\
    \x20 pfam cluster  <input.fasta> [--out <tsv>] [--tau F]\n\
    \x20               [--min-size N] [--mask] [--psi N]\n\
    \x20               [--mem-budget BYTES[K|M|G]] (routes on resident index\n\
    \x20               bytes, 7.06 B per text position: under them the text\n\
    \x20               is held and its suffixes mined in windows that fit,\n\
    \x20               same families. Outside it: the sort's bucket tables\n\
    \x20               and the process's fixed footprint, so peak RSS reads\n\
    \x20               higher than BYTES)\n\
    \x20               [--save-trace PREFIX] (a finished run writes its work\n\
    \x20               traces to PREFIX.{rr,ccd,bgg}.trace.tsv, for `replay`)\n\
    \x20 pfam run      <input.fasta> --checkpoint-dir <dir> [--resume]\n\
    \x20               [+ every `cluster` flag]\n\
    \x20               (`cluster` that snapshots each phase and can resume;\n\
    \x20               RR, CCD and each finished component are written\n\
    \x20               once, when they finish)\n\
    \x20 pfam replay   <trace.tsv>... [--procs 32,64,128,512]\n\
    \x20               (each trace on the BlueGene/L model, one row each)\n\
    \x20 pfam align    <input.fasta> <i> <j>   (pairwise local alignment)\n\
    \x20 pfam stats    <input.fasta>\n";

const CLUSTER: &[&str] = &["cluster", "run"];
/// The flags `run` takes on top of `cluster`'s.
const CHECKPOINT: &[&str] = &["run"];

/// Every flag `pfam` knows: name, whether it takes a value, and the
/// subcommands that read it. Anything else starting with `--` is an error.
const FLAGS: &[(&str, bool, &[&str])] = &[
    ("--out", true, &["generate", "cluster", "run"]),
    ("--families", true, &["generate"]),
    ("--members", true, &["generate"]),
    ("--seed", true, &["generate"]),
    ("--tau", true, CLUSTER),
    ("--min-size", true, CLUSTER),
    ("--mask", false, CLUSTER),
    ("--psi", true, CLUSTER),
    ("--mem-budget", true, CLUSTER),
    ("--save-trace", true, CLUSTER),
    ("--checkpoint-dir", true, CHECKPOINT),
    ("--resume", false, CHECKPOINT),
    ("--procs", true, &["replay"]),
];

fn takes_value(flag: &str) -> bool {
    FLAGS.iter().any(|&(name, value, _)| name == flag && value)
}

/// Reject every `--flag` that `cmd` does not read, every value flag left
/// without its value, and every flag given twice (only its first
/// occurrence would be read).
fn check_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            continue;
        }
        if seen.contains(&a.as_str()) {
            return Err(format!("{a} given twice"));
        }
        seen.push(a);
        let Some(&(_, value, _)) =
            FLAGS.iter().find(|&&(name, _, cmds)| name == a && cmds.contains(&cmd))
        else {
            return Err(format!("`{cmd}` does not take {a}"));
        };
        if value && args.next().is_none() {
            return Err(format!("{a} needs a value"));
        }
    }
    Ok(())
}

/// Pull `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {flag}: {v}")),
    }
}

/// Parse a byte-count flag accepting `K`/`M`/`G` suffixes (powers of
/// 1024); absent means `default`.
fn parse_bytes(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    let Some(v) = flag_value(args, flag) else {
        return Ok(default);
    };
    let (digits, mult) = match v.chars().last() {
        Some('K') | Some('k') => (&v[..v.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&v[..v.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v.as_str(), 1),
    };
    let n: u64 = digits.parse().map_err(|_| format!("invalid value for {flag}: {v}"))?;
    n.checked_mul(mult).ok_or_else(|| format!("value for {flag} overflows u64: {v}"))
}

/// `--procs` of `replay`: the simulated machine sizes. Each is a master
/// plus at least one worker, so a count below 2 is an error before any
/// work starts.
fn parse_procs(args: &[String]) -> Result<Vec<usize>, String> {
    flag_value(args, "--procs")
        .unwrap_or_else(|| "32,64,128,512".to_owned())
        .split(',')
        .map(|s| match s.trim().parse() {
            Ok(p) if p >= 2 => Ok(p),
            Ok(p) => {
                Err(format!("invalid processor count: {p} (a master and at least one worker)"))
            }
            Err(_) => Err(format!("invalid processor count: {s}")),
        })
        .collect()
}

/// The free-standing arguments: neither a flag nor the value of one.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut skip_next = false;
    let mut found = Vec::new();
    for a in args {
        if skip_next {
            skip_next = false;
        } else if takes_value(a) {
            skip_next = true;
        } else if !a.starts_with("--") {
            found.push(a);
        }
    }
    found
}

fn load_fasta(args: &[String]) -> Result<SequenceSet, String> {
    let path = *positionals(args).first().ok_or("missing input FASTA path")?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let set = read_fasta(BufReader::new(file)).map_err(|e| format!("parsing {path}: {e}"))?;
    if set.is_empty() {
        return Err(format!("{path} contains no sequences"));
    }
    eprintln!("loaded {} sequences ({} residues) from {path}", set.len(), set.total_residues());
    Ok(set)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out").ok_or("generate requires --out <fasta>")?;
    let n_families = parse(args, "--families", 20usize)?;
    if n_families == 0 {
        return Err("invalid value for --families: 0 (at least one family)".to_owned());
    }
    let config = DatasetConfig {
        n_families,
        n_members: parse(args, "--members", 400usize)?,
        seed: parse(args, "--seed", 0xCA3E2Au64)?,
        ..DatasetConfig::default()
    };
    let data = SyntheticDataset::generate(&config);
    let file = File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_fasta(&data.set, BufWriter::new(file), 60).map_err(|e| e.to_string())?;
    // Ground truth alongside, for evaluation workflows.
    let truth_path = format!("{out}.truth.tsv");
    let mut truth = BufWriter::new(
        File::create(&truth_path).map_err(|e| format!("cannot create {truth_path}: {e}"))?,
    );
    writeln!(truth, "#seq_index\tfamily").map_err(|e| e.to_string())?;
    for (i, p) in data.provenance.iter().enumerate() {
        let fam = p.family().map_or("-".to_owned(), |f| f.to_string());
        writeln!(truth, "{i}\t{fam}").map_err(|e| e.to_string())?;
    }
    println!("wrote {} reads to {out} (ground truth: {truth_path})", data.set.len());
    Ok(())
}

/// Build the validated pipeline configuration of `cluster` / `run` from
/// the flag set.
fn pipeline_config(args: &[String]) -> Result<(PipelineConfig, usize), String> {
    let tau: f64 = parse(args, "--tau", 0.5)?;
    let min_size: usize = parse(args, "--min-size", 5usize)?;
    let mut cluster = ClusterConfig::default();
    if let Some(psi) = flag_value(args, "--psi") {
        cluster.psi_ccd = psi.parse().map_err(|_| format!("invalid --psi: {psi}"))?;
    }
    if flag_present(args, "--mask") {
        cluster.mask = Some(MaskParams::default());
    }
    let config = PipelineConfig {
        cluster,
        reduction: Reduction::GlobalSimilarity { tau },
        min_component_size: min_size,
        min_subgraph_size: min_size,
        ..PipelineConfig::default()
    }
    .with_mem_budget(parse_bytes(args, "--mem-budget", 0)?);
    let problems = pfam::core::validate(&config);
    if !problems.is_empty() {
        return Err(problems.iter().map(ToString::to_string).collect::<Vec<_>>().join("; "));
    }
    Ok((config, min_size))
}

/// Where `cluster` / `run` keep snapshots, from the checkpoint flags
/// (which [`FLAGS`] lets only `run` carry).
fn pipeline_hooks(args: &[String]) -> Result<PipelineHooks, String> {
    let Some(dir) = flag_value(args, "--checkpoint-dir") else {
        // The other checkpoint flags only say how to use the directory.
        let stray =
            FLAGS.iter().find(|&&(name, _, cmds)| cmds == CHECKPOINT && flag_present(args, name));
        return match stray {
            Some((name, ..)) => Err(format!("{name} needs --checkpoint-dir <dir>")),
            None => Ok(PipelineHooks::default()),
        };
    };
    Ok(PipelineHooks {
        checkpoint: Some(std::path::PathBuf::from(dir)),
        resume: flag_present(args, "--resume"),
    })
}

/// `cluster` and `run`: the pipeline over a FASTA file. Prints the Table-I
/// row (stdout) and where the alignments went (stderr), and writes
/// `families.tsv` — and, under `--save-trace`, the run's work traces.
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let (config, min_size) = pipeline_config(args)?;
    let hooks = pipeline_hooks(args)?;
    // Opened before phase 1, so that a path that cannot be written costs no
    // run; what it holds is replaced only once there is a result.
    let out = flag_value(args, "--out").unwrap_or_else(|| "families.tsv".to_owned());
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&out)
        .map_err(|e| format!("cannot create {out}: {e}"))?;

    let result = run_pipeline(&set, &config, &hooks).map_err(|e| e.to_string())?;
    println!("{}", TableOneRow::header());
    println!("{}", TableOneRow::from_result(&result, min_size));
    eprintln!("{}", FillReport::from_result(&result));
    eprintln!("{}", result.filled_ahead);
    if !result.windows.is_empty() {
        eprintln!("{}", result.windows);
    }
    eprintln!("{}", result.phases);
    if let Some(checkpoints) = result.checkpoints {
        eprintln!("{checkpoints}");
    }

    file.set_len(0).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    writeln!(w, "#family\tsize\tdensity\tmembers (FASTA headers)").map_err(|e| e.to_string())?;
    for (i, ds) in result.dense_subgraphs.iter().enumerate() {
        let headers: Vec<&str> = ds.members.iter().map(|&id| set.header(id)).collect();
        writeln!(w, "{i}\t{}\t{:.2}\t{}", ds.members.len(), ds.density.density, headers.join(","))
            .map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())?;
    println!("{} families written to {out}", result.dense_subgraphs.len());
    if let Some(prefix) = flag_value(args, "--save-trace") {
        let (rr, ccd, bgg) = &result.traces;
        for (phase, trace) in [("rr", rr), ("ccd", ccd), ("bgg", bgg)] {
            let path = format!("{prefix}.{phase}.trace.tsv");
            std::fs::write(&path, trace.to_tsv())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("trace saved to {path}");
        }
    }
    Ok(())
}

/// `replay`: each recorded trace on the BlueGene/L model, one row per
/// trace — its volume, what the master filtered and the ledger answered,
/// and the simulated seconds at every `--procs` count.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let procs = parse_procs(args)?;
    let paths = positionals(args);
    if paths.is_empty() {
        return Err("missing trace path (from cluster / run --save-trace)".to_owned());
    }
    let mut traces = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        traces.push(PhaseTrace::from_tsv(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let machine = MachineModel::bluegene_l();
    let columns: Vec<String> = procs.iter().map(|p| format!("p={p}")).collect();
    println!("trace\tbatches\tpairs\tfilled\tledger hits\tfiltered\t{}", columns.join("\t"));
    for (path, trace) in paths.iter().zip(&traces) {
        let seconds: Vec<String> = procs
            .iter()
            .map(|&p| format!("{:.3}s", simulate_phase(trace, &machine, p).seconds))
            .collect();
        println!(
            "{path}\t{}\t{}\t{}\t{}\t{:.2}%\t{}",
            trace.batches.len(),
            trace.total_generated(),
            trace.total_aligned(),
            trace.total_ledger_hits(),
            trace.filter_ratio() * 100.0,
            seconds.join("\t")
        );
    }
    Ok(())
}

fn cmd_align(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    let indices: Vec<usize> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .skip(1) // the FASTA path
        .map(|a| a.parse().map_err(|_| format!("invalid sequence index: {a}")))
        .collect::<Result<_, _>>()?;
    let [i, j] = indices[..] else {
        return Err("align needs exactly two sequence indices".to_owned());
    };
    if i >= set.len() || j >= set.len() {
        return Err(format!("indices out of range (set has {} sequences)", set.len()));
    }
    let scheme = pfam::seq::ScoringScheme::blosum62_default();
    let (x, y) = (set.codes(pfam::seq::SeqId(i as u32)), set.codes(pfam::seq::SeqId(j as u32)));
    let aln = pfam::align::local_affine(x, y, &scheme);
    let st = aln.stats(x, y, &scheme.matrix);
    println!(
        "local alignment of #{i} ({}) vs #{j} ({}): score {}, {} columns, {:.1}% identity, {:.1}% positives",
        set.header(pfam::seq::SeqId(i as u32)),
        set.header(pfam::seq::SeqId(j as u32)),
        aln.score,
        st.columns,
        st.identity() * 100.0,
        st.similarity() * 100.0
    );
    print!("{}", pfam::align::render_alignment(&aln, x, y, &scheme.matrix, 60));
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let set = load_fasta(args)?;
    println!("{}", LengthStats::of(&set));
    let params = MaskParams::default();
    let masked: f64 =
        set.iter().map(|s| masked_fraction(s.codes, &params) * s.codes.len() as f64).sum::<f64>()
            / set.total_residues() as f64;
    println!("low-complexity residues: {:.2}%", masked * 100.0);
    let comp = pfam::seq::Composition::of(&set);
    println!(
        "composition: entropy {:.2} bits, KL vs background {:.3} bits, X fraction {:.2}%",
        comp.entropy_bits(),
        comp.relative_entropy_vs_background(),
        comp.unknown_fraction() * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn misspelt_flag_is_an_error() {
        let err = check_flags("cluster", &argv("in.fasta --stael")).unwrap_err();
        assert!(err.contains("--stael"), "{err}");
        assert!(check_flags("cluster", &argv("in.fasta --no-such-flag 7")).is_err());
    }

    #[test]
    fn a_machine_below_two_ranks_is_an_error() {
        assert_eq!(parse_procs(&argv("t.tsv")).unwrap(), [32, 64, 128, 512]);
        assert_eq!(parse_procs(&argv("t.tsv --procs 2,8")).unwrap(), [2, 8]);
        for bad in ["1", "0", "32,1", "x", "-3"] {
            let err = parse_procs(&argv(&format!("t.tsv --procs {bad}"))).unwrap_err();
            assert!(err.starts_with("invalid processor count"), "{bad}: {err}");
        }
    }

    #[test]
    fn zero_families_is_an_error_before_any_file() {
        let err = cmd_generate(&argv("--out no-such-dir/reads.fasta --families 0")).unwrap_err();
        assert!(err.contains("--families"), "{err}");
    }

    #[test]
    fn removed_flags_are_errors_not_no_ops() {
        for gone in [
            "--steal",
            "--steal-workers",
            "--shard-driver",
            "--speculate",
            "--poll-ms",
            "--shards",
            "--sketch-banding",
            "--sketch-mode",
            "--sketch-k",
            "--sketch-bands",
            "--sketch-rows",
            "--sketch-width",
            "--sketch-seed",
            "--index-chunk-bytes",
            "--domain",
            "--checkpoint-every",
            "--checkpoint-every-components",
            "--stop-after",
        ] {
            for cmd in CLUSTER {
                let err = check_flags(cmd, &argv(&format!("in.fasta {gone} 2"))).unwrap_err();
                assert!(err.contains(gone), "{err}");
            }
        }
    }

    #[test]
    fn checkpoint_flags_need_a_directory() {
        assert!(pipeline_hooks(&argv("in.fasta")).unwrap().checkpoint.is_none());
        let err = pipeline_hooks(&argv("in.fasta --resume")).unwrap_err();
        assert!(err.contains("--resume needs --checkpoint-dir"), "{err}");
        let hooks = pipeline_hooks(&argv("in.fasta --checkpoint-dir ck --resume")).unwrap();
        assert!(hooks.resume && hooks.checkpoint.is_some());
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        assert!(check_flags("cluster", &argv("in.fasta --psi")).unwrap_err().contains("--psi"));
    }

    #[test]
    fn a_flag_given_twice_is_an_error() {
        let err = check_flags("cluster", &argv("in.fasta --psi 10 --psi 20")).unwrap_err();
        assert_eq!(err, "--psi given twice");
        let err = check_flags("run", &argv("in.fasta --resume --min-size 3 --resume")).unwrap_err();
        assert_eq!(err, "--resume given twice");
        // A value that looks like a flag is a value.
        assert!(check_flags("cluster", &argv("in.fasta --out --psi --psi 10")).is_ok());
    }

    #[test]
    fn every_documented_flag_is_accepted_and_nothing_else_is_known() {
        // The usage text is the documentation: each `--flag` in it must be
        // in the table, and the table must hold nothing the text omits.
        let mut documented: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut known: Vec<&str> = FLAGS.iter().map(|&(name, _, _)| name).collect();
        known.sort_unstable();
        assert_eq!(documented, known);
        assert_eq!(known.len(), 13);

        // `cluster` and `run` are one program: `run` takes what `cluster`
        // takes, plus the two flags that need a checkpoint directory.
        let taken_by = |cmd: &str| -> Vec<&str> {
            FLAGS.iter().filter(|f| f.2.contains(&cmd)).map(|f| f.0).collect()
        };
        let only_run: Vec<&str> =
            taken_by("run").into_iter().filter(|f| !taken_by("cluster").contains(f)).collect();
        assert_eq!(only_run, ["--checkpoint-dir", "--resume"]);
        assert!(taken_by("cluster").iter().all(|f| taken_by("run").contains(f)));

        // One command line per subcommand carrying every flag it is
        // documented with.
        let cluster =
            "in.fasta --out f.tsv --tau 0.4 --min-size 3 --mask --psi 8 --mem-budget 64M --save-trace t";
        check_flags("cluster", &argv(cluster)).unwrap();
        pipeline_config(&argv(cluster)).unwrap();
        let run = format!("{cluster} --checkpoint-dir ck --resume");
        check_flags("run", &argv(&run)).unwrap();
        pipeline_hooks(&argv(&run)).unwrap();
        check_flags("generate", &argv("--out r.fasta --families 3 --members 9 --seed 1")).unwrap();
        check_flags("replay", &argv("t.rr.tsv t.ccd.tsv --procs 32")).unwrap();
    }
}
