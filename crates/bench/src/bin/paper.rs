//! The paper's evaluation — Tables I and II, Figures 5–7 and §V's quality
//! and work-reduction text — from six runs of the pipeline `pfam` runs
//! (`PipelineConfig::default().run`): one per rung of the 160K-like ladder
//! (`pfam_bench::ladder`, the paper's 10 K … 160 K series) and one on the
//! 22K-like set. Each section reads the runs its paper counterpart reads
//! (DESIGN.md §4), and a run keeps only what a later section reads: its
//! traces, its Table-I row, its fills and, on the top four rungs, its `Bd`
//! graphs. Every shape claim is one `shape` line: the claim, the paper's
//! value, ours, and whether ours holds.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin paper [scale]
//! ```

use std::fmt::Display;
use std::time::Instant;

use pfam_bench::{dataset_22k_like, ladder, PaperDataset};
use pfam_cluster::{run_all_pairs_baseline, PhaseTrace};
use pfam_core::{FillReport, PhaseReport, PipelineConfig, PipelineResult, TableOneRow};
use pfam_graph::BipartiteGraph;
use pfam_metrics::{
    labels_from_clusters, pair_confusion, set_measures, Histogram, QualityMeasures,
};
use pfam_shingle::{shingle_clusters, ShingleParams};
use pfam_sim::{simulate_phase, simulate_phases, speedup_sweep, MachineModel};

/// The text of one section, printed once every run is done.
#[derive(Default)]
struct Text(String);

impl Text {
    fn line(&mut self, text: impl Display) {
        self.0 += &format!("{text}\n");
    }

    /// A tab-separated table row.
    fn row<T: Display>(&mut self, head: impl Display, cells: impl IntoIterator<Item = T>) {
        let cells: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        self.line(format_args!("{head}\t{}", cells.join("\t")));
    }

    /// A shape verdict — the one way a section states a shape.
    fn check(&mut self, claim: &str, paper: &str, ours: String, holds: bool) {
        self.line(format_args!("shape\t{claim}\tpaper: {paper}\tours: {ours}\t{holds}"));
    }
}

/// What the later sections read of one run.
struct Run {
    /// `10k` … `160k`, or `22K`.
    label: &'static str,
    /// The dataset's own label (Table I's first column).
    name: String,
    members: Option<usize>,
    reads: usize,
    wall_s: f64,
    row: TableOneRow,
    fills: FillReport,
    phases: PhaseReport,
    rr: PhaseTrace,
    ccd: PhaseTrace,
    /// The component graphs duplicated into `Bd` (Figure 7b's input).
    bds: Vec<BipartiteGraph>,
}

fn run(
    config: &PipelineConfig,
    label: &'static str,
    members: Option<usize>,
    data: &PaperDataset,
    keep_bds: bool,
) -> (Run, PipelineResult) {
    let start = Instant::now();
    let result = config.run(&data.set);
    let wall_s = start.elapsed().as_secs_f64();
    eprintln!("ran {label}: {} reads, {wall_s:.2} s", data.set.len());
    let graphs = result.component_graphs.iter().filter(|_| keep_bds);
    let run = Run {
        label,
        name: data.label.clone(),
        members,
        reads: data.set.len(),
        wall_s,
        row: TableOneRow::from_result(&result, config.min_component_size),
        fills: FillReport::from_result(&result),
        phases: result.phases,
        rr: result.traces.0.clone(),
        ccd: result.traces.1.clone(),
        bds: graphs.map(|g| BipartiteGraph::duplicate_from(&g.graph)).collect(),
    };
    (run, result)
}

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();
    let (mut quality, mut work, mut fig5) = (Text::default(), Text::default(), Text::default());
    let mut rungs = Vec::new();
    let mut top_quality = None;
    for (i, rung) in ladder(scale).into_iter().enumerate() {
        let data = rung.dataset();
        // Figure 7b times Shingle on the top four rungs.
        let (kept, result) = run(&config, rung.label, Some(rung.members), &data, i > 0);
        match rung.label {
            "40k" => work_reduction(&mut work, &config, scale, &data, &result),
            "160k" => top_quality = Some(quality_of(&mut quality, &data, &result)),
            _ => {}
        }
        rungs.push(kept);
    }
    let data = dataset_22k_like(scale, 0x22);
    let (giant, result) = run(&config, "22K", None, &data, false);
    quality_of(&mut quality, &data, &result);
    figure_5(&mut fig5, &result);
    let m = top_quality.expect("the ladder has a 160k rung");
    quality.line("\npaper (160K set): PR=95.75% SE=56.89% OQ=55.49% CC=73.04%");
    let (pr, se) = (m.precision * 100.0, m.sensitivity * 100.0);
    let ours = format!("{pr:.2}% > {se:.2}%");
    quality.check("PR > SE (160K-like, subfamily benchmark)", "95.75% > 56.89%", ours, pr > se);

    // `rungs` holds 10k, 20k, 40k, 80k, 160k in that order.
    let machine = MachineModel::bluegene_l();
    let mut out = Text::default();
    out.line(format_args!("# the paper's evaluation at scale {scale}: six pfam runs"));
    runs_table(&mut out, rungs.iter().chain([&giant]));
    table_one(&mut out, &rungs[4], &giant, scale);
    table_two(&mut out, &rungs[3], &machine);
    out.line(format_args!(
        "\n== Figure 5: dense-subgraph size distribution (22K-like) ==\n{}",
        fig5.0.trim_end()
    ));
    figure_6(&mut out, &rungs, &machine);
    figure_7a(&mut out, &rungs[..4], &machine);
    figure_7b(&mut out, &rungs[1..]);
    out.line(format_args!("\n== §V quality vs benchmark clustering ==\n{}", quality.0.trim_end()));
    out.line(format_args!("\n== §V work reduction (40k rung) ==\n{}", work.0.trim_end()));
    let verdicts: Vec<&str> = out.0.lines().filter(|l| l.starts_with("shape\t")).collect();
    let held = verdicts.iter().filter(|l| l.ends_with("\ttrue")).count();
    println!("{}\n{held} of {} shape verdicts hold", out.0, verdicts.len());
}

/// One row per run: reads, CCD's stream and ledger hits, fills per phase,
/// CCD's filter ratio, the run's wall seconds, and where they went — the
/// run's `phases:` reading (the index, RR, CCD and the back half; they add
/// up to the wall) with CCD's share of it.
fn runs_table<'a>(out: &mut Text, runs: impl Iterator<Item = &'a Run>) {
    out.line("\n== runs ==");
    out.line("run\tmembers\treads\tCCD stream pairs\tledger hits\tfills rr / ccd / bgg = total\tCCD filter %\twall s\tindex / rr / ccd / back half s\tCCD % of wall");
    for r in runs {
        let [rr, ccd, bgg] = r.fills.phases.map(|p| p.0);
        let members = r.members.map_or("-".to_string(), |m| m.to_string());
        let (pairs, hits) = (r.ccd.total_generated(), r.ccd.total_ledger_hits());
        let (total, ratio) = (r.fills.total_fills(), r.ccd.filter_ratio() * 100.0);
        let fills = format!("{rr} / {ccd} / {bgg} = {total}");
        let p = &r.phases;
        let spans = [p.index_s, p.rr_s, p.ccd_s, p.back_half_s];
        let seconds: Vec<String> = spans.iter().map(|s| format!("{s:.2}")).collect();
        let share = p.ccd_s / (spans.iter().sum::<f64>() + p.checkpoints_s) * 100.0;
        let cells = [members, r.reads.to_string(), pairs.to_string(), hits.to_string(), fills];
        let timing = [format!("{ratio:.2}"), format!("{:.2}", r.wall_s), seconds.join(" / ")];
        out.row(r.label, cells.into_iter().chain(timing).chain([format!("{share:.1}")]));
    }
}

fn table_one(out: &mut Text, top: &Run, giant: &Run, scale: f64) {
    out.line(format_args!("\n== Table I (reproduced at scale {scale}) =="));
    out.line(format_args!("Workload\t{}", TableOneRow::header()));
    for r in [top, giant] {
        out.line(format_args!("{}\t{}", r.name, r.row));
    }
    out.line("\n== paper's Table I (for shape comparison; absolute numbers");
    out.line("   are data-dependent — 28.6M-ORF CAMERA vs synthetic) ==");
    out.line("160,000\t138,633\t1,861\t850\t66,083\t26\t76%\t13,263");
    out.line("22,186\t21,348\t1\t134\t11,524\t20\t78%\t6,828");
    let (a, b) = (top.row, giant.row);
    let ours =
        format!("{} < {}; {} < {}", a.n_non_redundant, a.n_input, b.n_non_redundant, b.n_input);
    let holds = a.n_non_redundant < a.n_input && b.n_non_redundant < b.n_input;
    out.check("#NR < #input on both sets", "138,633 < 160,000; 21,348 < 22,186", ours, holds);
    let (ds, cc) = (a.n_dense_subgraphs, a.n_components);
    out.check("#DS < #CC (160K-like)", "850 < 1,861", format!("{ds} < {cc}"), ds < cc);
    let (ds, cc) = (b.n_dense_subgraphs, b.n_components);
    out.check("#DS > #CC = 1 (22K-like)", "134 > 1", format!("{ds} > {cc}"), cc == 1 && ds > 1);
    let (da, db) = (a.mean_density * 100.0, b.mean_density * 100.0);
    let ours = format!("{da:.0}%; {db:.0}%");
    out.check("mean density > 50% on both sets", "76%; 78%", ours, da > 50.0 && db > 50.0);
}

fn table_two(out: &mut Text, rung: &Run, machine: &MachineModel) {
    let secs = |t: &PhaseTrace| [32, 64, 128, 512].map(|p| simulate_phase(t, machine, p).seconds);
    let (rr, ccd) = (secs(&rung.rr), secs(&rung.ccd));
    out.line(format_args!(
        "\n== Table II: simulated seconds, {} rung ({} reads) ==",
        rung.label, rung.reads
    ));
    out.line("Phase\tp=32\tp=64\tp=128\tp=512");
    out.row("RR", rr.map(|s| format!("{s:.3}")));
    out.row("CCD", ccd.map(|s| format!("{s:.3}")));
    out.line("\n== paper's Table II (seconds, real 80K on BG/L) ==");
    out.line("RR\t17,476\t10,296\t4,560\t2,207");
    out.line("CCD\t1,068\t777\t528\t670");
    let ours = format!("{:.1}x", rr[0] / ccd[0]);
    out.check("RR dominates CCD at p = 32", "16.4x", ours, rr[0] > ccd[0]);
    let (rr_up, ccd_up) = (rr[0] / rr[3], ccd[0] / ccd[3]);
    let ours = format!("{rr_up:.1}x > {ccd_up:.1}x");
    out.check("RR's 32 -> 512 speedup > CCD's", "7.9x > 1.6x", ours, rr_up > ccd_up);
    let ours = format!("{:.2}x", ccd[0] / ccd[2]);
    out.check("CCD's 32 -> 128 speedup >= 1", "2.0x (1,068 -> 528 s)", ours, ccd[0] >= ccd[2]);
    out.line(format_args!(
        "CCD filter ratio: {:.2}% (paper reports >99.9% on real data); {} of {} pairs \
         answered by RR's pair ledger, {} filled",
        rung.ccd.filter_ratio() * 100.0,
        rung.ccd.total_ledger_hits(),
        rung.ccd.total_generated(),
        rung.ccd.total_aligned()
    ));
}

fn figure_5(out: &mut Text, result: &PipelineResult) {
    let sizes: Vec<usize> = result.dense_subgraphs.iter().map(|d| d.members.len()).collect();
    let largest = sizes.iter().copied().max().unwrap_or(0);
    // The paper plots all subgraphs except the single giant one.
    out.0 += &Histogram::new(5, sizes.iter().copied().filter(|&s| s < largest)).render();
    out.line(format_args!(
        "(largest subgraph: {largest} members — excluded from the plot, as in the paper)"
    ));
    out.line(format_args!("total dense subgraphs: {}", sizes.len()));
    let small = sizes.iter().filter(|&&s| s * 3 < largest).count();
    out.check(
        "at least half the subgraphs are under a third of the largest",
        "134 DS, largest 6,828 of 21,348 sequences",
        format!("{small} of {} under {largest} / 3", sizes.len()),
        small * 2 >= sizes.len(),
    );
}

/// The ratio of each value of `xs` to the one before it.
fn steps(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let xs: Vec<f64> = xs.into_iter().collect();
    xs.windows(2).map(|w| w[1] / w[0]).collect()
}

fn figure_6(out: &mut Text, rungs: &[Run], machine: &MachineModel) {
    let ps = [16usize, 32, 64, 128, 256, 512];
    let secs = |r: &Run| ps.map(|p| simulate_phases(&[&r.rr, &r.ccd], machine, p).seconds);
    let table: Vec<[f64; 6]> = rungs.iter().map(secs).collect();
    out.line("\n== Figure 6a: RR+CCD simulated seconds vs processors ==");
    out.row("n\\p", ps.map(|p| format!("p={p}")));
    for (r, row) in rungs.iter().zip(&table) {
        out.row(r.label, row.map(|s| format!("{s:.3}")));
    }
    out.line("\n== Figure 6b: RR+CCD simulated seconds vs input size ==");
    out.row("p\\n", rungs.iter().map(|r| r.label));
    for pi in [1usize, 2, 3, 5] {
        out.row(format!("p={}", ps[pi]), table.iter().map(|row| format!("{:.3}", row[pi])));
    }
    let rise = table.iter().flat_map(|row| steps(*row)).fold(0.0, f64::max);
    let ours = format!("largest step x{rise:.3}");
    out.check("6a: time never rises with p, on any rung", "falls", ours, rise <= 1.0);
    let by_n = [1, 2, 3, 5].into_iter().flat_map(|pi| steps(table.iter().map(|row| row[pi])));
    let step = by_n.fold(f64::INFINITY, f64::min);
    let ours = format!("smallest step x{step:.2}");
    out.check("6b: time rises with n, at every p", "rises", ours, step > 1.0);
}

fn figure_7a(out: &mut Text, rungs: &[Run], machine: &MachineModel) {
    let ps = [32usize, 64, 128, 512];
    out.line("\n== Figure 7a: speedup relative to p=32 (ideal: 1, 2, 4, 16) ==");
    out.row("n\\p", ps.map(|p| format!("p={p}")));
    let mut sweeps = Vec::new();
    for r in rungs {
        let sweep: Vec<f64> =
            speedup_sweep(&[&r.rr, &r.ccd], machine, &ps).into_iter().map(|s| s.2).collect();
        out.row(r.label, sweep.iter().map(|s| format!("{s:.2}")));
        sweeps.push((r.label, sweep));
    }
    for w in sweeps.windows(2) {
        let ((a, sa), (b, sb)) = (&w[0], &w[1]);
        let claim = format!("larger inputs scale better: speedup(512) {a} <= {b}");
        out.check(&claim, "rises with n", format!("{:.2} <= {:.2}", sa[3], sb[3]), sa[3] <= sb[3]);
    }
    let (label, top) = sweeps.last().expect("Figure 7a has rungs");
    let gain = top[3] / top[2];
    let claim = format!("128 -> 512 gains less than the ideal 4x ({label})");
    let ours = format!("{:.2} -> {:.2} ({gain:.1}x)", top[2], top[3]);
    out.check(&claim, "3.6 -> 6.7 (1.9x)", ours, gain < 4.0);
}

fn figure_7b(out: &mut Text, rungs: &[Run]) {
    let cs = [100usize, 200, 300, 400];
    out.line("\n== Figure 7b: serial DSD run-time (ms) vs input size and c ==");
    out.row("n\\(s,c)", cs.map(|c| format!("(5,{c})")));
    let mut table = Vec::new();
    for r in rungs {
        let ms = cs.map(|c| {
            let params = ShingleParams { s1: 5, c1: c, s2: 2, c2: 40, seed: 0x7b };
            let start = Instant::now();
            for bd in &r.bds {
                let _ = shingle_clusters(bd, &params);
            }
            start.elapsed().as_secs_f64() * 1e3
        });
        let vertices: usize = r.bds.iter().map(|b| b.n_right()).sum();
        let head = format!(
            "{} ({} reads, {} components, {vertices} vertices)",
            r.label,
            r.reads,
            r.bds.len()
        );
        out.row(head, ms.map(|t| format!("{t:.1}")));
        table.push(ms);
    }
    let totals = [0, 1, 2, 3].map(|ci| table.iter().map(|row| row[ci]).sum::<f64>());
    let step = steps(totals).into_iter().fold(f64::INFINITY, f64::min);
    let ours =
        format!("{:.1} / {:.1} / {:.1} / {:.1} ms", totals[0], totals[1], totals[2], totals[3]);
    out.check("DSD time rises with c (totals over the rungs)", "rises", ours, step > 1.0);
    let by_n = [0, 1, 2, 3].into_iter().flat_map(|ci| steps(table.iter().map(|row| row[ci])));
    let step = by_n.fold(f64::INFINITY, f64::min);
    let ours = format!("smallest step x{step:.2}");
    out.check("DSD time rises with n, at every c", "rises", ours, step > 1.0);
}

/// PR / SE / OQ / CC of the run's dense subgraphs against the benchmark
/// clustering, and against coarsened benchmarks that merge ground-truth
/// families round-robin into k superclusters — toward the paper's
/// situation, where the GOS benchmark was far coarser than our dense
/// subgraphs. Returns the measures against the benchmark itself.
fn quality_of(out: &mut Text, data: &PaperDataset, result: &PipelineResult) -> QualityMeasures {
    let n = data.set.len();
    let test = labels_from_clusters(n, &result.subgraph_clusters());
    let bench_lists: Vec<Vec<u32>> =
        data.benchmark.iter().map(|c| c.iter().map(|id| id.0).collect()).collect();
    let bench = labels_from_clusters(n, &bench_lists);
    let m = QualityMeasures::from_confusion(&pair_confusion(&test, &bench));
    let sm = set_measures(&test, &bench);
    out.line(format_args!("{}\n  vs subfamily benchmark: {}", data.label, m));
    out.line(format_args!(
        "    set measures: purity={:.2}% inverse-purity={:.2}% F={:.2}%",
        sm.purity * 100.0,
        sm.inverse_purity * 100.0,
        sm.f_measure * 100.0
    ));
    for k in [8usize, 2, 1].into_iter().filter(|&k| k < data.benchmark.len()) {
        let mut coarse: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (f, members) in data.benchmark.iter().enumerate() {
            coarse[f % k].extend(members.iter().map(|id| id.0));
        }
        let bench_k = labels_from_clusters(n, &coarse);
        let m_k = QualityMeasures::from_confusion(&pair_confusion(&test, &bench_k));
        out.line(format_args!("  vs {k}-supercluster benchmark: {m_k}"));
    }
    m
}

/// The paper's 40K accounting — CCD's promising pairs and fills against
/// all-pairs — with the whole run's RR + CCD + BGG fills beside it, and
/// the all-pairs baseline on the non-redundant reads (executed up to
/// scale 2).
fn work_reduction(
    out: &mut Text,
    config: &PipelineConfig,
    scale: f64,
    data: &PaperDataset,
    result: &PipelineResult,
) {
    let ccd = &result.traces.1;
    let pairs = |n: usize| (n * n.saturating_sub(1) / 2) as f64;
    let saved =
        |done: f64, of: f64| format!("{done} of {of} ({:.2}% saved)", (1.0 - done / of) * 100.0);
    let nr_pairs = pairs(result.non_redundant.len());
    let input_pairs = pairs(data.set.len());
    out.line(format_args!("{} ({} reads)", data.label, data.set.len()));
    out.line(format_args!("non-redundant sequences : {}", result.non_redundant.len()));
    out.line(format_args!("CCD promising pairs     : {}", ccd.total_generated()));
    out.line(format_args!("CCD fills               : {}", ccd.total_aligned()));
    out.line(format_args!("answered by RR's ledger : {}", ccd.total_ledger_hits()));
    out.line(format_args!("filter ratio within CCD : {:.2}%", ccd.filter_ratio() * 100.0));
    let fills = FillReport::from_result(result);
    let [rr, ccd_f, bgg] = fills.phases.map(|p| p.0);
    out.line(format_args!("whole run's fills       : rr {rr} / ccd {ccd_f} / bgg {bgg}"));
    let aligned = ccd.total_aligned() as f64;
    let ours = saved(aligned, nr_pairs);
    out.check(
        "CCD aligns under 1% of all-versus-all",
        "7M of ~800M (99.1% saved)",
        ours,
        aligned < nr_pairs / 100.0,
    );
    let total = fills.total_fills() as f64;
    let ours = saved(total, input_pairs);
    out.check(
        "the whole run aligns under 1% of all-versus-all",
        "~99% saved",
        ours,
        total < input_pairs / 100.0,
    );

    out.line("paper (40K input): 168M promising pairs → 7M aligned, ~800M all-pairs (≈99% cut)");

    // The executed baseline (the paper could only estimate its 800M). It
    // fills all n(n-1)/2 pairs, the count both verdicts divide by, so above
    // scale 2 (millions of fills) it is counted, not run.
    if scale > 2.0 {
        out.line(format_args!(
            "baseline: not executed at scale {scale}; all-versus-all is {nr_pairs} alignments"
        ));
        return;
    }
    let (nr, _) = data.set.subset(&result.non_redundant);
    let base = run_all_pairs_baseline(&nr, &config.cluster);
    // It numbers the non-redundant reads 0..n; the pipeline's components
    // carry input ids. The ψ = 10 maximal-match filter cannot see distant
    // pairs that pass the 30 % overlap test without a 10-residue exact
    // match, so the heuristic may keep apart components the baseline
    // merges: both counts are printed, not held equal.
    let base_components: Vec<Vec<_>> = base
        .components
        .iter()
        .map(|c| c.iter().map(|id| result.non_redundant[id.index()]).collect())
        .collect();
    out.line(format_args!(
        "baseline: {} alignments, {} DP cells (CCD: {}); components {} vs the heuristic's {} (identical: {})",
        base.n_alignments,
        base.align_cells,
        ccd.total_cells(),
        base_components.len(),
        result.components.len(),
        base_components == result.components
    ));
}
