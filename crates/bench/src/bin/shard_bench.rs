//! Sharded-clustering-plane benchmark: the Fig. 7a scaling experiment
//! with the single-master bottleneck removed.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin shard_bench [scale]
//! cargo run --release -p pfam-bench --bin shard_bench -- --test   # smoke
//! ```
//!
//! Two claims, two checks:
//!
//! 1. **Identity** — for every shard count tried, the sharded plane's
//!    components are bit-identical to the single-master run (recorded as
//!    `components_identical` and asserted).
//! 2. **Scaling shape** — replaying the recorded traces through the
//!    machine model at p = 128…4096 (shards growing as K = p/128), the
//!    single-master curve flattens (its serial filter/dispatch stage is
//!    independent of p — the paper's Fig. 7a / Table II saturation) while
//!    the sharded curve keeps climbing (each shard serializes only ~1/K
//!    of the stream, plus a ⌈log₂ K⌉ merge tail). The full bench asserts
//!    the shape; speedups are *simulated* (model, not wall-clock) and
//!    labeled as such. Wall-clock comparisons go through the honesty
//!    guard and are refused on a 1-core host.

use std::time::Instant;

use pfam_bench::{claim, cores_field, dataset_160k_like, detected_cores, emit, BenchArgs};
use pfam_cluster::{run_ccd, run_ccd_sharded, ClusterConfig, PhaseTrace, ShardParams};
use pfam_sim::{simulate_phase, simulate_sharded, MachineModel};

/// One rung of the simulated p-sweep.
struct Rung {
    p: usize,
    k: usize,
    single_seconds: f64,
    sharded_seconds: f64,
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let scale = args.scale(0.04, 0.4);
    let cores = detected_cores();

    let data = dataset_160k_like(scale, 0x5AAD);
    let set = &data.set;
    let config = ClusterConfig::default();
    let machine = MachineModel::bluegene_l();
    eprintln!("shard_bench: {} reads, {} residues", set.len(), set.total_residues());

    // Identity: every shard count reproduces the single-master partition.
    let t0 = Instant::now();
    let reference = run_ccd(set, &config);
    let single_wall = t0.elapsed().as_secs_f64();
    let shard_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8, 16, 32] };
    let mut identical = true;
    let mut detailed_by_k = Vec::new();
    let mut sharded_wall = single_wall;
    for &k in shard_counts {
        let cfg = ClusterConfig {
            shard: ShardParams { shards: k, ..Default::default() },
            ..config.clone()
        };
        let t0 = Instant::now();
        let run = run_ccd_sharded(set, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        if k == 4 {
            sharded_wall = wall;
        }
        identical &= run.result.components == reference.components
            && run.result.n_merges == reference.n_merges;
        eprintln!(
            "shard_bench: K={k}: {} components, {:.3}s wall, identical={}",
            run.result.components.len(),
            wall,
            run.result.components == reference.components
        );
        detailed_by_k.push((k, run));
    }
    assert!(identical, "a shard count diverged from the single-master components — a bug");

    // Simulated sweep: the single master replays the whole trace; the
    // sharded plane replays each shard's own trace on p/K ranks.
    let ps: &[usize] = if smoke { &[128, 256, 512] } else { &[128, 256, 512, 1024, 2048, 4096] };
    let mut rungs: Vec<Rung> = Vec::new();
    for &p in ps {
        let k = (p / 128).max(1);
        let single_seconds = simulate_phase(&reference.trace, &machine, p).seconds;
        let sharded_seconds = if k == 1 {
            single_seconds
        } else {
            let run = detailed_by_k
                .iter()
                .find(|(dk, _)| *dk == k)
                .map(|(_, run)| run)
                .expect("every sweep K was run for identity");
            let traces: Vec<&PhaseTrace> = run.shard_traces.iter().collect();
            simulate_sharded(&traces, &machine, p, set.len()).seconds
        };
        rungs.push(Rung { p, k, single_seconds, sharded_seconds });
    }
    let base_single = rungs[0].single_seconds;
    let base_sharded = rungs[0].sharded_seconds;
    println!("== simulated CCD speedup vs p=128 (single master vs sharded, K = p/128) ==");
    println!("p\tK\tsingle\tsharded");
    for r in &rungs {
        println!(
            "{}\t{}\t{:.2}\t{:.2}",
            r.p,
            r.k,
            base_single / r.single_seconds,
            base_sharded / r.sharded_seconds
        );
    }

    let single_top = base_single / rungs.last().expect("sweep is non-empty").single_seconds;
    let sharded_top = base_sharded / rungs.last().expect("sweep is non-empty").sharded_seconds;
    if !smoke {
        // The shape claims, held lenient on purpose: the single master
        // must leave most of the ideal 32x on the table, the sharded
        // plane must keep climbing past it.
        assert!(
            single_top < 8.0,
            "single-master curve failed to flatten: speedup {single_top:.2} at p=4096"
        );
        assert!(
            sharded_top > 2.0 * single_top,
            "sharded curve failed to pull away: {sharded_top:.2} vs single {single_top:.2}"
        );
        let mid = base_sharded / rungs[3].sharded_seconds;
        assert!(
            sharded_top > mid,
            "sharded curve must still climb past p=1024: {sharded_top:.2} vs {mid:.2}"
        );
    }

    let sweep_rows: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"p\": {}, \"k\": {}, \"single_seconds\": {:.4}, ",
                    "\"single_speedup\": {:.3}, \"sharded_seconds\": {:.4}, ",
                    "\"sharded_speedup\": {:.3} }}"
                ),
                r.p,
                r.k,
                r.single_seconds,
                base_single / r.single_seconds,
                r.sharded_seconds,
                base_sharded / r.sharded_seconds,
            )
        })
        .collect();
    // Wall-clock (not simulated) K=4 comparison: honest only with real
    // parallelism underneath.
    let wall = claim(
        cores,
        "wall_clock",
        &format!(
            "{{ \"single_master_s\": {single_wall:.4}, \"sharded_k4_s\": {sharded_wall:.4} }}"
        ),
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"shard\",\n",
            "  \"dataset\": \"160k-like (n={n_seqs}, scale {scale})\",\n",
            "  \"n_seqs\": {n_seqs},\n",
            "  {cores_field},\n",
            "  \"components_identical\": {identical},\n",
            "  \"shard_counts_checked\": {counts:?},\n",
            "  \"speedups_are_simulated\": true,\n",
            "  \"sweep_top_p\": {top_p},\n",
            "  \"single_speedup_at_top\": {single_top:.3},\n",
            "  \"sharded_speedup_at_top\": {sharded_top:.3},\n",
            "  \"sweep\": [\n{rows}\n  ],\n",
            "  {wall}\n",
            "}}\n"
        ),
        n_seqs = set.len(),
        scale = scale,
        cores_field = cores_field(cores),
        identical = identical,
        counts = shard_counts,
        top_p = rungs.last().expect("sweep is non-empty").p,
        single_top = single_top,
        sharded_top = sharded_top,
        rows = sweep_rows.join(",\n"),
        wall = wall,
    );

    eprintln!("shard_bench: components identical across shard counts");
    emit("shard", &json, smoke);
}
