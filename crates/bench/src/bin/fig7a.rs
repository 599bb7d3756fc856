//! Figure 7a — speedup of RR + CCD relative to 32 processors, for the
//! 10K…80K-like input ladder, from the pipeline's own RR and CCD traces.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin fig7a [scale]
//! ```

use pfam_bench::{dataset_160k_like, scaled_members};
use pfam_core::PipelineConfig;
use pfam_sim::{speedup_sweep, MachineModel};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();
    let machine = MachineModel::bluegene_l();
    let ps = [32usize, 64, 128, 512];

    // The paper's Fig 7a plots n = 10K..80K (not 160K).
    let ladder: Vec<_> = scaled_members(scale).into_iter().take(4).collect();
    println!("== Figure 7a: speedup relative to p=32 (ideal: 1, 2, 4, 16) ==");
    print!("n\\p");
    for p in ps {
        print!("\tp={p}");
    }
    println!();
    let mut final_speedups = Vec::new();
    for (i, (members, label)) in ladder.iter().enumerate() {
        let frac = *members as f64 / 1600.0;
        let data = dataset_160k_like(scale * frac * 2.0, 0x7A + i as u64);
        let (rr, ccd, _) = config.run(&data.set).traces;
        let sweep = speedup_sweep(&[&rr, &ccd], &machine, &ps);
        print!("{label}");
        for (_, _, speedup) in &sweep {
            print!("\t{speedup:.2}");
        }
        println!();
        final_speedups.push((label.to_string(), sweep.last().expect("non-empty").2));
    }

    println!(
        "\nShape checks (paper: larger inputs scale better; 128→512 gives only\n\
         a modest gain — e.g. 3.6 → 6.7 vs the ideal 4 → 16):"
    );
    for w in final_speedups.windows(2) {
        println!(
            "  speedup(512) {} = {:.2} ≤ {} = {:.2}: {}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1,
            w[0].1 <= w[1].1
        );
    }
}
