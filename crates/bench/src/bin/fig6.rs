//! Figure 6 — combined RR + CCD run-time as a function of (a) processor
//! count and (b) input size, via replay of the pipeline's own RR and CCD
//! traces.
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin fig6 [scale]
//! ```

use pfam_bench::{dataset_160k_like, scaled_members};
use pfam_cluster::PhaseTrace;
use pfam_core::PipelineConfig;
use pfam_sim::{simulate_phases, MachineModel};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let config = PipelineConfig::default();
    let machine = MachineModel::bluegene_l();
    let ps = [16usize, 32, 64, 128, 256, 512];

    // One trace per input size (the paper's 10K…160K ladder).
    let ladder = scaled_members(scale);
    let mut traces: Vec<(String, PhaseTrace, PhaseTrace)> = Vec::new();
    for (i, (members, label)) in ladder.iter().enumerate() {
        let frac = *members as f64 / ladder.last().expect("non-empty").0 as f64;
        let data = dataset_160k_like(scale * frac, 0x600 + i as u64);
        let (rr, ccd, _) = config.run(&data.set).traces;
        eprintln!("traced n={label} ({} reads)", data.set.len());
        traces.push((label.to_string(), rr, ccd));
    }

    println!("\n== Figure 6a: RR+CCD simulated seconds vs processors ==");
    print!("n\\p");
    for p in ps {
        print!("\tp={p}");
    }
    println!();
    for (label, rr, ccd) in &traces {
        print!("{label}");
        for p in ps {
            print!("\t{:.3}", simulate_phases(&[rr, ccd], &machine, p).seconds);
        }
        println!();
    }

    println!("\n== Figure 6b: RR+CCD simulated seconds vs input size ==");
    print!("p\\n");
    for (label, _, _) in &traces {
        print!("\t{label}");
    }
    println!();
    for p in [32usize, 64, 128, 512] {
        print!("p={p}");
        for (_, rr, ccd) in &traces {
            print!("\t{:.3}", simulate_phases(&[rr, ccd], &machine, p).seconds);
        }
        println!();
    }

    println!(
        "\nShape checks (paper Fig 6): time decreases with p and grows\n\
         super-linearly with n (asymptotically quadratic worst case, tempered\n\
         by the clustering heuristic); the 160K/512-processor corner is the\n\
         cheapest per-sequence configuration."
    );
}
