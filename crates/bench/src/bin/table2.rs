//! Table II — RR and CCD run-times for the 80K-like input at
//! p = 32, 64, 128, 512, via replay on the BlueGene/L model of the traces
//! the pipeline's own run records (`pfam run`'s front half).
//!
//! ```sh
//! cargo run --release -p pfam-bench --bin table2 [scale]
//! ```

use pfam_bench::dataset_160k_like;
use pfam_core::PipelineConfig;
use pfam_sim::{simulate_phase, MachineModel};

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    // The paper's 80K input is half its 160K set.
    let data = dataset_160k_like(scale * 0.5, 0x80);
    println!("running the pipeline on {} ({} reads)…", data.label, data.set.len());

    let (rr, ccd, _) = PipelineConfig::default().run(&data.set).traces;

    let machine = MachineModel::bluegene_l();
    let ps = [32usize, 64, 128, 512];
    println!("\n== Table II (simulated seconds) ==");
    println!("Phase\tp=32\tp=64\tp=128\tp=512");
    for (name, trace) in [("RR", &rr), ("CCD", &ccd)] {
        let cols: Vec<String> = ps
            .iter()
            .map(|&p| format!("{:.3}", simulate_phase(trace, &machine, p).seconds))
            .collect();
        println!("{name}\t{}", cols.join("\t"));
    }

    println!("\n== paper's Table II (seconds, real 80K on BG/L) ==");
    println!("RR\t17,476\t10,296\t4,560\t2,207");
    println!("CCD\t1,068\t777\t528\t670");

    let rr32 = simulate_phase(&rr, &machine, 32).seconds;
    let rr512 = simulate_phase(&rr, &machine, 512).seconds;
    let ccd32 = simulate_phase(&ccd, &machine, 32).seconds;
    let ccd512 = simulate_phase(&ccd, &machine, 512).seconds;
    println!("\nShape checks (paper: RR 32→512 speedup ≈ 7.9×, CCD ≈ 1.6×):");
    println!("  RR  32→512 speedup: {:.1}x", rr32 / rr512);
    println!("  CCD 32→512 speedup: {:.1}x", ccd32 / ccd512);
    println!("  RR dominates CCD at p=32: {}", rr32 > ccd32);
    println!(
        "  CCD filter ratio: {:.2}% (paper reports >99.9% on real data); {} of {} pairs \
         answered by RR's pair ledger, {} filled",
        ccd.filter_ratio() * 100.0,
        ccd.total_ledger_hits(),
        ccd.total_generated(),
        ccd.total_aligned()
    );
}
