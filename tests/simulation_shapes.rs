//! The scaling shapes the paper reports, reproduced from *real* work
//! traces replayed through the machine model — the repository's stand-in
//! for the BlueGene/L experiments (Table II, Figures 6 and 7a). The traces
//! are the pipeline's own: RR and CCD as `pfam run` executes them.

use pfam::cluster::{run_ccd, ClusterConfig, PhaseTrace};
use pfam::core::PipelineConfig;
use pfam::datagen::{DatasetConfig, SyntheticDataset};
use pfam::sim::{simulate_phase, simulate_phases, speedup_sweep, MachineModel};

fn traces(n_members: usize, seed: u64) -> (PhaseTrace, PhaseTrace) {
    let d = SyntheticDataset::generate(&DatasetConfig {
        n_families: 8,
        n_members,
        n_noise: n_members / 10,
        redundancy_frac: 0.12,
        seed,
        ..DatasetConfig::default()
    });
    let (rr, ccd, _) = PipelineConfig::default().run(&d.set).traces;
    (rr, ccd)
}

#[test]
fn rr_dominates_ccd_run_time() {
    // Paper §V: "the RR phase accounted for more than 90% of all run-times".
    let (rr, ccd) = traces(160, 301);
    let m = MachineModel::bluegene_l();
    for p in [32usize, 128, 512] {
        let rr_t = simulate_phase(&rr, &m, p).seconds;
        let ccd_t = simulate_phase(&ccd, &m, p).seconds;
        assert!(rr_t > ccd_t, "p={p}: RR ({rr_t:.4}s) should dominate CCD ({ccd_t:.4}s)");
    }
}

#[test]
fn rr_scales_better_than_ccd() {
    // Table II: RR 32→512 ≈ 7.9×, CCD ≈ 1.6×.
    let (rr, ccd) = traces(160, 302);
    let m = MachineModel::bluegene_l();
    let speedup =
        |t: &PhaseTrace| simulate_phase(t, &m, 32).seconds / simulate_phase(t, &m, 512).seconds;
    let rr_speedup = speedup(&rr);
    let ccd_speedup = speedup(&ccd);
    assert!(
        rr_speedup > ccd_speedup,
        "RR speedup {rr_speedup:.2} must exceed CCD speedup {ccd_speedup:.2}"
    );
    assert!(rr_speedup > 2.0, "RR should scale substantially, got {rr_speedup:.2}");
}

#[test]
fn run_time_nonincreasing_in_p_and_increasing_in_n() {
    // Figure 6: both monotonicities.
    let small = traces(80, 303);
    let large = traces(240, 304);
    let m = MachineModel::bluegene_l();
    let mut prev = f64::INFINITY;
    for p in [16usize, 32, 64, 128, 256, 512] {
        let t = simulate_phases(&[&large.0, &large.1], &m, p).seconds;
        assert!(t <= prev * 1.001, "time must not grow with p (p={p})");
        prev = t;
    }
    for p in [32usize, 512] {
        let t_small = simulate_phases(&[&small.0, &small.1], &m, p).seconds;
        let t_large = simulate_phases(&[&large.0, &large.1], &m, p).seconds;
        assert!(
            t_large > t_small,
            "p={p}: larger input must cost more ({t_large:.4} vs {t_small:.4})"
        );
    }
}

#[test]
fn larger_inputs_scale_better() {
    // Figure 7a: the speedup curves order by input size.
    let m = MachineModel::bluegene_l();
    let ps = [32usize, 512];
    let small = traces(80, 305);
    let large = traces(320, 306);
    let s_small = speedup_sweep(&[&small.0, &small.1], &m, &ps)[1].2;
    let s_large = speedup_sweep(&[&large.0, &large.1], &m, &ps)[1].2;
    assert!(
        s_large >= s_small * 0.9,
        "larger input should scale at least as well: {s_large:.2} vs {s_small:.2}"
    );
}

#[test]
fn ccd_filter_ratio_grows_with_family_size() {
    // The work-reduction engine: bigger families ⇒ more pairs filtered.
    let few_big = SyntheticDataset::generate(&DatasetConfig {
        n_families: 2,
        n_members: 120,
        n_noise: 0,
        redundancy_frac: 0.0,
        seed: 307,
        ..DatasetConfig::default()
    });
    let many_small = SyntheticDataset::generate(&DatasetConfig {
        n_families: 40,
        n_members: 120,
        n_noise: 0,
        redundancy_frac: 0.0,
        seed: 308,
        ..DatasetConfig::default()
    });
    let config = ClusterConfig::default();
    let big = run_ccd(&few_big.set, &config).trace.filter_ratio();
    let small = run_ccd(&many_small.set, &config).trace.filter_ratio();
    assert!(
        big > small,
        "filter ratio with 2 big families ({big:.3}) should beat 40 small ({small:.3})"
    );
    assert!(big > 0.5, "big families should filter most pairs, got {big:.3}");
}
