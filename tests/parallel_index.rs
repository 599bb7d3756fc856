//! End-to-end determinism of the parallel index path: the RR and CCD
//! phases must produce identical results whether the suffix index and
//! pair stream are built serially or in parallel, at any thread count.

use pfam::cluster::{run_ccd, run_redundancy_removal, ClusterConfig};
use pfam::core::PipelineConfig;
use pfam::datagen::{DatasetConfig, SyntheticDataset};

fn configs_under_test() -> Vec<(&'static str, ClusterConfig)> {
    let serial = ClusterConfig { threads: 1, ..ClusterConfig::for_short_sequences() };
    let mut out = vec![("serial", serial.clone())];
    for threads in [2usize, 3, 8] {
        out.push(("parallel", ClusterConfig { threads, ..serial.clone() }));
    }
    out
}

#[test]
fn rr_is_thread_count_invariant() {
    let data = SyntheticDataset::generate(&DatasetConfig::tiny(0x11));
    let reference = run_redundancy_removal(&data.set, &configs_under_test()[0].1);
    for (name, config) in &configs_under_test()[1..] {
        let result = run_redundancy_removal(&data.set, config);
        assert_eq!(result.kept, reference.kept, "{name} threads={}", config.threads);
        assert_eq!(result.removed, reference.removed, "{name} threads={}", config.threads);
    }
}

#[test]
fn ccd_is_thread_count_invariant() {
    let data = SyntheticDataset::generate(&DatasetConfig::tiny(0x22));
    let reference = run_ccd(&data.set, &configs_under_test()[0].1);
    for (name, config) in &configs_under_test()[1..] {
        let result = run_ccd(&data.set, config);
        assert_eq!(result.components, reference.components, "{name} threads={}", config.threads);
    }
}

#[test]
fn full_pipeline_is_thread_count_invariant() {
    let data = SyntheticDataset::generate(&DatasetConfig::tiny(0x33));
    let serial_cfg = PipelineConfig {
        cluster: ClusterConfig { threads: 1, ..ClusterConfig::for_short_sequences() },
        ..PipelineConfig::for_tests()
    };
    let reference = serial_cfg.run(&data.set);
    for threads in [2usize, 8] {
        let cfg = PipelineConfig {
            cluster: ClusterConfig { threads, ..ClusterConfig::for_short_sequences() },
            ..PipelineConfig::for_tests()
        };
        let result = cfg.run(&data.set);
        assert_eq!(result.components, reference.components, "threads={threads}");
        assert_eq!(result.dense_subgraphs, reference.dense_subgraphs, "threads={threads}");
    }
}
