//! Shard-plane identity suite: the sharded clustering plane must be
//! observationally equivalent to the single master everywhere the two can
//! be compared — components, merge counts, pair accounting (the deferred
//! pairs the merge tree gathers included), the checkpoint/resume path, and
//! the SPMD rendering over real rank groups.
//!
//! The equivalence argument (see `shard.rs` module docs): components are
//! the transitive closure of accepted edges, verdicts are pure functions
//! of the sequences, and per-shard closure filtering is merely *less
//! sharp* than the global one — it can admit extra verifications but
//! never change reachability. The merge tree then takes the closure
//! across shards.

mod common;

use std::sync::Arc;

use common::{assert_known_graphs_equal_mined, assert_partition};
use pfam_cluster::{
    run_ccd, run_ccd_resumable, run_ccd_sharded, run_ccd_sharded_spmd, CcdCursor, ClusterConfig,
    ShardParams,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{SequenceSet, SequenceSetBuilder};

fn sharded_config(k: usize) -> ClusterConfig {
    ClusterConfig {
        shard: ShardParams { shards: k, ..Default::default() },
        ..ClusterConfig::default()
    }
}

#[test]
fn routed_stream_accounts_for_every_generated_pair() {
    // Sharding re-buckets the stream but must not lose or duplicate it:
    // the per-shard generated counts sum to the single master's.
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(21));
    let reference = run_ccd(&d.set, &ClusterConfig::default());
    for k in [2usize, 3, 8] {
        let run = run_ccd_sharded(&d.set, &sharded_config(k));
        let routed: usize = run.shard_traces.iter().map(|t| t.total_generated()).sum();
        assert_eq!(routed, reference.trace.total_generated(), "K={k}");
        assert_eq!(run.shard_traces.len(), k);
        // Each pair met one shard's filter: edge, refused or deferred, and
        // the merged lists build the graphs a per-component miner would.
        assert_partition(&run.result, &format!("K={k}"));
        let all: Vec<_> = d.set.ids().collect();
        let (config, ledger) = (ClusterConfig::default(), Arc::default());
        assert_known_graphs_equal_mined(&d.set, &config, &all, &ledger, &run.result, "sharded");
    }
}

#[test]
fn sharded_matches_a_checkpointed_and_resumed_run() {
    // The resume path replays the single master from a mid-stream cursor;
    // its final partition must agree with the sharded plane's.
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(23));
    let config = ClusterConfig { batch_size: 8, ..ClusterConfig::default() };
    let mut first: Option<CcdCursor> = None;
    let uninterrupted = run_ccd_resumable(&d.set, &config, &Arc::default(), None, 2, &mut |c| {
        if first.is_none() {
            first = Some(c.clone());
        }
    });
    let cursor = first.expect("a checkpoint fired");
    let resumed = run_ccd_resumable(&d.set, &config, &Arc::default(), Some(cursor), 0, &mut |_| {});
    assert_eq!(resumed.components, uninterrupted.components, "resume is deterministic");
    for k in [2usize, 5] {
        let sharded = run_ccd(
            &d.set,
            &ClusterConfig {
                shard: ShardParams { shards: k, ..Default::default() },
                ..config.clone()
            },
        );
        assert_eq!(sharded.components, resumed.components, "K={k} vs resumed run");
        assert_eq!(sharded.n_merges, resumed.n_merges, "K={k} vs resumed run");
    }
}

#[test]
fn spmd_rank_groups_match_the_in_process_plane() {
    let d = SyntheticDataset::generate(&DatasetConfig::tiny(24));
    let reference = run_ccd(&d.set, &ClusterConfig::default());
    let cfg = ClusterConfig {
        shard: ShardParams { shards: 2, workers_per_shard: 2, ..Default::default() },
        ..ClusterConfig::default()
    };
    let in_process = run_ccd(&d.set, &cfg);
    let spmd = run_ccd_sharded_spmd(&d.set, &cfg);
    assert_eq!(in_process.components, reference.components);
    assert_eq!(spmd.components, reference.components);
    assert_eq!(spmd.n_merges, reference.n_merges);
}

#[test]
fn degenerate_inputs_survive_any_shard_count() {
    for k in [1usize, 2, 7, 100] {
        let cfg = sharded_config(k);
        assert!(run_ccd(&SequenceSet::new(), &cfg).components.is_empty(), "empty, K={k}");
        let mut b = SequenceSetBuilder::new();
        b.push_letters("only".into(), b"MKVLWAAKNDCQEGHILKMFPSTWYV").unwrap();
        let one = b.finish();
        let r = run_ccd(&one, &cfg);
        assert_eq!(r.components.len(), 1, "singleton, K={k}");
        assert_eq!(r.n_merges, 0, "nothing to merge, K={k}");
    }
}

#[test]
fn more_shards_than_sequences_is_exact_not_approximate() {
    const FAM: &str = "MKVLWAAKNDCQEGHILKMFPSTWYV";
    let mut b = SequenceSetBuilder::new();
    for i in 0..5 {
        b.push_letters(format!("m{i}"), FAM.as_bytes()).unwrap();
    }
    let set = b.finish();
    let config = ClusterConfig::for_short_sequences();
    let reference = run_ccd(&set, &config);
    let cfg = ClusterConfig {
        shard: ShardParams { shards: set.len() * 3, ..Default::default() },
        ..config.clone()
    };
    let got = run_ccd(&set, &cfg);
    assert_eq!(got.components, reference.components);
    assert_eq!(got.components.len(), 1, "one identical family, one cluster");
}
