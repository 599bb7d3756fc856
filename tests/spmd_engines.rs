//! Both CCD engines — batched rayon and the SPMD push protocol, one per
//! master loop — must agree on the clustering, and the `pfam-mpi` runtime
//! must behave like MPI where the SPMD engine relies on it.

use std::any::Any;

use pfam::cluster::{run_ccd, run_phase_spmd, CcdResult, ClusterConfig, CorePhase};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};
use pfam::mpi::{run_spmd, CommError, Communicator, ANY_SOURCE};
use pfam::seq::SequenceSet;

/// A blocking receive the way the master–worker loops get one: poll
/// `try_recv` until a matching message is there.
fn poll<T: Any + Send>(
    comm: &mut Communicator,
    from: usize,
    tag: u32,
) -> Result<(usize, T), CommError> {
    loop {
        if let Some(got) = comm.try_recv(from, tag)? {
            return Ok(got);
        }
        std::thread::yield_now();
    }
}

/// CCD through the push protocol on `n_ranks` ranks.
fn ccd_spmd(set: &SequenceSet, config: &ClusterConfig, n_ranks: usize) -> CcdResult {
    CcdResult::from_core(run_phase_spmd(set, config, n_ranks, CorePhase::Ccd))
}

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 4,
        n_members: 40,
        n_noise: 6,
        redundancy_frac: 0.0,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.002,
            deletion_rate: 0.002,
        },
        seed,
        ..DatasetConfig::tiny(seed)
    })
}

#[test]
fn both_engines_one_clustering() {
    let d = dataset(501);
    let config = ClusterConfig::default();
    let batched = run_ccd(&d.set, &config);
    let spmd = ccd_spmd(&d.set, &config, 4);
    assert_eq!(batched.components, spmd.components);
    assert_eq!(batched.n_merges, spmd.n_merges, "merges = n − #components");
}

#[test]
fn spmd_scales_across_rank_counts() {
    let d = dataset(502);
    let config = ClusterConfig::default();
    let reference = run_ccd(&d.set, &config).components;
    for ranks in 2..=6 {
        let spmd = ccd_spmd(&d.set, &config, ranks);
        assert_eq!(spmd.components, reference, "ranks = {ranks}");
    }
}

#[test]
fn mpi_supports_the_master_worker_conversation_shape() {
    // The exact message pattern the SPMD engine uses: workers push typed
    // batches, the master replies to the sender, wildcard receives mix.
    let echoed = run_spmd(4, |comm| {
        if comm.rank() == 0 {
            let mut total = 0u64;
            for _ in 1..comm.size() {
                let (from, batch) = poll::<Vec<u64>>(comm, ANY_SOURCE, 1).expect("healthy world");
                comm.send(from, 2, batch.iter().sum::<u64>()).expect("healthy world");
                total += batch.len() as u64;
            }
            total
        } else {
            let batch: Vec<u64> = (0..comm.rank() as u64).collect();
            comm.send(0, 1, batch).expect("healthy world");
            let (_, sum) = poll::<u64>(comm, 0, 2).expect("healthy world");
            sum
        }
    });
    assert_eq!(echoed[0], 6); // total items received: 0 + 1 + 2 + 3
    assert_eq!(echoed[2], 1); // sum of 0..2
    assert_eq!(echoed[3], 3); // sum of 0..3
}

#[test]
fn spmd_work_is_partitioned_not_replicated() {
    let d = dataset(503);
    let config = ClusterConfig::default();
    let spmd = ccd_spmd(&d.set, &config, 5);
    let reference = run_ccd(&d.set, &config);
    // Cross-rank duplicates exist but are bounded: the SPMD pair count
    // stays within a small factor of the deduped reference.
    let ratio =
        spmd.trace.total_generated() as f64 / reference.trace.total_generated().max(1) as f64;
    assert!((1.0..4.0).contains(&ratio), "pair inflation {ratio:.2} out of the expected range");
}
