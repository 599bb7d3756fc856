//! One alignment per pair per run: what RR's pair ledger and CCD's deferred
//! list change — the work — and what they must not — any result.
//!
//! Over random family corpora, for every driver of the CCD loop
//! ([`drive_batched`], [`drive_spmd`]), and the ledger present,
//! absent, and cut short by its budget:
//!
//! (a) the component graphs built from CCD's edges and deferred pairs
//!     ([`KnownPairs`]) equal the graphs mined from each component's own
//!     suffix index, as [`pfam_graph::CsrGraph`]s;
//! (b) RR keeps and removes the same reads, and CCD finds the same
//!     components — and, where the driver is deterministic, the same edges
//!     and generated / filtered counts — whatever the ledger answers;
//! (c) CCD's accepted edges, the pairs it aligned and refused, and the
//!     pairs it deferred partition the pairs it generated.
//!
//! *Which* pairs the closure filter defers depends on arrival order, so
//! deferred lists are compared per run against (a) and (c), never across
//! drivers.

mod common;

use std::sync::Arc;

use common::{assert_known_graphs_equal_mined, assert_partition};
use pfam_cluster::{
    drive_spmd, run_ccd_with_ledger, run_redundancy_removal, serve_push_worker, with_front_half,
    with_pair_source, CcdResult, ClusterConfig, ClusterCore, CorePhase, LocalTransport, PairLedger,
    RrResult, Verifier,
};
use pfam_datagen::{DatasetConfig, SyntheticDataset};
use pfam_seq::{MemoryBudget, SeqStore, SequenceSet, SubsetStore};
use pfam_suffix::{estimated_index_bytes, MatchPair};

fn corpus(seed: u64) -> SequenceSet {
    let config = DatasetConfig { n_families: 5, n_members: 70, ..DatasetConfig::tiny(seed) };
    SyntheticDataset::generate(&config).set
}

fn config() -> ClusterConfig {
    ClusterConfig { batch_size: 16, ..ClusterConfig::default() }
}

/// A ledger holding every `step`-th entry of `full` — what is left when
/// recording stopped early, or a checkpoint lost some.
fn thinned(full: &PairLedger, step: usize) -> Arc<PairLedger> {
    Arc::new(PairLedger::from_entries(full.entries().step_by(step), 0, &MemoryBudget::unlimited()))
}

/// The ψ_ccd stream over `store`.
fn pair_stream(store: &dyn SeqStore, cfg: &ClusterConfig) -> Vec<MatchPair> {
    with_pair_source(store, cfg, cfg.psi_ccd, None, |pairs, _, _| pairs.to_vec())
}

/// CCD over `store` with the push protocol: two workers, half the stream each.
fn drive_push(store: &dyn SeqStore, cfg: &ClusterConfig, ledger: &Arc<PairLedger>) -> CcdResult {
    let pairs = pair_stream(store, cfg);
    let halves = [pairs[..pairs.len() / 2].to_vec(), pairs[pairs.len() / 2..].to_vec()];
    let (mut transport, ports) = LocalTransport::new(2);
    let mut core = ClusterCore::new_ccd(store);
    std::thread::scope(|scope| {
        for (mut port, pairs) in ports.into_iter().zip(halves) {
            scope.spawn(move || {
                let verifier = Verifier::new(cfg, CorePhase::Ccd).with_ledger(ledger.clone());
                serve_push_worker(&mut port, &pairs, &verifier, store, cfg.batch_size);
            });
        }
        drive_spmd(&mut core, &mut transport).expect("healthy local world");
    });
    CcdResult::from_core(core)
}

/// CCD as the front half runs it — [`drive_batched`] on RR's index —
/// answered by `ledger`.
fn front_half_ccd(
    set: &SequenceSet,
    cfg: &ClusterConfig,
    rr: &RrResult,
    ledger: &Arc<PairLedger>,
) -> CcdResult {
    let rr = RrResult { ledger: ledger.clone(), ..rr.clone() };
    with_front_half(set, cfg, |front| front.ccd(&rr))
}

#[test]
fn the_ledger_changes_the_work_and_no_result() {
    for seed in [41u64, 42, 43] {
        let set = corpus(seed);
        let cfg = config();
        let rr = run_redundancy_removal(&set, &cfg);
        assert!(rr.kept.len() < set.len(), "seed {seed}: RR must remove something");
        assert!(rr.ledger.len() > 20, "seed {seed}: RR must leave answers behind");
        assert_eq!(rr.ledger.dropped(), 0);
        let ledgers = [
            ("full", rr.ledger.clone()),
            ("none", Arc::<PairLedger>::default()),
            ("every 3rd", thinned(&rr.ledger, 3)),
        ];
        let nr_store = SubsetStore::new(&set, rr.kept.clone());
        let kept = rr.kept.as_slice();

        // The reference: one master, no ledger.
        let reference = front_half_ccd(&set, &cfg, &rr, &ledgers[1].1);
        assert_partition(&reference, "reference");
        let (mined_fills, _) =
            assert_known_graphs_equal_mined(&set, &cfg, kept, &ledgers[1].1, &reference, "");
        let mut hits_seen = 0;
        for (name, ledger) in &ledgers {
            let what = format!("seed {seed}, drive_batched, ledger {name}");
            let ccd = front_half_ccd(&set, &cfg, &rr, ledger);
            assert_partition(&ccd, &what);
            assert_eq!(ccd.components, reference.components, "{what}");
            assert_eq!(ccd.n_merges, reference.n_merges, "{what}");
            assert_eq!(ccd.trace.total_generated(), reference.trace.total_generated());
            // The union-find saw the same verdicts in the same order.
            assert_eq!(ccd.edges, reference.edges, "{what}");
            assert_eq!(ccd.deferred, reference.deferred, "{what}");
            assert_eq!(ccd.trace.total_filtered(), reference.trace.total_filtered());
            let (fills, hits) =
                assert_known_graphs_equal_mined(&set, &cfg, kept, ledger, &ccd, &what);
            assert_eq!(hits == 0, ledger.is_empty(), "{what}");
            hits_seen += hits + ccd.trace.total_ledger_hits();
            assert_eq!(fills + hits, mined_fills, "{what}: same deferred pairs");
            let ccd = drive_push(&nr_store, &cfg, ledger);
            let what = format!("seed {seed}, drive_spmd, ledger {name}");
            assert_partition(&ccd, &what);
            assert_eq!(ccd.components, reference.components, "{what}");
            assert_known_graphs_equal_mined(&set, &cfg, kept, ledger, &ccd, &what);
        }
        assert!(hits_seen > 0, "seed {seed}: the ledger never answered");
    }
}

#[test]
fn a_ledger_cut_short_by_its_budget_costs_fills_not_results() {
    for (seed, room) in [(44u64, 9usize), (45, 40)] {
        let set = corpus(seed);
        let cfg = config();
        let want = run_redundancy_removal(&set, &cfg);
        let nr_store = SubsetStore::new(&set, want.kept.clone());
        let want_ccd = run_ccd_with_ledger(&nr_store, &cfg, &want.ledger);

        // Room for the index and `room` ledger entries: the index stays
        // monolithic (RR sees the same order), recording stops early.
        let index = estimated_index_bytes(set.total_residues(), set.len());
        let tight = ClusterConfig { budget: MemoryBudget::limited(index + 8 * room as u64), ..cfg };
        let rr = run_redundancy_removal(&set, &tight);
        assert_eq!((&rr.kept, &rr.removed), (&want.kept, &want.removed), "seed {seed}");
        assert_eq!(rr.trace, want.trace, "seed {seed}: RR does not read its ledger");
        assert!(rr.ledger.dropped() > 0 && rr.ledger.len() <= room, "seed {seed}");
        assert!(rr.ledger.entries().all(|(a, b, yes)| want.ledger.lookup(a, b) == Some(yes)));
        assert_eq!(tight.budget.used(), 8 * rr.ledger.len() as u64, "held while it lives");

        let nr_store = SubsetStore::new(&set, rr.kept.clone());
        let ccd = run_ccd_with_ledger(&nr_store, &tight, &rr.ledger);
        assert_eq!(ccd.components, want_ccd.components, "seed {seed}");
        assert_eq!(ccd.edges, want_ccd.edges, "seed {seed}");
        assert_eq!(ccd.deferred, want_ccd.deferred, "seed {seed}");
        let (t, w) = (&ccd.trace, &want_ccd.trace);
        assert_eq!(t.total_generated(), w.total_generated());
        assert_eq!(t.total_filtered(), w.total_filtered());
        assert_eq!(
            t.total_aligned() + t.total_ledger_hits(),
            w.total_aligned() + w.total_ledger_hits()
        );
        assert!(t.total_ledger_hits() < w.total_ledger_hits(), "seed {seed}: misses are fills");
        assert_known_graphs_equal_mined(&set, &tight, &rr.kept, &rr.ledger, &ccd, "tight");
        drop(rr);
        assert_eq!(tight.budget.used(), 0, "seed {seed}: the ledger's bytes go with it");
    }
}
