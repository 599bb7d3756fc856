//! The sharded clustering plane — K master shards instead of one.
//!
//! The single-master CCD loop serializes every filter decision and merge
//! through one rank; past a few hundred workers that master is the whole
//! story of the scaling curve (the paper's Fig. 7a flattens for exactly
//! this reason). This module partitions the *clustering state itself*:
//!
//! 1. **Ownership** — every sequence id hashes to one of K shards
//!    ([`shard_of`], a stable splitmix64 hash, so ownership is
//!    reproducible across runs and processes).
//! 2. **Routing** — a router drains the global pair stream in generation
//!    order and forwards each pair to its deterministic owner shard
//!    ([`owner_shard`]): the endpoints' common shard when they agree,
//!    otherwise a hash of the unordered shard pair picks one of the two.
//!    Pairs travel in per-shard batches over the existing
//!    [`crate::transport`] wire protocol ([`MasterMsg::ShardPairs`]).
//! 3. **Intra-shard CCD** — each shard runs an ordinary
//!    [`ClusterCore`] over its routed subsequence of the stream, driven
//!    by [`BatchedPush`] in process (by [`LeasedPull`] over a rank group
//!    in the SPMD rendering).
//! 4. **Merge tree** — shard forests combine up a binary tree
//!    ([`MasterMsg::Merge`] / [`WorkerMsg::Forest`], relayed by the
//!    router): ⌈log₂ K⌉ rounds instead of K serial merges. Shard 0 ends
//!    holding the global clustering.
//!
//! **Why components are bit-identical to the single master.** The final
//! CCD partition is the transitive closure of the accepted edges, and a
//! verdict is a pure function of the two sequences. Sharding only makes
//! each shard's closure *filter* less sharp (a shard cannot see another
//! shard's merges), which can only let more pairs through to
//! verification — it can never change which endpoints end up connected.
//! [`ClusterCore::merge_forest`] then takes the closure across shards,
//! and `n_merges` agrees too: every successful union shrinks the set
//! count by exactly one from the same `n` singletons, so both paths end
//! at `n − C`. The driver matrix pins this for every source × K
//! combination.

use std::sync::Arc;

use pfam_align::CostModel;
use pfam_seq::{SeqStore, SequenceSet};
use pfam_suffix::MatchPair;

use crate::ccd::CcdResult;
use crate::config::ClusterConfig;
use crate::core::{ClusterCore, CorePhase, ShardForest, Verifier};
use crate::ledger::PairLedger;
use crate::policy::{
    serve_pull_worker, wire_pairs, BatchedPush, LeaseKnobs, LeasedPull, WorkPolicy,
};
use crate::source::{with_source_pinned, PairSource, SharedIndex};
use crate::supervise::HealthReport;
use crate::trace::PhaseTrace;
use crate::transport::{
    LocalTransport, MasterMsg, MpiTransport, MpiWorkerPort, Transport, WorkerMsg, WorkerPort,
};

/// The splitmix64 mixer: a stable stream, so shard ownership is
/// reproducible across runs and processes.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The master shard owning sequence `id` under `k` shards: a stable hash,
/// independent of set size, insertion order, and process.
pub fn shard_of(id: u32, k: usize) -> usize {
    (splitmix64(id as u64) % k.max(1) as u64) as usize
}

/// The shard that processes pair `(a, b)` under `k` shards. Pairs whose
/// endpoints share a shard stay there; cross-shard pairs pick one of the
/// two endpoint shards by a hash of the *unordered* shard pair, so the
/// choice is deterministic and symmetric in `a`/`b`.
pub fn owner_shard(a: u32, b: u32, k: usize) -> usize {
    let (sa, sb) = (shard_of(a, k), shard_of(b, k));
    if sa == sb {
        return sa;
    }
    let (lo, hi) = (sa.min(sb), sa.max(sb));
    if splitmix64(((lo as u64) << 32) | hi as u64) & 1 == 0 {
        lo
    } else {
        hi
    }
}

/// A [`PairSource`] fed by routed [`MasterMsg::ShardPairs`] batches off a
/// [`WorkerPort`] — the shard-side end of the routing wire.
///
/// Blocks until it can return exactly `max` pairs or the router's
/// [`MasterMsg::SourceDone`] arrived: every driver in [`crate::policy`]
/// treats a short batch as end-of-stream (the pull scheduler's lease
/// builder in particular), so a short batch mid-stream would truncate
/// the shard's work.
pub struct PortSource<'p, P: WorkerPort + ?Sized> {
    port: &'p mut P,
    buf: std::collections::VecDeque<MatchPair>,
    done: bool,
}

impl<'p, P: WorkerPort + ?Sized> PortSource<'p, P> {
    /// Wrap a shard's port for the routing phase. The borrow ends with
    /// the drive; the merge-tree exchange reuses the port afterwards.
    pub fn new(port: &'p mut P) -> Self {
        PortSource { port, buf: std::collections::VecDeque::new(), done: false }
    }
}

impl<P: WorkerPort + ?Sized> PairSource for PortSource<'_, P> {
    fn next_batch(&mut self, max: usize) -> Vec<MatchPair> {
        while self.buf.len() < max && !self.done {
            match self.port.try_recv() {
                Ok(Some(MasterMsg::ShardPairs { pairs })) => self.buf.extend(wire_pairs(&pairs)),
                Ok(Some(MasterMsg::SourceDone)) => self.done = true,
                Ok(Some(MasterMsg::Merge { .. })) => {
                    unreachable!("the router routes all pairs before relaying any merge")
                }
                Ok(Some(_)) => {}
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("shard plane transport must stay healthy: {e}"),
            }
        }
        let take = self.buf.len().min(max);
        self.buf.drain(..take).collect()
    }
}

/// Router half: drain `source` in generation order, bucket every pair by
/// [`owner_shard`], flush per-shard batches of `route_batch` pairs, then
/// close each shard's stream with [`MasterMsg::SourceDone`].
fn route_pairs<T: Transport + ?Sized>(
    transport: &mut T,
    source: &mut dyn PairSource,
    k: usize,
    route_batch: usize,
) {
    let route_batch = route_batch.max(1);
    let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
    loop {
        let batch = source.next_batch(route_batch);
        if batch.is_empty() {
            break;
        }
        for p in &batch {
            let s = owner_shard(p.a.0, p.b.0, k);
            buckets[s].push((p.a.0, p.b.0));
            if buckets[s].len() >= route_batch {
                let pairs = std::mem::take(&mut buckets[s]);
                transport
                    .send(s, MasterMsg::ShardPairs { pairs })
                    .expect("shard plane transport must stay healthy");
            }
        }
    }
    for (s, bucket) in buckets.into_iter().enumerate() {
        if !bucket.is_empty() {
            transport
                .send(s, MasterMsg::ShardPairs { pairs: bucket })
                .expect("shard plane transport must stay healthy");
        }
        transport.send(s, MasterMsg::SourceDone).expect("shard plane transport must stay healthy");
    }
}

/// Router half of the merge tree: relay exactly `k − 1`
/// [`WorkerMsg::Forest`] messages to their receiving shards as
/// [`MasterMsg::Merge`]. The router never opens a forest — the merge
/// arithmetic happens in the shards' cores, so the grep gate keeping raw
/// union-find mutation inside `core.rs` holds here too.
fn relay_merges<T: Transport + ?Sized>(transport: &mut T, k: usize) {
    let mut remaining = k.saturating_sub(1);
    while remaining > 0 {
        match transport.try_recv() {
            Ok(Some((_, WorkerMsg::Forest { to, forest }))) => {
                transport
                    .send(to, MasterMsg::Merge { forest })
                    .expect("shard plane transport must stay healthy");
                remaining -= 1;
            }
            Ok(Some(_)) => {}
            Ok(None) => std::thread::yield_now(),
            Err(e) => panic!("shard plane transport must stay healthy: {e}"),
        }
    }
}

/// A shard's place in the binary merge tree: how many peer forests it
/// folds before acting, and — for every shard but 0 — which shard its own
/// forest then goes to. Rounds stride 1, 2, 4, …: at stride `s`, shard
/// `i` with `i mod 2s == s` sends to `i − s` and leaves the tree; shard
/// `i` with `i mod 2s == 0` folds its partner's forest if one exists.
/// Fold order does not matter ([`ClusterCore::merge_forest`] is a
/// transitive closure), so a shard just counts its expected receives.
fn merge_role(me: usize, k: usize) -> (usize, Option<usize>) {
    let mut expect = 0usize;
    let mut stride = 1usize;
    while stride < k {
        if me % (2 * stride) == stride {
            return (expect, Some(me - stride));
        }
        if me + stride < k {
            expect += 1;
        }
        stride *= 2;
    }
    (expect, None)
}

/// Block until the router relays the next peer forest to this shard.
fn wait_merge<P: WorkerPort + ?Sized>(port: &mut P) -> ShardForest {
    loop {
        match port.try_recv() {
            Ok(Some(MasterMsg::Merge { forest })) => return forest,
            Ok(Some(_)) => {}
            Ok(None) => std::thread::yield_now(),
            Err(e) => panic!("shard plane transport must stay healthy: {e}"),
        }
    }
}

/// One shard's whole life: intra-shard CCD over the routed stream
/// ([`BatchedPush`], like the single master), then the merge-tree
/// exchange. Returns the shard's work trace and — on shard 0 only — the
/// merged global result.
fn run_shard<P: WorkerPort + ?Sized>(
    set: &dyn SeqStore,
    verifier: &Verifier,
    batch_size: usize,
    me: usize,
    k: usize,
    port: &mut P,
) -> (PhaseTrace, Option<CcdResult>) {
    let mut core = ClusterCore::new_ccd(set);
    BatchedPush {
        source: &mut PortSource::new(port),
        verifier,
        batch_size,
        checkpoint_every: 0,
        on_checkpoint: &mut |_| {},
    }
    .drive(&mut core)
    .expect("the batched in-process policy cannot fail");
    // The shard's own trace, pre-merge-tree (merging touches no trace
    // state): the plane concatenates these into the global trace and the
    // simulator replays them as parallel per-shard stages.
    let trace = core.cursor().trace;
    (trace, finish_merge_tree(core, me, k, port))
}

/// Merge-tree tail shared by the in-process and SPMD shard masters: fold
/// the expected peer forests into `core`, then either ship this shard's
/// forest down the tree (returning `None`) or — on shard 0 — keep the
/// merged global result.
fn finish_merge_tree<P: WorkerPort + ?Sized>(
    mut core: ClusterCore<'_>,
    me: usize,
    k: usize,
    port: &mut P,
) -> Option<CcdResult> {
    let (expect, send_to) = merge_role(me, k);
    for _ in 0..expect {
        let forest = wait_merge(port);
        core.merge_forest(&forest);
    }
    match send_to {
        Some(to) => {
            port.send(WorkerMsg::Forest { to, forest: core.export_forest() })
                .expect("shard plane transport must stay healthy");
            None
        }
        None => Some(CcdResult::from_core(core)),
    }
}

/// A sharded CCD run with the per-shard breakdown kept.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The merged global result — components bit-identical to the
    /// single-master run; its trace is the shard traces concatenated in
    /// shard order.
    pub result: CcdResult,
    /// Each shard's own work trace (the simulator's per-shard stages).
    pub shard_traces: Vec<PhaseTrace>,
}

/// The in-process sharded plane: K shard threads around a router thread
/// (this one), all over [`LocalTransport`]'s addressed queues.
pub(crate) fn shard_plane(
    set: &dyn SeqStore,
    config: &ClusterConfig,
    ledger: &Arc<PairLedger>,
    source: &mut dyn PairSource,
) -> ShardRun {
    let k = config.shard.shards;
    let route_batch = config.shard.resolved_route_batch(config.batch_size);
    let verifier = &Verifier::new(config, CorePhase::Ccd).with_ledger(ledger.clone());
    let (mut transport, ports) = LocalTransport::new(k);
    let outcomes: Vec<(PhaseTrace, Option<CcdResult>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ports
            .into_iter()
            .enumerate()
            .map(|(me, mut port)| {
                scope.spawn(move || run_shard(set, verifier, config.batch_size, me, k, &mut port))
            })
            .collect();
        route_pairs(&mut transport, source, k, route_batch);
        relay_merges(&mut transport, k);
        handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect()
    });
    let mut result: Option<CcdResult> = None;
    let mut shard_traces = Vec::with_capacity(k);
    for (trace, res) in outcomes {
        shard_traces.push(trace);
        if res.is_some() {
            result = res;
        }
    }
    let mut result = result.expect("shard 0 carries the merged result");
    result.trace = PhaseTrace {
        index_residues: set.total_residues() as u64,
        nodes_visited: source.nodes_visited(),
        batches: shard_traces.iter().flat_map(|t| t.batches.iter().cloned()).collect(),
    };
    ShardRun { result, shard_traces }
}

/// Run CCD through the sharded plane (see the module docs), keeping the
/// per-shard breakdown. Components — and `n_merges` — are bit-identical to
/// the single master for every shard count. With `shards ≤ 1` this *is*
/// the single master ([`crate::ccd::run_ccd`]): one shard, one trace.
pub fn run_ccd_sharded(set: &dyn SeqStore, config: &ClusterConfig) -> ShardRun {
    sharded_over(set, config, None, &Arc::default())
}

/// [`run_ccd_sharded`], mining `shared` when the run holds an index of
/// the in-memory set `set` is a view of, and answering from `ledger`.
pub(crate) fn sharded_over(
    set: &dyn SeqStore,
    config: &ClusterConfig,
    shared: Option<&SharedIndex<'_>>,
    ledger: &Arc<PairLedger>,
) -> ShardRun {
    if !config.shard.enabled() {
        let result = crate::ccd::ccd_over(set, config, shared, ledger, None, 0, &mut |_| {});
        let shard_traces = vec![result.trace.clone()];
        return ShardRun { result, shard_traces };
    }
    if set.is_empty() {
        return ShardRun {
            result: CcdResult::empty(),
            shard_traces: vec![PhaseTrace::default(); config.shard.shards],
        };
    }
    let threads = config.index_threads();
    with_source_pinned(set, config, config.psi_ccd, threads, None, shared, |source, _| {
        shard_plane(set, config, ledger, source)
    })
}

/// The sharded plane as a real SPMD program over `pfam-mpi`: rank 0 is
/// the router, world ranks `1..=K` are the shard masters, and each shard
/// gets `workers_per_shard` dedicated worker ranks above those.
///
/// The world communicator carries the routing and merge-tree traffic
/// (router rank 0 ↔ shard master `s` at world rank `s + 1`, so
/// [`MpiTransport`]'s master-side addressing works unchanged). Each shard
/// then carves its own *group* communicator out of the world with
/// [`pfam_mpi::Communicator::split`] — color = shard id, the master
/// keyed first — and runs the intra-shard [`LeasedPull`] protocol over
/// it, workers serving [`serve_pull_worker`] on the group's wire.
///
/// Components are bit-identical to [`crate::ccd::run_ccd`], like every
/// other path through the plane. The returned trace is shard 0's own
/// share of the work — per-shard trace collection is an in-process-plane
/// feature ([`run_ccd_sharded`]).
pub fn run_ccd_sharded_spmd(set: &SequenceSet, config: &ClusterConfig) -> CcdResult {
    let k = config.shard.shards.max(1);
    let w = config.shard.workers_per_shard.max(1);
    if set.is_empty() {
        return CcdResult::empty();
    }
    // Shared read-only state, built once (in MPI this would be the
    // distributed construction): the router mines the global stream from
    // the same masked index view every in-process driver uses.
    let index_set = crate::mask::index_view(set, &config.mask);
    pfam_suffix::with_match_tree(
        &index_set,
        config.psi_ccd,
        config.max_pairs_per_node,
        config.index_threads(),
        |tree, match_config| run_sharded_world(set, config, k, w, tree, match_config),
    )
}

/// The SPMD world of [`run_ccd_sharded_spmd`], over a finished index.
fn run_sharded_world(
    set: &SequenceSet,
    config: &ClusterConfig,
    k: usize,
    w: usize,
    tree: &pfam_suffix::SuffixTree<'_>,
    match_config: pfam_suffix::MaximalMatchConfig,
) -> CcdResult {
    let route_batch = config.shard.resolved_route_batch(config.batch_size);
    let n_ranks = 1 + k + k * w;
    let results = pfam_mpi::run_spmd(n_ranks, |comm| -> Option<CcdResult> {
        let rank = comm.rank();
        if rank == 0 {
            // The router is alone in its split color (every rank must
            // join the collective), then routes and relays on the world.
            let _solo = comm.split(k, 0).expect("split on a healthy world cannot fail");
            let mut source = crate::source::MinedSource::new(tree, match_config, 1);
            let mut transport = MpiTransport::master(comm);
            route_pairs(&mut transport, &mut source, k, route_batch);
            relay_merges(&mut transport, k);
            None
        } else if rank <= k {
            // Shard master: group rank 0 of its shard's communicator.
            let me = rank - 1;
            let mut group = comm.split(me, 0).expect("split on a healthy world cannot fail");
            let mut port = MpiWorkerPort::new(comm);
            let mut core = ClusterCore::new_ccd(set);
            {
                let mut source = PortSource::new(&mut port);
                let cost = CostModel::new();
                let mut intra = MpiTransport::master(&mut group);
                LeasedPull {
                    transport: &mut intra,
                    source: &mut source,
                    batch_size: config.batch_size,
                    cost: &cost,
                    knobs: LeaseKnobs::default(),
                    health: HealthReport::default(),
                }
                .drive(&mut core)
                .expect("a healthy shard group cannot run out of workers");
            }
            finish_merge_tree(core, me, k, &mut port)
        } else {
            // Worker: serves pull leases on its shard's group wire.
            let shard = (rank - k - 1) / w;
            let mut group = comm.split(shard, rank).expect("split on a healthy world cannot fail");
            let verifier = Verifier::new(config, CorePhase::Ccd);
            let mut port = MpiWorkerPort::new(&mut group);
            serve_pull_worker(&mut port, &verifier, set);
            None
        }
    });
    // Shard 0's master sits at world rank 1.
    results.into_iter().nth(1).flatten().expect("shard 0's master returns the result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::run_ccd;
    use crate::config::ShardParams;
    use pfam_datagen::{DatasetConfig, SyntheticDataset};

    #[test]
    fn ownership_is_stable_and_in_range() {
        for k in [1usize, 2, 3, 8, 1000] {
            for id in 0..200u32 {
                let s = shard_of(id, k);
                assert!(s < k);
                assert_eq!(s, shard_of(id, k), "stable");
            }
        }
    }

    #[test]
    fn owner_shard_is_symmetric_and_an_endpoint_shard() {
        for k in [2usize, 3, 8] {
            for a in 0..40u32 {
                for b in 0..40u32 {
                    if a == b {
                        continue;
                    }
                    let o = owner_shard(a, b, k);
                    assert_eq!(o, owner_shard(b, a, k), "symmetric");
                    assert!(
                        o == shard_of(a, k) || o == shard_of(b, k),
                        "owner must be an endpoint's shard"
                    );
                }
            }
        }
    }

    #[test]
    fn ownership_spreads_across_shards() {
        // Not a uniformity proof — just that the hash is not degenerate.
        let k = 8;
        let mut seen = vec![false; k];
        for id in 0..64u32 {
            seen[shard_of(id, k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 ids should touch all 8 shards");
    }

    #[test]
    fn merge_role_sends_exactly_k_minus_one_forests() {
        for k in [1usize, 2, 3, 5, 8, 16, 33] {
            let mut senders = 0usize;
            let mut receives = 0usize;
            for me in 0..k {
                let (expect, to) = merge_role(me, k);
                receives += expect;
                if let Some(to) = to {
                    assert!(to < me, "forests flow toward shard 0");
                    senders += 1;
                } else {
                    assert_eq!(me, 0, "only shard 0 keeps its forest");
                }
            }
            assert_eq!(senders, k.saturating_sub(1));
            assert_eq!(receives, k.saturating_sub(1), "every sent forest is folded once");
        }
    }

    #[test]
    fn sharded_components_match_single_master() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(31));
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        for k in [2usize, 3, 8, d.set.len() + 7] {
            let cfg = ClusterConfig {
                shard: ShardParams { shards: k, ..Default::default() },
                ..config.clone()
            };
            let r = run_ccd_sharded(&d.set, &cfg).result;
            assert_eq!(r.components, reference.components, "K={k}");
            assert_eq!(r.n_merges, reference.n_merges, "K={k}");
        }
    }

    #[test]
    fn run_ccd_routes_through_the_plane() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(32));
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        let cfg = ClusterConfig {
            shard: ShardParams { shards: 4, ..Default::default() },
            ..config.clone()
        };
        let r = run_ccd(&d.set, &cfg);
        assert_eq!(r.components, reference.components);
        // The routed stream still accounts for every generated pair.
        assert_eq!(r.trace.total_generated(), reference.trace.total_generated());
    }

    #[test]
    fn detailed_run_keeps_per_shard_traces() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(33));
        let cfg = ClusterConfig {
            shard: ShardParams { shards: 3, ..Default::default() },
            ..ClusterConfig::default()
        };
        let run = run_ccd_sharded(&d.set, &cfg);
        assert_eq!(run.shard_traces.len(), 3);
        let per_shard: usize = run.shard_traces.iter().map(|t| t.total_generated()).sum();
        assert_eq!(per_shard, run.result.trace.total_generated(), "routing loses no pairs");
        let reference = run_ccd(&d.set, &ClusterConfig::default());
        assert_eq!(run.result.components, reference.components);
    }

    #[test]
    fn empty_and_single_inputs() {
        let cfg = ClusterConfig {
            shard: ShardParams { shards: 4, ..Default::default() },
            ..ClusterConfig::default()
        };
        let r = run_ccd_sharded(&SequenceSet::new(), &cfg).result;
        assert!(r.components.is_empty());
        let mut b = pfam_seq::SequenceSetBuilder::new();
        b.push_letters("a".into(), b"MKVLWAAKNDCQEGHILKMFPSTWYV").unwrap();
        let one = b.finish();
        let r = run_ccd_sharded(&one, &cfg).result;
        assert_eq!(r.components.len(), 1);
    }

    #[test]
    fn spmd_plane_matches_single_master() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(35));
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        for k in [1usize, 2, 3] {
            let cfg = ClusterConfig {
                shard: ShardParams { shards: k, workers_per_shard: 2, ..Default::default() },
                ..config.clone()
            };
            let r = run_ccd_sharded_spmd(&d.set, &cfg);
            assert_eq!(r.components, reference.components, "K={k} over real rank groups");
            assert_eq!(r.n_merges, reference.n_merges, "K={k}");
        }
    }

    #[test]
    fn spmd_plane_empty_set_short_circuits() {
        let cfg = ClusterConfig {
            shard: ShardParams { shards: 3, ..Default::default() },
            ..ClusterConfig::default()
        };
        assert!(run_ccd_sharded_spmd(&SequenceSet::new(), &cfg).components.is_empty());
    }

    #[test]
    fn k_of_one_delegates_to_single_master() {
        let d = SyntheticDataset::generate(&DatasetConfig::tiny(34));
        let config = ClusterConfig::default();
        let reference = run_ccd(&d.set, &config);
        let r = run_ccd_sharded(&d.set, &config).result;
        assert_eq!(r.components, reference.components);
        assert_eq!(r.edges, reference.edges, "K=1 is literally the reference path");
        assert_eq!(r.trace, reference.trace);
    }
}
