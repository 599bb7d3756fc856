//! End-to-end identity of the tiered alignment engine: with
//! `align_engine = Tiered` every phase — RR, CCD (batched, resumable,
//! SPMD), BGG — must produce outputs bit-identical to
//! `align_engine = Reference`, because the screens only reject on proven
//! bounds and the one-pass fill replays the reference traceback.

use pfam::cluster::{
    component_graph, run_ccd, run_phase_spmd, run_redundancy_removal, AlignEngineKind, CcdResult,
    ClusterConfig, CorePhase,
};
use pfam::datagen::{DatasetConfig, MutationModel, SyntheticDataset};

fn dataset(seed: u64) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig {
        n_families: 3,
        n_members: 20,
        n_noise: 5,
        mutation: MutationModel {
            substitution_rate: 0.12,
            conservative_fraction: 0.6,
            insertion_rate: 0.002,
            deletion_rate: 0.002,
        },
        ..DatasetConfig::tiny(seed)
    })
}

fn config(kind: AlignEngineKind) -> ClusterConfig {
    ClusterConfig { align_engine: kind, batch_size: 16, ..ClusterConfig::default() }
}

#[test]
fn rr_is_bit_identical_across_engines() {
    let d = dataset(4201);
    let reference = run_redundancy_removal(&d.set, &config(AlignEngineKind::Reference));
    let tiered = run_redundancy_removal(&d.set, &config(AlignEngineKind::Tiered));
    assert_eq!(tiered.kept, reference.kept);
    assert_eq!(tiered.removed, reference.removed);
    // Work accounting: the simulator-facing task costs are identical
    // (engine-independent by construction); the reference engine skips
    // nothing, and the tiered engine fills each rectangle at most once —
    // a pair is screened (0 computed, m·n skipped), rejected on its score
    // (m·n, m·n) or traced (m·n, 0).
    assert_eq!(tiered.trace.total_cells(), reference.trace.total_cells());
    assert_eq!(reference.trace.total_cells_skipped(), 0);
    assert_eq!(
        reference.trace.total_cells_computed(),
        reference.trace.total_cells(),
        "reference computes exactly the full rectangles"
    );
    let (computed, skipped) =
        (tiered.trace.total_cells_computed(), tiered.trace.total_cells_skipped());
    assert!(computed <= tiered.trace.total_cells(), "tiered RR filled a rectangle twice");
    assert!(skipped <= tiered.trace.total_cells());
    assert!(
        computed + skipped >= tiered.trace.total_cells(),
        "a tiered RR pair was neither filled nor counted as skipped"
    );
}

#[test]
fn ccd_is_bit_identical_across_engines() {
    let d = dataset(4202);
    let reference = run_ccd(&d.set, &config(AlignEngineKind::Reference));
    let tiered = run_ccd(&d.set, &config(AlignEngineKind::Tiered));
    assert_eq!(tiered.components, reference.components);
    assert_eq!(tiered.edges, reference.edges);
    assert_eq!(tiered.n_merges, reference.n_merges);
    assert_eq!(tiered.trace.total_cells(), reference.trace.total_cells());
}

#[test]
fn bgg_graphs_are_bit_identical_across_engines() {
    let d = dataset(4203);
    let components = run_ccd(&d.set, &config(AlignEngineKind::Tiered)).components;
    let large: Vec<_> = components.iter().filter(|c| c.len() >= 2).collect();
    assert!(!large.is_empty(), "no component to build a graph of");
    for members in large {
        let (r, _) = component_graph(&d.set, members, &config(AlignEngineKind::Reference));
        let (t, _) = component_graph(&d.set, members, &config(AlignEngineKind::Tiered));
        assert_eq!(t.members, r.members);
        assert_eq!(t.graph.n_edges(), r.graph.n_edges());
        for v in 0..t.graph.n_vertices() as u32 {
            assert_eq!(t.graph.neighbors(v), r.graph.neighbors(v), "vertex {v}");
        }
    }
}

#[test]
fn spmd_engines_are_bit_identical_across_engines() {
    let d = dataset(4204);
    let spmd =
        |engine| CcdResult::from_core(run_phase_spmd(&d.set, &config(engine), 3, CorePhase::Ccd));
    let reference = spmd(AlignEngineKind::Reference);
    let tiered = spmd(AlignEngineKind::Tiered);
    assert_eq!(tiered.components, reference.components);
}
