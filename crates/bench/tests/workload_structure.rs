//! Structural validation of the paper-analogous workloads: the 22K-like
//! set is held together by its planted bridge reads — clustering it
//! without them splits the giant component — and the 160K-like set has no
//! giant component to hold together.

use pfam_bench::{dataset_160k_like, dataset_22k_like};
use pfam_cluster::{run_ccd, ClusterConfig};
use pfam_seq::{SeqId, SubsetStore};

#[test]
fn bridge_reads_hold_the_giant_component_together() {
    let data = dataset_22k_like(0.6, 0x22);
    let config = ClusterConfig::default();
    let giant = run_ccd(&data.set, &config).components.iter().map(Vec::len).max().unwrap_or(0);
    assert!(giant as f64 > data.set.len() as f64 * 0.8, "giant must cover most reads");

    let regular: Vec<SeqId> =
        data.set.ids().filter(|&id| !data.set.header(id).starts_with("bridge")).collect();
    assert!(regular.len() < data.set.len(), "workload must contain bridge reads");
    let without_bridges = SubsetStore::new(&data.set, regular);
    let subfamily_of = |dense: SeqId| {
        let id = without_bridges.original_id(dense);
        data.benchmark.iter().position(|sf| sf.contains(&id))
    };
    // Regular members of different subfamilies share no edge (69 % mutual
    // coverage, under the 80 % cut-off): no component spans two of them.
    for component in run_ccd(&without_bridges, &config).components {
        let first = subfamily_of(component[0]);
        assert!(
            component.iter().all(|&id| subfamily_of(id) == first),
            "a component of {} reads spans subfamilies without a bridge",
            component.len()
        );
    }
}

#[test]
fn multi_family_set_has_no_giant_component() {
    // The 160K-like components are per-family: many of them, none
    // covering most of the reads.
    let data = dataset_160k_like(0.25, 0x160);
    let ccd = run_ccd(&data.set, &ClusterConfig::default());
    let largest = ccd.components.iter().map(Vec::len).max().unwrap_or(0);
    assert!(largest * 2 < data.set.len(), "largest component {largest} of {}", data.set.len());
    assert!(ccd.components.iter().filter(|c| c.len() >= 5).count() > 1);
}
