//! Interconnect topology models: how message latency grows with the
//! machine size.
//!
//! The BlueGene/L connects nodes in a 3-D torus, so the average hop count
//! between random nodes grows with p^(1/3); collective operations on the
//! dedicated tree network pay log₂(p). The replay model multiplies the
//! base link latency by a topology factor so machine growth has the
//! correct (mild) cost signature — one reason the paper's CCD time *rises*
//! again from 128 to 512 nodes.

/// The network shape of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Latency independent of machine size (idealised crossbar).
    Crossbar,
    /// Binary-tree collectives: factor `log₂(p)`.
    Tree,
    /// 3-D torus point-to-point: factor proportional to the mean hop
    /// count, `(3/4)·p^(1/3)` for a balanced torus.
    Torus3D,
}

impl Topology {
    /// Multiplier applied to the one-hop latency for a `p`-rank machine.
    pub fn latency_factor(&self, p: usize) -> f64 {
        let p = p.max(2) as f64;
        match self {
            Topology::Crossbar => 1.0,
            Topology::Tree => p.log2(),
            Topology::Torus3D => 0.75 * p.cbrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_flat() {
        assert_eq!(Topology::Crossbar.latency_factor(2), 1.0);
        assert_eq!(Topology::Crossbar.latency_factor(512), 1.0);
    }

    #[test]
    fn tree_grows_logarithmically() {
        let t = Topology::Tree;
        assert!((t.latency_factor(512) - 9.0).abs() < 1e-12);
        assert!((t.latency_factor(64) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn torus_grows_with_cube_root() {
        let t = Topology::Torus3D;
        let f64_ = t.latency_factor(64); // side 4 → 3
        let f512 = t.latency_factor(512); // side 8 → 6
        assert!((f512 / f64_ - 2.0).abs() < 1e-9, "8x nodes → 2x latency");
    }

    #[test]
    fn factors_ordered_at_scale() {
        for p in [64usize, 512] {
            let c = Topology::Crossbar.latency_factor(p);
            let t3 = Topology::Torus3D.latency_factor(p);
            let tr = Topology::Tree.latency_factor(p);
            assert!(c <= t3, "p={p}");
            assert!(t3 <= tr, "p={p}: torus {t3} vs tree {tr}");
        }
    }
}
