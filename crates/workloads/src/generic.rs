//! Generic workloads over externally supplied graphs (Gset/DIMACS files,
//! hand-built instances) so loaded problems get the same accuracy
//! treatment as the built-in COPs.

use crate::maxcut::{best_cut_reference, cut_weight};
use crate::spec::{CopKind, Workload, WorkloadShape};
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::SpinVector;

/// A weighted max-cut instance over an arbitrary graph (the natural
/// reading of Gset files and of any graph whose couplings are
/// non-positive). Accuracy is the achieved cut over a multi-start greedy
/// reference computed at construction.
#[derive(Debug, Clone)]
pub struct GenericMaxCut {
    name: String,
    graph: IsingGraph,
    reference_cut: i64,
}

impl GenericMaxCut {
    /// Wraps a graph as a max-cut workload.
    ///
    /// # Panics
    ///
    /// Panics if any coupling is positive (a ferromagnetic bond has no
    /// max-cut reading; negate the weights or use a dedicated workload).
    pub fn new(name: impl Into<String>, graph: IsingGraph) -> Self {
        for (u, v, w) in graph.edges() {
            assert!(
                w <= 0,
                "max-cut expects non-positive couplings, edge ({u},{v}) has {w}"
            );
        }
        let reference_cut = best_cut_reference(&graph, 0xcafe);
        GenericMaxCut {
            name: name.into(),
            graph,
            reference_cut,
        }
    }

    /// The greedy multi-start reference cut.
    pub fn reference_cut(&self) -> i64 {
        self.reference_cut
    }

    /// Cut weight of an assignment.
    pub fn cut_weight(&self, spins: &SpinVector) -> i64 {
        cut_weight(&self.graph, spins)
    }
}

impl Workload for GenericMaxCut {
    fn kind(&self) -> CopKind {
        // Max-cut is the paper's image-segmentation family.
        CopKind::ImageSegmentation
    }

    fn name(&self) -> String {
        format!("max-cut({})", self.name)
    }

    fn graph(&self) -> &IsingGraph {
        &self.graph
    }

    fn shape(&self) -> WorkloadShape {
        WorkloadShape::new(
            self.graph.num_spins() as u64,
            self.graph.max_degree() as u64,
            self.graph.bits_required(),
        )
    }

    fn accuracy(&self, spins: &SpinVector) -> f64 {
        if self.reference_cut == 0 {
            return 1.0;
        }
        (self.cut_weight(spins) as f64 / self.reference_cut as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::io::parse_gset;
    use sachi_ising::prelude::*;

    #[test]
    fn wraps_a_gset_instance_end_to_end() {
        // An 8-cycle: bipartite, max cut = 8.
        let text = "8 8\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 6 1\n6 7 1\n7 8 1\n8 1 1\n";
        let graph = parse_gset(text).unwrap();
        let w = GenericMaxCut::new("cycle8", graph);
        assert_eq!(w.reference_cut(), 8);
        assert_eq!(w.shape().spins, 8);
        assert!(w.name().contains("cycle8"));

        let mut rng = StdRng::seed_from_u64(1);
        let init = SpinVector::random(8, &mut rng);
        // Unit couplings freeze fast; a slower schedule plus restarts
        // reliably reaches the bipartition.
        let opts = SolveOptions {
            schedule: Schedule::new(4.0, 0.95, 0.05),
            ..SolveOptions::for_graph(w.graph(), 2)
        };
        let r = EnsembleRunner::new(12)
            .run_reference(w.graph(), &init, &opts)
            .into_best();
        assert!(
            (w.accuracy(&r.spins) - 1.0).abs() < 1e-12,
            "cut {}",
            w.cut_weight(&r.spins)
        );
    }

    #[test]
    fn accuracy_is_zero_for_uncut_assignment() {
        let graph = topology::complete(6, |_, _| -2).unwrap();
        let w = GenericMaxCut::new("k6", graph);
        let all = SpinVector::filled(6, Spin::Up);
        assert_eq!(w.accuracy(&all), 0.0);
        assert!(w.reference_cut() > 0);
    }

    #[test]
    #[should_panic(expected = "non-positive couplings")]
    fn rejects_ferromagnetic_bonds() {
        let graph = GraphBuilder::new(2).edge(0, 1, 3).build().unwrap();
        let _ = GenericMaxCut::new("bad", graph);
    }
}
