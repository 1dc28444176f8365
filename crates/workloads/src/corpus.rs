//! The seeded workload corpus behind `disc_quality` and the
//! quality-regression gates.
//!
//! Instances are generated, never shipped: every cell names a
//! `(family, parameters, seed)` triple and the [`SplitMix64`] stream
//! makes the generated bytes identical across runs, thread counts, and
//! machines. Cell seeds are derived from one master seed via
//! [`sachi_ising::ensemble::derive_replica_seed`], so corpus growth
//! never reshuffles existing instances.

use crate::coloring::{ColoringInstance, ColoringWorkload};
use crate::encode::EncodeError;
use crate::sat::{SatInstance, SatWorkload};
use crate::scheduling::{SchedulingInstance, SchedulingWorkload};
use crate::spec::{CopKind, Workload, WorkloadShape};
use sachi_ising::ensemble::derive_replica_seed;
use sachi_ising::graph::IsingGraph;
use sachi_ising::spin::SpinVector;

/// SplitMix64 (Steele/Lea/Flood): the same generator the replica-seed
/// derivation and the fault streams use, exposed for instance
/// generation. Byte-for-byte deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Golden-ratio increment.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Starts a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` via Lemire's multiply-shift (one draw, bias
    /// below 2⁻⁶⁴ — negligible against the corpus tolerances and, unlike
    /// rejection, a fixed draw count per call).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

/// Master seed of the committed corpus. Changing it regenerates every
/// instance and invalidates `BENCH_quality.json` — bump only together
/// with a fresh baseline.
pub const CORPUS_MASTER_SEED: u64 = 0x5AC1_2026_0001;

/// One corpus cell: a named, seeded instance of one family.
pub struct CorpusCase {
    /// Stable cell identifier, used as the JSON row key
    /// (e.g. `sat_n20_planted`).
    pub id: &'static str,
    /// Whether the `--smoke` subset includes this cell.
    pub smoke: bool,
    workload: CorpusWorkload,
}

enum CorpusWorkload {
    Sat(SatWorkload),
    Coloring(ColoringWorkload),
    Scheduling(SchedulingWorkload),
}

impl CorpusCase {
    /// The workload family.
    pub fn kind(&self) -> CopKind {
        match &self.workload {
            CorpusWorkload::Sat(w) => w.kind(),
            CorpusWorkload::Coloring(w) => w.kind(),
            CorpusWorkload::Scheduling(w) => w.kind(),
        }
    }

    /// Human-readable workload name.
    pub fn name(&self) -> String {
        match &self.workload {
            CorpusWorkload::Sat(w) => w.name(),
            CorpusWorkload::Coloring(w) => w.name(),
            CorpusWorkload::Scheduling(w) => w.name(),
        }
    }

    /// The encoded Ising graph.
    pub fn graph(&self) -> &IsingGraph {
        match &self.workload {
            CorpusWorkload::Sat(w) => w.graph(),
            CorpusWorkload::Coloring(w) => w.graph(),
            CorpusWorkload::Scheduling(w) => w.graph(),
        }
    }

    /// The architectural shape.
    pub fn shape(&self) -> WorkloadShape {
        match &self.workload {
            CorpusWorkload::Sat(w) => w.shape(),
            CorpusWorkload::Coloring(w) => w.shape(),
            CorpusWorkload::Scheduling(w) => w.shape(),
        }
    }

    /// Domain accuracy in `[0, 1]` of a machine state.
    pub fn accuracy(&self, spins: &SpinVector) -> f64 {
        match &self.workload {
            CorpusWorkload::Sat(w) => w.accuracy(spins),
            CorpusWorkload::Coloring(w) => w.accuracy(spins),
            CorpusWorkload::Scheduling(w) => w.accuracy(spins),
        }
    }

    /// The family's raw domain metric for a machine state, with its
    /// unit: satisfied clause weight for SAT, conflicting edges for
    /// coloring, makespan for scheduling.
    pub fn domain_metric(&self, spins: &SpinVector) -> (i64, &'static str) {
        match &self.workload {
            CorpusWorkload::Sat(w) => (w.satisfied_weight(spins), "satisfied_weight"),
            CorpusWorkload::Coloring(w) => (w.conflicts(spins) as i64, "conflicts"),
            CorpusWorkload::Scheduling(w) => (w.makespan(spins), "makespan"),
        }
    }
}

fn cell_seed(index: u64) -> u64 {
    derive_replica_seed(CORPUS_MASTER_SEED, index)
}

/// Builds the full committed corpus: nine cells spanning the three
/// families across sizes and satisfiability regimes. SAT covers
/// planted (satisfiable by construction), critical (clause ratio
/// ≈ 4.3), and over-constrained (ratio 6.0); coloring covers planted
/// and plain G(n,p); scheduling covers two job/machine scales.
///
/// # Panics
///
/// Panics if any cell fails to encode — the committed parameters are
/// all well inside the coefficient range, so a failure here means the
/// encoder itself regressed.
pub fn corpus() -> Vec<CorpusCase> {
    let mut cases = Vec::new();
    let mut push = |id: &'static str, smoke: bool, w: Result<CorpusWorkload, EncodeError>| {
        let workload = w.expect("committed corpus parameters must encode");
        cases.push(CorpusCase {
            id,
            smoke,
            workload,
        });
    };

    // 3-SAT: n=20 planted / n=20 critical / n=40 critical / n=20
    // over-constrained (max-SAT regime).
    let (planted, _) = SatInstance::planted(20, 86, cell_seed(0));
    push(
        "sat_n20_planted",
        true,
        SatWorkload::new("corpus", planted).map(CorpusWorkload::Sat),
    );
    push(
        "sat_n20_critical",
        false,
        SatWorkload::new("corpus", SatInstance::random(20, 86, cell_seed(1)))
            .map(CorpusWorkload::Sat),
    );
    push(
        "sat_n40_critical",
        false,
        SatWorkload::new("corpus", SatInstance::random(40, 172, cell_seed(2)))
            .map(CorpusWorkload::Sat),
    );
    push(
        "sat_n20_overconstrained",
        false,
        SatWorkload::new("corpus", SatInstance::random(20, 120, cell_seed(3)))
            .map(CorpusWorkload::Sat),
    );

    // Coloring: planted k=3 at two sizes, plain G(n,p) k=4.
    let (c16, _) = ColoringInstance::planted(16, 3, 4_000, cell_seed(4));
    push(
        "col_n16_k3_planted",
        true,
        ColoringWorkload::new("corpus", c16).map(CorpusWorkload::Coloring),
    );
    let (c24, _) = ColoringInstance::planted(24, 3, 3_000, cell_seed(5));
    push(
        "col_n24_k3_planted",
        false,
        ColoringWorkload::new("corpus", c24).map(CorpusWorkload::Coloring),
    );
    push(
        "col_n24_k4_gnp",
        false,
        ColoringWorkload::new("corpus", ColoringInstance::gnp(24, 4, 3_000, cell_seed(6)))
            .map(CorpusWorkload::Coloring),
    );

    // Scheduling: 12 jobs / 3 machines and 20 jobs / 4 machines.
    push(
        "sched_j12_m3",
        true,
        SchedulingWorkload::new("corpus", SchedulingInstance::random(12, 3, 9, cell_seed(7)))
            .map(CorpusWorkload::Scheduling),
    );
    push(
        "sched_j20_m4",
        false,
        SchedulingWorkload::new("corpus", SchedulingInstance::random(20, 4, 9, cell_seed(8)))
            .map(CorpusWorkload::Scheduling),
    );

    cases
}

/// The `--smoke` subset: one cell per family, same instances and solve
/// parameters as the committed baseline rows.
pub fn smoke_corpus() -> Vec<CorpusCase> {
    corpus().into_iter().filter(|c| c.smoke).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference stream for seed 1234567 (Vigna's splitmix64.c).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn below_is_in_range_and_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..1_000 {
            let x = a.below(7);
            assert!(x < 7);
            assert_eq!(x, b.below(7));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn below_zero_rejected() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn corpus_covers_all_three_families() {
        let cases = corpus();
        assert_eq!(cases.len(), 9);
        let kinds: BTreeSet<String> = cases.iter().map(|c| c.kind().to_string()).collect();
        assert_eq!(kinds.len(), 3, "three families: {kinds:?}");
        let ids: BTreeSet<&str> = cases.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), cases.len(), "cell ids are unique");
        for case in &cases {
            assert!(case.graph().num_spins() > 0);
            assert_eq!(case.shape().spins, case.graph().num_spins() as u64);
        }
    }

    #[test]
    fn smoke_subset_is_one_cell_per_family() {
        let smoke = smoke_corpus();
        assert_eq!(smoke.len(), 3);
        let kinds: BTreeSet<String> = smoke.iter().map(|c| c.kind().to_string()).collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn corpus_is_reproducible() {
        let a = corpus();
        let b = corpus();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(
                x.graph(),
                y.graph(),
                "cell {} regenerated differently",
                x.id
            );
        }
    }
}
