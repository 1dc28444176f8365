//! Build-identity digests: one FNV-1a hash of everything a built COP
//! exposes to a solve, so a change to the problem builders can show that
//! every graph it builds is byte-identical to the committed table.
//!
//! A digest covers, in order: the CSR `offsets` (as `u64`), `neighbors`,
//! `weights` and `fields`, the instance name, and the objective at four
//! seeded random spin vectors. The objective is the QUBO objective
//! ([`QuboProblem::objective`]) for the QUBO-encoded families and the
//! Ising energy for the rest. `tests/build_identity.rs` pins the table
//! in [`GOLDEN`]; `perf_kernels --smoke` checks its `build` row's shapes
//! against the same table.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_core::prelude::build_cop_problem;
use sachi_ising::hamiltonian::energy;
use sachi_ising::prelude::{IsingGraph, SpinVector};
use sachi_workloads::prelude::{
    ColoringInstance, ColoringWorkload, CopKind, QuboProblem, SatInstance, SatWorkload,
    SchedulingInstance, SchedulingWorkload, TspTour, Workload,
};

/// The committed table: one `family size seed digest` line per build.
pub const GOLDEN: &str = include_str!("../../../tests/golden/build_identity.txt");

/// Spin vectors each digest evaluates the objective at.
const PROBES: u64 = 4;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of one built problem: its CSR, fields, `name` and
/// `objective` at [`PROBES`] spin vectors drawn from `seed`.
fn digest(
    graph: &IsingGraph,
    name: &str,
    seed: u64,
    objective: impl Fn(&SpinVector) -> i64,
) -> u64 {
    let mut h = Fnv1a::default();
    let n = graph.num_spins();
    let mut offset = 0u64;
    h.bytes(&offset.to_le_bytes());
    for i in 0..n {
        offset += graph.degree(i) as u64;
        h.bytes(&offset.to_le_bytes());
    }
    for i in 0..n {
        for &j in graph.neighbor_slices(i).0 {
            h.bytes(&j.to_le_bytes());
        }
    }
    for i in 0..n {
        for &w in graph.neighbor_slices(i).1 {
            h.bytes(&w.to_le_bytes());
        }
    }
    for i in 0..n {
        h.bytes(&graph.field(i).to_le_bytes());
    }
    h.bytes(&(name.len() as u64).to_le_bytes());
    h.bytes(name.as_bytes());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1d_e471);
    for _ in 0..PROBES {
        let spins = SpinVector::random(n, &mut rng);
        h.bytes(&objective(&spins).to_le_bytes());
    }
    h.finish()
}

/// The QUBO behind a generated QUBO-encoded family, rebuilt with
/// `build_cop_problem`'s parameters (the caller checks that its graph
/// equals the built one, so the two cannot drift apart unnoticed).
fn qubo_of(kind: CopKind, size: usize, seed: u64) -> Option<QuboProblem> {
    Some(match kind {
        CopKind::SatThree => {
            let n = size.max(5);
            let instance = SatInstance::random(n, n.saturating_mul(43) / 10, seed);
            SatWorkload::new("generated", instance)
                .ok()?
                .problem()
                .clone()
        }
        CopKind::GraphColoring => {
            let (instance, _) = ColoringInstance::planted(size.max(4), 3, 3_000, seed);
            ColoringWorkload::new("generated", instance)
                .ok()?
                .problem()
                .clone()
        }
        CopKind::JobScheduling => {
            let instance = SchedulingInstance::random(size.max(4), 3, 9, seed);
            SchedulingWorkload::new("generated", instance)
                .ok()?
                .problem()
                .clone()
        }
        _ => return None,
    })
}

/// The digest of `build_cop_problem(kind, size, seed)`.
///
/// # Panics
///
/// Panics if the COP fails to build, or if a QUBO family's rebuilt QUBO
/// disagrees with the built graph.
pub fn cop_digest(kind: CopKind, size: usize, seed: u64) -> u64 {
    let problem = build_cop_problem(kind, size, seed).expect("generated COPs build");
    match qubo_of(kind, size, seed) {
        Some(qubo) => {
            assert!(
                qubo.graph() == problem.graph(),
                "{} {size} {seed}: the rebuilt QUBO's graph differs from build_cop_problem's",
                kind.key()
            );
            digest(problem.graph(), &problem.name, seed, |s| qubo.objective(s))
        }
        None => digest(problem.graph(), &problem.name, seed, |s| {
            energy(problem.graph(), s)
        }),
    }
}

/// The digest of a QUBO built outside `build_cop_problem` (the Lucas
/// formulations): its graph's CSR and fields, and its objective at
/// [`PROBES`] spin vectors drawn from `seed`.
pub fn qubo_digest(qubo: &QuboProblem, seed: u64) -> u64 {
    digest(qubo.graph(), "", seed, |s| qubo.objective(s))
}

/// The digest of the Lucas QUBO tour over `cities` cities (`cities²`
/// spins; its objective is the Ising energy, the only one it exposes).
fn tour_digest(cities: usize, seed: u64) -> u64 {
    let tour = TspTour::new(cities, seed);
    digest(tour.graph(), &tour.name(), seed, |s| {
        energy(tour.graph(), s)
    })
}

/// The digest of one table line's build.
///
/// # Panics
///
/// Panics on an unknown family label.
pub fn digest_of(family_label: &str, size: usize, seed: u64) -> u64 {
    if family_label == "tsp-tour" {
        return tour_digest(size, seed);
    }
    let kind: CopKind = family_label
        .parse()
        .unwrap_or_else(|_| panic!("unknown family {family_label:?}"));
    cop_digest(kind, size, seed)
}

/// The committed table as `(family, size, seed, digest)` rows.
///
/// # Panics
///
/// Panics on a malformed line.
pub fn golden_rows() -> Vec<(&'static str, usize, u64, u64)> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "malformed golden line {line:?}");
            (
                f[0],
                f[1].parse().expect("size"),
                f[2].parse().expect("seed"),
                u64::from_str_radix(f[3], 16).expect("hex digest"),
            )
        })
        .collect()
}

/// The committed digest of `(family, size, seed)`, if the table has it.
pub fn golden_digest(family_label: &str, size: usize, seed: u64) -> Option<u64> {
    golden_rows()
        .into_iter()
        .find(|&(f, s, d, _)| f == family_label && s == size && d == seed)
        .map(|row| row.3)
}
