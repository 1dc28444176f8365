//! Energy bookkeeping against an independent recompute.
//!
//! The sweep driver carries H incrementally: each sweep body reports its
//! ΔH and a SACHI machine keeps its energy resident across calls, moving
//! it on every re-seated spin. These tests check every reported energy —
//! `result.energy` and each `trace[k]` — against `hamiltonian::energy`
//! on the spins after sweep `k`, obtained by re-running the same solve
//! with `max_sweeps = k` (the first `k` sweeps of a run do not depend on
//! its cap). Nothing here leans on the driver's debug assertion, so the
//! checks hold in release builds too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

/// A King's lattice whose couplings and fields cycle through the given
/// values.
fn king(side: usize, salt: u64, couplings: &[i32], fields: &[i32]) -> IsingGraph {
    let pick = |values: &[i32], k: u64| values[(k % values.len() as u64) as usize];
    let lattice = topology::king(side, side, |i, j| {
        pick(couplings, u64::from(i) * 7 + u64::from(j) * 3 + salt)
    })
    .expect("valid lattice");
    let mut b = GraphBuilder::new(side * side);
    for (i, j, w) in lattice.edges() {
        b.push_edge(i, j, w);
    }
    for i in 0..side * side {
        b = b.field(i as u32, pick(fields, i as u64 * 5 + salt));
    }
    b.build().expect("valid graph")
}

/// Frustrated ternary couplings with small fields: the CMOS annealer's
/// envelope.
const TERNARY: [i32; 3] = [-1, 0, 1];
const SMALL_FIELDS: [i32; 5] = [-2, -1, 0, 1, 2];

/// A dense graph with wide couplings and fields.
fn dense(n: usize, salt: u64) -> IsingGraph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            let w = ((u64::from(i) * 13 + u64::from(j) * 29 + salt) % 15) as i32 - 7;
            b.push_edge(i, j, w);
        }
    }
    for i in 0..n as u32 {
        b = b.field(i, (i as i32 * 3) % 7 - 3);
    }
    b.build().expect("valid graph")
}

fn random_spins(n: usize, seed: u64) -> SpinVector {
    SpinVector::random(n, &mut StdRng::seed_from_u64(seed))
}

/// Asserts that `run(cap)`'s energy and trace are H of its spins after
/// each sweep, re-running at every cap `k` up to the full run's sweeps.
/// Returns the full run (cap `max_sweeps`).
fn assert_bookkeeping(
    label: &str,
    graph: &IsingGraph,
    max_sweeps: u64,
    mut run: impl FnMut(u64) -> SolveResult,
) -> SolveResult {
    let full = run(max_sweeps);
    assert_eq!(
        full.energy,
        energy(graph, &full.spins),
        "{label}: final energy"
    );
    assert_eq!(
        full.trace.len() as u64,
        full.sweeps,
        "{label}: one trace entry per sweep"
    );
    for k in 1..=full.sweeps {
        let prefix = run(k);
        let h = energy(graph, &prefix.spins);
        assert_eq!(prefix.energy, h, "{label}: energy after {k} sweeps");
        assert_eq!(full.trace[k as usize - 1], h, "{label}: trace[{}]", k - 1);
    }
    full
}

fn traced(graph: &IsingGraph, seed: u64, max_sweeps: u64) -> SolveOptions {
    SolveOptions::for_graph(graph, seed)
        .with_trace()
        .with_max_sweeps(max_sweeps)
}

#[test]
fn every_machine_reports_the_energy_of_its_spins() {
    let graph = king(6, 3, &TERNARY, &SMALL_FIELDS);
    let init = random_spins(graph.num_spins(), 11);
    let max = 60;
    let opts = |cap| traced(&graph, 17, cap);

    let golden = assert_bookkeeping("CPU golden", &graph, max, |cap| {
        CpuReferenceSolver::new().solve(&graph, &init, &opts(cap))
    });
    assert!(golden.flips > 0, "the golden run must flip spins");
    for design in DesignKind::ALL {
        assert_bookkeeping(design.label(), &graph, max, |cap| {
            SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts(cap))
        });
    }
    let cmos = assert_bookkeeping("CMOS annealer", &graph, max, |cap| {
        CmosAnnealer::new(6)
            .solve_detailed(&graph, &init, &opts(cap))
            .expect("CMOS annealer envelope")
            .0
    });
    assert!(cmos.flips > 0, "the CMOS run must flip spins");

    // Dense couplings and fields: the sequential machines off the lattice.
    let graph = dense(14, 5);
    let init = random_spins(graph.num_spins(), 12);
    let opts = |cap| traced(&graph, 19, cap);
    assert_bookkeeping("CPU golden, dense", &graph, max, |cap| {
        CpuReferenceSolver::new().solve(&graph, &init, &opts(cap))
    });
    for design in DesignKind::ALL {
        assert_bookkeeping(design.label(), &graph, max, |cap| {
            SachiMachine::new(SachiConfig::new(design)).solve(&graph, &init, &opts(cap))
        });
    }
}

#[test]
fn lattice_descent_runs_the_shared_driver_and_only_descends() {
    // `lattice_descent` returns no energy, so its ΔH is checked by the
    // driver's debug assertion; here its result is checked directly.
    let md = MolecularDynamics::new(8, 8, 5);
    let init = random_spins(md.graph().num_spins(), 21);
    let (spins, sweeps) = lattice_descent(&md, &init, 50);
    assert!(sweeps > 0);
    assert!(energy(md.graph(), &spins) <= energy(md.graph(), &init));
    for i in 0..spins.len() {
        assert!(
            flip_delta(md.graph(), &spins, i) >= 0,
            "spin {i} can still descend"
        );
    }
}

fn faulted(design: DesignKind, ber_ppb: u64, policy: RecoveryPolicy) -> SachiConfig {
    let model = FaultModel::new(0xB00C).with_read_ber(FaultRate::from_ppb(ber_ppb));
    SachiConfig::new(design).with_fault(FaultProfile::new(model).with_policy(policy))
}

#[test]
fn undetected_aliases_do_not_corrupt_the_books() {
    // Aliased fetches steer the decision with a corrupted H_σ, but a
    // flip changes the energy by its true cost.
    let graph = dense(14, 7);
    let init = random_spins(graph.num_spins(), 31);
    for design in DesignKind::ALL {
        let config = faulted(
            design,
            20_000_000,
            RecoveryPolicy::RefetchRetry { max_retries: 3 },
        );
        let run = |cap| {
            SachiMachine::new(config.clone()).solve_detailed(
                &graph,
                &init,
                &traced(&graph, 33, cap),
            )
        };
        let (_, report) = run(80);
        assert!(
            report.faults.undetected > 0,
            "{design}: the BER must produce aliased fetches"
        );
        assert_bookkeeping(design.label(), &graph, 80, |cap| run(cap).0);
    }
}

#[test]
fn a_fail_fast_abort_keeps_its_partial_flips_on_the_books() {
    let graph = dense(14, 9);
    let init = random_spins(graph.num_spins(), 41);
    // ~2e-5 BER: the first odd-count fetch lands in sweep 63.
    let config = faulted(DesignKind::N3, 20_000, RecoveryPolicy::FailFast);
    // A hot hold keeps every sweep flipping spins.
    let hot = |cap| SolveOptions {
        schedule: Schedule::constant(40.0, 0.05),
        ..traced(&graph, 43, cap)
    };
    let run = |cap| SachiMachine::new(config.clone()).solve_detailed(&graph, &init, &hot(cap));
    let (result, report) = run(200);
    assert!(
        result.degraded && report.faults.degraded,
        "the run must abort"
    );
    assert!(
        result.sweeps > 0,
        "the abort must come after a completed sweep"
    );
    // The aborted sweep flipped spins before it stopped: the final state
    // is not the state after the last completed sweep.
    let (before_abort, _) = run(result.sweeps);
    assert!(!before_abort.degraded);
    assert_ne!(
        result.spins, before_abort.spins,
        "the aborted sweep must flip spins before its abort"
    );
    assert_eq!(result.energy, energy(&graph, &result.spins));
    assert_bookkeeping("fail-fast", &graph, 200, |cap| run(cap).0);
}

/// The initial spins of a sequence of short segments on one rung, the
/// way replica exchange presents them: continue from the last result,
/// continue from a swapped-in configuration, or restart at random.
#[test]
fn a_resident_machine_keeps_its_books_across_swaps_and_restarts() {
    let graph = king(7, 13, &TERNARY, &SMALL_FIELDS);
    let n = graph.num_spins();
    let segment = |seed: u64, cap: u64| SolveOptions {
        max_sweeps: cap,
        schedule: Schedule::constant(1.5, 0.05),
        seed,
        record_trace: true,
        ..SolveOptions::default()
    };
    for config in [
        SachiConfig::new(DesignKind::N3),
        SachiConfig::new(DesignKind::N1a).without_tuple_rep(),
        faulted(
            DesignKind::N2,
            5_000_000,
            RecoveryPolicy::RefetchRetry { max_retries: 2 },
        ),
    ] {
        let mut resident = SachiMachine::new(config.clone());
        let mut spins = random_spins(n, 51);
        for call in 0..12u64 {
            let init = match call % 4 {
                // A swap brings in another rung's configuration.
                1 => random_spins(n, 100 + call),
                // A swapped-in configuration a few spins away.
                2 => {
                    let mut s = spins.clone();
                    for i in (0..n).step_by(9) {
                        s.flip(i);
                    }
                    s
                }
                // A restart reseeds the rung.
                3 => random_spins(n, 200 + call),
                _ => spins.clone(),
            };
            let opts = segment(call, 4);
            let (got, got_report) = resident.solve_detailed(&graph, &init, &opts);
            let (want, want_report) =
                SachiMachine::new(config.clone()).solve_detailed(&graph, &init, &opts);
            assert_eq!(got, want, "call {call}: resident result");
            assert_eq!(got_report, want_report, "call {call}: resident report");
            // Every prefix of the segment runs on the resident machine
            // too, re-seating it from wherever the last call left it.
            let full = assert_bookkeeping("resident segment", &graph, 4, |cap| {
                resident.solve(&graph, &init, &segment(call, cap))
            });
            assert_eq!(full, got, "call {call}: re-run");
            spins = got.spins;
        }
    }
}

#[test]
fn a_clone_reuses_the_resident_state_and_a_rebuild_remaps_it() {
    let build = || dense(12, 15);
    let graph = build();
    let (copy, rebuilt) = (graph.clone(), build());
    assert_eq!(copy.build_id(), graph.build_id());
    assert_ne!(rebuilt.build_id(), graph.build_id());
    assert_eq!(rebuilt, graph, "equality is content equality");

    let opts = traced(&graph, 61, 30);
    let first = random_spins(graph.num_spins(), 62);
    let second = random_spins(graph.num_spins(), 63);
    let fresh = |init: &SpinVector| {
        SachiMachine::new(SachiConfig::new(DesignKind::N2)).solve_detailed(&graph, init, &opts)
    };
    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N2));
    machine.solve_detailed(&graph, &first, &opts);
    for (label, g) in [
        ("clone", &copy),
        ("rebuild", &rebuilt),
        ("original", &graph),
    ] {
        for init in [&first, &second] {
            let (result, report) = machine.solve_detailed(g, init, &opts);
            let (want, want_report) = fresh(init);
            assert_eq!(result, want, "{label}: result");
            assert_eq!(report, want_report, "{label}: report");
            assert_eq!(result.energy, energy(g, &result.spins), "{label}: energy");
        }
    }
}
