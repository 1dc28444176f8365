//! Table-driven conformance of the stationarity schedules against the
//! paper's closed forms, across a grid of (N, R) shapes — Figs. 11–13's
//! arithmetic, exhaustively.

use sachi::prelude::*;

const NS: [u64; 6] = [1, 2, 8, 48, 160, 999];
const RS: [u32; 5] = [2, 4, 6, 8, 16];
const ROW_BITS: u64 = 800;

#[test]
fn n1a_closed_forms() {
    let d = stationarity(DesignKind::N1a);
    for n in NS {
        for r in RS {
            assert_eq!(
                d.phase1_cycles(n, r, ROW_BITS),
                n * r as u64,
                "phase1 N={n} R={r}"
            );
            assert_eq!(
                d.idle_cycles(n, r),
                (r as u64 - 1) * n + 1,
                "idle N={n} R={r}"
            );
            assert_eq!(
                d.xnor_queue_bits(n, r),
                n * (r as u64 + 1),
                "queue N={n} R={r}"
            );
            assert_eq!(d.max_reuse(n, r), 1);
            assert_eq!(d.resident_bits_per_tuple(n, r), n);
            assert_eq!(d.driven_bits_per_tuple(n, r, ROW_BITS), n * r as u64);
        }
    }
}

#[test]
fn n1b_closed_forms() {
    let d = stationarity(DesignKind::N1b);
    for n in NS {
        for r in RS {
            assert_eq!(d.phase1_cycles(n, r, ROW_BITS), n * r as u64);
            assert_eq!(d.idle_cycles(n, r), r as u64, "n1b idle is R");
            assert_eq!(
                d.xnor_queue_bits(n, r),
                r as u64 + 1,
                "n1b queue is one entry"
            );
            assert_eq!(d.max_reuse(n, r), 1);
        }
    }
}

#[test]
fn n2_closed_forms() {
    let d = stationarity(DesignKind::N2);
    for n in NS {
        for r in RS {
            assert_eq!(d.phase1_cycles(n, r, ROW_BITS), n, "n2 is O(N)");
            assert_eq!(d.xnor_queue_bits(n, r), 0, "n2 eliminates the queue");
            assert_eq!(d.max_reuse(n, r), r as u64, "n2 reuse is R");
            assert_eq!(d.resident_bits_per_tuple(n, r), n * r as u64);
            assert_eq!(d.driven_bits_per_tuple(n, r, ROW_BITS), n);
        }
    }
}

#[test]
fn n3_closed_forms() {
    let d = stationarity(DesignKind::N3);
    for n in NS {
        for r in RS {
            let groups_per_row = (ROW_BITS / (r as u64 + 1)).max(1);
            let rows = n.max(1).div_ceil(groups_per_row);
            assert_eq!(
                d.phase1_cycles(n, r, ROW_BITS),
                rows,
                "n3 is one cycle per occupied row"
            );
            assert_eq!(d.xnor_queue_bits(n, r), 0);
            assert_eq!(d.max_reuse(n, r), n * r as u64, "n3 reuse is N*R");
            assert_eq!(d.resident_bits_per_tuple(n, r), n * (r as u64 + 1));
            assert_eq!(
                d.driven_bits_per_tuple(n, r, ROW_BITS),
                rows,
                "one drive per row"
            );
        }
    }
}

#[test]
fn ladder_invariants_hold_across_the_grid() {
    for n in NS {
        for r in RS {
            let p1 = |k| stationarity(k).phase1_cycles(n, r, ROW_BITS);
            assert!(p1(DesignKind::N3) <= p1(DesignKind::N2), "N={n} R={r}");
            assert!(p1(DesignKind::N2) <= p1(DesignKind::N1b), "N={n} R={r}");
            assert_eq!(
                p1(DesignKind::N1b),
                p1(DesignKind::N1a),
                "n1 variants share phase-1 cost"
            );

            let reuse = |k| stationarity(k).max_reuse(n, r);
            assert!(reuse(DesignKind::N1a) <= reuse(DesignKind::N2));
            assert!(reuse(DesignKind::N2) <= reuse(DesignKind::N3));

            // Footprint grows with stationarity; driven traffic shrinks.
            let resident = |k| stationarity(k).resident_bits_per_tuple(n, r);
            assert!(resident(DesignKind::N1a) <= resident(DesignKind::N2));
            assert!(resident(DesignKind::N2) <= resident(DesignKind::N3));
            let driven = |k| stationarity(k).driven_bits_per_tuple(n, r, ROW_BITS);
            assert!(driven(DesignKind::N3) <= driven(DesignKind::N2));
            assert!(driven(DesignKind::N2) <= driven(DesignKind::N1a));
        }
    }
}

#[test]
fn phase_schedule_struct_mirrors_design_formulas() {
    for design in DesignKind::ALL {
        for n in NS {
            for r in RS {
                let d = stationarity(design);
                let s = PhaseSchedule::new(design, n, r, ROW_BITS);
                assert_eq!(s.phase1_cycles, d.phase1_cycles(n, r, ROW_BITS));
                assert_eq!(s.idle_cycles, d.idle_cycles(n, r));
                assert_eq!(s.queue_bits, d.xnor_queue_bits(n, r));
                assert!(s.total_latency_cycles >= s.phase1_cycles);
                // Round cost is affine in tuple count with slope phase1.
                let a = s.round_cycles(10);
                let b = s.round_cycles(11);
                assert_eq!(b - a, s.phase1_cycles.max(1));
            }
        }
    }
}

/// Reconciles `Schedule::sweeps_until_frozen` with the sweep loop the
/// solvers actually run. The closed form counts cooling steps until the
/// temperature first drops below the freeze threshold; the solver cools
/// once *after* each sweep and checks frozen-ness *before* cooling, so a
/// run that never flips a spin converges on sweep
/// `sweeps_until_frozen() + 1` — the first sweep observed frozen. The
/// differential is checked for geometric cooling and for a hold below
/// the freeze threshold.
#[test]
fn sweeps_until_frozen_matches_the_solver_sweep_loop() {
    use sachi::ising::anneal::{Annealer, Schedule};

    let schedules = [
        Schedule::new(8.0, 0.5, 0.1),    // geometric, doc example
        Schedule::new(100.0, 0.9, 0.05), // geometric, long tail
        Schedule::new(1.0, 0.25, 0.9),   // geometric, frozen almost at once
        Schedule::constant(0.01, 0.05),  // hold, frozen from sweep 0
    ];

    for schedule in schedules {
        // Differential 1: stepping a live annealer cool-by-cool agrees
        // with the closed form.
        let mut annealer = Annealer::new(schedule, 0);
        let mut cools = 0u64;
        while !annealer.is_frozen() {
            annealer.cool();
            cools += 1;
            assert!(cools < 100_000, "schedule never froze: {schedule:?}");
        }
        assert_eq!(
            cools,
            schedule.sweeps_until_frozen(),
            "annealer stepping disagrees with closed form for {schedule:?}"
        );

        // Differential 2: a deterministically flip-free solve (a stiff
        // complete-graph ferromagnet started in its ground state, so
        // every proposal is a huge uphill move whose acceptance
        // probability underflows to exactly zero) converges exactly one
        // sweep after the closed-form freeze point.
        let graph = topology::complete(8, |_, _| 1_000_000).expect("valid graph");
        let init = SpinVector::filled(8, Spin::Up);
        let opts = SolveOptions {
            schedule,
            ..SolveOptions::for_graph(&graph, 11)
        }
        .with_max_sweeps(200_000);
        let mut solver = CpuReferenceSolver::new();
        let result = solver.solve(&graph, &init, &opts);
        assert!(
            result.converged,
            "flip-free run must converge: {schedule:?}"
        );
        assert_eq!(result.flips, 0, "{schedule:?}");
        assert_eq!(
            result.sweeps,
            schedule.sweeps_until_frozen() + 1,
            "solver sweep count disagrees with closed form for {schedule:?}"
        );
    }
}
