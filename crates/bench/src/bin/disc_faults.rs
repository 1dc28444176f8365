//! Solution quality vs injected bit-error rate across the four
//! stationarity designs.
//!
//! The all-digital pipeline makes memory faults *injectable* and
//! *detectable*: transient flips are drawn from a deterministic
//! SplitMix64 stream at the SRAM read boundary, tuple-row parity
//! detects odd-weight corruption, and the retry policy re-fetches the
//! row on detection. This harness sweeps the read BER and reports how
//! much quality each design loses, how many faults parity caught, and
//! how much recovery work the retries cost — plus two cross-checks:
//! BER 0 is byte-identical to a fault-free run, and the whole fault
//! trajectory is thread-count-independent.
//!
//! `--smoke` runs a reduced sweep for CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::{section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;

const FAULT_SEED: u64 = 0xFA17;

struct Sweep {
    rows: usize,
    cols: usize,
    replicas: usize,
    bers: &'static [f64],
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let sweep = if smoke {
        Sweep {
            rows: 8,
            cols: 8,
            replicas: 2,
            bers: &[0.0, 1e-3],
        }
    } else {
        Sweep {
            rows: 20,
            cols: 20,
            replicas: 4,
            bers: &[0.0, 1e-6, 1e-4, 1e-3, 1e-2],
        }
    };

    section(&format!(
        "quality vs read BER: King's graph {}x{}, {} replicas, {} policy",
        sweep.rows,
        sweep.cols,
        sweep.replicas,
        RecoveryPolicy::default()
    ));
    let graph = topology::king(sweep.rows, sweep.cols, |i, j| ((i + 3 * j) % 7) as i32 - 3)
        .expect("lattice");
    let mut rng = StdRng::seed_from_u64(21);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let opts = SolveOptions::for_graph(&graph, 27);

    let mut t = Table::new([
        "design", "ber", "H", "dH", "injected", "detected", "undet", "retries", "degraded",
    ]);
    for design in DesignKind::ALL {
        let clean_config = SachiConfig::new(design);
        let golden = run_ensemble(&clean_config, &graph, &init, &opts, sweep.replicas, 2).best;
        for &ber in sweep.bers {
            let model = FaultModel::new(FAULT_SEED).with_read_ber(FaultRate::from_probability(ber));
            let config = clean_config.clone().with_fault(FaultProfile::new(model));
            let outcome = run_ensemble(&config, &graph, &init, &opts, sweep.replicas, 2);
            let (best_of, report) = (outcome.best, outcome.report);
            if ber == 0.0 {
                // Zero-rate identity: an inert fault model must not
                // perturb the ensemble in any way.
                assert_eq!(best_of, golden, "BER 0 must match the fault-free run");
            }
            // Determinism: the fault trajectory may not depend on the
            // worker-thread count.
            let rerun = run_ensemble(&config, &graph, &init, &opts, sweep.replicas, 1);
            assert_eq!(best_of, rerun.best, "thread count changed faulted results");
            assert_eq!(
                report.faults_injected, rerun.report.faults_injected,
                "thread count changed the fault stream"
            );
            let undetected: u64 = report.reports.iter().map(|r| r.faults.undetected).sum();
            let best = best_of.into_best();
            t.row([
                design.label().to_string(),
                format!("{ber:.0e}"),
                best.energy.to_string(),
                (best.energy - golden.replicas[golden.best_index].energy).to_string(),
                report.faults_injected.to_string(),
                report.faults_detected.to_string(),
                undetected.to_string(),
                report.fault_retries.to_string(),
                format!("{}/{}", report.degraded_replicas, sweep.replicas),
            ]);
        }
    }
    t.print();
    println!();
    println!("BER 0 is asserted byte-identical to the fault-free golden ensemble,");
    println!("and every faulted point is asserted thread-count-independent. Parity");
    println!("catches all odd-weight corruption; the undetected column counts");
    println!("even-weight aliasing, the quality loss that survives recovery.");
}
