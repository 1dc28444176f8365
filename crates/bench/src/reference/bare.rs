//! The bare incremental solve: the machine's trajectory with nothing
//! simulated, kept as the `tax` row's yardstick.
//!
//! It runs the shared sweep driver ([`run_sweeps`]) and decision
//! ([`decide_update`]) over one `Vec<i64>` of local fields, moving the
//! flipped spin's neighbours along its CSR row. A fault-free
//! `SachiMachine` solve of the same graph, init and options visits the
//! same spins with the same fields, so the two return the same
//! [`SolveResult`]; what the machine costs beyond this solve is what
//! the simulation adds.

use sachi_ising::graph::IsingGraph;
use sachi_ising::hamiltonian::{energy, flip_cost, local_field};
use sachi_ising::solver::{decide_update, run_sweeps, SolveOptions, SolveResult, SweepOutcome};
use sachi_ising::spin::SpinVector;

/// Solves `graph` from `initial` under `options`, keeping every spin's
/// local field current by its flipped neighbours' couplings.
pub fn solve(graph: &IsingGraph, initial: &SpinVector, options: &SolveOptions) -> SolveResult {
    let n = graph.num_spins();
    let mut fields: Vec<i64> = (0..n).map(|i| local_field(graph, initial, i)).collect();
    run_sweeps(
        graph,
        initial,
        energy(graph, initial),
        options,
        |_, spins, annealer| {
            let (mut delta, mut flips) = (0i64, 0u64);
            for i in 0..n {
                let (current, h) = (spins.get(i), fields.get(i).copied().unwrap_or(0));
                let new = decide_update(current, h, annealer);
                if new != current {
                    spins.set(i, new);
                    flips += 1;
                    delta += flip_cost(current, h);
                    // H_σ_j = −(h_j + Σ_k J_jk·σ_k): σ_i moving by 2·new
                    // moves each neighbour's field by −2·J_ij·new.
                    let (neighbors, weights) = graph.neighbor_slices(i);
                    for (&j, &w) in neighbors.iter().zip(weights) {
                        if let Some(field) = fields.get_mut(j as usize) {
                            *field -= 2 * i64::from(w) * new.value();
                        }
                    }
                }
            }
            SweepOutcome {
                delta,
                flips: Some(flips),
            }
        },
    )
}
