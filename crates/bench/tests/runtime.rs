//! The host API: a launch matches the machine and the golden solver,
//! flushes a warm L1 on entering compute mode and restores normal mode,
//! and staged handles are reusable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi_bench::reference::l1cache::{Access, CacheMode};
use sachi_bench::reference::runtime::SachiContext;
use sachi_core::config::{DesignKind, SachiConfig};
use sachi_ising::graph::{topology, IsingGraph};
use sachi_ising::solver::{CpuReferenceSolver, IterativeSolver, SolveOptions};
use sachi_ising::spin::SpinVector;
use sachi_mem::units::Cycles;
fn setup() -> (IsingGraph, SpinVector, SolveOptions) {
    let g = topology::king(5, 5, |i, j| ((i + j) % 5) as i32 + 1).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let init = SpinVector::random(25, &mut rng);
    let opts = SolveOptions::for_graph(&g, 4);
    (g, init, opts)
}

#[test]
fn launch_matches_direct_machine_and_golden() {
    let (g, init, opts) = setup();
    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    let problem = ctx.upload(&g, &init);
    let launch = ctx.launch(&problem, &opts);
    let golden = CpuReferenceSolver::new().solve(&g, &init, &opts);
    assert_eq!(launch.result.energy, golden.energy);
    assert_eq!(launch.result.sweeps, golden.sweeps);
    assert_eq!(ctx.launches(), 1);
    assert_eq!(launch.report.sweeps, golden.sweeps);
}

#[test]
fn launch_flushes_warm_cache_and_restores_normal_mode() {
    let (g, init, opts) = setup();
    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    // Warm the L1 with conventional traffic.
    for addr in 0..32u64 {
        ctx.l1_mut().read(addr * 64).unwrap();
    }
    let problem = ctx.upload(&g, &init);
    let launch = ctx.launch(&problem, &opts);
    assert_eq!(launch.lines_flushed_entering, 32);
    assert_eq!(launch.mode_switch_cycles, Cycles::new(34));
    // Normal mode resumed; the warm lines are gone (cold restart).
    assert_eq!(ctx.l1().mode(), CacheMode::Normal);
    assert!(matches!(ctx.l1_mut().read(0).unwrap(), Access::Miss { .. }));
}

#[test]
fn cold_cache_launch_is_cheap() {
    let (g, init, opts) = setup();
    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N2));
    let problem = ctx.upload(&g, &init);
    let launch = ctx.launch(&problem, &opts);
    assert_eq!(launch.lines_flushed_entering, 0);
    assert_eq!(launch.mode_switch_cycles, Cycles::new(2));
}

#[test]
fn handles_are_reusable_and_distinct() {
    let (g, init, opts) = setup();
    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    let a = ctx.upload(&g, &init);
    let b = ctx.upload(&g, &init);
    assert_ne!(a.id(), b.id());
    let first = ctx.launch(&a, &opts);
    let second = ctx.launch(&a, &opts);
    assert_eq!(first.result.energy, second.result.energy);
    assert_eq!(ctx.launches(), 2);
    assert_eq!(a.graph().num_spins(), 25);
    assert_eq!(a.initial().len(), 25);
}
