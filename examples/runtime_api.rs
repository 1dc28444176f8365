//! The CUDA-like host API (Sec. VII.3): stage problems, launch them on
//! the repurposed cache, and interleave with conventional memory traffic
//! — demonstrating the mode register and the Sec. VII.1 cost story.
//!
//! ```sh
//! cargo run --release --example runtime_api
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi::prelude::*;
use sachi_bench::reference::l1cache::Access;
use sachi_bench::reference::runtime::{ProblemHandle, SachiContext};

fn main() {
    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    println!(
        "context up: L1 in {} mode, {} sets x {} ways",
        ctx.l1().mode(),
        ctx.l1().sets(),
        ctx.l1().ways()
    );

    // Phase 1: the host runs conventional work; the L1 is a plain cache.
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20_000 {
        let addr: u64 = rng.gen_range(0..1 << 18) & !0x7;
        ctx.l1_mut().read(addr).expect("normal mode");
    }
    println!(
        "phase 1 (conventional): {} accesses, {:.1}% hit rate",
        ctx.l1().stats().hits + ctx.l1().stats().misses,
        ctx.l1().stats().hit_rate() * 100.0
    );

    // Phase 2: stage two Ising problems, like cudaMemcpy'ing two kernels'
    // inputs.
    let md = MolecularDynamics::new(20, 20, 7);
    let seg = ImageSegmentation::with_options(16, 16, 9, Connectivity::Grid4, 6);
    let mut rng = StdRng::seed_from_u64(2);
    let md_init = SpinVector::random(md.graph().num_spins(), &mut rng);
    let seg_init = SpinVector::random(seg.graph().num_spins(), &mut rng);
    let md_handle = ctx.upload(md.graph(), &md_init);
    let seg_handle = ctx.upload(seg.graph(), &seg_init);
    println!(
        "phase 2 (upload): staged problems #{} and #{}",
        md_handle.id(),
        seg_handle.id()
    );

    // Phase 3: launches. Each one flips the mode register, flushes the
    // L1, solves, and hands the cache back.
    let md_acc = |s: &SpinVector| md.accuracy(s);
    let seg_acc = |s: &SpinVector| seg.accuracy(s);
    type Launch<'a> = (
        &'a str,
        &'a ProblemHandle,
        &'a IsingGraph,
        &'a dyn Fn(&SpinVector) -> f64,
    );
    let launches: [Launch; 2] = [
        ("molecular dynamics", &md_handle, md.graph(), &md_acc),
        ("image segmentation", &seg_handle, seg.graph(), &seg_acc),
    ];
    for (name, handle, graph, acc) in launches {
        let launch = ctx.launch(handle, &SolveOptions::for_graph(graph, 11));
        println!(
            "launch {name}: H = {} in {} iterations | {} solve cycles, {} mode-switch cycles ({} lines flushed) | accuracy {:.1}%",
            launch.result.energy,
            launch.result.sweeps,
            launch.report.total_cycles.get(),
            launch.mode_switch_cycles.get(),
            launch.lines_flushed_entering,
            acc(&launch.result.spins) * 100.0
        );
    }

    // Phase 4: conventional work resumes on a cold cache — the honest
    // cost of repurposing.
    let mut rng = StdRng::seed_from_u64(1);
    let (mut hits, mut misses) = (0u64, 0u64);
    for _ in 0..20_000 {
        let addr: u64 = rng.gen_range(0..1 << 18) & !0x7;
        match ctx.l1_mut().read(addr).expect("normal mode restored") {
            Access::Hit => hits += 1,
            Access::Miss { .. } => misses += 1,
        }
    }
    println!(
        "phase 4 (conventional, post-launch): {:.1}% hit rate on the refilled cache",
        hits as f64 / (hits + misses) as f64 * 100.0
    );
    println!(
        "totals: {} launches, {} mode switches, {} lines flushed across the session",
        ctx.launches(),
        ctx.l1().stats().mode_switches,
        ctx.l1().stats().lines_flushed
    );
}
