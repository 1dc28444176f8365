//! Sec. VII.1: impact on conventional workloads.
//!
//! The paper argues SACHI leaves normal cache operation untouched: the 8T
//! array is unmodified, the extra 2:1 mux is retimed away, and the
//! compute periphery is a separate datapath. The honest cost it *does*
//! have is mode exclusivity — "the cache operates in a single mode at a
//! time" — so a mode switch flushes the L1 and conventional code restarts
//! cold. This harness quantifies both sides with the runtime API.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sachi_bench::reference::runtime::SachiContext;
use sachi_bench::{percent, section, Table};
use sachi_core::prelude::*;
use sachi_ising::prelude::*;
use sachi_mem::prelude::*;
use sachi_workloads::prelude::*;

/// A conventional-workload stand-in: mixed sequential / strided / random
/// address trace.
fn conventional_trace(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::with_capacity(len);
    for i in 0..len {
        let addr = match i % 4 {
            0 | 1 => (i as u64) * 8,                  // sequential words
            2 => (i as u64 % 512) * 256,              // strided
            _ => rng.gen_range(0..1u64 << 20) & !0x7, // random
        };
        trace.push(addr);
    }
    trace
}

fn main() {
    section("normal-mode behaviour with and without SACHI present");
    // "Without SACHI" = a plain L1; "with SACHI" = the same L1 behind the
    // mode register, never leaving normal mode. Identical by construction
    // — the claim is that the hardware addition does not perturb the
    // normal datapath — and this shows it holds in the model.
    let trace = conventional_trace(100_000, 1);
    let mut plain = L1Cache::typical_l1();
    let (plain_hits, plain_misses) = plain.run_trace(trace.iter().copied()).unwrap();

    let mut ctx = SachiContext::new(SachiConfig::new(DesignKind::N3));
    let (ctx_hits, ctx_misses) = ctx.l1_mut().run_trace(trace.iter().copied()).unwrap();
    assert_eq!((plain_hits, plain_misses), (ctx_hits, ctx_misses));

    let mut t = Table::new(["configuration", "accesses", "hit rate", "read latency"]);
    t.row([
        "plain L1 (no SACHI)".to_string(),
        trace.len().to_string(),
        percent(plain.stats().hit_rate()),
        format!("{}", plain.read_latency()),
    ]);
    t.row([
        "repurposable L1 (SACHI present, normal mode)".to_string(),
        trace.len().to_string(),
        percent(ctx.l1().stats().hit_rate()),
        format!("{}", ctx.l1().read_latency()),
    ]);
    t.print();
    println!("identical hit/miss stream and latency: the added mux is retimed, the");
    println!("compute periphery is a separate datapath (Sec. VII.1).");

    section("the real cost: mode exclusivity across a launch");
    let w = MolecularDynamics::new(40, 40, 7);
    let graph = w.graph();
    let mut rng = StdRng::seed_from_u64(3);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let problem = ctx.upload(graph, &init);

    // Warm phase -> launch -> cold phase.
    let warm = conventional_trace(20_000, 2);
    ctx.l1_mut().run_trace(warm.iter().copied()).unwrap();
    let warm_rate = {
        let mut probe = L1Cache::typical_l1();
        probe.run_trace(warm.iter().copied()).unwrap();
        let (h, m) = probe.run_trace(warm.iter().copied()).unwrap();
        h as f64 / (h + m) as f64
    };
    let launch = ctx.launch(&problem, &SolveOptions::for_graph(graph, 5));
    let (cold_h, cold_m) = ctx.l1_mut().run_trace(warm.iter().copied()).unwrap();
    let cold_rate = cold_h as f64 / (cold_h + cold_m) as f64;

    let mut t2 = Table::new(["phase", "value"]);
    t2.row([
        "re-run hit rate, warm cache (no launch)".to_string(),
        percent(warm_rate),
    ]);
    t2.row([
        "lines flushed entering compute mode".to_string(),
        launch.lines_flushed_entering.to_string(),
    ]);
    t2.row([
        "mode-switch cycles (SPR + flush drain)".to_string(),
        launch.mode_switch_cycles.get().to_string(),
    ]);
    t2.row([
        "solve cycles inside the launch".to_string(),
        launch.report.total_cycles.get().to_string(),
    ]);
    t2.row([
        "re-run hit rate after the launch (cold)".to_string(),
        percent(cold_rate),
    ]);
    t2.print();
    println!(
        "mode-switch overhead is {} of the launch's own cycles — repurposing",
        percent(launch.mode_switch_cycles.get() as f64 / launch.report.total_cycles.get() as f64)
    );
    println!("amortizes as long as compute sessions outlast the cache refill.");
}
