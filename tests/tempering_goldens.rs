//! Replica-exchange goldens: a tempered 3-SAT job pinned across every
//! design, a clean and a faulted read/DRAM path, and two memory
//! hierarchies.
//!
//! Each cell runs the coupled tempering engine on hardware machines
//! through [`run_ensemble`], so the pinned values cover both the
//! exchange engine (swaps, restarts, best-rung reduction) and every
//! rung's whole-run machine accounting (cycles, energy, faults). Any
//! change to how rungs are scheduled or how machine state is carried
//! between segments must leave every line unchanged.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

/// A compute array holding only a few tuples (multi-round sweeps) in
/// front of a 128-bit storage array (every round streams from DRAM).
fn streaming_hierarchy() -> CacheHierarchy {
    CacheHierarchy {
        compute: CacheGeometry::new(2, 4, 64, 1),
        storage: CacheGeometry::new(1, 2, 64, 2),
    }
}

/// Runs the tempered job of one cell at `threads` workers and renders
/// every pinned observable: best energy and index, the best rung's
/// sweeps and flips, the ensemble's sweep/flip totals, swap and restart
/// counts, then per rung its `total_cycles`, energy total (exact `f64`)
/// and every `FaultReport` field.
fn tempered_cell(design: DesignKind, faulted: bool, streaming: bool, threads: usize) -> String {
    let problem = build_cop_problem(CopKind::SatThree, 8, 5).expect("sat instance encodes");
    let graph = problem.graph();
    let mut rng = StdRng::seed_from_u64(5 ^ INIT_SEED_SALT);
    let init = SpinVector::random(graph.num_spins(), &mut rng);
    let rungs = 4;
    let opts = SolveOptions::for_graph(graph, 6)
        .with_step_budget(20_000)
        .with_tempering(TemperingOptions::for_graph(
            LadderKind::Adaptive,
            graph,
            rungs,
        ));
    let mut config = SachiConfig::new(design);
    if faulted {
        let rate = FaultRate::from_probability(1e-3);
        let model = FaultModel::new(0x7E11)
            .with_read_ber(rate)
            .with_dram_ber(rate);
        config = config.with_fault(
            FaultProfile::new(model).with_policy(RecoveryPolicy::RefetchRetry { max_retries: 2 }),
        );
    }
    if streaming {
        config = config.with_hierarchy(streaming_hierarchy());
    }
    let outcome = run_ensemble(&config, graph, &init, &opts, rungs, threads);
    let (best_of, report) = (outcome.best, outcome.report);
    let best = best_of.best();
    let stats = best_of.stats;
    let mut line = format!(
        "{design} {} {} | H={} best={} sweeps={} flips={} | total {}/{} | swaps={}/{} restarts={}",
        if faulted { "ber1e-3:retry:2" } else { "clean" },
        if streaming { "stream" } else { "default" },
        best.energy,
        best_of.best_index,
        best.sweeps,
        best.flips,
        stats.total_sweeps,
        stats.total_flips,
        stats.swap_accepted,
        stats.swap_attempts,
        stats.tempering_restarts,
    );
    for (r, rep) in report.reports.iter().enumerate() {
        let f = rep.faults;
        line.push_str(&format!(
            " | r{r} cycles={} pJ={:?} faults={}/{}/{}/{}/{}/{}/{}/{}",
            rep.total_cycles.get(),
            rep.energy.total().get(),
            f.injected_flips,
            f.corrupted_fetches,
            f.detected,
            f.undetected,
            f.retries,
            f.refetch_cycles.get(),
            f.dram_corrupted_bits,
            f.degraded,
        ));
    }
    line
}

/// Tempered-job goldens: 4 designs × {clean, BER 1e-3 with `retry:2`} ×
/// {default hierarchy, DRAM-streaming multi-round hierarchy}, each a
/// 4-rung adaptive-ladder run of the same 3-SAT instance.
const TEMPERED_GOLDENS: &[&str] = &[
    "SACHI(n1a) clean default | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=136834 pJ=840553.8575 faults=0/0/0/0/0/0/0/false | r1 cycles=136834 pJ=841059.3075 faults=0/0/0/0/0/0/0/false | r2 cycles=136834 pJ=841731.2075 faults=0/0/0/0/0/0/0/false | r3 cycles=136834 pJ=843786.5125 faults=0/0/0/0/0/0/0/false",
    "SACHI(n1a) clean stream | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=381259 pJ=1472348.30375 faults=0/0/0/0/0/0/0/false | r1 cycles=381259 pJ=1472853.7537500001 faults=0/0/0/0/0/0/0/false | r2 cycles=381259 pJ=1473525.65375 faults=0/0/0/0/0/0/0/false | r3 cycles=381259 pJ=1475580.95875 faults=0/0/0/0/0/0/0/false",
    "SACHI(n1a) ber1e-3:retry:2 default | H=-68 best=0 sweeps=473 flips=2966 | total 1892/15699 | swaps=85/177 restarts=0 | r0 cycles=150316 pJ=880251.4425 faults=675/658/645/13/642/13482/0/true | r1 cycles=150022 pJ=879182.8775000001 faults=674/654/634/20/628/13188/0/true | r2 cycles=150274 pJ=882411.8725 faults=680/661/644/17/640/13440/0/true | r3 cycles=151324 pJ=886910.9125 faults=729/710/693/17/690/14490/0/true",
    "SACHI(n1a) ber1e-3:retry:2 stream | H=-68 best=0 sweeps=473 flips=2903 | total 1892/15695 | swaps=85/177 restarts=0 | r0 cycles=394594 pJ=1511492.57375 faults=659/649/639/10/635/13335/176/true | r1 cycles=394342 pJ=1510870.74375 faults=663/645/629/16/623/13083/175/true | r2 cycles=394804 pJ=1515333.80375 faults=684/665/646/19/645/13545/152/true | r3 cycles=395161 pJ=1516892.6087500001 faults=711/687/663/24/662/13902/159/true",
    "SACHI(n1b) clean default | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=57370 pJ=840553.8575 faults=0/0/0/0/0/0/0/false | r1 cycles=57370 pJ=841059.3075 faults=0/0/0/0/0/0/0/false | r2 cycles=57370 pJ=841731.2075 faults=0/0/0/0/0/0/0/false | r3 cycles=57370 pJ=843786.5125 faults=0/0/0/0/0/0/0/false",
    "SACHI(n1b) clean stream | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=245035 pJ=1472348.30375 faults=0/0/0/0/0/0/0/false | r1 cycles=245035 pJ=1472853.7537500001 faults=0/0/0/0/0/0/0/false | r2 cycles=245035 pJ=1473525.65375 faults=0/0/0/0/0/0/0/false | r3 cycles=245035 pJ=1475580.95875 faults=0/0/0/0/0/0/0/false",
    "SACHI(n1b) ber1e-3:retry:2 default | H=-68 best=0 sweeps=473 flips=2966 | total 1892/15699 | swaps=85/177 restarts=0 | r0 cycles=70852 pJ=880251.4425 faults=675/658/645/13/642/13482/0/true | r1 cycles=70558 pJ=879182.8775000001 faults=674/654/634/20/628/13188/0/true | r2 cycles=70810 pJ=882411.8725 faults=680/661/644/17/640/13440/0/true | r3 cycles=71860 pJ=886910.9125 faults=729/710/693/17/690/14490/0/true",
    "SACHI(n1b) ber1e-3:retry:2 stream | H=-68 best=0 sweeps=473 flips=2903 | total 1892/15695 | swaps=85/177 restarts=0 | r0 cycles=258370 pJ=1511492.57375 faults=659/649/639/10/635/13335/176/true | r1 cycles=258118 pJ=1510870.74375 faults=663/645/629/16/623/13083/175/true | r2 cycles=258580 pJ=1515333.80375 faults=684/665/646/19/645/13545/152/true | r3 cycles=258937 pJ=1516892.6087500001 faults=711/687/663/24/662/13902/159/true",
    "SACHI(n2) clean default | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=18230 pJ=459614.30749999994 faults=0/0/0/0/0/0/0/false | r1 cycles=18230 pJ=460116.0474999999 faults=0/0/0/0/0/0/0/false | r2 cycles=18230 pJ=461085.0975 faults=0/0/0/0/0/0/0/false | r3 cycles=18230 pJ=462471.76249999995 faults=0/0/0/0/0/0/0/false",
    "SACHI(n2) clean stream | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=75231 pJ=1602981.4725 faults=0/0/0/0/0/0/0/false | r1 cycles=75231 pJ=1603483.2125000001 faults=0/0/0/0/0/0/0/false | r2 cycles=75231 pJ=1604452.2625 faults=0/0/0/0/0/0/0/false | r3 cycles=75231 pJ=1605838.9275 faults=0/0/0/0/0/0/0/false",
    "SACHI(n2) ber1e-3:retry:2 default | H=-68 best=0 sweeps=473 flips=2966 | total 1892/15699 | swaps=85/177 restarts=0 | r0 cycles=31712 pJ=499250.15249999997 faults=675/658/645/13/642/13482/0/true | r1 cycles=31418 pJ=498165.62749999994 faults=674/654/634/20/628/13188/0/true | r2 cycles=31670 pJ=501867.05249999993 faults=680/661/644/17/640/13440/0/true | r3 cycles=32720 pJ=505531.76249999995 faults=729/710/693/17/690/14490/0/true",
    "SACHI(n2) ber1e-3:retry:2 stream | H=-68 best=2 sweeps=473 flips=4262 | total 1892/15954 | swaps=90/177 restarts=0 | r0 cycles=89112 pJ=1643238.5975 faults=697/680/663/17/661/13881/631/true | r1 cycles=89448 pJ=1646019.0625 faults=720/698/680/18/677/14217/608/true | r2 cycles=89112 pJ=1645991.0075 faults=687/674/661/13/661/13881/664/false | r3 cycles=88881 pJ=1645236.0725 faults=676/665/654/11/650/13650/681/true",
    "SACHI(n3) clean default | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=6878 pJ=386490.8125 faults=0/0/0/0/0/0/0/false | r1 cycles=6878 pJ=386990.8025 faults=0/0/0/0/0/0/0/false | r2 cycles=6878 pJ=387914.52749999997 faults=0/0/0/0/0/0/0/false | r3 cycles=6878 pJ=389335.0375 faults=0/0/0/0/0/0/0/false",
    "SACHI(n3) clean stream | H=-68 best=0 sweeps=473 flips=3069 | total 1892/15841 | swaps=85/177 restarts=0 | r0 cycles=40098 pJ=1532750.5775000001 faults=0/0/0/0/0/0/0/false | r1 cycles=40098 pJ=1533250.5675000001 faults=0/0/0/0/0/0/0/false | r2 cycles=40098 pJ=1534174.2925000002 faults=0/0/0/0/0/0/0/false | r3 cycles=40098 pJ=1535594.8025 faults=0/0/0/0/0/0/0/false",
    "SACHI(n3) ber1e-3:retry:2 default | H=-68 best=0 sweeps=473 flips=2966 | total 1892/15699 | swaps=85/177 restarts=0 | r0 cycles=20360 pJ=426130.22750000004 faults=675/658/645/13/642/13482/0/true | r1 cycles=20066 pJ=425046.8225 faults=674/654/634/20/628/13188/0/true | r2 cycles=20318 pJ=428710.90249999997 faults=680/661/644/17/640/13440/0/true | r3 cycles=21368 pJ=432386.0075 faults=729/710/693/17/690/14490/0/true",
    "SACHI(n3) ber1e-3:retry:2 stream | H=-68 best=2 sweeps=473 flips=4232 | total 1892/15840 | swaps=91/177 restarts=0 | r0 cycles=53895 pJ=1573017.1725 faults=690/673/658/15/657/13797/639/true | r1 cycles=53286 pJ=1572889.1975 faults=664/649/634/15/628/13188/660/true | r2 cycles=53559 pJ=1575313.9175000002 faults=677/659/641/18/641/13461/669/false | r3 cycles=54063 pJ=1576776.5525 faults=707/688/669/19/665/13965/652/true",
];

fn all_cells(threads: usize) -> Vec<String> {
    let mut cells = Vec::new();
    for design in DesignKind::ALL {
        for faulted in [false, true] {
            for streaming in [false, true] {
                cells.push(tempered_cell(design, faulted, streaming, threads));
            }
        }
    }
    cells
}

#[test]
fn tempered_runs_match_pinned_goldens() {
    let cells = all_cells(2);
    assert_eq!(cells.len(), TEMPERED_GOLDENS.len(), "golden table size");
    for (got, want) in cells.iter().zip(TEMPERED_GOLDENS) {
        assert_eq!(got, want);
    }
}
