//! Knockout replay: the per-layer split of one `solve_detailed` call,
//! measured from outside through public calls.
//!
//! A clock read costs about as much as one annealer decision, so spans
//! around each kernel call would measure the clock. Instead the sweep is
//! replayed through the same public calls the machine makes —
//! `compute_tuple_soa`, then `decide_update`, then `update_spin` +
//! `writeback_spin` — and then replayed twice more with layers knocked
//! out: first with the kernel's H values fed from a recording, then with
//! the decisions fed as well. Each layer's time is the difference
//! between consecutive passes, and each pass costs two clock reads.
//! Every pass must end on exactly the spins, sweeps and flips the
//! machine produced, or the replay is not measuring the machine's work.
//!
//! Neighbours on a shared host slow memory-bound code by up to ~1.6x for
//! seconds at a time, so the machine call and each pass run [`ROUNDS`]
//! times, interleaved, and each keeps its fastest reading.

use sachi_core::prelude::{
    stationarity, ComputeContext, ComputeScratch, MixedEncoding, SachiConfig, SachiMachine,
    Stationarity, TuplePlanes, TupleStore,
};
use sachi_ising::prelude::{
    decide_update, Annealer, IsingGraph, SolveOptions, SolveResult, Spin, SpinVector,
};
use sachi_mem::sram::{SramTile, TileParams};
use std::time::Instant;

/// Interleaved repetitions of the machine call and of each pass.
pub const ROUNDS: usize = 3;

/// The timings (fastest of [`ROUNDS`]) and counts of one replayed solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Knockout {
    /// The machine's own `solve_detailed` call.
    pub solve_ns: u64,
    /// `TupleStore` + `TuplePlanes` construction.
    pub build_ns: u64,
    /// The full sweep loop: kernel, decision, writeback.
    pub full_ns: u64,
    /// The loop with recorded H values (decision + writeback).
    pub fed_h_ns: u64,
    /// The loop with recorded H values and decisions (writeback only).
    pub fed_decisions_ns: u64,
    /// Annealer decisions made (spins × sweeps).
    pub decisions: u64,
    /// Spins flipped.
    pub flips: u64,
}

impl Knockout {
    /// Kernel (`compute_tuple_soa`) time.
    pub fn compute_ns(&self) -> f64 {
        self.full_ns as f64 - self.fed_h_ns as f64
    }

    /// Annealer decision (`decide_update`) time.
    pub fn decide_ns(&self) -> f64 {
        self.fed_h_ns as f64 - self.fed_decisions_ns as f64
    }

    /// Writeback (`update_spin` + `writeback_spin`) time, including the
    /// loop itself.
    pub fn writeback_ns(&self) -> f64 {
        self.fed_decisions_ns as f64
    }

    /// What the machine spends outside the replayed layers: cycle and
    /// energy accounting, tile set-up, and the like.
    pub fn accounting_ns(&self) -> f64 {
        self.solve_ns as f64 - self.build_ns as f64 - self.full_ns as f64
    }

    /// Adds `other`'s times and counts to these.
    pub fn add(&mut self, other: &Knockout) {
        self.solve_ns += other.solve_ns;
        self.build_ns += other.build_ns;
        self.full_ns += other.full_ns;
        self.fed_h_ns += other.fed_h_ns;
        self.fed_decisions_ns += other.fed_decisions_ns;
        self.decisions += other.decisions;
        self.flips += other.flips;
    }
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The spin state one pass evolves, built the way `solve_detailed`
/// builds it.
struct State {
    spins: SpinVector,
    tuples: TupleStore,
    planes: TuplePlanes,
}

impl State {
    fn new(
        graph: &IsingGraph,
        initial: &SpinVector,
        enc: &MixedEncoding,
        tuple_rep: bool,
    ) -> Result<State, String> {
        let spins = initial.clone();
        let tuples = TupleStore::with_tuple_rep(graph, &spins, tuple_rep);
        let planes = TuplePlanes::new(&tuples, enc).map_err(|e| format!("tuple planes: {e}"))?;
        Ok(State {
            spins,
            tuples,
            planes,
        })
    }

    /// Applies one decision; returns whether the spin flipped.
    #[inline]
    fn apply(&mut self, i: usize, new: Spin) -> bool {
        if new == self.spins.get(i) {
            return false;
        }
        self.spins.set(i, new);
        self.tuples.update_spin(i, new);
        self.planes.writeback_spin(&self.tuples, i, new);
        true
    }
}

fn check(
    what: &str,
    spins: &SpinVector,
    sweeps: u64,
    flips: u64,
    want: &SolveResult,
) -> Result<(), String> {
    if *spins != want.spins || sweeps != want.sweeps || flips != want.flips {
        return Err(format!(
            "{what} diverged from the traced solve_detailed call \
             (sweeps {sweeps} vs {}, flips {flips} vs {})",
            want.sweeps, want.flips
        ));
    }
    Ok(())
}

/// Replays one `solve_detailed(graph, initial, options)` call of a
/// machine configured by `config`, checking the machine's own repeat
/// calls and every pass against the traced call's result `want`.
///
/// # Errors
///
/// A repeat or a pass that does not reproduce `want`'s spins, sweeps
/// and flips, or a configuration the replay does not model (fault
/// injection).
pub fn knockout(
    graph: &IsingGraph,
    initial: &SpinVector,
    options: &SolveOptions,
    config: &SachiConfig,
    want: &SolveResult,
) -> Result<Knockout, String> {
    if config.fault.is_some() {
        return Err("knockout replay models the fault-free machine only".to_string());
    }
    let resolution = config.resolution.unwrap_or_else(|| graph.bits_required());
    let enc = MixedEncoding::new(resolution).map_err(|e| format!("encoding: {e}"))?;
    let design = stationarity(config.design);
    let (rows, cols) = design.tile_requirements(
        graph.max_degree().max(1),
        enc.bits(),
        config.hierarchy.compute.row_bits(),
    );
    let params = TileParams::new(rows, cols).with_banks(config.bank_count);
    let n = graph.num_spins();

    // Recording pass (untimed): the H value and decision of every step.
    let mut hs: Vec<i64> = Vec::new();
    let mut decided: Vec<Spin> = Vec::new();
    let mut st = State::new(graph, initial, &enc, config.tuple_rep)?;
    let (sweeps, flips) = full_loop(
        design,
        &enc,
        params,
        options,
        n,
        &mut st,
        Some((&mut hs, &mut decided)),
    );
    check("the recording pass", &st.spins, sweeps, flips, want)?;

    let mut best = Knockout {
        solve_ns: u64::MAX,
        build_ns: u64::MAX,
        full_ns: u64::MAX,
        fed_h_ns: u64::MAX,
        fed_decisions_ns: u64::MAX,
        decisions: u64::try_from(decided.len()).unwrap_or(u64::MAX),
        flips,
    };
    for _ in 0..ROUNDS {
        // The machine itself.
        let mut machine = SachiMachine::new(config.clone());
        let start = Instant::now();
        let (result, _) = machine.solve_detailed(graph, initial, options);
        best.solve_ns = best.solve_ns.min(nanos(start));
        check(
            "a repeat machine call",
            &result.spins,
            result.sweeps,
            result.flips,
            want,
        )?;

        // Pass 1: the whole sweep, with the state build timed on its own.
        let start = Instant::now();
        let mut st = State::new(graph, initial, &enc, config.tuple_rep)?;
        best.build_ns = best.build_ns.min(nanos(start));
        let start = Instant::now();
        let (sweeps, flips) = full_loop(design, &enc, params, options, n, &mut st, None);
        best.full_ns = best.full_ns.min(nanos(start));
        check("the full pass", &st.spins, sweeps, flips, want)?;

        // Pass 2: kernel knocked out, H fed from the recording.
        let mut st = State::new(graph, initial, &enc, config.tuple_rep)?;
        let mut annealer = Annealer::new(options.schedule, options.seed);
        let start = Instant::now();
        let mut flips = 0u64;
        for sweep in hs.chunks_exact(n.max(1)) {
            for (i, &h) in sweep.iter().enumerate() {
                let new = decide_update(st.spins.get(i), h, &mut annealer);
                flips += u64::from(st.apply(i, new));
            }
            annealer.cool();
        }
        best.fed_h_ns = best.fed_h_ns.min(nanos(start));
        check("the fed-H pass", &st.spins, sweeps, flips, want)?;

        // Pass 3: kernel and decisions knocked out, writeback only.
        let mut st = State::new(graph, initial, &enc, config.tuple_rep)?;
        let start = Instant::now();
        let mut flips = 0u64;
        for sweep in decided.chunks_exact(n.max(1)) {
            for (i, &new) in sweep.iter().enumerate() {
                flips += u64::from(st.apply(i, new));
            }
        }
        best.fed_decisions_ns = best.fed_decisions_ns.min(nanos(start));
        check("the fed-decision pass", &st.spins, sweeps, flips, want)?;
    }
    Ok(best)
}

/// The machine's functional sweep loop (`solve_detailed` without the
/// accounting): returns `(sweeps, flips)`, optionally recording every
/// H value and decision.
#[allow(clippy::too_many_arguments)]
fn full_loop(
    design: &dyn Stationarity,
    enc: &MixedEncoding,
    params: TileParams,
    options: &SolveOptions,
    n: usize,
    st: &mut State,
    mut record: Option<(&mut Vec<i64>, &mut Vec<Spin>)>,
) -> (u64, u64) {
    let mut tile = SramTile::with_params(params);
    let mut ctx = ComputeContext::new();
    let mut scratch = ComputeScratch::new();
    let mut annealer = Annealer::new(options.schedule, options.seed);
    let max_sweeps = options.effective_max_sweeps(n);
    let (mut sweeps, mut flips) = (0u64, 0u64);
    while sweeps < max_sweeps && !options.is_cancelled() {
        let mut flips_this_sweep = 0u64;
        for i in 0..n {
            let current = st.spins.get(i);
            let h = design.compute_tuple_soa(
                &mut tile,
                enc,
                st.tuples.tuple(i),
                st.planes.view(i),
                current,
                &mut ctx,
                &mut scratch,
            );
            let new = decide_update(current, h, &mut annealer);
            if let Some((hs, decided)) = record.as_mut() {
                hs.push(h);
                decided.push(new);
            }
            flips_this_sweep += u64::from(st.apply(i, new));
        }
        sweeps += 1;
        flips += flips_this_sweep;
        let frozen = annealer.is_frozen();
        annealer.cool();
        if flips_this_sweep == 0 && frozen {
            break;
        }
    }
    (sweeps, flips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_core::prelude::{DesignKind, SachiMachine};
    use sachi_ising::prelude::topology;

    #[test]
    fn replay_reproduces_solve_detailed_on_a_kings_graph_for_every_design() {
        let graph = topology::king(6, 6, |i, j| ((i * 5 + j * 3) % 7) as i32 - 3).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let init = SpinVector::random(36, &mut rng);
        let options = SolveOptions::for_graph(&graph, 4);
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design);
            let (want, _) =
                SachiMachine::new(config.clone()).solve_detailed(&graph, &init, &options);
            let ko = knockout(&graph, &init, &options, &config, &want)
                .unwrap_or_else(|e| panic!("{design}: {e}"));
            assert_eq!(ko.flips, want.flips, "{design}");
            assert_eq!(ko.decisions, want.sweeps * 36, "{design}");
            assert!(
                ko.solve_ns > 0 && ko.full_ns > 0 && ko.fed_decisions_ns > 0,
                "{design}"
            );
        }
    }

    #[test]
    fn a_replay_of_different_work_is_rejected() {
        let graph = topology::king(6, 6, |_, _| 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let init = SpinVector::random(36, &mut rng);
        let options = SolveOptions::for_graph(&graph, 4);
        let config = SachiConfig::new(DesignKind::N3);
        let (mut want, _) =
            SachiMachine::new(config.clone()).solve_detailed(&graph, &init, &options);
        want.flips += 1;
        assert!(knockout(&graph, &init, &options, &config, &want).is_err());
    }
}
