//! Closed-form performance/energy model.
//!
//! Figs. 15, 17 and 18 of the paper sweep to a million spins — far beyond
//! what a functional bit-level simulation should chew through. Because
//! SACHI's access patterns are fully structured, its cycle counts are a
//! deterministic function of the workload *shape* (spins, `N`, `R`) and
//! the geometry; [`PerfModel`] sums the same [`RoundPlan`] the functional
//! [`crate::machine::SachiMachine`] bills, built from the uniform shape,
//! and prices the shape's event counts through the same
//! [`RoundPlan::price`]: a solve's counts are the placement, sweep 0 and
//! the steady sweep's times the remaining sweeps, summed before the one
//! product per component. On a uniform-degree graph the model therefore
//! equals the machine exactly on every component whose count the shape
//! fixes. The test suite pins the two against each other on such graphs
//! (the licence for using the model at scale — verification strategy #3
//! in DESIGN.md).

use crate::config::SachiConfig;
use crate::designs::{stationarity, TupleSchedule};
use crate::rounds::{RoundPlan, SolveEvents};
use sachi_mem::energy::EnergyLedger;
use sachi_mem::units::convert::{approx_f64_wide, count_u64, scale_by_fraction};
use sachi_mem::units::{Cycles, Nanoseconds};
use sachi_workloads::spec::WorkloadShape;

/// Per-iteration (per-sweep) estimate for a workload shape.
#[derive(Debug, Clone)]
pub struct IterationEstimate {
    /// Compute-array cycles per sweep (tile-parallel critical path).
    pub compute_cycles: Cycles,
    /// Loading cycles per sweep (storage→compute + DRAM), before overlap.
    pub load_cycles: Cycles,
    /// Critical-path cycles per sweep with prefetch overlap — the paper's
    /// CPI metric.
    pub effective_cycles: Cycles,
    /// Compute-array rounds per sweep.
    pub rounds: u64,
    /// Whether the whole problem is resident in the compute array.
    pub fits_in_compute: bool,
    /// Whether rounds must stream from DRAM (storage array too small).
    pub uses_dram: bool,
    /// Energy per sweep.
    pub energy: EnergyLedger,
    /// Maximum reuse of the configured design at this shape.
    pub reuse: u64,
}

/// Whole-solve estimate.
#[derive(Debug, Clone)]
pub struct SolveEstimate {
    /// Iterations assumed.
    pub iterations: u64,
    /// Total cycles including the initial DRAM placement and first-sweep
    /// fills.
    pub total_cycles: Cycles,
    /// Total energy.
    pub energy: EnergyLedger,
    /// Wall-clock time at the configured cycle time.
    pub wall_time: Nanoseconds,
}

/// Flip fraction assumed for update-path energy (the functional machine
/// measures it; the analytic models must assume one).
pub const ASSUMED_FLIP_FRACTION: f64 = 0.05;

/// The analytic model for one configuration.
#[derive(Debug, Clone)]
pub struct PerfModel {
    config: SachiConfig,
}

impl PerfModel {
    /// Creates a model for a configuration.
    pub fn new(config: SachiConfig) -> Self {
        PerfModel { config }
    }

    /// The configuration being modeled.
    pub fn config(&self) -> &SachiConfig {
        &self.config
    }

    /// Estimates one steady sweep of the given shape.
    ///
    /// # Panics
    ///
    /// Panics where [`PerfModel::try_iteration`] returns `None`.
    pub fn iteration(&self, shape: &WorkloadShape) -> IterationEstimate {
        self.try_iteration(shape)
            .expect("shape within the model's range")
    }

    /// [`PerfModel::iteration`], or `None` when the shape is outside the
    /// model's range: no uniform plan (see [`RoundPlan::uniform`]).
    pub fn try_iteration(&self, shape: &WorkloadShape) -> Option<IterationEstimate> {
        let plan = RoundPlan::uniform(&self.config, shape)?;
        let mut steady = SolveEvents::default();
        self.count_sweeps(&plan, shape, &mut steady, 1, 1);
        Some(IterationEstimate {
            compute_cycles: plan.sweep_compute(),
            load_cycles: plan.sweep_load(1),
            effective_cycles: plan.sweep_cycles(1),
            rounds: plan.rounds_per_sweep,
            fits_in_compute: plan.rounds_per_sweep == 1,
            uses_dram: plan.uses_dram,
            energy: plan.price(&steady),
            reuse: self.schedule(shape).max_reuse,
        })
    }

    /// The configured design's schedule of one tuple of `shape`.
    fn schedule(&self, shape: &WorkloadShape) -> TupleSchedule {
        let row_bits = count_u64(self.config.hierarchy.compute.row_bits());
        stationarity(self.config.design).schedule(
            shape.neighbors_per_spin,
            shape.resolution_bits,
            row_bits,
        )
    }

    /// Estimates a whole solve of `iterations` sweeps (at least one),
    /// including the initial DRAM placement and sweep 0's loads — what
    /// the functional machine bills for the same shape and sweep count.
    ///
    /// # Panics
    ///
    /// Panics where [`PerfModel::try_solve`] returns `None`.
    pub fn solve(&self, shape: &WorkloadShape, iterations: u64) -> SolveEstimate {
        self.try_solve(shape, iterations)
            .expect("solve within the model's range")
    }

    /// [`PerfModel::solve`], or `None` when the shape is outside the
    /// model's range (see [`PerfModel::try_iteration`]) or the solve's
    /// cycles overflow `u64`.
    pub fn try_solve(&self, shape: &WorkloadShape, iterations: u64) -> Option<SolveEstimate> {
        let plan = RoundPlan::uniform(&self.config, shape)?;
        let total = plan.solve_cycles(iterations)?;
        let mut events = plan.placement_events();
        self.count_sweeps(&plan, shape, &mut events, 0, 1);
        self.count_sweeps(&plan, shape, &mut events, 1, iterations.max(1) - 1);
        Some(SolveEstimate {
            iterations,
            total_cycles: total,
            energy: plan.price(&events),
            wall_time: total.to_time(self.config.tech.cycle_time),
        })
    }

    /// Counts `times` sweeps of `shape` numbered `sweep` into `events`:
    /// every tuple's scheduled compute events, the plan's loads, and the
    /// update path at the assumed flip rate.
    fn count_sweeps(
        &self,
        plan: &RoundPlan,
        shape: &WorkloadShape,
        events: &mut SolveEvents,
        sweep: u64,
        times: u64,
    ) {
        let (n, times) = (u128::from(shape.neighbors_per_spin), u128::from(times));
        let tuples = u128::from(shape.spins) * times;
        let tuple = self.schedule(shape);
        let accesses = tuples * u128::from(tuple.accesses);
        // Update path at the assumed flip rate (a spin has ~n copies).
        let flips = u128::from(scale_by_fraction(shape.spins, ASSUMED_FLIP_FRACTION)) * times;
        events.flips += flips;
        events.copies += flips * n;
        events.rwl_activations += accesses * 2;
        // Expected discharges: half of the active window per access.
        let active = accesses * u128::from(tuple.active_bits_per_access);
        events.rbl_discharges += approx_f64_wide(active) * 0.5;
        events.fetched_bits += accesses;
        events.adder_bit_ops += tuples * u128::from(tuple.adder_bit_ops);
        events.decisions += tuples * u128::from(tuple.decisions);
        events.annealer_decisions += tuples;
        plan.count_sweep_loads(events, sweep, times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesignKind;
    use crate::machine::SachiMachine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::graph::topology;
    use sachi_ising::solver::SolveOptions;
    use sachi_ising::spin::SpinVector;
    use sachi_mem::cache::{CacheGeometry, CacheHierarchy};

    /// The parity check that licenses the analytic model: on a
    /// uniform-degree graph the model's per-sweep compute cycles must
    /// equal the functional machine's.
    #[test]
    fn model_matches_machine_on_uniform_graph() {
        let n_spins = 12usize;
        let g = topology::complete(n_spins, |i, j| ((i + 2 * j) % 9) as i32 - 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let init = SpinVector::random(n_spins, &mut rng);
        let opts = SolveOptions::for_graph(&g, 3);
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design);
            let mut machine = SachiMachine::new(config.clone());
            let (_, report) = machine.solve_detailed(&g, &init, &opts);
            let shape =
                WorkloadShape::new(n_spins as u64, (n_spins - 1) as u64, report.resolution_bits);
            let model = PerfModel::new(config);
            let est = model.iteration(&shape);
            assert_eq!(
                report.compute_cycles.get(),
                est.compute_cycles.get() * report.sweeps,
                "{design}: machine {} vs model {} x {} sweeps",
                report.compute_cycles,
                est.compute_cycles,
                report.sweeps
            );
        }
    }

    #[test]
    fn model_matches_machine_with_rounds() {
        // Force multiple rounds with a tiny compute array.
        let n_spins = 12usize;
        let g = topology::complete(n_spins, |i, j| ((i + j) % 5) as i32 + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let init = SpinVector::random(n_spins, &mut rng);
        let opts = SolveOptions::for_graph(&g, 4);
        let small = CacheHierarchy {
            compute: CacheGeometry::new(2, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design).with_hierarchy(small);
            let tech = config.tech.clone();
            let mut machine = SachiMachine::new(config.clone());
            let (_, report) = machine.solve_detailed(&g, &init, &opts);
            let shape =
                WorkloadShape::new(n_spins as u64, (n_spins - 1) as u64, report.resolution_bits);
            let est = PerfModel::new(config).iteration(&shape);
            assert_eq!(est.rounds, report.rounds_per_sweep, "{design} rounds");
            assert_eq!(
                report.compute_cycles.get(),
                est.compute_cycles.get() * report.sweeps,
                "{design} compute cycles"
            );
            // With rounds > 1 every sweep reloads (the model's per-sweep
            // load); with a single resident round only the sweep-0 fill
            // is paid, which the machine books but the per-sweep estimate
            // (correctly) reports as zero.
            let expected_load = if est.rounds > 1 {
                est.load_cycles.get() * report.sweeps
            } else {
                let row_bits = small.compute.row_bits() as u64;
                let resident = stationarity(design)
                    .schedule(shape.neighbors_per_spin, shape.resolution_bits, row_bits)
                    .resident_bits
                    .max(1);
                let rows = (shape.spins * resident).div_ceil(row_bits);
                tech.storage_to_compute_cycles().get() + rows
            };
            assert_eq!(
                report.load_cycles.get(),
                expected_load,
                "{design} load cycles"
            );
        }
    }

    #[test]
    fn model_matches_banked_machine_with_rounds() {
        // Banking divides the per-round upload term; the analytic model
        // must track the metered machine exactly (the disc_drift 0.00%
        // contract) for any bank count, including non-divisors.
        let n_spins = 12usize;
        let g = topology::complete(n_spins, |i, j| ((i + j) % 5) as i32 + 1).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let init = SpinVector::random(n_spins, &mut rng);
        let opts = SolveOptions::for_graph(&g, 4);
        let small = CacheHierarchy {
            compute: CacheGeometry::new(2, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        for banks in [2usize, 4, 7] {
            for design in DesignKind::ALL {
                let config = SachiConfig::new(design)
                    .with_hierarchy(small)
                    .with_banks(banks);
                let config_tech_storage_cycles = config.tech.storage_to_compute_cycles().get();
                let mut machine = SachiMachine::new(config.clone());
                let (_, report) = machine.solve_detailed(&g, &init, &opts);
                let shape = WorkloadShape::new(
                    n_spins as u64,
                    (n_spins - 1) as u64,
                    report.resolution_bits,
                );
                let est = PerfModel::new(config).iteration(&shape);
                assert_eq!(
                    est.rounds, report.rounds_per_sweep,
                    "{design} x{banks} rounds"
                );
                assert_eq!(
                    report.compute_cycles.get(),
                    est.compute_cycles.get() * report.sweeps,
                    "{design} x{banks} compute cycles"
                );
                // With rounds > 1 every sweep reloads; a single resident
                // round only pays the sweep-0 fill, which banking divides
                // the same way.
                let expected_load = if est.rounds > 1 {
                    est.load_cycles.get() * report.sweeps
                } else {
                    let row_bits = small.compute.row_bits() as u64;
                    let resident = stationarity(design)
                        .schedule(shape.neighbors_per_spin, shape.resolution_bits, row_bits)
                        .resident_bits
                        .max(1);
                    let rows = (shape.spins * resident).div_ceil(row_bits);
                    config_tech_storage_cycles + rows.div_ceil(banks as u64)
                };
                assert_eq!(
                    report.load_cycles.get(),
                    expected_load,
                    "{design} x{banks} load cycles"
                );
            }
        }
    }

    /// A solve estimate bills what the metered machine bills for the same
    /// shape and sweep count, round by round: the initial placement,
    /// sweep 0's serialized first round and every later overlap — down
    /// to a lone spin of degree 0, whose kernel books no phase-1 cycles.
    #[test]
    fn model_solve_bills_what_the_machine_bills() {
        let small = CacheHierarchy {
            compute: CacheGeometry::new(2, 4, 64, 1),
            storage: CacheGeometry::sachi_storage_default(),
        };
        for hierarchy in [small, CacheHierarchy::hpca_default()] {
            for n_spins in [1usize, 12, 36, 64] {
                let g = topology::complete(n_spins, |i, j| ((i + j) % 5) as i32 - 2).unwrap();
                let mut rng = StdRng::seed_from_u64(21);
                let init = SpinVector::random(n_spins, &mut rng);
                let opts = SolveOptions::for_graph(&g, 6);
                for design in DesignKind::ALL {
                    for prefetch in [true, false] {
                        let mut config = SachiConfig::new(design).with_hierarchy(hierarchy);
                        if !prefetch {
                            config = config.without_prefetch();
                        }
                        let mut machine = SachiMachine::new(config.clone());
                        let (_, report) = machine.solve_detailed(&g, &init, &opts);
                        let shape = WorkloadShape::new(
                            n_spins as u64,
                            (n_spins - 1) as u64,
                            report.resolution_bits,
                        );
                        let est = PerfModel::new(config).solve(&shape, report.sweeps);
                        assert_eq!(
                            est.total_cycles, report.total_cycles,
                            "K{n_spins}/{design}/prefetch={prefetch}/{} rounds",
                            report.rounds_per_sweep
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cpi_ordering_reproduces_fig17() {
        // At any size, CPI(n3) <= CPI(n2) <= CPI(n1b) <= CPI(n1a).
        let model = |k| PerfModel::new(SachiConfig::new(k));
        for spins in [500u64, 10_000, 1_000_000] {
            let shape = WorkloadShape::new(spins, 8, 4); // molecular dynamics
            let cpi = |k| model(k).iteration(&shape).effective_cycles.get();
            assert!(cpi(DesignKind::N3) <= cpi(DesignKind::N2), "{spins}");
            assert!(cpi(DesignKind::N2) <= cpi(DesignKind::N1b), "{spins}");
            assert!(cpi(DesignKind::N1b) <= cpi(DesignKind::N1a), "{spins}");
        }
    }

    #[test]
    fn cpi_grows_with_problem_size_and_overflow() {
        let model = PerfModel::new(SachiConfig::new(DesignKind::N3));
        let small = model.iteration(&WorkloadShape::new(500, 8, 4));
        let large = model.iteration(&WorkloadShape::new(1_000_000, 8, 4));
        assert!(small.fits_in_compute);
        assert!(!large.fits_in_compute);
        assert!(large.rounds > 1);
        assert!(large.effective_cycles > small.effective_cycles);
        assert!(large.load_cycles > Cycles::ZERO);
    }

    #[test]
    fn n1_cpi_depends_on_resolution_n2_n3_do_not() {
        // Fig. 18: n1a/n1b improve with lower R; n2/n3 are flat (until R
        // affects row splits).
        let shape = |r| WorkloadShape::new(100_000, 8, r);
        for k in [DesignKind::N1a, DesignKind::N1b] {
            let m = PerfModel::new(SachiConfig::new(k));
            let lo = m.iteration(&shape(2)).compute_cycles.get();
            let hi = m.iteration(&shape(8)).compute_cycles.get();
            assert!(lo < hi, "{k}: {lo} !< {hi}");
        }
        let m2 = PerfModel::new(SachiConfig::new(DesignKind::N2));
        let lo2 = m2.iteration(&shape(2)).compute_cycles.get() as f64;
        let hi2 = m2.iteration(&shape(8)).compute_cycles.get() as f64;
        assert!(
            (hi2 - lo2).abs() / lo2 < 0.01,
            "n2 not flat: {lo2} vs {hi2}"
        );
        let m3 = PerfModel::new(SachiConfig::new(DesignKind::N3));
        // n3 stays within a row for King's graph at any R in 2..=8; only
        // the per-round fill count wobbles (higher R -> more rounds), so
        // require near-flatness rather than exact equality.
        let lo3 = m3.iteration(&shape(2)).compute_cycles.get() as f64;
        let hi3 = m3.iteration(&shape(8)).compute_cycles.get() as f64;
        assert!(
            (hi3 - lo3).abs() / lo3 < 0.01,
            "n3 not flat: {lo3} vs {hi3}"
        );
    }

    #[test]
    fn larger_caches_help_large_tsp() {
        // Sec. VII.2: the 64KB/1MB and 256KB/8MB presets speed up 1M-spin
        // TSP monotonically.
        let shape = WorkloadShape::new(1_000_000, 999, 5);
        let cpi = |h| {
            PerfModel::new(SachiConfig::new(DesignKind::N3).with_hierarchy(h))
                .iteration(&shape)
                .effective_cycles
                .get()
        };
        let base = cpi(CacheHierarchy::hpca_default());
        let desktop = cpi(CacheHierarchy::desktop());
        let server = cpi(CacheHierarchy::server());
        assert!(desktop < base, "desktop {desktop} !< base {base}");
        assert!(server < desktop, "server {server} !< desktop {desktop}");
        let speedup = base as f64 / server as f64;
        assert!(speedup > 2.0, "server speedup only {speedup:.1}x");
    }

    #[test]
    fn energy_ordering_matches_reuse() {
        // A resident-friendly shape (1K-pixel image segmentation): the
        // reuse ladder shows directly in the per-sweep energy.
        let shape = WorkloadShape::new(1_000, 48, 6);
        let e = |k| {
            PerfModel::new(SachiConfig::new(k))
                .iteration(&shape)
                .energy
                .total()
        };
        assert!(
            e(DesignKind::N3) < e(DesignKind::N2),
            "n3 {} !< n2 {}",
            e(DesignKind::N3),
            e(DesignKind::N2)
        );
        assert!(
            e(DesignKind::N2) < e(DesignKind::N1a),
            "n2 {} !< n1a {}",
            e(DesignKind::N2),
            e(DesignKind::N1a)
        );
        // At overflow scale the ordering still holds, now driven by DRAM
        // re-streaming of the non-stationary operands.
        let big = WorkloadShape::new(100_000, 48, 6);
        let eb = |k| {
            PerfModel::new(SachiConfig::new(k))
                .iteration(&big)
                .energy
                .total()
        };
        assert!(
            eb(DesignKind::N3) < eb(DesignKind::N1a),
            "n3 {} !< n1a {}",
            eb(DesignKind::N3),
            eb(DesignKind::N1a)
        );
    }

    #[test]
    fn solve_estimate_accumulates() {
        let model = PerfModel::new(SachiConfig::default());
        let shape = WorkloadShape::new(1_000, 8, 4);
        let one = model.solve(&shape, 1);
        let ten = model.solve(&shape, 10);
        assert!(ten.total_cycles > one.total_cycles);
        assert!(ten.energy.total() > one.energy.total());
        assert!(ten.wall_time.get() > one.wall_time.get());
        assert_eq!(ten.iterations, 10);
    }

    #[test]
    fn prefetch_ablation_increases_cpi() {
        let shape = WorkloadShape::new(1_000_000, 8, 4);
        let with = PerfModel::new(SachiConfig::new(DesignKind::N3)).iteration(&shape);
        let without =
            PerfModel::new(SachiConfig::new(DesignKind::N3).without_prefetch()).iteration(&shape);
        assert!(without.effective_cycles > with.effective_cycles);
        // Compute is unchanged; the ablated machine both exposes the DRAM
        // stream in its load and loses the load/compute overlap.
        assert_eq!(with.compute_cycles, without.compute_cycles);
        assert!(without.load_cycles >= with.load_cycles);
    }
}
