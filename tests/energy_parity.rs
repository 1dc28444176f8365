//! Energy parity of the closed-form model with the metered machine.
//!
//! `SachiMachine` and `PerfModel` price energy through one price list
//! (`RoundPlan`'s `bill_*` methods): the machine feeds it metered event
//! counts, the model the shape's. On a uniform-degree graph, at the
//! machine's sweep count, the components the shape fixes — RWL drive,
//! adder, decision, annealer, DRAM access and DRAM controller — must
//! therefore agree to float rounding, on a resident problem and on
//! problems that stream from DRAM in one round or in several. RBL
//! discharge, SRAM read/write and movement depend on the measured flips
//! and discharges, which the model estimates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

const SHAPE_FIXED: [EnergyComponent; 6] = [
    EnergyComponent::RwlDrive,
    EnergyComponent::NearMemoryAdd,
    EnergyComponent::DecisionLogic,
    EnergyComponent::Annealer,
    EnergyComponent::DramAccess,
    EnergyComponent::DramController,
];

/// A storage array of 1×4×64 bits: too small for any problem here.
fn small_storage() -> CacheGeometry {
    CacheGeometry::new(1, 4, 64, 2)
}

#[test]
fn model_energy_matches_the_machine_on_the_shape_fixed_components() {
    let default = CacheHierarchy::hpca_default();
    let hierarchies = [
        ("resident", default, false, false),
        (
            "one-round DRAM",
            CacheHierarchy {
                storage: small_storage(),
                ..default
            },
            false,
            true,
        ),
        (
            "multi-round DRAM",
            CacheHierarchy {
                compute: CacheGeometry::new(2, 4, 64, 1),
                storage: small_storage(),
            },
            true,
            true,
        ),
    ];
    let spins = 36usize;
    let graph = topology::complete(spins, |i, j| if (i + j) % 3 == 0 { 2 } else { -1 })
        .expect("complete graph builds");
    let init = SpinVector::random(spins, &mut StdRng::seed_from_u64(0xE7E7));
    let opts = SolveOptions::for_graph(&graph, 29);
    for (name, hierarchy, multi_round, streams) in hierarchies {
        for design in DesignKind::ALL {
            let config = SachiConfig::new(design).with_hierarchy(hierarchy);
            let (_, report) =
                SachiMachine::new(config.clone()).solve_detailed(&graph, &init, &opts);
            let shape =
                WorkloadShape::new(spins as u64, (spins - 1) as u64, report.resolution_bits);
            let estimate = PerfModel::new(config).solve(&shape, report.sweeps);
            let what = format!("{name}/{design}");
            assert_eq!(report.rounds_per_sweep > 1, multi_round, "{what} rounds");
            assert_eq!(report.dram.loads > 0, streams, "{what} streams from DRAM");
            for component in SHAPE_FIXED {
                let measured = report.energy.component(component).get();
                let modelled = estimate.energy.component(component).get();
                assert!(
                    (measured - modelled).abs() <= 1e-9 * measured.abs().max(modelled.abs()),
                    "{what} {component}: machine {measured} pJ vs model {modelled} pJ"
                );
            }
            let dram_ctrl = report.energy.component(EnergyComponent::DramController);
            assert_eq!(
                dram_ctrl.get() > 0.0,
                streams,
                "{what} bills the controller"
            );
        }
    }
}
