//! The committed sample instances in `data/` must stay loadable and
//! solvable — they are the documented entry point for users with their
//! own graph files.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sachi::prelude::*;

fn data(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/");
    std::fs::read_to_string(format!("{path}{name}")).expect("sample instance exists")
}

#[test]
fn petersen_dimacs_loads_and_reaches_the_optimal_cut() {
    let graph = parse_dimacs(&data("petersen.dimacs")).expect("parses");
    assert_eq!(graph.num_spins(), 10);
    assert_eq!(graph.num_edges(), 15);
    assert_eq!(graph.max_degree(), 3);

    let w = GenericMaxCut::new("petersen", graph);
    let mut rng = StdRng::seed_from_u64(1);
    let init = SpinVector::random(10, &mut rng);
    let mut machine = SachiMachine::new(SachiConfig::new(DesignKind::N3));
    let mut best_cut = 0;
    for seed in 0..8 {
        let (result, _) =
            machine.solve_detailed(w.graph(), &init, &SolveOptions::for_graph(w.graph(), seed));
        best_cut = best_cut.max(w.cut_weight(&result.spins));
    }
    assert_eq!(best_cut, 12, "Petersen's max cut is 12");
}

#[test]
fn random64_gset_loads_and_solves() {
    let graph = parse_gset(&data("random64.gset")).expect("parses");
    assert_eq!(graph.num_spins(), 64);
    assert_eq!(graph.num_edges(), 256);
    // Gset weights load negated (max-cut form).
    assert!(graph.edges().all(|(_, _, w)| w < 0));

    let w = GenericMaxCut::new("random64", graph);
    let mut rng = StdRng::seed_from_u64(2);
    let init = SpinVector::random(64, &mut rng);
    let r = EnsembleRunner::new(6)
        .run_reference(w.graph(), &init, &SolveOptions::for_graph(w.graph(), 3))
        .into_best();
    assert!(
        w.accuracy(&r.spins) > 0.95,
        "accuracy {}",
        w.accuracy(&r.spins)
    );
}

#[test]
fn sample_files_round_trip_through_the_writer() {
    let graph = parse_dimacs(&data("petersen.dimacs")).expect("parses");
    let rewritten = to_dimacs(&graph);
    let reparsed = parse_dimacs(&rewritten).expect("round-trips");
    assert_eq!(reparsed, graph);
}

#[test]
fn example12_cnf_loads_and_the_plant_satisfies_everything() {
    let instance = parse_dimacs_cnf(&data("example12.cnf")).expect("parses");
    assert_eq!(instance.num_vars(), 12);
    assert_eq!(instance.clauses().len(), 40);
    // The fixture is planted: all-true satisfies every clause.
    let all_true = vec![true; 12];
    assert_eq!(
        instance.satisfied_weight(&all_true),
        instance.total_weight()
    );

    // Encoded, the completed all-true state sits at zero penalty.
    let w = SatWorkload::new("example12", instance).expect("encodes");
    let planted = w.complete_assignment(&all_true);
    assert_eq!(w.problem().objective(&planted), 0);
    assert!((w.accuracy(&planted) - 1.0).abs() < 1e-12);
}

#[test]
fn example12_cnf_round_trips_through_the_writer() {
    let instance = parse_dimacs_cnf(&data("example12.cnf")).expect("parses");
    let rewritten = instance.to_dimacs_cnf();
    let reparsed = parse_dimacs_cnf(&rewritten).expect("round-trips");
    assert_eq!(reparsed, instance);
}
