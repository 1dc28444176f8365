//! The job lowering never panics. Any `JobSpec` — admitted by
//! `validate()` and the default `JobLimits` or not — lowers through
//! `JobPlan::from_spec` to a plan or a typed error, and small admitted
//! plans run to completion. This is the daemon's trust boundary: a
//! panic here would kill a connection thread instead of answering with
//! a code, and `sachi solve` would exit 101 instead of 2.

use proptest::prelude::*;
use sachi::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every COP family and design, resolution over `0..=64` (65 stands for
/// no override), fault BER in {none, 0, 1e-4, 1.0}, all recovery
/// policies, tempering on and off.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        (0usize..7, 1usize..49, any::<u64>(), 1u64..5),
        (0usize..4, 0u32..=65, 0usize..4, 0usize..3, 0usize..3),
    )
        .prop_map(
            |((cop, size, seed, restarts), (design, resolution, ber, policy, tempering))| JobSpec {
                cop: CopKind::EXTENDED[cop],
                size,
                seed,
                restarts,
                design: DesignKind::ALL[design],
                resolution: (resolution <= 64).then_some(resolution),
                step_budget: Some(2_000),
                fault_ber: [None, Some(0.0), Some(1e-4), Some(1.0)][ber],
                fault_seed: seed.rotate_left(17),
                fault_policy: [
                    RecoveryPolicy::default(),
                    RecoveryPolicy::FailFast,
                    RecoveryPolicy::RefetchRetry { max_retries: 0 },
                ][policy],
                tempering: tempering > 0,
                ladder: if tempering == 2 {
                    LadderKind::Adaptive
                } else {
                    LadderKind::Geometric
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn any_spec_lowers_to_a_plan_or_a_typed_error(spec in spec_strategy()) {
        let lowered = catch_unwind(AssertUnwindSafe(|| JobPlan::from_spec(&spec)))
            .unwrap_or_else(|_| panic!("from_spec panicked on {spec:?}"));
        match (spec.admit(&JobLimits::default()), lowered) {
            (Err(refusal), Ok(_)) => panic!("a refused spec lowered: {spec:?}: {refusal}"),
            (_, Err(e)) => {
                assert!(
                    matches!(e, SachiError::Usage(_) | SachiError::Config(_)),
                    "{spec:?}: untyped lowering error {e}"
                );
                assert_eq!(e.exit_code(), 2, "{spec:?}: {e}");
            }
            (Ok(()), Ok(plan)) => {
                if spec.size <= 16 {
                    let outcome = catch_unwind(AssertUnwindSafe(|| plan.run_solo()))
                        .unwrap_or_else(|_| panic!("run_solo panicked on {spec:?}"));
                    assert_eq!(outcome.best.replicas.len(), plan.replica_count(), "{spec:?}");
                    assert!((0.0..=1.0).contains(&outcome.accuracy), "{spec:?}");
                }
            }
        }
    }
}

/// The resolution bounds the machine accepts are exactly the bounds
/// `validate()` admits: 2 and 32 lower (when the graph fits), 1, 33 and
/// 64 are refused as config errors before any machine is configured.
#[test]
fn resolution_edges_are_typed_not_panics() {
    for (bits, admitted) in [(1, false), (2, true), (32, true), (33, false), (64, false)] {
        let spec = JobSpec {
            cop: CopKind::GraphColoring,
            size: 8,
            resolution: Some(bits),
            step_budget: Some(2_000),
            ..JobSpec::default()
        };
        assert_eq!(spec.validate().is_ok(), admitted, "resolution {bits}");
        match JobPlan::from_spec(&spec) {
            Ok(plan) => {
                assert!(admitted, "resolution {bits}");
                assert_eq!(plan.run_solo().best.replicas.len(), 1);
            }
            Err(e) => assert_eq!(e.exit_code(), 2, "resolution {bits}: {e}"),
        }
    }
}
