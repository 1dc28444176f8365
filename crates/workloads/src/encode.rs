//! Checked workload-to-Ising coefficient encoding.
//!
//! The Ising graph stores couplings and fields as `i32`. Workload
//! generators accumulate objectives in `i64`, so the final conversion
//! can overflow — and a silent `clamp` at that boundary corrupts the
//! encoded Hamiltonian without a trace (the solver then happily
//! optimizes a *different* problem). This module makes the conversion
//! loud: [`checked_coefficient`] returns a typed [`EncodeError`]
//! (mapped to `SachiError::Config`, exit code 2, by `sachi-core`).

use sachi_ising::graph::GraphError;
use std::fmt;

/// Errors from encoding a workload into an Ising graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A coefficient left the `i32` range the graph can represent.
    /// Rescale or re-quantize the workload instead of truncating it.
    CoefficientOverflow {
        /// Which coefficient family overflowed ("coupling", "field").
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// The underlying graph construction failed.
    Graph(GraphError),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::CoefficientOverflow { what, value } => write!(
                f,
                "{what} coefficient {value} exceeds the i32 range the Ising graph stores; \
                 rescale or quantize the workload (silent clamping would corrupt the Hamiltonian)"
            ),
            EncodeError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl std::error::Error for EncodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EncodeError::Graph(e) => Some(e),
            EncodeError::CoefficientOverflow { .. } => None,
        }
    }
}

impl From<GraphError> for EncodeError {
    fn from(e: GraphError) -> Self {
        EncodeError::Graph(e)
    }
}

/// Converts an `i64` coefficient to the graph's `i32` domain, erroring
/// when the value does not fit.
pub fn checked_coefficient(what: &'static str, value: i64) -> Result<i32, EncodeError> {
    i32::try_from(value).map_err(|_| EncodeError::CoefficientOverflow { what, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_convert() {
        assert_eq!(checked_coefficient("coupling", 0), Ok(0));
        assert_eq!(
            checked_coefficient("coupling", i64::from(i32::MAX)),
            Ok(i32::MAX)
        );
        assert_eq!(
            checked_coefficient("field", i64::from(i32::MIN)),
            Ok(i32::MIN)
        );
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let err =
            checked_coefficient("coupling", i64::from(i32::MAX) + 1).expect_err("out of range");
        assert_eq!(
            err,
            EncodeError::CoefficientOverflow {
                what: "coupling",
                value: i64::from(i32::MAX) + 1
            }
        );
        let err = checked_coefficient("field", i64::from(i32::MIN) - 1).expect_err("out of range");
        assert!(format!("{err}").contains("field coefficient"));
    }

    #[test]
    fn graph_errors_wrap_with_source() {
        let graph_err = sachi_ising::graph::GraphBuilder::new(1)
            .edge(0, 0, 1)
            .build()
            .expect_err("self loop rejected");
        let wrapped = EncodeError::from(graph_err.clone());
        assert_eq!(wrapped, EncodeError::Graph(graph_err));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(format!("{wrapped}").contains("graph construction failed"));
    }
}
