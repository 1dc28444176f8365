//! Text formats for Ising problem graphs.
//!
//! Two interchange formats are supported so real benchmark instances can
//! be loaded directly:
//!
//! * **DIMACS-style** (`p ising <n> <m>` header, `e u v w` edges,
//!   `f v h` external fields, `c` comments; vertices are 1-indexed) —
//!   round-trippable via [`to_dimacs`] / [`parse_dimacs`];
//! * **Gset** (the Stanford max-cut suite: a `<n> <m>` header line then
//!   `u v w` edge lines, 1-indexed) via [`parse_gset`].
//!
//! Parsers work on any `&str`; callers wire them to files.

use crate::graph::{exceeds_max_spins, GraphBuilder, GraphError, IsingGraph, MAX_SPINS};
use std::fmt;

/// Error from parsing a graph file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be interpreted.
    Malformed {
        /// 1-indexed line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The header was missing or appeared twice.
    BadHeader(String),
    /// The resulting graph was structurally invalid. The value keeps the
    /// builder's 0-indexed vertex ids; `Display` names them as the file
    /// numbers them, from 1.
    Graph(GraphError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed { line, reason } => write!(f, "line {line}: {reason}"),
            ParseError::BadHeader(reason) => write!(f, "bad header: {reason}"),
            ParseError::Graph(e) => write!(f, "invalid graph: {}", file_numbered(e)),
        }
    }
}

/// `e` with every vertex id renumbered from 1, as both formats number
/// them.
fn file_numbered(e: &GraphError) -> GraphError {
    let one = |v: u32| v.saturating_add(1);
    match *e {
        GraphError::VertexOutOfRange { vertex, n } => GraphError::VertexOutOfRange {
            vertex: one(vertex),
            n,
        },
        GraphError::SelfLoop { vertex } => GraphError::SelfLoop {
            vertex: one(vertex),
        },
        GraphError::DuplicateEdge { edge } => GraphError::DuplicateEdge {
            edge: (one(edge.0), one(edge.1)),
        },
        GraphError::UnencodableCoefficient { what, site } => GraphError::UnencodableCoefficient {
            what,
            site: (one(site.0), one(site.1)),
        },
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// A header's vertex count, refused when the graph cannot number that
/// many spins.
fn vertex_count(n: usize) -> Result<usize, ParseError> {
    if exceeds_max_spins(n) {
        return Err(ParseError::BadHeader(format!(
            "vertex count {n} exceeds the {MAX_SPINS} spins a graph can hold"
        )));
    }
    Ok(n)
}

/// Parses the DIMACS-style Ising format.
///
/// ```
/// use sachi_ising::io::parse_dimacs;
///
/// let text = "c a triangle\np ising 3 3\ne 1 2 5\ne 2 3 -1\ne 1 3 2\nf 1 4\n";
/// let graph = parse_dimacs(text)?;
/// assert_eq!(graph.num_spins(), 3);
/// assert_eq!(graph.num_edges(), 3);
/// assert_eq!(graph.field(0), 4);
/// # Ok::<(), sachi_ising::io::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines, missing/duplicate headers,
/// out-of-range vertices, or duplicate edges.
pub fn parse_dimacs(text: &str) -> Result<IsingGraph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(ParseError::BadHeader("duplicate 'p' line".into()));
                }
                if parts.next() != Some("ising") {
                    return Err(ParseError::BadHeader("expected 'p ising <n> <m>'".into()));
                }
                n = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadHeader("missing vertex count".into()))
                    .and_then(vertex_count)?;
                // Edge count is advisory; tolerate absence.
                builder = Some(GraphBuilder::new(n));
            }
            Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::BadHeader("'e' before 'p'".into()))?;
                let u: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(lineno, "edge needs 'e u v w'"))?;
                let v: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(lineno, "edge needs 'e u v w'"))?;
                let w: i32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(lineno, "edge needs integer weight"))?;
                if u == 0 || v == 0 {
                    return Err(malformed(lineno, "vertices are 1-indexed"));
                }
                b.push_edge(u - 1, v - 1, w);
            }
            Some("f") => {
                let _ = builder
                    .as_mut()
                    .ok_or_else(|| ParseError::BadHeader("'f' before 'p'".into()))?;
                let v: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(lineno, "field needs 'f v h'"))?;
                let h: i32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| malformed(lineno, "field needs integer value"))?;
                if v == 0 || v > n {
                    return Err(malformed(
                        lineno,
                        format!("field vertex {v} out of 1..={n}"),
                    ));
                }
                builder = Some(
                    builder
                        .take()
                        .expect("checked above")
                        .field((v - 1) as u32, h),
                );
            }
            Some(other) => return Err(malformed(lineno, format!("unknown record '{other}'"))),
            None => {}
        }
    }
    let builder = builder.ok_or_else(|| ParseError::BadHeader("no 'p ising' header".into()))?;
    Ok(builder.build()?)
}

/// Serializes a graph to the DIMACS-style Ising format (1-indexed).
pub fn to_dimacs(graph: &IsingGraph) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "p ising {} {}\n",
        graph.num_spins(),
        graph.num_edges()
    ));
    for (u, v, w) in graph.edges() {
        out.push_str(&format!("e {} {} {}\n", u + 1, v + 1, w));
    }
    for i in 0..graph.num_spins() {
        if graph.field(i) != 0 {
            out.push_str(&format!("f {} {}\n", i + 1, graph.field(i)));
        }
    }
    out
}

/// Parses the Gset max-cut format: header `<n> <m>`, then `u v w` lines
/// (1-indexed). Edge weights are loaded as `J = -w` so that minimizing
/// the Ising energy maximizes the weighted cut.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_gset(text: &str) -> Result<IsingGraph, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (idx, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed(idx + 1, "header needs '<n> <m>'"))
        .and_then(vertex_count)?;
    let mut builder = GraphBuilder::new(n);
    for (idx, raw) in lines {
        let lineno = idx + 1;
        let mut parts = raw.split_whitespace();
        let u: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed(lineno, "edge needs 'u v w'"))?;
        let v: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed(lineno, "edge needs 'u v w'"))?;
        let w: i32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| malformed(lineno, "edge needs integer weight"))?;
        if u == 0 || v == 0 {
            return Err(malformed(lineno, "vertices are 1-indexed"));
        }
        let j = w
            .checked_neg()
            .ok_or_else(|| malformed(lineno, format!("weight {w} has no 32-bit negation")))?;
        builder.push_edge(u - 1, v - 1, j);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::topology;

    #[test]
    fn gset_weight_without_a_negation_is_a_malformed_line() {
        assert_eq!(
            parse_gset("2 1\n1 2 -2147483648\n").unwrap_err(),
            ParseError::Malformed {
                line: 2,
                reason: "weight -2147483648 has no 32-bit negation".into(),
            }
        );
        let g = parse_gset("2 1\n1 2 2147483647\n").unwrap();
        assert_eq!(g.neighbors(0).next(), Some((1, -2_147_483_647)));
    }

    #[test]
    fn dimacs_min_coefficients_are_graph_errors() {
        assert!(matches!(
            parse_dimacs("p ising 2 1\ne 1 2 -2147483648\n").unwrap_err(),
            ParseError::Graph(GraphError::UnencodableCoefficient {
                what: "coupling",
                ..
            })
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 0\nf 2 -2147483648\n").unwrap_err(),
            ParseError::Graph(GraphError::UnencodableCoefficient {
                what: "field",
                site: (1, 1),
            })
        ));
    }

    #[test]
    fn graph_errors_name_vertices_as_the_file_numbers_them() {
        let min = "invalid graph: coupling of edge (1, 2) is -2147483648";
        let cases = [
            (
                parse_dimacs("p ising 3 1\ne 1 4 5\n"),
                "invalid graph: vertex 4 out of range for graph of 3 spins",
            ),
            (
                parse_dimacs("p ising 3 1\ne 2 2 5\n"),
                "invalid graph: self-loop on vertex 2",
            ),
            (
                parse_dimacs("p ising 3 2\ne 1 2 5\ne 2 1 3\n"),
                "invalid graph: duplicate edge (1, 2)",
            ),
            (parse_dimacs("p ising 3 1\ne 1 2 -2147483648\n"), min),
            (
                parse_dimacs("p ising 3 0\nf 3 -2147483648\n"),
                "invalid graph: field of vertex 3 is -2147483648",
            ),
            (
                parse_gset("3 1\n1 4 5\n"),
                "invalid graph: vertex 4 out of range for graph of 3 spins",
            ),
            (
                parse_gset("3 1\n2 2 5\n"),
                "invalid graph: self-loop on vertex 2",
            ),
            (
                parse_gset("3 2\n1 2 5\n2 1 3\n"),
                "invalid graph: duplicate edge (1, 2)",
            ),
            // A Gset weight is negated on load, so the one weight whose
            // negation is `i32::MIN` does not parse as an i32; the other
            // way round is refused on its line.
            (
                parse_gset("3 1\n1 2 2147483648\n"),
                "line 2: edge needs integer weight",
            ),
        ];
        for (result, want) in cases {
            let err = result.unwrap_err();
            assert!(
                err.to_string().starts_with(want),
                "{err} should start with {want}"
            );
        }
        // The value keeps the builder's ids.
        assert_eq!(
            parse_dimacs("p ising 3 1\ne 2 2 5\n").unwrap_err(),
            ParseError::Graph(GraphError::SelfLoop { vertex: 1 })
        );
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = topology::king(4, 4, |i, j| ((i * 3 + j) % 9) as i32 - 4).unwrap();
        let text = to_dimacs(&g);
        let parsed = parse_dimacs(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn dimacs_roundtrip_with_fields() {
        let g = crate::graph::GraphBuilder::new(3)
            .edge(0, 1, 7)
            .edge(1, 2, -2)
            .field(0, 5)
            .field(2, -3)
            .build()
            .unwrap();
        let parsed = parse_dimacs(&to_dimacs(&g)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn dimacs_tolerates_comments_and_blank_lines() {
        let text = "c hello\n\np ising 2 1\nc mid comment\ne 1 2 3\n\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 3)));
    }

    #[test]
    fn dimacs_rejects_garbage() {
        assert!(matches!(parse_dimacs(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            parse_dimacs("e 1 2 3\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 1\np ising 2 1\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 1\ne 0 1 3\n"),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 1\ne 1 two 3\n"),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 1\nx 1 2\n"),
            Err(ParseError::Malformed { .. })
        ));
        assert!(matches!(
            parse_dimacs("p ising 2 1\nf 3 1\n"),
            Err(ParseError::Malformed { .. })
        ));
        // Duplicate edges surface as GraphError.
        let err = parse_dimacs("p ising 2 2\ne 1 2 3\ne 2 1 4\n").unwrap_err();
        assert!(matches!(err, ParseError::Graph(_)));
        assert!(format!("{err}").contains("duplicate"));
    }

    #[test]
    fn gset_loads_as_maxcut() {
        // A triangle with unit weights.
        let text = "3 3\n1 2 1\n2 3 1\n1 3 1\n";
        let g = parse_gset(text).unwrap();
        assert_eq!(g.num_spins(), 3);
        assert_eq!(g.num_edges(), 3);
        for (_, _, w) in g.edges() {
            assert_eq!(w, -1, "Gset weights load negated for max-cut");
        }
    }

    #[test]
    fn gset_rejects_malformed() {
        assert!(parse_gset("").is_err());
        assert!(parse_gset("abc\n").is_err());
        assert!(parse_gset("2 1\n0 1 1\n").is_err());
        assert!(parse_gset("2 1\n1\n").is_err());
    }

    #[test]
    fn gset_errors_render_actionable_messages() {
        // Malformed header: not a vertex count.
        let err = parse_gset("graph of 800\n1 2 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 1: header needs '<n> <m>'");
        let err = parse_gset("").unwrap_err();
        assert_eq!(err.to_string(), "bad header: empty input");
        // Bad edge lines point at the offending line number.
        let err = parse_gset("3 2\n1 2 1\n2 three 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: edge needs 'u v w'");
        let err = parse_gset("3 1\n1 2 1.5\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: edge needs integer weight");
        let err = parse_gset("3 1\n0 2 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: vertices are 1-indexed");
        // Graph-constraint violations pass through the builder.
        let err = parse_gset("2 2\n1 2 1\n2 1 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Graph(_)));
        assert!(err.to_string().starts_with("invalid graph:"), "{err}");
        assert!(err.to_string().contains("duplicate"), "{err}");
        let err = parse_gset("2 1\n1 9 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Graph(_)), "{err}");
        // The source chain exposes the underlying GraphError.
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn error_display_is_informative() {
        let err = malformed(7, "bad edge");
        assert_eq!(format!("{err}"), "line 7: bad edge");
        let err = ParseError::BadHeader("nope".into());
        assert!(format!("{err}").contains("nope"));
    }
}
