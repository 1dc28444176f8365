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
//! Both parsers, and `sachi_workloads::sat::parse_dimacs_cnf` for DIMACS
//! CNF, read their text through one line reader: [`data_lines`] yields
//! each [`Line`] with its 1-based number, [`Line::next_field`] and
//! [`Line::edge`] parse fields into typed [`ParseError`]s, and
//! [`header_spins`] is the one check that a header's spin count fits a
//! graph. Parsers work on any `&str`; callers wire them to files.

use crate::graph::{exceeds_max_spins, GraphBuilder, GraphError, IsingGraph, MAX_SPINS};
use std::fmt;
use std::str::FromStr;

/// Error from parsing a problem file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be interpreted.
    Malformed {
        /// 1-indexed line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The header was missing, appeared twice, or declares counts the
    /// file or a graph cannot hold.
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
        GraphError::EdgeOutOfOrder { edge } => GraphError::EdgeOutOfOrder {
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

/// One data line of a problem file: its 1-based number and the text
/// not yet read.
#[derive(Debug)]
pub struct Line<'a> {
    /// 1-based line number in the file.
    pub number: usize,
    rest: &'a str,
}

impl<'a> Line<'a> {
    /// Reads `prefix` off the unread text when the text starts with it.
    pub fn strip_prefix(&mut self, prefix: &str) -> bool {
        let stripped = self.rest.strip_prefix(prefix);
        self.rest = stripped.unwrap_or(self.rest);
        stripped.is_some()
    }

    /// The next whitespace-separated field.
    pub fn token(&mut self) -> Option<&'a str> {
        let rest = self.rest.trim_start();
        let (token, rest) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        self.rest = rest;
        (!token.is_empty()).then_some(token)
    }

    /// The next field parsed as `T`, or [`ParseError::Malformed`] with
    /// `reason` when it is missing or does not parse.
    pub fn next_field<T: FromStr>(&mut self, reason: &str) -> Result<T, ParseError> {
        self.token()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| self.malformed(reason))
    }

    /// An edge `u v w` with vertices numbered from 1, as both graph
    /// formats number them, returned with 0-based vertex ids; `shape`
    /// names the record when a vertex is missing. A missing or
    /// non-integer field or a vertex numbered 0 is malformed.
    pub fn edge(&mut self, shape: &str) -> Result<(u32, u32, i32), ParseError> {
        let u: u32 = self.next_field(shape)?;
        let v: u32 = self.next_field(shape)?;
        let w: i32 = self.next_field("edge needs integer weight")?;
        match (u.checked_sub(1), v.checked_sub(1)) {
            (Some(u), Some(v)) => Ok((u, v, w)),
            _ => Err(self.malformed("vertices are 1-indexed")),
        }
    }

    /// A [`ParseError::Malformed`] naming this line.
    pub fn malformed(&self, reason: impl Into<String>) -> ParseError {
        ParseError::Malformed {
            line: self.number,
            reason: reason.into(),
        }
    }
}

/// The data lines of `text`: every line but the blank ones and, when
/// the format has them (`comments`), the lines that start with `c`.
pub fn data_lines(text: &str, comments: bool) -> impl Iterator<Item = Line<'_>> {
    text.lines().enumerate().filter_map(move |(idx, raw)| {
        let rest = raw.trim();
        let skip = rest.is_empty() || (comments && rest.starts_with('c'));
        (!skip).then_some(Line {
            number: idx + 1,
            rest,
        })
    })
}

/// The one header check of every problem format: a spin count a header
/// declares (`None` when computing it overflowed) past [`MAX_SPINS`] is
/// a [`ParseError::BadHeader`], raised before anything is allocated for
/// it. `what` names the count as the header states it.
pub fn header_spins(spins: Option<usize>, what: impl fmt::Display) -> Result<usize, ParseError> {
    spins.filter(|&n| !exceeds_max_spins(n)).ok_or_else(|| {
        ParseError::BadHeader(format!("{what} the {MAX_SPINS} spins a graph can hold"))
    })
}

/// A DIMACS record's tag: `p`, `e` or `f`.
fn record<'a>(line: &mut Line<'a>) -> Result<&'a str, ParseError> {
    match line.token().unwrap_or_default() {
        tag @ ("p" | "e" | "f") => Ok(tag),
        other => Err(line.malformed(format!("unknown record '{other}'"))),
    }
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
/// an edge count the edge lines disagree with, a second field line for a
/// vertex, out-of-range vertices, or duplicate edges.
pub fn parse_dimacs(text: &str) -> Result<IsingGraph, ParseError> {
    let mut lines = data_lines(text, true);
    let mut header = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("no 'p ising' header".into()))?;
    let tag = record(&mut header)?;
    if tag != "p" {
        return Err(ParseError::BadHeader(format!("'{tag}' before 'p'")));
    }
    if header.token() != Some("ising") {
        return Err(ParseError::BadHeader("expected 'p ising <n> <m>'".into()));
    }
    let n = header
        .token()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::BadHeader("missing vertex count".into()))?;
    let n = header_spins(Some(n), format_args!("vertex count {n} exceeds"))?;
    let declared = edge_count(&mut header)?;
    let mut builder = GraphBuilder::new(n);
    let mut has_field = vec![false; n];
    let mut edges = 0usize;
    for mut line in lines {
        match record(&mut line)? {
            "p" => return Err(ParseError::BadHeader("duplicate 'p' line".into())),
            "e" => {
                let (u, v, w) = line.edge("edge needs 'e u v w'")?;
                builder.push_edge(u, v, w);
                edges += 1;
            }
            _ /* "f" */ => {
                let v: usize = line.next_field("field needs 'f v h'")?;
                let h: i32 = line.next_field("field needs integer value")?;
                if v == 0 || v > n {
                    return Err(line.malformed(format!("field vertex {v} out of 1..={n}")));
                }
                if std::mem::replace(&mut has_field[v - 1], true) {
                    return Err(line.malformed(format!("second field for vertex {v}")));
                }
                builder = builder.field((v - 1) as u32, h);
            }
        }
    }
    check_edge_count("'p ising'", declared, edges)?;
    Ok(builder.build()?)
}

/// The header's edge count, the field after the spin count. A header
/// may leave it out; one it states must be a count.
fn edge_count(header: &mut Line<'_>) -> Result<Option<usize>, ParseError> {
    header
        .token()
        .map(|t| {
            t.parse()
                .map_err(|_| ParseError::BadHeader(format!("bad edge count '{t}'")))
        })
        .transpose()
}

/// The edge count a header (`what`) declared, if any, against the
/// `found` edge lines, as a CNF's clause count is checked.
fn check_edge_count(what: &str, declared: Option<usize>, found: usize) -> Result<(), ParseError> {
    match declared {
        Some(declared) if declared != found => Err(ParseError::BadHeader(format!(
            "{what} declares {declared} edges, found {found}"
        ))),
        _ => Ok(()),
    }
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
/// Returns [`ParseError`] on malformed input, or when the header's edge
/// count disagrees with the edge lines.
pub fn parse_gset(text: &str) -> Result<IsingGraph, ParseError> {
    let mut lines = data_lines(text, false);
    let mut header = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    let n = header.next_field("header needs '<n> <m>'")?;
    let n = header_spins(Some(n), format_args!("vertex count {n} exceeds"))?;
    let declared = edge_count(&mut header)?;
    let mut builder = GraphBuilder::new(n);
    let mut edges = 0usize;
    for mut line in lines {
        let (u, v, w) = line.edge("edge needs 'u v w'")?;
        let j = w
            .checked_neg()
            .ok_or_else(|| line.malformed(format!("weight {w} has no 32-bit negation")))?;
        builder.push_edge(u, v, j);
        edges += 1;
    }
    check_edge_count("the header", declared, edges)?;
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
    fn a_second_field_line_for_a_vertex_is_malformed() {
        assert_eq!(
            parse_dimacs("p ising 2 1\ne 1 2 -1\nf 1 3\nc\nf 1 -5\n").unwrap_err(),
            ParseError::Malformed {
                line: 5,
                reason: "second field for vertex 1".into(),
            }
        );
        // A zero field counts as stated too.
        assert!(parse_dimacs("p ising 2 0\nf 2 0\nf 2 4\n").is_err());
        let g = parse_dimacs("p ising 2 0\nf 1 3\nf 2 -5\n").unwrap();
        assert_eq!((g.field(0), g.field(1)), (3, -5));
    }

    #[test]
    fn header_edge_counts_must_match_the_edge_lines() {
        let cases = [
            (
                parse_dimacs("p ising 2 7\ne 1 2 -1\n"),
                "bad header: 'p ising' declares 7 edges, found 1",
            ),
            (
                parse_dimacs("p ising 3 1\ne 1 2 1\ne 2 3 1\n"),
                "bad header: 'p ising' declares 1 edges, found 2",
            ),
            (
                parse_dimacs("p ising 2 x\ne 1 2 1\n"),
                "bad header: bad edge count 'x'",
            ),
            (
                parse_gset("3 1\n1 2 1\n2 3 1\n"),
                "bad header: the header declares 1 edges, found 2",
            ),
            (parse_gset("3 -1\n"), "bad header: bad edge count '-1'"),
        ];
        for (got, want) in cases {
            assert_eq!(got.unwrap_err().to_string(), want);
        }
        // A header may leave the count out.
        assert_eq!(parse_dimacs("p ising 2\ne 1 2 1\n").unwrap().num_edges(), 1);
        assert_eq!(parse_gset("2\n1 2 1\n").unwrap().num_edges(), 1);
        // A line error comes first: the count is checked after every line.
        assert!(matches!(
            parse_dimacs("p ising 2 7\ne 1 2 x\n"),
            Err(ParseError::Malformed { line: 2, .. })
        ));
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
        let err = ParseError::Malformed {
            line: 7,
            reason: "bad edge".into(),
        };
        assert_eq!(format!("{err}"), "line 7: bad edge");
        let err = ParseError::BadHeader("nope".into());
        assert!(format!("{err}").contains("nope"));
    }
}
