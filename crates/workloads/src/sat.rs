//! 3-SAT / weighted max-SAT via clause penalties (Lucas-library
//! extension, paper Sec. VII.3).
//!
//! Each 3-literal clause `(l1 ∨ l2 ∨ l3)` contributes a penalty equal to
//! its weight exactly when the clause is unsatisfied:
//!
//! ```text
//! P_c = w_c · (1 − L1)(1 − L2)(1 − L3)
//! ```
//!
//! Expanding the product leaves a cubic monomial `±w·x·y·z`, which one
//! ancilla variable per clause quadratizes exactly (Boros–Hammer):
//!
//! ```text
//! −xyz = min_g g·(2 − x − y − z)
//! +xyz = xy + min_g g·(1 − x − y + z)
//! ```
//!
//! Both identities hold with equality at the ancilla's optimum, so the
//! QUBO minimum over `n` variable spins plus `m` ancilla spins equals the
//! minimum total weight of unsatisfied clauses — minimizing the encoded
//! Hamiltonian *is* (weighted) max-SAT. Every coefficient is a small
//! multiple of the clause weight, accumulated saturating and narrowed
//! through [`crate::encode::checked_coefficient`] in
//! [`QuboBuilder::build`], so adversarially large weights fail loudly
//! with [`EncodeError::CoefficientOverflow`] instead of clamping.

use crate::corpus::SplitMix64;
use crate::encode::EncodeError;
use crate::qubo::{QuboBuilder, QuboProblem};
use crate::spec::{CopKind, Workload, WorkloadShape};
use sachi_ising::graph::IsingGraph;
use sachi_ising::io::{data_lines, header_spins, ParseError};
use sachi_ising::spin::{Spin, SpinVector};

/// A literal: a variable index plus its polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// Variable index in `0..num_vars`.
    pub var: usize,
    /// `true` for `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// Whether this literal is true under `assignment`.
    pub fn satisfied_by(self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

/// A weighted 3-literal clause over distinct variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clause {
    /// The three literals (distinct variables).
    pub lits: [Lit; 3],
    /// Max-SAT weight (≥ 1; plain 3-SAT uses 1 everywhere).
    pub weight: i64,
}

impl Clause {
    /// Whether any literal is true under `assignment`.
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        self.lits.iter().any(|l| l.satisfied_by(assignment))
    }
}

/// A 3-SAT / weighted max-SAT instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatInstance {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl SatInstance {
    /// Creates an instance, validating every clause.
    ///
    /// # Panics
    ///
    /// Panics if a clause references a variable `>= num_vars`, repeats a
    /// variable, or carries a non-positive weight.
    pub fn new(num_vars: usize, clauses: Vec<Clause>) -> Self {
        for clause in &clauses {
            let [a, b, c] = clause.lits;
            assert!(
                a.var < num_vars && b.var < num_vars && c.var < num_vars,
                "clause variable out of range"
            );
            assert!(
                a.var != b.var && a.var != c.var && b.var != c.var,
                "clause variables must be distinct"
            );
            assert!(clause.weight > 0, "clause weight must be positive");
        }
        SatInstance { num_vars, clauses }
    }

    /// A uniformly random instance: each clause picks 3 distinct
    /// variables and independent polarities from a SplitMix64 stream, so
    /// the same seed is byte-identical on every run and thread.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars < 3`.
    pub fn random(num_vars: usize, num_clauses: usize, seed: u64) -> Self {
        assert!(num_vars >= 3, "3-SAT needs at least 3 variables");
        let mut rng = SplitMix64::new(seed);
        let clauses = (0..num_clauses)
            .map(|_| Clause {
                lits: Self::draw_lits(num_vars, &mut rng),
                weight: 1,
            })
            .collect();
        SatInstance { num_vars, clauses }
    }

    /// A planted (guaranteed-satisfiable) instance: a hidden assignment
    /// is drawn first and every clause that would violate it has one
    /// literal flipped to agree. Returns the instance and its planted
    /// assignment (which satisfies every clause).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars < 3`.
    pub fn planted(num_vars: usize, num_clauses: usize, seed: u64) -> (Self, Vec<bool>) {
        assert!(num_vars >= 3, "3-SAT needs at least 3 variables");
        let mut rng = SplitMix64::new(seed);
        let hidden: Vec<bool> = (0..num_vars).map(|_| rng.coin()).collect();
        let clauses = (0..num_clauses)
            .map(|_| {
                let mut lits = Self::draw_lits(num_vars, &mut rng);
                let fix = rng.below(3) as usize;
                if !lits.iter().any(|l| l.satisfied_by(&hidden)) {
                    lits[fix].positive = hidden[lits[fix].var];
                }
                Clause { lits, weight: 1 }
            })
            .collect();
        (SatInstance { num_vars, clauses }, hidden)
    }

    fn draw_lits(num_vars: usize, rng: &mut SplitMix64) -> [Lit; 3] {
        let n = num_vars as u64;
        let a = rng.below(n) as usize;
        let b = loop {
            let b = rng.below(n) as usize;
            if b != a {
                break b;
            }
        };
        let c = loop {
            let c = rng.below(n) as usize;
            if c != a && c != b {
                break c;
            }
        };
        [a, b, c].map(|var| Lit {
            var,
            positive: rng.coin(),
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The clause list.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Sum of all clause weights.
    pub fn total_weight(&self) -> i64 {
        self.clauses
            .iter()
            .fold(0i64, |acc, c| acc.saturating_add(c.weight))
    }

    /// Total weight of clauses satisfied by `assignment`.
    pub fn satisfied_weight(&self, assignment: &[bool]) -> i64 {
        self.clauses
            .iter()
            .filter(|c| c.satisfied_by(assignment))
            .fold(0i64, |acc, c| acc.saturating_add(c.weight))
    }

    /// Total weight of clauses `assignment` leaves unsatisfied.
    pub fn unsatisfied_weight(&self, assignment: &[bool]) -> i64 {
        self.total_weight()
            .saturating_sub(self.satisfied_weight(assignment))
    }

    /// Replaces every clause weight (for weighted max-SAT studies and
    /// the overflow regression tests).
    #[must_use]
    pub fn with_uniform_weight(mut self, weight: i64) -> Self {
        assert!(weight > 0, "clause weight must be positive");
        for clause in &mut self.clauses {
            clause.weight = weight;
        }
        self
    }

    /// Serializes to DIMACS CNF (weights are not representable in plain
    /// CNF and must be uniform 1).
    pub fn to_dimacs_cnf(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for l in clause.lits {
                let v = (l.var + 1) as i64;
                out.push_str(&format!("{} ", if l.positive { v } else { -v }));
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Parses DIMACS CNF text into a 3-SAT instance, through the problem
/// files' one line reader ([`sachi_ising::io::data_lines`]).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed headers, out-of-range or
/// duplicate literals, clauses that are not exactly 3 literals wide, or
/// clause counts that disagree with the header.
pub fn parse_dimacs_cnf(text: &str) -> Result<SatInstance, ParseError> {
    let mut header: Option<(usize, usize)> = None;
    let mut clauses = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    let mut last_line = 0;
    for mut line in data_lines(text, true) {
        last_line = line.number;
        if line.strip_prefix("p") {
            if header.is_some() {
                return Err(line.malformed("duplicate problem line"));
            }
            if line.token() != Some("cnf") {
                return Err(line.malformed("expected 'p cnf V C'"));
            }
            let v: usize = line.next_field("bad variable count")?;
            let declared: usize = line.next_field("bad clause count")?;
            // The encoding takes one spin per variable and one ancilla
            // per clause.
            header_spins(
                v.checked_add(declared),
                format_args!("{v} variables plus {declared} clauses exceed"),
            )?;
            header = Some((v, declared));
            continue;
        }
        let (n, _) = header.ok_or_else(|| line.malformed("clause before header"))?;
        while let Some(tok) = line.token() {
            let lit: i64 = tok
                .parse()
                .map_err(|_| line.malformed(format!("bad literal '{tok}'")))?;
            if lit == 0 {
                let lits: [Lit; 3] = current.as_slice().try_into().map_err(|_| {
                    line.malformed(format!(
                        "clause has {} literals, need exactly 3",
                        current.len()
                    ))
                })?;
                if lits[0].var == lits[1].var
                    || lits[0].var == lits[2].var
                    || lits[1].var == lits[2].var
                {
                    return Err(line.malformed("duplicate variable in clause"));
                }
                clauses.push(Clause { lits, weight: 1 });
                current.clear();
                continue;
            }
            let var = usize::try_from(lit.unsigned_abs())
                .ok()
                .and_then(|v| v.checked_sub(1))
                .filter(|&var| var < n)
                .ok_or_else(|| {
                    line.malformed(format!("literal {tok} out of range (header says {n} vars)"))
                })?;
            current.push(Lit {
                var,
                positive: lit > 0,
            });
        }
    }
    if !current.is_empty() {
        return Err(ParseError::Malformed {
            line: last_line,
            reason: "unterminated clause (missing trailing 0)".into(),
        });
    }
    let (n, declared) =
        header.ok_or_else(|| ParseError::BadHeader("missing 'p cnf' header".into()))?;
    if clauses.len() != declared {
        return Err(ParseError::BadHeader(format!(
            "'p cnf' declares {declared} clauses, found {}",
            clauses.len()
        )));
    }
    Ok(SatInstance::new(n, clauses))
}

/// A 3-SAT instance encoded as an Ising problem: `num_vars` variable
/// spins followed by one ancilla spin per clause.
#[derive(Debug, Clone)]
pub struct SatWorkload {
    name: String,
    instance: SatInstance,
    problem: QuboProblem,
}

impl SatWorkload {
    /// Encodes an instance.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CoefficientOverflow`] when clause weights
    /// push any accumulated coupling or field out of the `i32` range the
    /// Ising graph stores.
    pub fn new(name: impl Into<String>, instance: SatInstance) -> Result<Self, EncodeError> {
        let n = instance.num_vars();
        let mut q = QuboBuilder::new(n.saturating_add(instance.clauses().len()));
        for (c, clause) in instance.clauses().iter().enumerate() {
            encode_clause(&mut q, clause, n.saturating_add(c));
        }
        let problem = q.build()?;
        Ok(SatWorkload {
            name: name.into(),
            instance,
            problem,
        })
    }

    /// The underlying instance.
    pub fn instance(&self) -> &SatInstance {
        &self.instance
    }

    /// The encoded QUBO (variables then ancillas).
    pub fn problem(&self) -> &QuboProblem {
        &self.problem
    }

    /// Projects a machine state onto the original variables (ancilla
    /// spins are dropped).
    pub fn decode(&self, spins: &SpinVector) -> Vec<bool> {
        (0..self.instance.num_vars())
            .map(|i| spins.get(i).bit())
            .collect()
    }

    /// Total weight of clauses satisfied by a machine state.
    pub fn satisfied_weight(&self, spins: &SpinVector) -> i64 {
        self.instance.satisfied_weight(&self.decode(spins))
    }

    /// Lifts a variable assignment to a full spin state with every
    /// ancilla at its per-clause optimum, so
    /// `objective(complete_assignment(x))` equals the total unsatisfied
    /// weight of `x` exactly — the anchor of the differential tests.
    pub fn complete_assignment(&self, assignment: &[bool]) -> SpinVector {
        assert_eq!(
            assignment.len(),
            self.instance.num_vars(),
            "assignment must cover every variable"
        );
        let mut spins: Vec<Spin> = assignment.iter().map(|&b| Spin::from_bit(b)).collect();
        for clause in self.instance.clauses() {
            spins.push(Spin::from_bit(optimal_ancilla(clause, assignment)));
        }
        SpinVector::from_spins(&spins)
    }
}

/// Adds one clause's penalty `w·(1−L1)(1−L2)(1−L3)` to the builder,
/// quadratizing the cubic monomial through ancilla variable `g`.
fn encode_clause(q: &mut QuboBuilder, clause: &Clause, g: usize) {
    let w = clause.weight;
    // Each factor (1 − Li) is affine in its variable: (1, −1) for a
    // positive literal (1 − x), (0, 1) for a negative one (x).
    let fac: [(i64, i64); 3] = clause
        .lits
        .map(|l| if l.positive { (1, -1) } else { (0, 1) });
    let v: [usize; 3] = clause.lits.map(|l| l.var);
    let [(a0, b0), (a1, b1), (a2, b2)] = fac;
    // Constant and linear/quadratic expansion terms. Every coefficient is
    // w times a product of {0, ±1} factors, so saturating multiplication
    // is exact until w itself saturates — and a saturated w is exactly
    // what `QuboBuilder::build` rejects.
    q.constant(w.saturating_mul(a0).saturating_mul(a1).saturating_mul(a2));
    q.linear(
        v[0],
        w.saturating_mul(b0).saturating_mul(a1).saturating_mul(a2),
    );
    q.linear(
        v[1],
        w.saturating_mul(a0).saturating_mul(b1).saturating_mul(a2),
    );
    q.linear(
        v[2],
        w.saturating_mul(a0).saturating_mul(a1).saturating_mul(b2),
    );
    q.quadratic(
        v[0],
        v[1],
        w.saturating_mul(b0).saturating_mul(b1).saturating_mul(a2),
    );
    q.quadratic(
        v[0],
        v[2],
        w.saturating_mul(b0).saturating_mul(a1).saturating_mul(b2),
    );
    q.quadratic(
        v[1],
        v[2],
        w.saturating_mul(a0).saturating_mul(b1).saturating_mul(b2),
    );
    // Cubic monomial t·xyz with t = w·b0·b1·b2 = ±w.
    let t = w.saturating_mul(b0).saturating_mul(b1).saturating_mul(b2);
    if t < 0 {
        // −|t|·xyz = min_g |t|·g·(2 − x − y − z).
        q.linear(g, t.saturating_neg().saturating_mul(2));
        q.quadratic(g, v[0], t);
        q.quadratic(g, v[1], t);
        q.quadratic(g, v[2], t);
    } else {
        // +t·xyz = t·xy + min_g t·g·(1 − x − y + z).
        q.quadratic(v[0], v[1], t);
        q.linear(g, t);
        q.quadratic(g, v[0], t.saturating_neg());
        q.quadratic(g, v[1], t.saturating_neg());
        q.quadratic(g, v[2], t);
    }
}

/// The ancilla value minimizing one clause's quadratized penalty under a
/// fixed variable assignment: 1 exactly when its linear coefficient goes
/// negative.
fn optimal_ancilla(clause: &Clause, assignment: &[bool]) -> bool {
    let x: [i64; 3] = clause.lits.map(|l| i64::from(assignment[l.var]));
    let b: [i64; 3] = clause.lits.map(|l| if l.positive { -1 } else { 1 });
    let t = b[0] * b[1] * b[2];
    if t < 0 {
        // Coefficient of g is |w|·(2 − Σx): negative iff all three set.
        x[0] + x[1] + x[2] > 2
    } else {
        // Coefficient of g is w·(1 − x0 − x1 + x2).
        1 - x[0] - x[1] + x[2] < 0
    }
}

impl Workload for SatWorkload {
    fn kind(&self) -> CopKind {
        CopKind::SatThree
    }

    fn name(&self) -> String {
        format!(
            "3sat({}, n={}, m={})",
            self.name,
            self.instance.num_vars(),
            self.instance.clauses().len()
        )
    }

    fn graph(&self) -> &IsingGraph {
        self.problem.graph()
    }

    fn shape(&self) -> WorkloadShape {
        let graph = self.problem.graph();
        WorkloadShape::new(
            graph.num_spins() as u64,
            (graph.max_degree() as u64).max(1),
            graph.bits_required().max(2),
        )
    }

    fn accuracy(&self, spins: &SpinVector) -> f64 {
        let total = self.instance.total_weight();
        if total == 0 {
            return 1.0;
        }
        (self.satisfied_weight(spins) as f64 / total as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sachi_ising::prelude::*;

    fn all_assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |mask| (0..n).map(|b| (mask >> b) & 1 == 1).collect())
    }

    #[test]
    fn penalty_counts_unsatisfied_weight_exactly() {
        // Mixed polarities exercise both cubic-sign gadgets.
        let inst = SatInstance::new(
            5,
            vec![
                Clause {
                    lits: [
                        Lit {
                            var: 0,
                            positive: true,
                        },
                        Lit {
                            var: 1,
                            positive: true,
                        },
                        Lit {
                            var: 2,
                            positive: true,
                        },
                    ],
                    weight: 1,
                },
                Clause {
                    lits: [
                        Lit {
                            var: 0,
                            positive: false,
                        },
                        Lit {
                            var: 3,
                            positive: true,
                        },
                        Lit {
                            var: 4,
                            positive: false,
                        },
                    ],
                    weight: 3,
                },
                Clause {
                    lits: [
                        Lit {
                            var: 1,
                            positive: false,
                        },
                        Lit {
                            var: 2,
                            positive: false,
                        },
                        Lit {
                            var: 4,
                            positive: false,
                        },
                    ],
                    weight: 2,
                },
            ],
        );
        let w = SatWorkload::new("unit", inst).unwrap();
        for x in all_assignments(5) {
            let completed = w.complete_assignment(&x);
            assert_eq!(
                w.problem().objective(&completed),
                w.instance().unsatisfied_weight(&x),
                "objective != unsat weight at {x:?}"
            );
        }
    }

    #[test]
    fn ancilla_completion_is_optimal() {
        // The claimed per-clause optimum must beat the flipped ancilla on
        // every assignment (otherwise the min identity is broken).
        let (inst, _) = SatInstance::planted(4, 9, 11);
        let w = SatWorkload::new("anc", inst).unwrap();
        let n = w.instance().num_vars();
        let m = w.instance().clauses().len();
        for x in all_assignments(n) {
            let best = w.problem().objective(&w.complete_assignment(&x));
            for flip in 0..m {
                let mut spins: Vec<Spin> = w.complete_assignment(&x).to_vec();
                spins[n + flip] = spins[n + flip].flipped();
                let other = w.problem().objective(&SpinVector::from_spins(&spins));
                assert!(best <= other, "ancilla {flip} not optimal at {x:?}");
            }
        }
    }

    #[test]
    fn planted_instances_are_satisfiable() {
        let (inst, hidden) = SatInstance::planted(12, 52, 7);
        assert_eq!(inst.unsatisfied_weight(&hidden), 0);
        let w = SatWorkload::new("planted", inst).unwrap();
        assert_eq!(w.problem().objective(&w.complete_assignment(&hidden)), 0);
    }

    #[test]
    fn solver_reaches_the_planted_optimum() {
        let (inst, _) = SatInstance::planted(10, 42, 3);
        let w = SatWorkload::new("solve", inst).unwrap();
        let graph = w.graph();
        let mut best = 0i64;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = SpinVector::random(graph.num_spins(), &mut rng);
            let mut solver = CpuReferenceSolver::new();
            let r = solver.solve(graph, &init, &SolveOptions::for_graph(graph, seed + 20));
            best = best.max(w.satisfied_weight(&r.spins));
        }
        assert_eq!(
            best,
            w.instance().total_weight(),
            "planted optimum reachable"
        );
    }

    #[test]
    fn generator_is_deterministic_and_regime_sized() {
        let a = SatInstance::random(20, 86, 5);
        let b = SatInstance::random(20, 86, 5);
        assert_eq!(a, b);
        assert_ne!(a, SatInstance::random(20, 86, 6));
        assert_eq!(a.num_vars(), 20);
        assert_eq!(a.clauses().len(), 86);
        for c in a.clauses() {
            let [x, y, z] = c.lits;
            assert!(x.var != y.var && x.var != z.var && y.var != z.var);
        }
    }

    #[test]
    fn cnf_round_trips() {
        let (inst, _) = SatInstance::planted(8, 20, 9);
        let text = inst.to_dimacs_cnf();
        let parsed = parse_dimacs_cnf(&text).unwrap();
        assert_eq!(parsed, inst);
    }

    #[test]
    fn cnf_parser_rejects_malformed_input() {
        assert!(parse_dimacs_cnf("1 2 3 0\n")
            .unwrap_err()
            .to_string()
            .contains("header"));
        assert!(parse_dimacs_cnf("p cnf 3 1\n1 2 0\n")
            .unwrap_err()
            .to_string()
            .contains("exactly 3"));
        assert!(parse_dimacs_cnf("p cnf 3 1\n1 2 9 0\n")
            .unwrap_err()
            .to_string()
            .contains("out of range"));
        assert!(parse_dimacs_cnf("p cnf 3 1\n1 1 2 0\n")
            .unwrap_err()
            .to_string()
            .contains("duplicate variable"));
        assert!(parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")
            .unwrap_err()
            .to_string()
            .contains("declares 2"));
        assert!(parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")
            .unwrap_err()
            .to_string()
            .contains("unterminated"));
    }

    #[test]
    fn oversized_weights_overflow_loudly() {
        let inst = SatInstance::random(6, 10, 1).with_uniform_weight(i64::MAX / 2);
        let err = SatWorkload::new("overflow", inst).expect_err("must not clamp");
        assert!(matches!(err, EncodeError::CoefficientOverflow { .. }));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_clause_variables_rejected() {
        let l = Lit {
            var: 0,
            positive: true,
        };
        let _ = SatInstance::new(
            3,
            vec![Clause {
                lits: [
                    l,
                    l,
                    Lit {
                        var: 1,
                        positive: false,
                    },
                ],
                weight: 1,
            }],
        );
    }
}
