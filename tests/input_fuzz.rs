//! Fuzz tests for the inputs a user hands the `sachi` binary: the three
//! problem-file formats (`parse_dimacs`, `parse_gset`,
//! `parse_dimacs_cnf`, which share one line reader) and the command
//! line (`args::parse`).
//!
//! Each parser must return `Ok` or its typed error on any input, never
//! panic. The problem-file fuzz mutates valid seeds (the `data/`
//! samples and round-tripped instances) byte by byte and token by token
//! and feeds every mutant to all three parsers; the argv fuzz draws
//! command lines from the CLI's own flag vocabulary. Both reuse the
//! std-only xorshift stream of `tests/json_decoder.rs`.
//!
//! The fuzz only parses: it never solves and starts no thread. A header
//! makes the graph parsers allocate one entry per spin up front, so no
//! mutant whose header could declare between 1,000 and `MAX_SPINS`
//! spins is parsed (see [`header_is_cheap`]); counts past `MAX_SPINS`
//! are refused before any allocation and stay in.

#[path = "../crates/cli/src/args.rs"]
mod args;

use sachi::ising::graph::{topology, GraphBuilder, MAX_SPINS};
use sachi::prelude::*;
use std::panic::catch_unwind;

const PETERSEN: &str = include_str!("../data/petersen.dimacs");
const RANDOM64: &str = include_str!("../data/random64.gset");
const EXAMPLE12: &str = include_str!("../data/example12.cnf");

/// Deterministic xorshift64 stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// One draw from `items`.
fn pick<'a>(next: &mut impl FnMut() -> u64, items: &[&'a str]) -> &'a str {
    items[(next() as usize) % items.len()]
}

/// Valid inputs of every format: the committed samples plus
/// round-tripped instances with negative weights and fields.
fn seeds() -> Vec<String> {
    let king = topology::king(4, 4, |i, j| ((i * 3 + j) % 9) as i32 - 4).expect("king graph");
    let fields = GraphBuilder::new(5)
        .edge(0, 1, 7)
        .edge(1, 4, -2)
        .edge(2, 3, 2_147_483_647)
        .field(0, 5)
        .field(4, -2_147_483_647)
        .build()
        .expect("small graph");
    let king_gset = std::iter::once(format!("{} {}", king.num_spins(), king.num_edges()))
        .chain(
            king.edges()
                .map(|(u, v, w)| format!("{} {} {}", u + 1, v + 1, -w)),
        )
        .collect::<Vec<_>>()
        .join("\n");
    vec![
        PETERSEN.to_string(),
        RANDOM64.to_string(),
        EXAMPLE12.to_string(),
        to_dimacs(&king),
        to_dimacs(&fields),
        king_gset,
        SatInstance::planted(8, 20, 9).0.to_dimacs_cnf(),
        format!("c comment\n\np cnf 4 2\n1 -2\n3 0 -4 2 1 0\n{EXAMPLE12}"),
    ]
}

/// Whether every spin count a header of `text` could declare is below
/// 1,000 or past `MAX_SPINS`. A header is the first non-blank line
/// (Gset) or a line starting with `p` (DIMACS, CNF). Its numbers are
/// kept below 500 or above `MAX_SPINS`, so a CNF's variables plus
/// clauses stay out of the range too.
fn header_is_cheap(text: &str) -> bool {
    let mut first = true;
    text.lines().map(str::trim).all(|line| {
        let header = line.starts_with('p') || (first && !line.is_empty());
        first &= line.is_empty();
        !header
            || line
                .split_whitespace()
                .filter_map(|t| t.parse::<u64>().ok())
                .all(|n| !(500..=MAX_SPINS).contains(&n))
    })
}

/// Asserts `err` names a line of `text` when it names one.
fn assert_names_a_line(text: &str, err: &ParseError) {
    if let ParseError::Malformed { line, .. } = err {
        let lines = text.lines().count();
        assert!(
            (1..=lines).contains(line),
            "{err} names no line of a {lines}-line input {text:?}"
        );
    }
}

/// Feeds `text` to all three parsers. Whatever they accept must survive
/// a round trip through its writer.
fn parse_all(text: &str) {
    let outcome = catch_unwind(|| {
        match parse_dimacs(text) {
            Ok(graph) => assert_eq!(parse_dimacs(&to_dimacs(&graph)), Ok(graph)),
            Err(e) => assert_names_a_line(text, &e),
        }
        match parse_gset(text) {
            Ok(graph) => assert!(graph.num_spins() < 1000),
            Err(e) => assert_names_a_line(text, &e),
        }
        match parse_dimacs_cnf(text) {
            Ok(instance) => {
                assert_eq!(parse_dimacs_cnf(&instance.to_dimacs_cnf()), Ok(instance))
            }
            Err(e) => assert_names_a_line(text, &e),
        }
    });
    assert!(
        outcome.is_ok(),
        "a problem-file parser panicked on {text:?}"
    );
}

/// Replacement fields: edge and header values, integer limits, signs,
/// record tags and line breaks.
const TOKENS: [&str; 34] = [
    "0",
    "1",
    "-1",
    "+1",
    "-0",
    "2",
    "3",
    "499",
    "1.5",
    "1e3",
    "x",
    "",
    "p",
    "c",
    "e",
    "f",
    "cnf",
    "ising",
    "p ising 3 1",
    "p cnf 3 1",
    "\n",
    " 0\n",
    "-2147483648",
    "2147483647",
    "2147483648",
    "4294967295",
    "4294967296",
    "4294967297",
    "9223372036854775807",
    "-9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "4611686018427387904",
    "é",
];

/// Bytes a mutation writes: digits, signs, separators, record tags and
/// one multi-byte scalar.
const BYTES: [&str; 16] = [
    "0", "1", "5", "9", "-", "+", " ", "\t", "\n", "\r", "c", "p", "e", "f", ".", "€",
];

/// `text` with one byte-level edit: overwrite, insert, delete or
/// truncate at a random char boundary.
fn mutate_bytes(next: &mut impl FnMut() -> u64, text: &mut String) {
    if text.is_empty() {
        text.push_str(pick(next, &BYTES));
        return;
    }
    let at = (next() as usize) % text.len();
    let at = (0..=at)
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    let byte = pick(next, &BYTES);
    match next() % 4 {
        0 => text.insert_str(at, byte),
        1 => {
            if at < text.len() {
                text.remove(at);
            }
            text.insert_str(at, byte);
        }
        2 => {
            if at < text.len() {
                text.remove(at);
            }
        }
        _ => text.truncate(at),
    }
}

/// `text` with one token-level edit: a whitespace-separated field
/// replaced, deleted or duplicated, or a line duplicated or dropped.
fn mutate_tokens(next: &mut impl FnMut() -> u64, text: &mut String) {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    if lines.is_empty() {
        lines.push(Vec::new());
    }
    let row = (next() as usize) % lines.len();
    match next() % 5 {
        0 | 1 if !lines[row].is_empty() => {
            let col = (next() as usize) % lines[row].len();
            lines[row][col] = pick(next, &TOKENS).to_string();
        }
        2 if !lines[row].is_empty() => {
            let col = (next() as usize) % lines[row].len();
            lines[row].remove(col);
        }
        3 => {
            let copy = lines[row].clone();
            lines.insert(row, copy);
        }
        4 => {
            lines.remove(row);
        }
        _ => lines[row].push(pick(next, &TOKENS).to_string()),
    }
    *text = lines
        .iter()
        .map(|l| l.join(" "))
        .collect::<Vec<_>>()
        .join("\n");
}

#[test]
fn problem_file_parsers_survive_xorshift_fuzz() {
    let seeds = seeds();
    for seed in &seeds {
        assert!(header_is_cheap(seed), "seed header out of range: {seed}");
        parse_all(seed);
    }
    assert!(parse_dimacs(PETERSEN).is_ok() && parse_gset(RANDOM64).is_ok());
    assert!(parse_dimacs_cnf(EXAMPLE12).is_ok());
    let mut next = xorshift(0x2545_F491_4F6C_DD1D);
    let (mut parsed, mut skipped) = (0, 0);
    for round in 0..1200 {
        let mut text = seeds[round % seeds.len()].clone();
        for _ in 0..1 + next() % 3 {
            if next().is_multiple_of(2) {
                mutate_bytes(&mut next, &mut text);
            } else {
                mutate_tokens(&mut next, &mut text);
            }
        }
        if header_is_cheap(&text) {
            parse_all(&text);
            parsed += 1;
        } else {
            skipped += 1;
        }
    }
    assert!(parsed > 10 * skipped, "{parsed} parsed, {skipped} skipped");
    // Headers past MAX_SPINS are refused before any allocation.
    let huge = "4611686018427387904";
    for text in [
        format!("p ising {huge} 1\ne 1 2 3\n"),
        format!("{huge} 1\n1 2 3\n"),
        format!("p cnf 3 {huge}\n1 2 3 0\n"),
    ] {
        assert!(header_is_cheap(&text));
        parse_all(&text);
    }
}

/// Subcommands, then every flag the parser knows, then values of every
/// kind the flags take.
const SUBCOMMANDS: [&str; 10] = [
    "solve", "compare", "estimate", "serve", "submit", "info", "help", "-h", "--help", "bogus",
];
const FLAGS: [&str; 35] = [
    "--cop",
    "--size",
    "--seed",
    "--design",
    "--restarts",
    "--resolution",
    "--step-budget",
    "--fault-ber",
    "--fault-seed",
    "--fault-policy",
    "--tempering",
    "--ladder",
    "--file",
    "--gset",
    "--cnf",
    "--threads",
    "--hierarchy",
    "--metrics",
    "--trace-phases",
    "--spins",
    "--iterations",
    "--port",
    "--queue-depth",
    "--admission-timeout-ms",
    "--io-timeout-ms",
    "--max-conns",
    "--max-step-budget",
    "--max-size",
    "--max-restarts",
    "--addr",
    "--ping",
    "--shutdown",
    "--fetch-metrics",
    "--raw",
    "--bogus",
];
const VALUES: [&str; 36] = [
    "0",
    "1",
    "2",
    "32",
    "33",
    "-1",
    "65536",
    "1e-3",
    "0.5",
    "2.0",
    "nan",
    "inf",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "md",
    "sat",
    "3-sat",
    "job-scheduling",
    "tsp",
    "n1a",
    "n3",
    "n4",
    "failfast",
    "retry",
    "retry:0",
    "retry:x",
    "geometric",
    "adaptive",
    "json",
    "prom",
    "server",
    "127.0.0.1:7861",
    "data/example12.cnf",
    "",
    "{}",
];

#[test]
fn args_parse_survives_xorshift_fuzz() {
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let mut accepted = 0;
    for _ in 0..4000 {
        let mut argv = vec![pick(&mut next, &SUBCOMMANDS)];
        for _ in 0..next() % 9 {
            argv.push(match next() % 3 {
                0 => pick(&mut next, &VALUES),
                _ => pick(&mut next, &FLAGS),
            });
        }
        let outcome = catch_unwind(|| args::parse(argv.iter().copied()));
        match outcome {
            Ok(Ok(command)) => {
                accepted += 1;
                if let args::Command::Solve(a) | args::Command::Compare(a) = command {
                    assert!(
                        a.job.validate().is_ok(),
                        "{argv:?} parsed to an invalid job"
                    );
                }
            }
            Ok(Err(e)) => assert_eq!(e.exit_code(), 2, "{argv:?}: {e}"),
            Err(_) => panic!("args::parse panicked on {argv:?}"),
        }
    }
    assert!(accepted > 100, "only {accepted} argv were accepted");
}
