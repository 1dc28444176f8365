//! `sachi solve --file` on input the machine cannot hold: an `i32::MIN`
//! coupling or field has no 32-bit negation, and a header counting more
//! spins than `u32` vertex ids can number has no graph, so the loader
//! refuses both with a typed parse error (exit 2) before any machine
//! maps the graph, and before anything is allocated for the count. A
//! graph reads as max-cut only without fields, and the loaders refuse a
//! second field line for a vertex and an edge count the file disagrees
//! with.

use std::path::PathBuf;
use std::process::Command;

/// Writes `text` to a file of this test process and returns its path.
fn problem_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sachi-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write problem file");
    path
}

/// Runs `sachi solve --file <text> <extra>` and returns (exit code, stderr).
fn solve_file(name: &str, text: &str, extra: &[&str]) -> (i32, String) {
    let (code, _, err) = solve_file_output(name, text, extra);
    (code, err)
}

/// Runs `sachi solve --file <text> <extra>` and returns (exit code,
/// stdout, stderr).
fn solve_file_output(name: &str, text: &str, extra: &[&str]) -> (i32, String, String) {
    let path = problem_file(name, text);
    let out = Command::new(env!("CARGO_BIN_EXE_sachi"))
        .arg("solve")
        .arg("--file")
        .arg(&path)
        .args(extra)
        .output()
        .expect("run sachi");
    std::fs::remove_file(&path).expect("remove problem file");
    (
        out.status.code().expect("sachi exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn dimacs_min_coupling_is_refused_with_exit_2() {
    let (code, err) = solve_file("min-e.dimacs", "p ising 2 1\ne 1 2 -2147483648\n", &[]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("coupling of edge (1, 2) is -2147483648"),
        "{err}"
    );
}

#[test]
fn dimacs_min_field_is_refused_with_exit_2() {
    let (code, err) = solve_file(
        "min-f.dimacs",
        "p ising 2 1\ne 1 2 1\nf 1 -2147483648\n",
        &[],
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("field of vertex 1 is -2147483648"), "{err}");
}

#[test]
fn gset_min_weight_is_refused_with_exit_2() {
    let (code, err) = solve_file("min.gset", "2 1\n1 2 -2147483648\n", &["--gset"]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("line 2: weight -2147483648 has no 32-bit negation"),
        "{err}"
    );
}

#[test]
fn the_widest_encodable_coefficients_still_solve() {
    let (code, err) = solve_file(
        "widest.dimacs",
        "p ising 3 2\ne 1 2 -2147483647\ne 2 3 2147483647\nf 3 -2147483647\n",
        &["--restarts", "1"],
    );
    assert_eq!(code, 0, "{err}");
    let (code, err) = solve_file("widest.gset", "2 1\n1 2 2147483647\n", &["--gset"]);
    assert_eq!(code, 0, "{err}");
}

/// 2^62 spins: far past the 2^32 a graph can number. A count inside the
/// bound is never tested here, since it would allocate for that many
/// spins.
const HUGE: &str = "4611686018427387904";

#[test]
fn dimacs_header_with_too_many_spins_is_refused_with_exit_2() {
    let (code, err) = solve_file("huge.dimacs", &format!("p ising {HUGE} 0\n"), &[]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains(&format!("vertex count {HUGE} exceeds")),
        "{err}"
    );
}

#[test]
fn cnf_header_with_too_many_spins_is_refused_with_exit_2() {
    let (code, err) = solve_file(
        "huge.cnf",
        &format!("p cnf {HUGE} 1\n1 2 3 0\n"),
        &["--cnf"],
    );
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains(&format!("{HUGE} variables plus 1 clauses exceed")),
        "{err}"
    );
}

#[test]
fn gset_header_with_too_many_spins_is_refused_with_exit_2() {
    let (code, err) = solve_file("huge.gset", &format!("{HUGE} 0\n"), &["--gset"]);
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains(&format!("vertex count {HUGE} exceeds")),
        "{err}"
    );
}

#[test]
fn a_graph_with_fields_is_not_scored_as_max_cut() {
    // Max-cut counts cut edges only: the field's energy would make a
    // 100% score meaningless.
    let (code, out, err) =
        solve_file_output("fields.dimacs", "p ising 2 1\ne 1 2 -1\nf 1 3\n", &[]);
    assert_eq!(code, 0, "{err}");
    assert!(!out.contains("max-cut("), "{out}");
    assert!(!out.contains("accuracy:"), "{out}");
    // Without the field the same graph is a scored max-cut instance.
    let (code, out, err) = solve_file_output("cut.dimacs", "p ising 2 1\ne 1 2 -1\n", &[]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("max-cut("), "{out}");
    assert!(out.contains("accuracy: 100.0%"), "{out}");
}

#[test]
fn repeated_fields_and_wrong_edge_counts_are_refused_with_exit_2() {
    let (code, err) = solve_file(
        "twice.dimacs",
        "p ising 2 1\ne 1 2 -1\nf 1 3\nf 1 -5\n",
        &[],
    );
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("line 4: second field for vertex 1"), "{err}");
    let (code, err) = solve_file("count.dimacs", "p ising 2 7\ne 1 2 -1\n", &[]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("'p ising' declares 7 edges, found 1"), "{err}");
    let (code, err) = solve_file("count.gset", "2 3\n1 2 1\n", &["--gset"]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("declares 3 edges, found 1"), "{err}");
}
