//! `sachi compare` pinned byte for byte on four inputs, so a change to
//! how a machine row is solved or priced shows up as a diff of
//! `tests/golden/compare.txt`:
//!
//! * `--cop md --size 64`: a BRIM row; Ising-CIM is skipped;
//! * `--cop coloring --size 24`: both baselines are skipped;
//! * `--file data/petersen.dimacs`: a BRIM row;
//! * `--file kings.dimacs`: the 6x6 King's lattice of [`kings_dimacs`],
//!   unsigned 2-bit couplings, the only input with an Ising-CIM row.
//!
//! The table is each command line after `== `, followed by its stdout.
//! Every command runs from the workspace root, except the King's
//! lattice, which runs in a temporary directory holding the file.
//! Regenerate the table from the workspace root with
//!
//! ```text
//! awk 'BEGIN { s = 6; for (r = 0; r < s; r++) for (c = 0; c < s; c++) {
//!        i = r * s + c; split("0 1 1 -1 1 0 1 1", d, " ")
//!        for (k = 1; k < 8; k += 2) { rr = r + d[k]; cc = c + d[k + 1]
//!          if (rr < s && cc >= 0 && cc < s) { j = rr * s + cc
//!            e[++m] = sprintf("e %d %d %d", i + 1, j + 1, (i + j) % 3 + 1) } } }
//!      printf "p ising %d %d\n", s * s, m; for (k = 1; k <= m; k++) print e[k] }' \
//!   > /tmp/kings.dimacs
//! for a in "--cop md --size 64" "--cop coloring --size 24" \
//!          "--file data/petersen.dimacs" "--file kings.dimacs"; do
//!   echo "== sachi compare $a"
//!   case $a in *kings*) (cd /tmp && sachi compare $a) ;; *) sachi compare $a ;; esac
//! done > crates/cli/tests/golden/compare.txt
//! ```
//!
//! Every row runs the job `sachi solve` runs: a second test checks the
//! SACHI(n3) row against `sachi solve --design n3` on plain and tempered
//! ensembles.

use std::path::Path;
use std::process::Command;

/// A `side` x `side` King's lattice in DIMACS, row-major, each edge
/// once from its lower-numbered end, with coupling `(i + j) % 3 + 1`
/// between 0-based cells `i` and `j`: inside Ising-CIM's envelope
/// (degree <= 8, unsigned 2-bit) and BRIM's (signed 4-bit).
fn kings_dimacs(side: usize) -> String {
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            for (dr, dc) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
                let (rr, cc) = (r + dr, c as isize + dc);
                if rr < side && (0..side as isize).contains(&cc) {
                    let j = rr * side + cc as usize;
                    edges.push(format!("e {} {} {}\n", i + 1, j + 1, (i + j) % 3 + 1));
                }
            }
        }
    }
    format!(
        "p ising {} {}\n{}",
        side * side,
        edges.len(),
        edges.concat()
    )
}

/// Runs `sachi <args>` in `dir`, asserts it succeeded, and returns its
/// stdout.
fn sachi_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sachi"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run sachi");
    assert!(
        out.status.success(),
        "sachi {}: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The pinned entry of `sachi compare <args>` run in `dir`: the command
/// line, then its stdout.
fn compare_in(dir: &Path, args: &[&str]) -> String {
    let stdout = sachi_in(dir, &[&["compare"], args].concat());
    format!("== sachi compare {}\n{stdout}", args.join(" "))
}

#[test]
fn compare_output_matches_the_pinned_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let kings = std::env::temp_dir().join(format!("sachi-compare-{}", std::process::id()));
    std::fs::create_dir_all(&kings).expect("create the King's lattice directory");
    std::fs::write(kings.join("kings.dimacs"), kings_dimacs(6)).expect("write kings.dimacs");

    let mut got = String::new();
    for args in [
        &["--cop", "md", "--size", "64"][..],
        &["--cop", "coloring", "--size", "24"],
        &["--file", "data/petersen.dimacs"],
    ] {
        got.push_str(&compare_in(&root, args));
    }
    got.push_str(&compare_in(&kings, &["--file", "kings.dimacs"]));
    std::fs::remove_dir_all(&kings).expect("remove the King's lattice directory");
    assert_eq!(got, include_str!("golden/compare.txt"));
}

#[test]
fn the_n3_row_is_the_solve_result() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for job in [
        "--cop md --size 64",
        "--cop sat --size 20 --restarts 3",
        "--cop sat --size 20 --restarts 4 --tempering",
    ] {
        let job: Vec<&str> = job.split(' ').collect();
        let table = sachi_in(&root, &[&["compare"], &job[..]].concat());
        let row: Vec<&str> = table
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("SACHI(n3)"))
            .expect("an n3 row")
            .split_whitespace()
            .take(2)
            .collect();
        let report = sachi_in(&root, &[&["solve", "--design", "n3"], &job[..]].concat());
        let result = report
            .lines()
            .find_map(|l| l.strip_prefix("result  : H = "))
            .expect("a result line");
        let (h, rest) = result.split_once("  (").expect("H, then iterations");
        let iters = rest.split_once(' ').expect("an iteration count").0;
        assert_eq!(row, [h, iters], "{}", job.join(" "));
    }
}
