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

/// Runs `sachi compare <args>` in `dir`, asserts it succeeded, and
/// returns the pinned entry: the command line, then its stdout.
fn compare_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sachi"))
        .arg("compare")
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run sachi");
    assert!(
        out.status.success(),
        "sachi compare {}: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
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
