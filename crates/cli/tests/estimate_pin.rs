//! `sachi estimate` pinned byte for byte: every design on four standard
//! shapes (md 1000, tsp 1000, asset 500, imgseg 4096), so a change to the
//! closed-form model behind it shows up as a diff of
//! `tests/golden/estimate.txt`. The table is each command line after
//! `== `, followed by its stdout; regenerate it with
//!
//! ```text
//! for c in "md 1000" "tsp 1000" "asset 500" "imgseg 4096"; do set -- $c
//!   for d in n1a n1b n2 n3; do
//!     echo "== sachi estimate --cop $1 --spins $2 --design $d"
//!     sachi estimate --cop $1 --spins $2 --design $d
//!   done
//! done > crates/cli/tests/golden/estimate.txt
//! ```

use std::process::Command;

const SHAPES: [(&str, &str); 4] = [
    ("md", "1000"),
    ("tsp", "1000"),
    ("asset", "500"),
    ("imgseg", "4096"),
];
const DESIGNS: [&str; 4] = ["n1a", "n1b", "n2", "n3"];

#[test]
fn estimate_output_matches_the_pinned_table() {
    let mut got = String::new();
    for (cop, spins) in SHAPES {
        for design in DESIGNS {
            let args = [
                "estimate", "--cop", cop, "--spins", spins, "--design", design,
            ];
            let out = Command::new(env!("CARGO_BIN_EXE_sachi"))
                .args(args)
                .output()
                .expect("run sachi");
            assert!(out.status.success(), "sachi {}", args.join(" "));
            got.push_str(&format!("== sachi {}\n", args.join(" ")));
            got.push_str(&String::from_utf8(out.stdout).expect("utf-8 stdout"));
        }
    }
    assert_eq!(got, include_str!("golden/estimate.txt"));
}
