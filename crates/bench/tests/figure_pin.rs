//! The harnesses over the paper's reference models, pinned byte for
//! byte: `fig03_feature_table`, `fig05_reuse_motivation`, `fig10_bitline`,
//! `fig11_13_schedules`, `fig14_isa`, `disc_conventional`, `fig15_brim`,
//! `fig15_cim`, `abl_tuple_rep` and `disc_drift --smoke` whole, and
//! `disc_multicore` up to its replica-parallel section (that section
//! times a threaded ensemble, so its wall-clock columns differ between
//! runs).
//! `fig15_brim` prints its build and solve timings to stderr, which the
//! pin ignores. Each golden in `tests/golden/` is the binary's stdout;
//! regenerate them with
//!
//! ```text
//! cargo build --release -p sachi-bench
//! for b in fig03_feature_table fig05_reuse_motivation fig10_bitline \
//!          fig11_13_schedules fig14_isa disc_conventional fig15_brim fig15_cim \
//!          abl_tuple_rep; do
//!   target/release/$b > crates/bench/tests/golden/$b.txt
//! done
//! target/release/disc_drift --smoke > crates/bench/tests/golden/disc_drift_smoke.txt
//! target/release/disc_multicore --threads 1 | sed '/^== replica-parallel/,$d' \
//!   > crates/bench/tests/golden/disc_multicore.txt
//! ```

use std::process::Command;

/// Runs a harness binary and returns its stdout.
fn stdout_of(exe: &str, args: &[&str]) -> String {
    let out = Command::new(exe).args(args).output().expect("run harness");
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn fig03_feature_table_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig03_feature_table"), &[]);
    assert_eq!(got, include_str!("golden/fig03_feature_table.txt"));
}

#[test]
fn fig05_reuse_motivation_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig05_reuse_motivation"), &[]);
    assert_eq!(got, include_str!("golden/fig05_reuse_motivation.txt"));
}

#[test]
fn fig10_bitline_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig10_bitline"), &[]);
    assert_eq!(got, include_str!("golden/fig10_bitline.txt"));
}

#[test]
fn fig11_13_schedules_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig11_13_schedules"), &[]);
    assert_eq!(got, include_str!("golden/fig11_13_schedules.txt"));
}

#[test]
fn fig14_isa_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig14_isa"), &[]);
    assert_eq!(got, include_str!("golden/fig14_isa.txt"));
}

#[test]
fn disc_conventional_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_disc_conventional"), &[]);
    assert_eq!(got, include_str!("golden/disc_conventional.txt"));
}

#[test]
fn disc_multicore_model_tables_match_their_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_disc_multicore"), &["--threads", "1"]);
    let end = got
        .find("== replica-parallel")
        .expect("disc_multicore prints its replica-parallel section");
    assert_eq!(&got[..end], include_str!("golden/disc_multicore.txt"));
}

#[test]
fn fig15_brim_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig15_brim"), &[]);
    assert_eq!(got, include_str!("golden/fig15_brim.txt"));
}

#[test]
fn fig15_cim_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_fig15_cim"), &[]);
    assert_eq!(got, include_str!("golden/fig15_cim.txt"));
}

#[test]
fn disc_drift_smoke_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_disc_drift"), &["--smoke"]);
    assert_eq!(got, include_str!("golden/disc_drift_smoke.txt"));
}

/// The one harness that solves with tuple-rep off, so it pins the
/// store's `rereads` and the machine's re-read count.
#[test]
fn abl_tuple_rep_matches_its_pin() {
    let got = stdout_of(env!("CARGO_BIN_EXE_abl_tuple_rep"), &[]);
    assert_eq!(got, include_str!("golden/abl_tuple_rep.txt"));
}
