//! `sachi estimate` on inputs outside the closed-form model's range: a
//! spin count a graph cannot hold, a shape whose storage bits overflow
//! 64 bits, or a sweep count whose solve cycles do. Each is refused
//! with a configuration error (exit 2) instead of wrapping, panicking or
//! looping once per iteration. Zero spins or zero iterations are usage
//! errors (exit 2) refused before anything is printed. A solve whose
//! cycles fit `u64` is estimated even when its event counts do not.

use std::process::Command;

/// Runs `sachi estimate <args>` and returns (exit code, stdout, stderr).
fn estimate(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sachi"))
        .arg("estimate")
        .args(args)
        .output()
        .expect("run sachi");
    (
        out.status.code().expect("sachi exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_refused(args: &[&str]) {
    let (code, out, err) = estimate(args);
    assert_eq!(code, 2, "sachi estimate {args:?}: {err}");
    assert!(out.is_empty(), "printed an estimate before refusing: {out}");
    assert!(err.contains("outside the model's range"), "{err}");
}

#[test]
fn the_largest_spin_count_is_refused() {
    assert_refused(&["--spins", "18446744073709551615"]);
}

#[test]
fn a_tsp_whose_storage_bits_overflow_is_refused() {
    assert_refused(&["--cop", "tsp", "--spins", "4294967296"]);
}

/// A quadrillion-sweep md solve has 6.8e16 cycles, which fit `u64`,
/// but event counts that do not: the model must scale its per-sweep
/// counts in a wider type to price it.
#[test]
fn a_solve_whose_counts_outgrow_u64_is_still_estimated() {
    let (code, out, err) = estimate(&[
        "--cop",
        "md",
        "--spins",
        "1000",
        "--iterations",
        "1000000000000000",
    ]);
    assert_eq!(code, 0, "{err}");
    let line = out
        .lines()
        .find(|l| l.starts_with("solve"))
        .unwrap_or_else(|| panic!("no solve line in {out}"));
    let energy = line
        .strip_suffix(" uJ")
        .and_then(|l| l.rsplit(", ").next())
        .and_then(|uj| uj.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("no energy in {line:?}"));
    assert!(energy.is_finite() && energy > 0.0, "{line}");
}

#[test]
fn the_largest_iteration_count_is_refused() {
    assert_refused(&["--iterations", "18446744073709551615"]);
}

/// `sachi estimate <flag> 0` exits 2 naming the flag, and prints no
/// estimate.
fn assert_zero_refused(flag: &str) {
    let (code, out, err) = estimate(&[flag, "0"]);
    assert_eq!(code, 2, "sachi estimate {flag} 0: {err}");
    assert!(out.is_empty(), "printed an estimate before refusing: {out}");
    assert!(err.contains(&format!("{flag} must be at least 1")), "{err}");
}

#[test]
fn zero_spins_are_refused() {
    assert_zero_refused("--spins");
}

#[test]
fn zero_iterations_are_refused() {
    assert_zero_refused("--iterations");
}
