//! # sachi-bench — harnesses regenerating every figure of the SACHI paper
//!
//! One binary per paper artifact (`cargo run -p sachi-bench --release
//! --bin <name>`); EXPERIMENTS.md records paper-vs-measured for each:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig01_ga_vs_ising` | Fig. 1 — GA vs Ising accuracy & iso-accuracy time |
//! | `fig02_mapping` | Fig. 2 — COP-to-Ising mapping on the paper's 4×3 image |
//! | `fig03_feature_table` | Fig. 3 — feature table vs prior Ising architectures |
//! | `fig04_cop_characteristics` | Fig. 4 — COP sizes, resolutions, L1 fit |
//! | `fig05_reuse_motivation` | Fig. 5 — reuse-aware compute motivation on live tiles |
//! | `fig09_encoding` | Fig. 9 — mixed-encoding worked table |
//! | `fig10_bitline` | Fig. 10 — in-memory XNOR primitive & discharge behaviour |
//! | `fig11_13_schedules` | Figs. 11–13 — per-design schedules & queues |
//! | `fig14_isa` | Fig. 14 — ISA table + a real XNORM program |
//! | `fig15_brim` | Fig. 15a–c — reuse, cycles, energy vs BRIM |
//! | `fig15_cim` | Fig. 15d–e — cycles, energy vs Ising-CIM |
//! | `fig16_solvers` | Fig. 16 — GA/PSO/OPTSolv quality & time |
//! | `fig17_scalability` | Fig. 17 — CPI vs spins (500 → 1M, +2M/8M pixels) |
//! | `fig18_reconfigurability` | Fig. 18 — CPI vs IC resolution |
//! | `fig19_convergence` | Fig. 19 — H traces, time ladder, resolution effects |
//! | `disc_cache_scaling` | Sec. VII.2 — cache-size presets |
//! | `disc_conventional` | Sec. VII.1 — impact on conventional workloads |
//! | `disc_multicore` | Sec. IV.B.2 — multi-core scaling |
//! | `disc_faults` | robustness — quality vs injected read BER, parity + retry recovery |
//! | `disc_drift` | model audit — PerfModel closed form vs functional-sim metered cycles and energy |
//! | `abl_tuple_rep` | ablation — tuple-rep on/off |
//! | `abl_prefetch` | ablation — prefetcher on/off |
//! | `abl_update_policy` | ablation — storage-update vs RMW local update |
//! | `perf_kernels` | perf — scalar oracle vs SoA production kernel ns/H-compute and ns/sweep (each sweep side replaying one seeded flip sequence through its update path), plus the memoised `Annealer::accept` vs an exp-per-decision reference (writes `BENCH_perf.json`) |
//! | `disc_quality` | quality — seeded corpus (SAT/coloring/scheduling) × designs, regression-gated (writes `BENCH_quality.json`) |
//!
//! The residency ablation (`abl_residency` in EXPERIMENTS.md) has no
//! binary: it is the tier-1 test `tests/property_machines.rs`, which runs
//! `SachiMachine` against the physical-residency oracle in
//! `tests/support/tiled.rs`.
//!
//! The crate also ships Criterion micro-benchmarks over the hot kernels
//! (`cargo bench -p sachi-bench`). The end-to-end wall-clock benchmark
//! of `sachi solve` / `sachi serve` lives in `src/bin/perf_e2e/`, a
//! package of its own run through its `run.sh` (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod quality;

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Runs a closure, returning its result and wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// A fixed-width text table for harness output.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: impl IntoIterator<Item = S>) -> Self {
        Table {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn row<S: Display>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Parses a `--threads N` flag out of an argument list (see
/// [`threads_arg`]). `N == 0` reads as "auto", i.e. `None`.
pub fn threads_from<I>(args: I) -> Option<usize>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
        }
    }
    None
}

/// Worker-thread override for the replica-ensemble benches: parses
/// `--threads N` from the process arguments. `None` (flag absent or
/// `N == 0`) means "use every available core". Thread count never
/// changes bench results — only wall-clock.
pub fn threads_arg() -> Option<usize> {
    threads_from(std::env::args().skip(1))
}

/// Formats a ratio as "12.3x".
pub fn ratio(numerator: f64, denominator: f64) -> String {
    if denominator == 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", numerator / denominator)
}

/// Formats a fraction as a percentage.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a `Duration` compactly.
pub fn duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]).row(["b", "12345"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("12345"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn threads_flag_parses_with_auto_fallback() {
        fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
            s.split_whitespace().map(str::to_string)
        }
        assert_eq!(threads_from(argv("--threads 8")), Some(8));
        assert_eq!(threads_from(argv("--release --threads 2 --x")), Some(2));
        assert_eq!(threads_from(argv("--threads 0")), None);
        assert_eq!(threads_from(argv("--threads lots")), None);
        assert_eq!(threads_from(argv("--no-threads")), None);
        assert_eq!(threads_from(argv("")), None);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(ratio(30.0, 10.0), "3.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(percent(0.5), "50.0%");
        assert_eq!(duration(Duration::from_millis(2500)), "2.50s");
        assert_eq!(duration(Duration::from_micros(1500)), "1.5ms");
        assert_eq!(duration(Duration::from_nanos(2500)), "2.5us");
        let (v, d) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 10);
    }
}
