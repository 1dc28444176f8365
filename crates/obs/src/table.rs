//! Fixed-width text tables and the number formats printed in them: the
//! report tables of `sachi solve`/`compare`/`estimate` and of the paper
//! harnesses share this one renderer.

use std::fmt::Display;

/// A fixed-width text table, right-aligned per column.
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
    fn ratio_and_percent_format() {
        assert_eq!(ratio(30.0, 10.0), "3.0x");
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(percent(0.5), "50.0%");
    }
}
