//! Plain-text and CSV table rendering for the experiment harness.
//!
//! The paper's figures are line plots; the reproduction harness prints the
//! underlying series as aligned text tables (for eyeballing in a terminal)
//! and CSV (for re-plotting). This module keeps that logic out of the
//! experiment code.

use std::fmt;

/// A simple rectangular table of strings with a header row.
///
/// # Example
/// ```
/// use scd_metrics::Table;
/// let mut t = Table::new(vec!["rho".into(), "SCD".into(), "JSQ".into()]);
/// t.add_row(vec!["0.90".into(), "2.31".into(), "4.77".into()]);
/// let text = t.to_string();
/// assert!(text.contains("rho"));
/// assert!(t.to_csv().starts_with("rho,SCD,JSQ\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Convenience constructor from string slices.
    pub fn with_headers(headers: &[&str]) -> Self {
        Table::new(headers.iter().map(|s| s.to_string()).collect())
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width; a ragged table
    /// indicates a harness bug.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Appends one row of already-formatted numbers.
    pub fn add_numeric_row(&mut self, label: &str, values: &[f64], precision: usize) {
        let mut row = Vec::with_capacity(values.len() + 1);
        row.push(label.to_string());
        for v in values {
            row.push(format!("{v:.precision$}"));
        }
        self.add_row(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.headers.len()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes or newlines).
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths: max of header and every cell.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render_row(&self.headers, &widths))?;
        let total_width: usize =
            widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total_width))?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row, &widths))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_text() {
        let mut t = Table::with_headers(&["rho", "SCD", "SED"]);
        t.add_row(vec!["0.9".into(), "2.50".into(), "3.75".into()]);
        t.add_numeric_row("0.99", &[4.125, 9.5], 2);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 3);
        let text = t.to_string();
        assert!(text.contains("rho"));
        assert!(text.contains("4.13") || text.contains("4.12"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::with_headers(&["name", "value"]);
        t.add_row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        assert!(csv.starts_with("name,value\n"));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn ragged_rows_panic() {
        let mut t = Table::with_headers(&["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn headers_and_rows_accessors() {
        let mut t = Table::with_headers(&["x"]);
        t.add_row(vec!["1".into()]);
        assert_eq!(t.headers(), &["x".to_string()]);
        assert_eq!(t.rows(), &[vec!["1".to_string()]]);
    }
}
