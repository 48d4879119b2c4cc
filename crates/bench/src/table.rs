//! Plain-text table rendering and CSV persistence for the repro binaries.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Write the table as CSV under `dir/name.csv` (best-effort; returns
    /// the path on success).
    pub fn write_csv(&self, dir: &Path, name: &str) -> Option<std::path::PathBuf> {
        fs::create_dir_all(dir).ok()?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.csv()).ok()?;
        Some(path)
    }

    /// The table as CSV text: the header, then each row, a line each.
    pub fn csv(&self) -> String {
        let mut csv = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        csv.push_str(&self.header.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.iter().map(|s| escape(s)).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        csv
    }
}

/// Format seconds as minutes with one decimal, as the paper's figures do.
pub fn mins(secs: f64) -> String {
    format!("{:.1}", secs / 60.0)
}

/// Format a fraction as a percentage label like Figure 4's.
pub fn pct(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

/// Default output directory for CSV artifacts.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["scheme", "mins"]);
        t.row(vec!["Append".into(), "12.5".into()]);
        t.row(vec!["K-d Tree".into(), "9.1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scheme"));
        assert!(lines[2].ends_with("12.5"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_is_enforced() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mins(90.0), "1.5");
        assert_eq!(pct(0.58), "58%");
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(&["a"]);
        t.row(vec!["x,y".into()]);
        // One directory per process: concurrent test runs never share it.
        let dir = std::env::temp_dir().join(format!("ead-table-test-{}", std::process::id()));
        let path = t.write_csv(&dir, "esc").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(body.contains("\"x,y\""));
    }
}
