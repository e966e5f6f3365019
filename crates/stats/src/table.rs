//! Fixed-width ASCII tables for harness output (Table 2 and friends).

/// A simple right-aligned ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with a separator under the header; first column
    /// left-aligned, the rest right-aligned (the paper's table style).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cell.chars().count();
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a makespan the way the paper prints Table 2 (one decimal for
/// large values, more precision for small ones).
pub fn fmt_makespan(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a `mean ± std` cell in [`fmt_makespan`]'s scaling — the sweep
/// harness' per-instance summary currency.
pub fn fmt_mean_std(mean: f64, std_dev: f64) -> String {
    format!("{} ± {}", fmt_makespan(mean), fmt_makespan(std_dev))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["instance", "makespan"]);
        t.row(&cells(&["u_c_hihi.0", "7518600.7"]));
        t.row(&cells(&["u_c_lolo.0", "5261.4"]));
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("instance"));
        assert!(lines[1].starts_with("---"));
        // Right-aligned numeric column: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].ends_with("7518600.7"));
        assert!(lines[3].ends_with("5261.4"));
    }

    #[test]
    fn fmt_makespan_scales() {
        assert_eq!(fmt_makespan(7_518_600.71), "7518600.7");
        assert_eq!(fmt_makespan(5261.4), "5261.40");
    }

    #[test]
    fn fmt_mean_std_pairs() {
        assert_eq!(fmt_mean_std(7_518_600.71, 1234.56), "7518600.7 ± 1234.56");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        Table::new(&["a", "b"]).row(&cells(&["only one"]));
    }
}
