//! Plain-text table rendering for experiment reports.
//!
//! Every `paper` subcommand in `bqs-bench` prints its table or figure series through
//! this module so that the output of `cargo run -p bqs-bench --bin paper -- <experiment>`
//! looks the same across experiments and can be diffed between commits.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render as empty, extra cells are kept).
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns and a header separator.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<width$}"));
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.trim_end().to_string()
        };
        let mut lines = Vec::new();
        lines.push(render_row(&self.header));
        lines.push(
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        for row in &self.rows {
            lines.push(render_row(row));
        }
        lines.join("\n")
    }
}

/// Formats a probability for display: scientific notation when tiny, fixed otherwise.
#[must_use]
pub fn format_probability(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p < 1e-3 {
        format!("{p:.2e}")
    } else {
        format!("{p:.4}")
    }
}

/// Formats an optional probability, rendering `None` as a dash.
#[must_use]
pub fn format_optional_probability(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_string(), format_probability)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["system", "load"]);
        t.push_row(["M-Grid", "0.25"]);
        t.push_row(["boostFPP(3,19)", "0.2318"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("system"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("M-Grid"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.push_row(["1"]);
        t.push_row(["1", "2", "3"]);
        let rendered = t.render();
        assert!(rendered.lines().count() == 4);
    }

    #[test]
    fn probability_formatting() {
        assert_eq!(format_probability(0.0), "0");
        assert_eq!(format_probability(0.25), "0.2500");
        assert_eq!(format_probability(0.0000123), "1.23e-5");
        assert_eq!(format_optional_probability(None), "-");
        assert_eq!(format_optional_probability(Some(0.5)), "0.5000");
    }
}
