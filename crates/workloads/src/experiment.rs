//! Paper-style series tables shared by the figure binaries.

/// A printable series table, mirroring one panel of a paper figure: one
/// row per x value, one column per series.
#[derive(Debug, Clone)]
pub struct SeriesTable {
    /// Panel title, e.g. `"Fig 12(a) iRQ Tq (ms) vs |O|"`.
    pub(crate) title: String,
    /// Label of the x column.
    pub(crate) x_label: String,
    /// Series names.
    pub(crate) series: Vec<String>,
    /// Rows: x label → one value per series.
    pub(crate) rows: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// Creates an empty table.
    pub fn new(title: &str, x_label: &str, series: &[&str]) -> Self {
        SeriesTable {
            title: title.to_string(),
            x_label: x_label.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; `values.len()` must equal the series count.
    pub fn push_row(&mut self, x: impl ToString, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row width mismatch");
        self.rows.push((x.to_string(), values));
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let mut header = vec![self.x_label.clone()];
        header.extend(self.series.iter().cloned());
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        let formatted: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(x, vals)| {
                let mut row = vec![x.clone()];
                row.extend(vals.iter().map(|v| format_value(*v)));
                row
            })
            .collect();
        for row in &formatted {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&header));
        out.push('\n');
        for row in &formatted {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = SeriesTable::new("Fig X", "|O|", &["r=50", "r=100"]);
        t.push_row("10K", vec![1.25, 2.5]);
        t.push_row("20K", vec![2.0, 4.0]);
        let s = t.render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("r=100"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = SeriesTable::new("t", "x", &["a"]);
        t.push_row("1", vec![1.0, 2.0]);
    }
}
