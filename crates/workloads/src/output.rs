//! Result tables rendered as markdown or CSV.

use std::fmt;

/// A rectangular result table with a title, column headers and string
/// cells.
///
/// ```
/// use nylon_workloads::Table;
///
/// let mut t = Table::new("Figure X", ["nat %", "value"]);
/// t.push_row(["40".into(), "0.98".into()]);
/// assert!(t.to_markdown().contains("| 40 | 0.98 |"));
/// assert_eq!(t.to_csv().lines().count(), 2); // header + row
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (the paper artifact it regenerates).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells; each must have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new<T: Into<String>>(title: &str, columns: impl IntoIterator<Item = T>) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = String>) {
        let row: Vec<String> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch in '{}'", self.title);
        self.rows.push(row);
    }

    /// Renders as a GitHub-flavoured markdown table (without the title).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.columns.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }

    /// The table as `repro` prints it: a `## title` heading, a blank line,
    /// the markdown (or CSV) rendering and a blank line.
    pub fn transcript(&self, csv: bool) -> String {
        let body = if csv { self.to_csv() } else { self.to_markdown() };
        format!("## {}\n\n{body}\n", self.title)
    }

    /// Renders as CSV (header + rows). Cells containing commas or quotes
    /// are quoted.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}\n", self.title)?;
        f.write_str(&self.to_markdown())
    }
}

/// Formats a float with the given number of decimals ("-" for NaN, used
/// for empty population classes).
pub fn fmt_f(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", ["a", "b"]);
        t.push_row(["1".into(), "2".into()]);
        t.push_row(["x,y".into(), "q\"z".into()]);
        t
    }

    #[test]
    fn markdown_layout() {
        let md = sample().to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn csv_escaping() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "1,2");
        assert_eq!(lines[2], "\"x,y\",\"q\"\"z\"");
    }

    #[test]
    fn display_includes_title() {
        assert!(sample().to_string().starts_with("## T"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T", ["a", "b"]);
        t.push_row(["only one".into()]);
    }

    #[test]
    fn fmt_f_handles_nan() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(f64::NAN, 2), "-");
    }
}
