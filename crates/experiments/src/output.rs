//! Plain-text tables and CSV output for the experiment binaries.

use imdpp_core::ImdppError;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned result table that is also dumped to CSV.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a table to `<out_dir>/<file_name>.csv`, creating the directory if
/// needed.  Returns the path written to.
///
/// # Errors
/// Returns [`ImdppError::Io`] when the directory or file cannot be written.
pub fn write_csv(table: &Table, out_dir: &str, file_name: &str) -> Result<String, ImdppError> {
    fs::create_dir_all(out_dir)?;
    let path = Path::new(out_dir).join(format!("{file_name}.csv"));
    let mut f = fs::File::create(&path)?;
    f.write_all(table.to_csv().as_bytes())?;
    Ok(path.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["algorithm", "sigma"]);
        t.push_row(vec!["Dysim".to_string(), "12.5".to_string()]);
        t.push_row(vec!["BGRD".to_string(), "7.0".to_string()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("Dysim"));
        assert!(text.contains("BGRD"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".to_string(), "2".to_string()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn write_csv_creates_file() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["x".to_string()]);
        let dir = std::env::temp_dir().join("imdpp-output-test");
        let path = write_csv(&t, dir.to_str().unwrap(), "demo").unwrap();
        assert!(std::path::Path::new(&path).exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".to_string()]);
    }
}
