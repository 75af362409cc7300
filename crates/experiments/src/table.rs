//! The one table type of the report layer: what a [`Section`] holds,
//! renders and serializes.
//!
//! [`Section`]: crate::artifact::Section

use dva_json::{ToJson, Writer};

/// A table of pre-formatted string cells with a header row, rendered
/// either as aligned ASCII (for terminals) or CSV (for plotting), and
/// serialized as `{"headers":…,"rows":…}` inside an artifact.
///
/// # Examples
///
/// ```
/// use dva_experiments::Table;
/// let mut t = Table::new(["program", "cycles"]);
/// t.row(["ARC2D", "123"]);
/// let ascii = t.to_ascii();
/// assert!(ascii.contains("ARC2D"));
/// assert_eq!(t.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    /// Every row has one cell per header ([`Table::row`] checks).
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// The header row.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not have exactly one cell per header.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned ASCII with a separator under the
    /// header: the first column left-aligned (names, labels), the rest
    /// right-aligned (numbers).
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    out.push_str(&format!("  {:>width$}", cell, width = widths[i]));
                }
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (header row included, fields quoted only
    /// when they contain commas or quotes).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut render = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        render(&self.headers);
        for row in &self.rows {
            render(row);
        }
        out
    }
}

impl ToJson for Table {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(|w| {
            w.field("headers", &self.headers);
            w.field("rows", &self.rows);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_aligns_numbers_right() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["bb", "100"]);
        let ascii = t.to_ascii();
        let lines: Vec<&str> = ascii.lines().collect();
        assert!(lines[2].starts_with("a "));
        assert!(lines[2].ends_with("  1"));
        assert!(lines[3].ends_with("100"));
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let mut t = Table::new(["k", "v"]);
        t.row(["a,b", "1"]);
        assert_eq!(t.to_csv(), "k,v\n\"a,b\",1\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(["only"]);
        t.row(["a", "b"]);
    }
}
