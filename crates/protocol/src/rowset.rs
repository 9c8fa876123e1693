//! [`RowSet`] — a materialized result set reassembled from a wire
//! stream (`Schema Rows* Done`), mirroring the engine's `QueryResult`
//! without depending on the engine crate.

use wsq_common::{Schema, Tuple};

/// A complete query result on the client side: the schema from the
/// stream's [`crate::Frame::Schema`] header plus every row from its
/// [`crate::Frame::Rows`] batches.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSet {
    /// Column layout of `rows`.
    pub schema: Schema,
    /// Result tuples in stream order.
    pub rows: Vec<Tuple>,
}

impl RowSet {
    /// Render as an aligned ASCII table (same layout the in-process
    /// REPL prints), for display in `--connect` mode.
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}
