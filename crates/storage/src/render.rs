//! Plain-text table rendering.
//!
//! Used by the paper-table reproduction harness to print results in the
//! same tabular form the paper uses, and by examples for human-readable
//! output.

use crate::Table;

/// Renders a table as aligned plain text with a header row.
///
/// ```
/// use mvolap_storage::{ColumnDef, DataType, Table, TableSchema};
/// use mvolap_storage::render::render_table;
///
/// let schema = TableSchema::new(vec![
///     ColumnDef::required("Division", DataType::Str),
///     ColumnDef::required("Amount", DataType::Float),
/// ]).unwrap();
/// let mut t = Table::new("t", schema);
/// t.push_row(vec!["Sales".into(), 150.0.into()]).unwrap();
/// let text = render_table(&t);
/// assert!(text.contains("Division"));
/// assert!(text.contains("Sales"));
/// assert!(text.contains("150"));
/// ```
pub fn render_table(table: &Table) -> String {
    let cells: Vec<Vec<String>> = table
        .rows()
        .map(|row| row.iter().map(ToString::to_string).collect())
        .collect();
    render_text(&table.schema().names(), &cells)
}

/// Writes rows of cells as aligned plain text: the header row, a rule
/// of dashes, then one line per row. Each column is padded to its
/// widest cell (in bytes), columns are two spaces apart, and trailing
/// padding is trimmed from every line. The one text layout of every
/// rendered table.
///
/// ```
/// use mvolap_storage::render::render_text;
///
/// let text = render_text(&["Division", "Amount"], [["Sales", "150"]]);
/// assert_eq!(text, "Division  Amount\n----------------\nSales     150\n");
/// ```
pub fn render_text<R, C>(headers: &[&str], rows: R) -> String
where
    R: IntoIterator + Clone,
    R::Item: AsRef<[C]>,
    C: AsRef<str>,
{
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut lines = 2;
    for row in rows.clone() {
        lines += 1;
        for (w, c) in widths.iter_mut().zip(row.as_ref()) {
            *w = (*w).max(c.as_ref().len());
        }
    }
    let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    // No line is longer than the rule, so this is the one allocation.
    let mut out = String::with_capacity((rule_len + 1) * lines);
    write_line(&mut out, headers, &widths);
    out.extend(std::iter::repeat_n('-', rule_len));
    out.push('\n');
    for row in rows {
        write_line(&mut out, row.as_ref(), &widths);
    }
    out
}

/// Appends `n` spaces, a slice of a constant run at a time.
fn pad(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                                                ";
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

/// One line of [`render_text`]: each cell after the padding and
/// separator the cell before it left, then trailing spaces trimmed (the
/// last cell's padding is never written).
fn write_line<C: AsRef<str>>(out: &mut String, cells: &[C], widths: &[usize]) {
    let mut pending = 0;
    for (c, w) in cells.iter().zip(widths) {
        let c = c.as_ref();
        pad(out, pending);
        out.push_str(c);
        pending = w - c.len() + 2;
    }
    out.truncate(out.trim_end_matches(' ').len());
    out.push('\n');
}

/// Renders a table as comma-separated values (no quoting of commas — the
/// warehouse's identifiers never contain them; intended for quick export).
pub fn render_csv(table: &Table) -> String {
    let mut out = String::new();
    out.push_str(&table.schema().names().join(","));
    out.push('\n');
    for row in table.rows() {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType, TableSchema, Value};

    fn sample() -> Table {
        let schema = TableSchema::new(vec![
            ColumnDef::required("Year", DataType::Int),
            ColumnDef::required("Division", DataType::Str),
            ColumnDef::nullable("Amount", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("q1", schema);
        t.push_row(vec![2001.into(), "Sales".into(), 150.0.into()])
            .unwrap();
        t.push_row(vec![2001.into(), "R&D".into(), Value::Null])
            .unwrap();
        t
    }

    #[test]
    fn text_render_aligns_columns() {
        let text = render_table(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, two rows
        assert!(lines[0].starts_with("Year"));
        assert!(lines[2].contains("Sales"));
        assert!(lines[3].contains("NULL"));
    }

    #[test]
    fn csv_render() {
        let csv = render_csv(&sample());
        assert_eq!(csv, "Year,Division,Amount\n2001,Sales,150\n2001,R&D,NULL\n");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let schema = TableSchema::new(vec![ColumnDef::required("A", DataType::Int)]).unwrap();
        let t = Table::new("e", schema);
        let text = render_table(&t);
        assert_eq!(text.lines().count(), 2);
    }
}
