//! The result tables the paper reports: the answer of an
//! [`crate::AggregateQuery`] and its renderings — the aligned text
//! table (Tables 4–10), the pivot grid of the prototype, and the
//! relational export.

use crate::confidence::ConfidenceWeights;
use crate::error::{CoreError, Result};
use crate::multiversion::MvCell;
use crate::tmp::TemporalMode;

/// One result row: the time key, the group keys (member names) and one
/// cell per measure.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Rendered time key (`"2001"`, an instant, or `"all"`).
    pub time: String,
    /// One member name per group-by column; `"(unclassified)"` marks a
    /// non-covering roll-up.
    pub keys: Vec<String>,
    /// One aggregated cell per queried measure.
    pub cells: Vec<MvCell>,
}

/// The result of an [`AggregateQuery`](crate::AggregateQuery).
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// The mode the data is presented in.
    pub mode: TemporalMode,
    /// Header for the time column.
    pub time_header: String,
    /// Headers for the group-by columns (level names).
    pub key_headers: Vec<String>,
    /// Headers for the measure columns.
    pub measure_headers: Vec<String>,
    /// Result rows, ordered by time then first contribution.
    pub rows: Vec<ResultRow>,
    /// Source fact rows not representable in this mode.
    pub unmapped_rows: usize,
}

impl ResultSet {
    /// The §5.2 global quality factor
    /// `Q = (Σᵢⱼ pds(fb(i,j))) / (Ni·Nj·10)` over the result grid, with
    /// `pds` the user's confidence weighting. Empty results score 0.
    pub fn quality(&self, weights: &ConfidenceWeights) -> f64 {
        let ni = self.rows.len();
        let nj = self.measure_headers.len();
        if ni == 0 || nj == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .map(|c| weights.weight(c.confidence) as u64)
            .sum();
        sum as f64 / (ni as f64 * nj as f64 * 10.0)
    }

    /// The relational schema of the result: time, keys, then one value
    /// and one confidence-code column per measure.
    fn schema(&self) -> Result<mvolap_storage::TableSchema> {
        use mvolap_storage::{ColumnDef, DataType, TableSchema};
        let mut defs = vec![ColumnDef::required(self.time_header.clone(), DataType::Str)];
        for k in &self.key_headers {
            defs.push(ColumnDef::required(k.clone(), DataType::Str));
        }
        for m in &self.measure_headers {
            defs.push(ColumnDef::nullable(m.clone(), DataType::Float));
            defs.push(ColumnDef::required(format!("{m}_cf"), DataType::Str));
        }
        TableSchema::new(defs).map_err(CoreError::from)
    }

    /// Exports the result as a relational table (time, keys, one value
    /// and one confidence-code column per measure) for rendering or
    /// further relational work.
    ///
    /// # Errors
    ///
    /// Propagates storage-schema errors (duplicate headers).
    pub fn to_storage_table(&self, name: &str) -> Result<mvolap_storage::Table> {
        use mvolap_storage::{Table, Value};
        let mut table = Table::with_capacity(name, self.schema()?, self.rows.len());
        for row in &self.rows {
            let mut values: Vec<Value> =
                Vec::with_capacity(1 + row.keys.len() + 2 * row.cells.len());
            values.push(row.time.clone().into());
            values.extend(row.keys.iter().map(|k| Value::from(k.clone())));
            for cell in &row.cells {
                values.push(cell.value.map(Value::Float).unwrap_or(Value::Null));
                values.push(cell.confidence.code().into());
            }
            table.push_row(values).map_err(CoreError::from)?;
        }
        Ok(table)
    }

    /// Plain-text rendering in the paper's tabular style: the bytes of
    /// [`mvolap_storage::render::render_table`] over
    /// [`ResultSet::to_storage_table`], written straight from the rows
    /// (the table name is not printed).
    ///
    /// # Errors
    ///
    /// Those of [`ResultSet::to_storage_table`].
    pub fn render(&self, _name: &str) -> Result<String> {
        use mvolap_storage::{StorageError, Value};
        use std::fmt::Write as _;
        let schema = self.schema()?;
        let arity = schema.arity();
        // Every value's text in one buffer; each cell borrows its range.
        let (mut text, mut ends) = (String::new(), Vec::new());
        for cell in self.rows.iter().flat_map(|r| &r.cells) {
            let _ = write!(text, "{}", cell.value.map_or(Value::Null, Value::Float));
            ends.push(text.len());
        }
        let mut values = ends.iter().scan(0, |start, &end| {
            let value = &text[*start..end];
            *start = end;
            Some(value)
        });
        let mut cells = Vec::with_capacity(self.rows.len() * arity);
        for row in &self.rows {
            let actual = 1 + row.keys.len() + 2 * row.cells.len();
            if actual != arity {
                return Err(StorageError::ArityMismatch {
                    expected: arity,
                    actual,
                }
                .into());
            }
            cells.push(row.time.as_str());
            cells.extend(row.keys.iter().map(String::as_str));
            for (cell, value) in row.cells.iter().zip(&mut values) {
                cells.extend([value, cell.confidence.code()]);
            }
        }
        let rows = cells.chunks_exact(arity);
        Ok(mvolap_storage::render::render_text(&schema.names(), rows))
    }

    /// Pivot-grid rendering: time down the side, the first group key's
    /// members across the top, one measure per call — the layout of the
    /// prototype's result grids. Further group keys go down the side
    /// beside the time, one column each, so every result row has its
    /// own cell. Cells carry their confidence code; blank cells are
    /// impossible cross-points.
    pub fn render_grid(&self, measure: usize) -> String {
        // A row's side label: its time, then its keys after the first.
        fn side(r: &ResultRow) -> Vec<&str> {
            let rest = r.keys.iter().skip(1).map(String::as_str);
            std::iter::once(r.time.as_str()).chain(rest).collect()
        }
        // Distinct first-key members and side labels, in first-seen order.
        let (mut columns, mut sides): (Vec<&str>, Vec<Vec<&str>>) = (Vec::new(), Vec::new());
        for r in &self.rows {
            match r.keys.first() {
                Some(k) if !columns.contains(&k.as_str()) => columns.push(k),
                _ => {}
            }
            let label = side(r);
            if !sides.contains(&label) {
                sides.push(label);
            }
        }
        let mut grid = vec![vec![String::new(); columns.len()]; sides.len()];
        for r in &self.rows {
            let (Some(k), Some(cell)) = (r.keys.first(), r.cells.get(measure)) else {
                continue;
            };
            let label = side(r);
            let si = sides.iter().position(|s| *s == label).expect("collected");
            let ci = columns.iter().position(|c| c == k).expect("collected");
            let value = cell.value.map_or("?".to_owned(), |v| v.to_string());
            grid[si][ci] = format!("{value} ({})", cell.confidence.code());
        }
        let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
        for row in &grid {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        // Each side column is as wide as its widest label, and at least 4.
        let mut side_widths = vec![4; sides.first().map_or(1, Vec::len)];
        for label in &sides {
            for (w, part) in side_widths.iter_mut().zip(label) {
                *w = (*w).max(part.len());
            }
        }
        let mut out = String::new();
        let mut line = |label: &[&str], cells: &mut dyn Iterator<Item = &str>| {
            for (i, (part, w)) in label.iter().zip(&side_widths).enumerate() {
                let gap = if i == 0 { "" } else { "  " };
                out.push_str(&format!("{gap}{part:<w$}"));
            }
            for (c, w) in cells.zip(&widths) {
                out.push_str(&format!("  {c:<w$}"));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&vec![""; side_widths.len()], &mut columns.iter().copied());
        for (label, row) in sides.iter().zip(&grid) {
            line(label, &mut row.iter().map(String::as_str));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::Confidence;

    fn row(time: &str, keys: &[&str], value: f64) -> ResultRow {
        ResultRow {
            time: time.to_owned(),
            keys: keys.iter().map(|&k| k.to_owned()).collect(),
            cells: vec![MvCell {
                value: Some(value),
                confidence: Confidence::Source,
            }],
        }
    }

    fn result(key_headers: &[&str], rows: Vec<ResultRow>) -> ResultSet {
        ResultSet {
            mode: TemporalMode::Consistent,
            time_header: "Year".to_owned(),
            key_headers: key_headers.iter().map(|&k| k.to_owned()).collect(),
            measure_headers: vec!["Amount".to_owned()],
            rows,
            unmapped_rows: 0,
        }
    }

    #[test]
    fn grid_keeps_every_cell_when_rows_share_the_first_key() {
        let rs = result(
            &["Division", "Product"],
            vec![
                row("2001", &["Sales", "Gadget"], 10.0),
                row("2001", &["Sales", "Widget"], 32.0),
                row("2002", &["R&D", "Gadget"], 5.0),
            ],
        );
        assert_eq!(
            rs.render_grid(0),
            "              Sales    R&D\n\
             2001  Gadget  10 (sd)\n\
             2001  Widget  32 (sd)\n\
             2002  Gadget           5 (sd)\n"
        );
    }

    #[test]
    fn single_key_grid_keeps_its_layout() {
        let rs = result(
            &["Division"],
            vec![
                row("2001", &["Sales"], 150.0),
                row("2001", &["R&D"], 100.0),
                row("2002", &["Sales"], 100.0),
            ],
        );
        assert_eq!(
            rs.render_grid(0),
            "      Sales     R&D\n\
             2001  150 (sd)  100 (sd)\n\
             2002  100 (sd)\n"
        );
    }
}
