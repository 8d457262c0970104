//! Measures and the Temporally Consistent Fact Table (paper Definition 5).

use mvolap_temporal::Instant;

use crate::error::{CoreError, Result};
use crate::ids::MemberVersionId;

/// How a measure aggregates under roll-up (the `⊕m` of Definition 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Values add (amounts, turnovers).
    Sum,
    /// Minimum value wins.
    Min,
    /// Maximum value wins.
    Max,
    /// Arithmetic mean.
    Avg,
    /// Count of contributing facts.
    Count,
}

impl Aggregator {
    /// Lower-case name, used by the query language.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::Sum => "sum",
            Aggregator::Min => "min",
            Aggregator::Max => "max",
            Aggregator::Avg => "avg",
            Aggregator::Count => "count",
        }
    }

    /// The aggregator to use when folding *already aggregated* partial
    /// results (second-stage aggregation): partial counts **add**;
    /// sums add; min/max nest. `Avg` stays `Avg` — an average of
    /// per-cell aggregates, documented on [`crate::aggregate::evaluate_par`].
    #[must_use]
    pub fn combining(self) -> Aggregator {
        match self {
            Aggregator::Count => Aggregator::Sum,
            other => other,
        }
    }

    /// Parses a lower-case aggregator name.
    pub fn parse(s: &str) -> Option<Aggregator> {
        match s {
            "sum" => Some(Aggregator::Sum),
            "min" => Some(Aggregator::Min),
            "max" => Some(Aggregator::Max),
            "avg" => Some(Aggregator::Avg),
            "count" => Some(Aggregator::Count),
            _ => None,
        }
    }
}

/// One measure of the schema: name plus default aggregate function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureDef {
    /// Measure name (e.g. `Amount`).
    pub name: String,
    /// Default aggregate function `⊕m`.
    pub aggregator: Aggregator,
}

impl MeasureDef {
    /// A sum-aggregated measure — the common case for the paper's
    /// amounts and turnovers.
    pub fn summed(name: impl Into<String>) -> Self {
        MeasureDef {
            name: name.into(),
            aggregator: Aggregator::Sum,
        }
    }
}

/// The *Temporally Consistent Fact Table* `f : D1 × … × Dn × T →
/// dom(m1) × … × dom(mm)` (Definition 5), stored columnar.
///
/// Each row associates leaf member versions (one per dimension), valid at
/// the fact time, with one value per measure. Validation against the
/// dimensions happens in the schema (`Tmd::add_fact`), which owns them.
#[derive(Debug, Clone, Default)]
pub struct FactTable {
    /// Per dimension: the coordinate column.
    coords: Vec<Vec<MemberVersionId>>,
    /// Fact times.
    times: Vec<Instant>,
    /// Per measure: the value column.
    values: Vec<Vec<f64>>,
}

impl FactTable {
    /// An empty fact table for `dimensions` × `measures`.
    pub fn new(dimensions: usize, measures: usize) -> Self {
        FactTable {
            coords: vec![Vec::new(); dimensions],
            times: Vec::new(),
            values: vec![Vec::new(); measures],
        }
    }

    /// Number of fact rows.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of dimension columns.
    pub fn dimensions(&self) -> usize {
        self.coords.len()
    }

    /// Number of measure columns.
    pub fn measures(&self) -> usize {
        self.values.len()
    }

    /// Appends a row. Arity is checked here; semantic validation (leaf,
    /// valid-at-t) lives in the schema which owns the dimensions.
    ///
    /// # Errors
    ///
    /// [`CoreError::CoordinateArityMismatch`] or
    /// [`CoreError::MeasureArityMismatch`].
    pub fn push(&mut self, coords: &[MemberVersionId], t: Instant, values: &[f64]) -> Result<()> {
        if coords.len() != self.coords.len() {
            return Err(CoreError::CoordinateArityMismatch {
                expected: self.coords.len(),
                actual: coords.len(),
            });
        }
        if values.len() != self.values.len() {
            return Err(CoreError::MeasureArityMismatch {
                expected: self.values.len(),
                actual: values.len(),
            });
        }
        for (col, &c) in self.coords.iter_mut().zip(coords) {
            col.push(c);
        }
        self.times.push(t);
        for (col, &v) in self.values.iter_mut().zip(values) {
            col.push(v);
        }
        Ok(())
    }

    /// The coordinate of row `row` in dimension `dim`.
    #[inline]
    pub fn coord(&self, row: usize, dim: usize) -> MemberVersionId {
        self.coords[dim][row]
    }

    /// The time of row `row`.
    #[inline]
    pub fn time(&self, row: usize) -> Instant {
        self.times[row]
    }

    /// The value of measure `measure` in row `row`.
    #[inline]
    pub fn value(&self, row: usize, measure: usize) -> f64 {
        self.values[measure][row]
    }

    /// All values of row `row`.
    pub fn row_values(&self, row: usize) -> Vec<f64> {
        self.values.iter().map(|col| col[row]).collect()
    }

    /// All coordinates of row `row`.
    pub fn row_coords(&self, row: usize) -> Vec<MemberVersionId> {
        self.coords.iter().map(|col| col[row]).collect()
    }

    /// Iterates over `(row_index, coords, time, values)`.
    pub fn rows(
        &self,
    ) -> impl Iterator<Item = (usize, Vec<MemberVersionId>, Instant, Vec<f64>)> + '_ {
        (0..self.len()).map(move |r| (r, self.row_coords(r), self.time(r), self.row_values(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut f = FactTable::new(2, 1);
        let a = MemberVersionId(0);
        let b = MemberVersionId(1);
        f.push(&[a, b], Instant::ym(2001, 1), &[100.0]).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.coord(0, 0), a);
        assert_eq!(f.coord(0, 1), b);
        assert_eq!(f.value(0, 0), 100.0);
        assert_eq!(f.time(0), Instant::ym(2001, 1));
        assert_eq!(f.row_coords(0), vec![a, b]);
        assert_eq!(f.row_values(0), vec![100.0]);
    }

    #[test]
    fn arity_checked() {
        let mut f = FactTable::new(2, 1);
        assert!(matches!(
            f.push(&[MemberVersionId(0)], Instant::ym(2001, 1), &[1.0]),
            Err(CoreError::CoordinateArityMismatch { .. })
        ));
        assert!(matches!(
            f.push(
                &[MemberVersionId(0), MemberVersionId(1)],
                Instant::ym(2001, 1),
                &[]
            ),
            Err(CoreError::MeasureArityMismatch { .. })
        ));
        assert!(f.is_empty());
    }

    #[test]
    fn aggregator_roundtrip() {
        for a in [
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::Avg,
            Aggregator::Count,
        ] {
            assert_eq!(Aggregator::parse(a.name()), Some(a));
        }
        assert_eq!(Aggregator::parse("median"), None);
    }
}
