//! The abstract syntax tree of a query.

/// One `agg(measure)` item of the SELECT clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    /// Aggregate function name, lower-cased (`sum`, `min`, …).
    pub aggregate: String,
    /// Measure name, as written.
    pub measure: String,
}

/// One BY-clause key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupKey {
    /// `year` — group by calendar year.
    Year,
    /// `quarter` — group by calendar quarter.
    Quarter,
    /// `month` — group by calendar month.
    Month,
    /// `instant` — group by raw instant.
    Instant,
    /// `<dimension>.<level>`.
    DimLevel {
        /// Dimension name.
        dimension: String,
        /// Level name.
        level: String,
    },
}

/// One WHERE-clause condition: `<dimension>.<level> IN ('a', 'b')` or
/// `<dimension>.<level> = 'a'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSpec {
    /// Dimension name.
    pub dimension: String,
    /// Level the member names live at.
    pub level: String,
    /// Accepted member names.
    pub members: Vec<String>,
}

/// The temporal mode named in `IN MODE …` / `IN ALL MODES`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeSpec {
    /// `tcm` / `consistent`.
    Tcm,
    /// `VERSION n` — structure version by chronological index.
    Version(u32),
    /// `AT mm/yyyy` — the structure version valid at an instant.
    At {
        /// Calendar month `1..=12`.
        month: u32,
        /// Calendar year.
        year: i32,
    },
    /// `ALL MODES [WITH WEIGHTS s,e,a,u]` — evaluate under every
    /// temporal mode and score each with the §5.2 quality factor
    /// (execute via [`crate::run_compare_par`]).
    AllModes {
        /// Optional `pds` weights for (source, exact, approx, unknown).
        weights: Option<(u8, u8, u8, u8)>,
    },
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// SELECT items, in order.
    pub selects: Vec<Select>,
    /// BY keys, in order.
    pub groups: Vec<GroupKey>,
    /// WHERE conditions (conjunctive).
    pub filters: Vec<FilterSpec>,
    /// Optional `FOR a..b` year range (inclusive).
    pub range: Option<(i32, i32)>,
    /// The temporal mode of presentation.
    pub mode: ModeSpec,
}
