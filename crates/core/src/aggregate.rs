//! Data aggregation over the multiversion fact table (paper
//! Definition 12) and the result tables the paper reports.
//!
//! An [`AggregateQuery`] groups the presented facts by a level per
//! dimension (roll-up through the temporal relationships) and a time
//! level, folding measures through `⊕m` and confidences through `⊗cf`.
//! The motivating queries Q1 ("total amount by year and division") and
//! Q2 ("total amounts per department") are both instances.

use mvolap_exec::ExecContext;
use mvolap_temporal::{Instant, Interval};

use crate::confidence::ConfidenceWeights;
use crate::error::{CoreError, Result};
use crate::fold::{next_combination, Cell, Groups};
use crate::ids::{DimensionId, MeasureId};
use crate::levels::ancestors_at_level;
use crate::memo::QueryMemo;
use crate::multiversion::{present_cached, MvCell};
use crate::schema::Tmd;
use crate::structure_version::StructureVersion;
use crate::tmp::TemporalMode;

/// How the time axis is grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeLevel {
    /// One group per calendar year (the paper's reports).
    Year,
    /// One group per calendar quarter (month granularity assumed).
    Quarter,
    /// One group per calendar month.
    Month,
    /// One group per instant.
    Instant,
    /// A single all-time group.
    All,
}

/// A slice/dice restriction: keep only facts whose coordinate in
/// `dimension` rolls up (at the query's hierarchy instant) to one of
/// `members` at `level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberFilter {
    /// The filtered dimension.
    pub dimension: DimensionId,
    /// The level the member names live at.
    pub level: String,
    /// Accepted member names.
    pub members: Vec<String>,
}

/// An aggregation query against a schema.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Group-by columns: a dimension and one of its level names.
    pub group_by: Vec<(DimensionId, String)>,
    /// Time grouping.
    pub time_level: TimeLevel,
    /// Measures to aggregate (by schema id).
    pub measures: Vec<MeasureId>,
    /// The temporal mode of presentation.
    pub mode: TemporalMode,
    /// Optional restriction of fact times.
    pub time_range: Option<Interval>,
    /// Slice/dice restrictions on member names (conjunctive).
    pub filters: Vec<MemberFilter>,
}

impl AggregateQuery {
    /// A query grouping one dimension level by year over all measures —
    /// the shape of the paper's Q1/Q2.
    pub fn by_year(dim: DimensionId, level: impl Into<String>, mode: TemporalMode) -> Self {
        AggregateQuery {
            group_by: vec![(dim, level.into())],
            time_level: TimeLevel::Year,
            measures: Vec::new(), // empty = all measures
            mode,
            time_range: None,
            filters: Vec::new(),
        }
    }

    /// A grand-total query (no grouping) over all measures.
    pub fn grand_total(mode: TemporalMode) -> Self {
        AggregateQuery {
            group_by: Vec::new(),
            time_level: TimeLevel::All,
            measures: Vec::new(),
            mode,
            time_range: None,
            filters: Vec::new(),
        }
    }

    /// Restricts fact times to `range`.
    #[must_use]
    pub fn in_range(mut self, range: Interval) -> Self {
        self.time_range = Some(range);
        self
    }

    /// Adds a member filter (conjunctive with existing ones).
    #[must_use]
    pub fn filtered(mut self, filter: MemberFilter) -> Self {
        self.filters.push(filter);
        self
    }
}

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

/// The result of an [`AggregateQuery`].
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

    /// Exports the result as a relational table (time, keys, one value
    /// and one confidence-code column per measure) for rendering or
    /// further relational work.
    ///
    /// # Errors
    ///
    /// Propagates storage-schema errors (duplicate headers).
    pub fn to_storage_table(&self, name: &str) -> Result<mvolap_storage::Table> {
        use mvolap_storage::{ColumnDef, DataType, Table, TableSchema, Value};
        let mut defs = vec![ColumnDef::required(self.time_header.clone(), DataType::Str)];
        for k in &self.key_headers {
            defs.push(ColumnDef::required(k.clone(), DataType::Str));
        }
        for m in &self.measure_headers {
            defs.push(ColumnDef::nullable(m.clone(), DataType::Float));
            defs.push(ColumnDef::required(format!("{m}_cf"), DataType::Str));
        }
        let schema = TableSchema::new(defs).map_err(CoreError::from)?;
        let mut table = Table::with_capacity(name, schema, self.rows.len());
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

    /// Plain-text rendering in the paper's tabular style.
    pub fn render(&self, name: &str) -> Result<String> {
        Ok(mvolap_storage::render::render_table(
            &self.to_storage_table(name)?,
        ))
    }

    /// Pivot-grid rendering: time down the side, the first group key's
    /// members across the top, one measure per call — the layout of the
    /// prototype's result grids. Cells carry their confidence code;
    /// blank cells are impossible cross-points.
    pub fn render_grid(&self, measure: usize) -> String {
        render_rows_grid(&self.rows, measure)
    }
}

/// [`ResultSet::render_grid`] over `rows`: time × first-key-member grid
/// of one measure.
fn render_rows_grid(rows: &[ResultRow], measure: usize) -> String {
    // Column headers: distinct first-key members in first-seen order.
    let mut columns: Vec<String> = Vec::new();
    for r in rows {
        if let Some(k) = r.keys.first() {
            if !columns.contains(k) {
                columns.push(k.clone());
            }
        }
    }
    let mut times: Vec<String> = Vec::new();
    for r in rows {
        if !times.contains(&r.time) {
            times.push(r.time.clone());
        }
    }
    let mut grid: Vec<Vec<String>> = vec![vec![String::new(); columns.len()]; times.len()];
    for r in rows {
        let Some(k) = r.keys.first() else { continue };
        let ti = times.iter().position(|t| t == &r.time).expect("collected");
        let ci = columns.iter().position(|c| c == k).expect("collected");
        if let Some(cell) = r.cells.get(measure) {
            grid[ti][ci] = match cell.value {
                Some(v) => format!("{v} ({})", cell.confidence.code()),
                None => format!("? ({})", cell.confidence.code()),
            };
        }
    }
    let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
    for row in &grid {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let t_width = times.iter().map(String::len).max().unwrap_or(4).max(4);
    let mut out = String::new();
    out.push_str(&format!("{:<t_width$}", ""));
    for (c, w) in columns.iter().zip(&widths) {
        out.push_str(&format!("  {c:<w$}"));
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out.push('\n');
    for (t, row) in times.iter().zip(&grid) {
        out.push_str(&format!("{t:<t_width$}"));
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!("  {c:<w$}"));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

/// Per-worker partial state of an aggregation fold: the groups keyed by
/// time key and member names, plus the earliest row error (the fold
/// itself cannot early-return across workers).
type Partial = (Groups<(String, Vec<String>)>, Option<CoreError>);

/// Evaluates an aggregation query (Definition 12) against a schema.
///
/// `structure_versions` must be [`Tmd::structure_versions`] of the same
/// schema (passed in so repeated queries amortise the inference).
///
/// Aggregation is two-stage: the multiversion presentation first folds
/// raw facts into one cell per `(coordinates, time)` with each
/// measure's `⊕m`, then this function folds cells into groups with the
/// *combining* form ([`crate::Aggregator::combining`]) — so partial counts add
/// instead of being re-counted. For `Avg` measures the group value is
/// the average of the per-cell aggregates (cells are the values of the
/// Definition 11 function `f'`), not a fact-weighted average.
///
/// # Errors
///
/// Unknown dimensions, measures, levels or structure versions.
pub fn evaluate(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    query: &AggregateQuery,
) -> Result<ResultSet> {
    evaluate_par(
        tmd,
        structure_versions,
        query,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
}

/// Morsel-parallel [`evaluate`]: presented rows are folded in
/// fixed-size morsels and per-worker partial groupings merged in morsel
/// order — bit-identical to the sequential evaluation for every
/// `ctx.threads`.
///
/// `memo` caches the presented fact table of `tcm` and each `Version`
/// mode (extending it when facts were appended since), mapping routes
/// and roll-up ancestor sets per `(dimension, leaf, level, instant)`;
/// share one [`QueryMemo`] across queries to amortise all three,
/// evolution operators invalidate it via [`Tmd::stamp`].
///
/// # Errors
///
/// Unknown dimensions, measures, levels or structure versions.
pub fn evaluate_par(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    query: &AggregateQuery,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<ResultSet> {
    // Resolve measures: empty means all.
    let measure_ids: Vec<MeasureId> = if query.measures.is_empty() {
        (0..tmd.measures().len())
            .map(|i| MeasureId(i as u16))
            .collect()
    } else {
        for &m in &query.measures {
            if m.index() >= tmd.measures().len() {
                return Err(CoreError::UnknownMeasure(m));
            }
        }
        query.measures.clone()
    };
    for &(dim, _) in &query.group_by {
        tmd.dimension(dim)?;
    }

    let presented = present_cached(tmd, structure_versions, &query.mode, ctx, memo)?;

    // The instant at which each grouped dimension's hierarchy is read:
    // fixed at the structure version's start for version modes, the
    // fact's own time for consistent presentation.
    let hierarchy_instant = |dim: DimensionId, fact_time: Instant| -> Result<Instant> {
        match query.mode.version_for(dim) {
            None => Ok(fact_time),
            Some(svid) => {
                let sv = structure_versions
                    .get(svid.index())
                    .ok_or(CoreError::UnknownStructureVersion(svid.index()))?;
                Ok(sv.interval.start())
            }
        }
    };

    // Per-row grouping, shared by every worker. Errors return through
    // the fold state (the engine's fold is infallible).
    let process = |groups: &mut Groups<_>, row: &crate::multiversion::MvRow| -> Result<()> {
        if let Some(range) = query.time_range {
            if !range.contains(row.time) {
                return Ok(());
            }
        }
        // Member filters: the row survives when, in every filtered
        // dimension, at least one of its ancestors at the filter level
        // carries an accepted name.
        for filter in &query.filters {
            let dimension = tmd.dimension(filter.dimension)?;
            let at = hierarchy_instant(filter.dimension, row.time)?;
            let leaf = row.coords[filter.dimension.index()];
            let ancestors = memo.try_ancestors(
                tmd,
                (filter.dimension, leaf, filter.level.clone(), at),
                || ancestors_at_level(dimension, leaf, &filter.level, at),
            )?;
            let accepted = ancestors.iter().any(|&a| {
                dimension
                    .version(a)
                    .map(|v| filter.members.contains(&v.name))
                    .unwrap_or(false)
            });
            if !accepted {
                return Ok(());
            }
        }
        let time_key = match query.time_level {
            TimeLevel::Year => row.time.year().to_string(),
            TimeLevel::Quarter => {
                let ym = row.time.to_ym();
                format!("{}-Q{}", ym.year, (ym.month - 1) / 3 + 1)
            }
            TimeLevel::Month => {
                let ym = row.time.to_ym();
                format!("{}-{:02}", ym.year, ym.month)
            }
            TimeLevel::Instant => row.time.display(tmd.granularity()),
            TimeLevel::All => "all".to_owned(),
        };
        // Roll the row's coordinates up to the requested levels; a
        // dimension may fan out (multiple hierarchies) — the row then
        // contributes to every combination.
        let mut key_options: Vec<Vec<String>> = Vec::with_capacity(query.group_by.len());
        for &(dim, ref level) in &query.group_by {
            let dimension = tmd.dimension(dim)?;
            let at = hierarchy_instant(dim, row.time)?;
            let leaf = row.coords[dim.index()];
            let ancestors = memo.try_ancestors(tmd, (dim, leaf, level.clone(), at), || {
                ancestors_at_level(dimension, leaf, level, at)
            })?;
            if ancestors.is_empty() {
                key_options.push(vec!["(unclassified)".to_owned()]);
            } else {
                key_options.push(
                    ancestors
                        .iter()
                        .map(|&a| dimension.version(a).map(|v| v.name.clone()))
                        .collect::<Result<Vec<_>>>()?,
                );
            }
        }

        // Cartesian product over fan-outs (usually a single combination).
        let mut combo = vec![0usize; key_options.len()];
        loop {
            let group_keys: Vec<String> = key_options
                .iter()
                .zip(&combo)
                .map(|(opts, &i)| opts[i].clone())
                .collect();
            let cells = groups.cells((time_key.clone(), group_keys), || {
                // Second-stage fold over MVFT cells: partial counts add
                // (`combining`), sums add, min/max nest.
                measure_ids
                    .iter()
                    .map(|&m| Cell::new(tmd.measures()[m.index()].aggregator.combining()))
                    .collect()
            });
            for (cell, &m) in cells.iter_mut().zip(&measure_ids) {
                let MvCell { value, confidence } = row.cells[m.index()];
                cell.add(value, confidence);
            }
            if !next_combination(&mut combo, |d| key_options[d].len()) {
                break;
            }
        }
        Ok(())
    };

    let (groups, error): Partial = ctx.parallel_fold(
        &presented.rows,
        Partial::default,
        |(groups, error), _row_index, row| {
            // After an error, stop doing work in this partial — results
            // are discarded once the error surfaces.
            if error.is_none() {
                *error = process(groups, row).err();
            }
        },
        // The earliest error in morsel order wins: the one the
        // sequential row loop would have surfaced first.
        |(groups, error), (more, later)| {
            groups.merge(more);
            if error.is_none() {
                *error = later;
            }
        },
    );
    if let Some(e) = error {
        return Err(e);
    }

    // Order: by time key (numeric-aware), preserving first-contribution
    // order within a time group (the sort is stable) — the paper's
    // table layout.
    let mut rows: Vec<ResultRow> = groups
        .finish()
        .map(|((time, keys), cells)| ResultRow { time, keys, cells })
        .collect();
    rows.sort_by(
        |a, b| match (a.time.parse::<i64>(), b.time.parse::<i64>()) {
            (Ok(x), Ok(y)) => x.cmp(&y),
            _ => a.time.cmp(&b.time),
        },
    );

    Ok(ResultSet {
        mode: query.mode.clone(),
        time_header: match query.time_level {
            TimeLevel::Year => "Year".to_owned(),
            TimeLevel::Quarter => "Quarter".to_owned(),
            TimeLevel::Month => "Month".to_owned(),
            TimeLevel::Instant => "Time".to_owned(),
            TimeLevel::All => "Period".to_owned(),
        },
        key_headers: query.group_by.iter().map(|(_, l)| l.clone()).collect(),
        measure_headers: measure_ids
            .iter()
            .map(|&m| tmd.measures()[m.index()].name.clone())
            .collect(),
        rows,
        unmapped_rows: presented.unmapped_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::case_study;
    use crate::confidence::Confidence;
    use crate::ids::StructureVersionId;

    fn q1(mode: TemporalMode) -> AggregateQuery {
        let cs = case_study();
        AggregateQuery::by_year(cs.org, "Division", mode).in_range(Interval::years(2001, 2002))
    }

    fn rows_of(rs: &ResultSet) -> Vec<(String, String, Option<f64>, Confidence)> {
        rs.rows
            .iter()
            .map(|r| {
                (
                    r.time.clone(),
                    r.keys[0].clone(),
                    r.cells[0].value,
                    r.cells[0].confidence,
                )
            })
            .collect()
    }

    #[test]
    fn q1_consistent_time_reproduces_table_4() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(&cs.tmd, &svs, &q1(TemporalMode::Consistent)).unwrap();
        let rows = rows_of(&rs);
        assert_eq!(
            rows,
            vec![
                (
                    "2001".into(),
                    "Sales".into(),
                    Some(150.0),
                    Confidence::Source
                ),
                ("2001".into(), "R&D".into(), Some(100.0), Confidence::Source),
                (
                    "2002".into(),
                    "Sales".into(),
                    Some(100.0),
                    Confidence::Source
                ),
                ("2002".into(), "R&D".into(), Some(150.0), Confidence::Source),
            ]
        );
    }

    #[test]
    fn q1_on_2001_structure_reproduces_table_5() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(
            &cs.tmd,
            &svs,
            &q1(TemporalMode::Version(StructureVersionId(0))),
        )
        .unwrap();
        let rows = rows_of(&rs);
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0],
            (
                "2001".into(),
                "Sales".into(),
                Some(150.0),
                Confidence::Source
            )
        );
        assert_eq!(
            rows[1],
            ("2001".into(), "R&D".into(), Some(100.0), Confidence::Source)
        );
        // 2002: Smith's data returns under Sales in the 2001 structure.
        assert_eq!(rows[2].0, "2002");
        assert_eq!(rows[2].1, "Sales");
        assert_eq!(rows[2].2, Some(200.0));
        assert_eq!(rows[3].1, "R&D");
        assert_eq!(rows[3].2, Some(50.0));
    }

    #[test]
    fn q1_on_2002_structure_reproduces_table_6() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(
            &cs.tmd,
            &svs,
            &q1(TemporalMode::Version(StructureVersionId(1))),
        )
        .unwrap();
        let rows = rows_of(&rs);
        assert_eq!(rows.len(), 4);
        // 2001: Smith's 50 moves under R&D in the 2002 structure.
        assert_eq!(rows[0].1, "Sales");
        assert_eq!(rows[0].2, Some(100.0));
        assert_eq!(rows[1].1, "R&D");
        assert_eq!(rows[1].2, Some(150.0));
        assert_eq!(
            rows[2],
            (
                "2002".into(),
                "Sales".into(),
                Some(100.0),
                Confidence::Source
            )
        );
        assert_eq!(
            rows[3],
            ("2002".into(), "R&D".into(), Some(150.0), Confidence::Source)
        );
    }

    fn q2(mode: TemporalMode) -> AggregateQuery {
        let cs = case_study();
        AggregateQuery::by_year(cs.org, "Department", mode).in_range(Interval::years(2002, 2003))
    }

    #[test]
    fn q2_consistent_time_reproduces_table_8() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(&cs.tmd, &svs, &q2(TemporalMode::Consistent)).unwrap();
        let rows = rows_of(&rs);
        assert_eq!(
            rows,
            vec![
                (
                    "2002".into(),
                    "Dpt.Jones".into(),
                    Some(100.0),
                    Confidence::Source
                ),
                (
                    "2002".into(),
                    "Dpt.Smith".into(),
                    Some(100.0),
                    Confidence::Source
                ),
                (
                    "2002".into(),
                    "Dpt.Brian".into(),
                    Some(50.0),
                    Confidence::Source
                ),
                (
                    "2003".into(),
                    "Dpt.Bill".into(),
                    Some(150.0),
                    Confidence::Source
                ),
                (
                    "2003".into(),
                    "Dpt.Paul".into(),
                    Some(50.0),
                    Confidence::Source
                ),
                (
                    "2003".into(),
                    "Dpt.Smith".into(),
                    Some(110.0),
                    Confidence::Source
                ),
                (
                    "2003".into(),
                    "Dpt.Brian".into(),
                    Some(40.0),
                    Confidence::Source
                ),
            ]
        );
    }

    #[test]
    fn q2_on_2002_structure_reproduces_table_9() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(
            &cs.tmd,
            &svs,
            &q2(TemporalMode::Version(StructureVersionId(1))),
        )
        .unwrap();
        let rows = rows_of(&rs);
        // 2003's Bill(150) + Paul(50) present as Jones 200, exact.
        let jones_2003 = rows
            .iter()
            .find(|r| r.0 == "2003" && r.1 == "Dpt.Jones")
            .unwrap();
        assert_eq!(jones_2003.2, Some(200.0));
        assert_eq!(jones_2003.3, Confidence::Exact);
        let smith_2003 = rows
            .iter()
            .find(|r| r.0 == "2003" && r.1 == "Dpt.Smith")
            .unwrap();
        assert_eq!(smith_2003.2, Some(110.0));
        assert_eq!(smith_2003.3, Confidence::Source);
        assert_eq!(rows.len(), 6); // 3 rows in 2002, 3 in 2003
    }

    #[test]
    fn q2_on_2003_structure_reproduces_table_10() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(
            &cs.tmd,
            &svs,
            &q2(TemporalMode::Version(StructureVersionId(2))),
        )
        .unwrap();
        let rows = rows_of(&rs);
        let get = |year: &str, dept: &str| {
            rows.iter()
                .find(|r| r.0 == year && r.1 == dept)
                .unwrap_or_else(|| panic!("{year}/{dept} missing"))
                .clone()
        };
        // Paper Table 10, 2002: Bill 40 (am), Paul 60 (am), Smith 100,
        // Brian 50.
        assert_eq!(get("2002", "Dpt.Bill").2, Some(40.0));
        assert_eq!(get("2002", "Dpt.Bill").3, Confidence::Approx);
        assert_eq!(get("2002", "Dpt.Paul").2, Some(60.0));
        assert_eq!(get("2002", "Dpt.Smith").2, Some(100.0));
        assert_eq!(get("2002", "Dpt.Brian").2, Some(50.0));
        // 2003 is source data.
        assert_eq!(get("2003", "Dpt.Bill").2, Some(150.0));
        assert_eq!(get("2003", "Dpt.Bill").3, Confidence::Source);
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn quality_factor_reflects_mapping_share() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let w = ConfidenceWeights::DEFAULT;
        let tcm = evaluate(&cs.tmd, &svs, &q2(TemporalMode::Consistent)).unwrap();
        assert!((tcm.quality(&w) - 1.0).abs() < 1e-12, "all source = 1.0");
        let v3 = evaluate(
            &cs.tmd,
            &svs,
            &q2(TemporalMode::Version(StructureVersionId(2))),
        )
        .unwrap();
        let q3 = v3.quality(&w);
        // 6 source cells (10) + 2 approx cells (5) over 8 cells.
        assert!((q3 - (6.0 * 10.0 + 2.0 * 5.0) / (8.0 * 10.0)).abs() < 1e-12);
        assert!(q3 < 1.0);
    }

    #[test]
    fn storage_export_and_render() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(&cs.tmd, &svs, &q1(TemporalMode::Consistent)).unwrap();
        let table = rs.to_storage_table("q1").unwrap();
        assert_eq!(table.len(), 4);
        assert_eq!(
            table.schema().names(),
            vec!["Year", "Division", "Amount", "Amount_cf"]
        );
        let text = rs.render("q1").unwrap();
        assert!(text.contains("Sales"));
        assert!(text.contains("150"));
        assert!(text.contains("sd"));
    }

    #[test]
    fn render_grid_pivots_first_key() {
        // Table 10 as a grid: departments across, years down.
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let rs = evaluate(
            &cs.tmd,
            &svs,
            &q2(TemporalMode::Version(StructureVersionId(2))),
        )
        .unwrap();
        let grid = rs.render_grid(0);
        let lines: Vec<&str> = grid.lines().collect();
        assert!(lines[0].contains("Dpt.Bill") && lines[0].contains("Dpt.Brian"));
        let row_2002 = lines.iter().find(|l| l.starts_with("2002")).unwrap();
        assert!(row_2002.contains("40 (am)"));
        assert!(row_2002.contains("60 (am)"));
        assert!(row_2002.contains("100 (sd)"));
    }

    #[test]
    fn time_level_all_and_instant() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let mut q = q1(TemporalMode::Consistent);
        q.time_level = TimeLevel::All;
        q.time_range = None;
        let rs = evaluate(&cs.tmd, &svs, &q).unwrap();
        // Two divisions over all time.
        assert_eq!(rs.rows.len(), 2);
        let sales = rs.rows.iter().find(|r| r.keys[0] == "Sales").unwrap();
        // 100+50 (2001) + 100 (2002) + 150+50 (2003) = 450.
        assert_eq!(sales.cells[0].value, Some(450.0));

        q.time_level = TimeLevel::Instant;
        let rs = evaluate(&cs.tmd, &svs, &q).unwrap();
        assert!(rs.rows.iter().any(|r| r.time == "06/2001"));
    }

    #[test]
    fn unknown_level_is_an_error() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        let q = AggregateQuery::by_year(cs.org, "Galaxy", TemporalMode::Consistent);
        assert!(matches!(
            evaluate(&cs.tmd, &svs, &q),
            Err(CoreError::UnknownLevel { .. })
        ));
    }
}
