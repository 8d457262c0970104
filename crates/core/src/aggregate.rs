//! Data aggregation over the multiversion fact table (paper
//! Definition 12).
//!
//! An [`AggregateQuery`] groups the presented facts by a level per
//! dimension (roll-up through the temporal relationships) and a time
//! level, folding measures through `⊕m` and confidences through `⊗cf`.
//! The motivating queries Q1 ("total amount by year and division") and
//! Q2 ("total amounts per department") are both instances; their
//! answers are [`ResultSet`]s.

use std::sync::Arc;

use mvolap_exec::{CacheStats, ExecContext};
use mvolap_temporal::{Granularity, Instant, Interval};

use crate::error::{CoreError, Result};
use crate::fold::{next_combination, Cell, Groups};
use crate::ids::{DimensionId, MeasureId, MemberVersionId};
use crate::memo::{QueryMemo, Rollup};
use crate::multiversion::{present_cached, MvCell, MvRow};
pub use crate::result::{ResultRow, ResultSet};
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

impl TimeLevel {
    /// The group of instant `t` on this level: one integer per label.
    fn bucket(self, t: Instant) -> i64 {
        let ym = t.to_ym();
        match self {
            TimeLevel::Year => i64::from(ym.year),
            TimeLevel::Quarter => i64::from(ym.year) * 4 + i64::from((ym.month - 1) / 3),
            TimeLevel::Month => i64::from(ym.year) * 12 + i64::from(ym.month - 1),
            TimeLevel::Instant => t.tick(),
            TimeLevel::All => 0,
        }
    }

    /// The rendered time key of `bucket` (`"2001"`, `"2001-Q2"`,
    /// `"2001-06"`, an instant, or `"all"`).
    fn label(self, bucket: i64, granularity: Granularity) -> String {
        match self {
            TimeLevel::Year => bucket.to_string(),
            TimeLevel::Quarter => format!("{}-Q{}", bucket.div_euclid(4), bucket.rem_euclid(4) + 1),
            TimeLevel::Month => {
                format!("{}-{:02}", bucket.div_euclid(12), bucket.rem_euclid(12) + 1)
            }
            TimeLevel::Instant => Instant::at(bucket).display(granularity),
            TimeLevel::All => "all".to_owned(),
        }
    }
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

/// One grouped or filtered dimension of a query: its roll-up table and,
/// for a dimension presented in a structure version, the instant its
/// hierarchy is read at (the version's start; otherwise each fact's
/// own time).
type Axis = (Arc<Rollup>, Option<Instant>);

/// Per-worker state of the second stage: the groups keyed by time
/// bucket then group ids, the earliest row error (the fold itself
/// cannot early-return across workers), the roll-up lookups, and the
/// buffers every row reuses so that no row allocates.
#[derive(Default)]
struct Partial {
    groups: Groups,
    error: Option<CoreError>,
    lookups: CacheStats,
    /// The row's group ids on the filter being checked.
    filtered: Vec<MemberVersionId>,
    /// Per grouped dimension: the row's group ids.
    options: Vec<Vec<MemberVersionId>>,
    combo: Vec<usize>,
    key: Vec<i64>,
}

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
/// Presented rows are folded in fixed-size morsels and per-worker
/// partial groupings merged in morsel order — bit-identical for every
/// `ctx.threads` (a sequential evaluation is
/// `ExecContext::sequential()`).
///
/// `memo` caches the presented fact table of `tcm` and each `Version`
/// mode (extending it when facts were appended since), mapping routes
/// and one roll-up table per `(dimension, level)`; share one
/// [`QueryMemo`] across queries to amortise all three, evolution
/// operators invalidate it via [`Tmd::stamp`]. Rows group by a time
/// bucket and group ids; labels and member names are resolved once
/// per group.
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

    // Each grouped or filtered dimension's roll-up. Errors surface at
    // the first row that needs the dimension, as a per-row lookup would.
    let axis = |dim: DimensionId, level: &str| -> Result<Axis> {
        tmd.dimension(dim)?;
        let fixed = match query.mode.version_for(dim) {
            None => None,
            Some(svid) => Some(
                (structure_versions.get(svid.index()))
                    .ok_or(CoreError::UnknownStructureVersion(svid.index()))?
                    .interval
                    .start(),
            ),
        };
        Ok((memo.rollup(tmd, dim, level)?, fixed))
    };
    // A filter accepts the groups of its member names.
    let filters: Vec<(Result<Axis>, Vec<MemberVersionId>)> = (query.filters.iter())
        .map(|f| {
            let versions = tmd.dimension(f.dimension).map_or(&[][..], |d| d.versions());
            let named = |n: &String| versions.iter().find(|v| &v.name == n).map(|v| v.id);
            (
                axis(f.dimension, &f.level),
                f.members.iter().filter_map(named).collect(),
            )
        })
        .collect();
    let axes: Vec<Result<Axis>> = query.group_by.iter().map(|(d, l)| axis(*d, l)).collect();
    // Replaces `out` with a row's group ids on one axis (none when it
    // has no ancestor at the level).
    let groups_of = |axis: &Result<Axis>, row: &MvRow, out: &mut Vec<_>, lookups: &mut _| {
        let (rollup, fixed) = axis.as_ref().map_err(Clone::clone)?;
        let leaf = row.coords[rollup.dimension().index()];
        out.clear();
        rollup.extend(tmd, leaf, fixed.unwrap_or(row.time), out, lookups)
    };

    // Second-stage fold over MVFT cells: partial counts add
    // (`combining`), sums add, min/max nest.
    let init: Vec<Cell> = (measure_ids.iter())
        .map(|&m| Cell::new(tmd.measures()[m.index()].aggregator.combining()))
        .collect();
    // Per-row grouping, shared by every worker. Errors return through
    // the fold state (the engine's fold is infallible).
    let process = |p: &mut Partial, row: &MvRow| -> Result<()> {
        if let Some(range) = query.time_range {
            if !range.contains(row.time) {
                return Ok(());
            }
        }
        // Member filters: the row survives when, in every filtered
        // dimension, at least one of its ancestors at the filter level
        // carries an accepted name.
        for (axis, accepted) in &filters {
            groups_of(axis, row, &mut p.filtered, &mut p.lookups)?;
            if !p.filtered.iter().any(|g| accepted.contains(g)) {
                return Ok(());
            }
        }
        p.options.resize_with(axes.len(), Vec::new);
        // Roll the row's coordinates up to the requested levels; a
        // dimension may fan out (multiple hierarchies) — the row then
        // contributes to every combination.
        for (axis, out) in axes.iter().zip(&mut p.options) {
            groups_of(axis, row, out, &mut p.lookups)?;
            if let (true, Ok((rollup, _))) = (out.is_empty(), axis) {
                out.push(rollup.unclassified());
            }
        }
        let (options, bucket) = (&p.options, query.time_level.bucket(row.time));
        p.combo.clear();
        p.combo.resize(axes.len(), 0);
        loop {
            p.key.clear();
            p.key.push(bucket);
            let ids = options
                .iter()
                .zip(&p.combo)
                .map(|(o, &i)| i64::from(o[i].0));
            p.key.extend(ids);
            let cells = p.groups.cells(&p.key, &init);
            for (cell, &m) in cells.iter_mut().zip(&measure_ids) {
                let MvCell { value, confidence } = row.cells[m.index()];
                cell.add(value, confidence);
            }
            if !next_combination(&mut p.combo, |d| options[d].len()) {
                break;
            }
        }
        Ok(())
    };

    let Partial {
        groups,
        error,
        lookups,
        ..
    } = ctx.parallel_fold(
        &presented.rows,
        Partial::default,
        |p, _row_index, row| {
            // After an error, stop doing work in this partial — results
            // are discarded once the error surfaces.
            if p.error.is_none() {
                p.error = process(p, row).err();
            }
        },
        // The earliest error in morsel order wins: the one the
        // sequential row loop would have surfaced first.
        |p, later| {
            p.groups.merge(later.groups);
            p.lookups += later.lookups;
            if p.error.is_none() {
                p.error = later.error;
            }
        },
    );
    memo.count_rollups(lookups.hits, lookups.misses);
    if let Some(e) = error {
        return Err(e);
    }

    // Labels, once per time bucket. Order: by time key (labels that
    // parse as integers numerically, others as strings), preserving
    // first-contribution order within a time group (the sort is
    // stable) — the paper's table layout. The sort moves group
    // numbers; each row is built once, in place.
    let (mut times, mut time_index) = (Vec::<(String, Option<i64>)>::new(), Groups::default());
    let mut order: Vec<(usize, usize)> = (groups.iter().enumerate())
        .map(|(g, (key, _))| {
            let (t, new) = time_index.insert(&key[..1], &[]);
            if new {
                let label = query.time_level.label(key[0], tmd.granularity());
                let number = label.parse::<i64>().ok();
                times.push((label, number));
            }
            (t, g)
        })
        .collect();
    order.sort_by(|(a, _), (b, _)| match (&times[*a], &times[*b]) {
        ((_, Some(x)), (_, Some(y))) => x.cmp(y),
        ((x, _), (y, _)) => x.cmp(y),
    });
    let rows = (order.into_iter())
        .map(|(t, g)| {
            let (key, cells) = groups.group(g);
            ResultRow {
                time: times[t].0.clone(),
                keys: (axes.iter().flatten().zip(&key[1..]))
                    .map(|((rollup, _), &g)| rollup.group_name(tmd, MemberVersionId(g as u32)))
                    .collect(),
                cells: cells.iter().map(Cell::finish).collect(),
            }
        })
        .collect();

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
    use crate::confidence::{Confidence, ConfidenceWeights};
    use crate::ids::StructureVersionId;

    /// A sequential evaluation through a fresh memo.
    fn evaluate(tmd: &Tmd, svs: &[StructureVersion], query: &AggregateQuery) -> Result<ResultSet> {
        evaluate_par(
            tmd,
            svs,
            query,
            &ExecContext::sequential(),
            &QueryMemo::new(),
        )
    }

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

    /// The case study with Brian transformed at 01/2004 into a new
    /// version that keeps the name `Dpt.Brian`, plus one fact of 7 on
    /// that version at 06/2004.
    fn brian_keeps_his_name() -> (Tmd, DimensionId) {
        let mut cs = case_study();
        let outcome = crate::evolution::transform(
            &mut cs.tmd,
            cs.org,
            cs.brian,
            "Dpt.Brian",
            Default::default(),
            Instant::ym(2004, 1),
        )
        .unwrap();
        let renamed = outcome.created[0];
        assert_ne!(renamed, cs.brian);
        cs.tmd
            .add_fact(&[renamed], Instant::ym(2004, 6), &[7.0])
            .unwrap();
        (cs.tmd, cs.org)
    }

    #[test]
    fn same_named_versions_form_one_group() {
        let (tmd, org) = brian_keeps_his_name();
        let svs = tmd.structure_versions();
        let mut q = AggregateQuery::by_year(org, "Department", TemporalMode::Consistent);
        q.time_level = TimeLevel::All;
        let rs = evaluate(&tmd, &svs, &q).unwrap();
        let brian: Vec<_> = rs
            .rows
            .iter()
            .filter(|r| r.keys[0] == "Dpt.Brian")
            .collect();
        assert_eq!(brian.len(), 1, "one group per name: {:?}", rs.rows);
        assert_eq!(brian[0].cells[0].value, Some(197.0));
    }

    #[test]
    fn a_filter_on_a_kept_name_keeps_both_versions_facts() {
        let (tmd, org) = brian_keeps_his_name();
        let svs = tmd.structure_versions();
        let mut q = AggregateQuery::by_year(org, "Division", TemporalMode::Consistent).filtered(
            MemberFilter {
                dimension: org,
                level: "Department".into(),
                members: vec!["Dpt.Brian".into()],
            },
        );
        q.time_level = TimeLevel::All;
        let rs = evaluate(&tmd, &svs, &q).unwrap();
        let rows: Vec<_> = rs
            .rows
            .iter()
            .map(|r| (r.keys[0].as_str(), r.cells[0].value))
            .collect();
        assert_eq!(rows, [("R&D", Some(197.0))]);
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
