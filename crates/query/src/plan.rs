//! Planning and execution: AST → core [`AggregateQuery`] → result.

use mvolap_core::aggregate::{evaluate_par, AggregateQuery, ResultSet, TimeLevel};
use mvolap_core::structure_version::{structure_version_at, StructureVersion};
use mvolap_core::tmp::{all_modes, TemporalMode};
use mvolap_core::{Aggregator, ConfidenceWeights, ExecContext, QueryMemo, StructureVersionId, Tmd};
use mvolap_temporal::{Instant, Interval};

use crate::ast::{GroupKey, ModeSpec, Query};
use crate::error::{QueryError, Result};
use crate::parser::parse;

/// Resolves a parsed query against a schema into an executable
/// [`AggregateQuery`].
///
/// # Errors
///
/// [`QueryError::Unresolved`] for unknown names,
/// [`QueryError::AggregatorMismatch`] when the requested aggregate
/// disagrees with the measure's configured `⊕m`,
/// [`QueryError::MultipleTimeKeys`] for two time keys.
pub fn plan(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    query: &Query,
) -> Result<AggregateQuery> {
    // SELECT items: resolve measures and validate aggregators.
    let mut measures = Vec::with_capacity(query.selects.len());
    for s in &query.selects {
        let id = tmd
            .measure_by_name(&s.measure)
            .map_err(|_| QueryError::Unresolved(format!("measure `{}`", s.measure)))?;
        let configured = tmd.measures()[id.index()].aggregator;
        let requested = Aggregator::parse(&s.aggregate)
            .ok_or_else(|| QueryError::Unresolved(format!("aggregate `{}`", s.aggregate)))?;
        if requested != configured {
            return Err(QueryError::AggregatorMismatch {
                measure: s.measure.clone(),
                requested: requested.name().to_owned(),
                configured: configured.name().to_owned(),
            });
        }
        measures.push(id);
    }

    // BY items: at most one time key; dimension.level pairs resolve
    // against the schema (level existence is validated at execution,
    // when the evaluation instant is known).
    let mut time_level: Option<TimeLevel> = None;
    let mut group_by = Vec::new();
    for g in &query.groups {
        match g {
            GroupKey::Year => {
                if time_level.replace(TimeLevel::Year).is_some() {
                    return Err(QueryError::MultipleTimeKeys);
                }
            }
            GroupKey::Quarter => {
                if time_level.replace(TimeLevel::Quarter).is_some() {
                    return Err(QueryError::MultipleTimeKeys);
                }
            }
            GroupKey::Month => {
                if time_level.replace(TimeLevel::Month).is_some() {
                    return Err(QueryError::MultipleTimeKeys);
                }
            }
            GroupKey::Instant => {
                if time_level.replace(TimeLevel::Instant).is_some() {
                    return Err(QueryError::MultipleTimeKeys);
                }
            }
            GroupKey::DimLevel { dimension, level } => {
                let dim = tmd
                    .dimension_by_name(dimension)
                    .map_err(|_| QueryError::Unresolved(format!("dimension `{dimension}`")))?;
                group_by.push((dim, level.clone()));
            }
        }
    }

    let mode = match &query.mode {
        ModeSpec::AllModes { .. } => {
            return Err(QueryError::Unresolved(
                "ALL MODES compares one presentation per temporal mode and has no single plan"
                    .into(),
            ))
        }
        ModeSpec::Tcm => TemporalMode::Consistent,
        ModeSpec::Version(n) => {
            let id = StructureVersionId(*n);
            if structure_versions.get(id.index()).map(|v| v.id) != Some(id) {
                return Err(QueryError::Unresolved(format!(
                    "structure version {n} (schema has {})",
                    structure_versions.len()
                )));
            }
            TemporalMode::Version(id)
        }
        ModeSpec::At { month, year } => {
            let t = Instant::from_ym(*year, *month)
                .map_err(|e| QueryError::Unresolved(format!("instant: {e}")))?;
            let sv = structure_version_at(structure_versions, t)
                .map_err(|_| QueryError::Unresolved(format!("structure version at {t}")))?;
            TemporalMode::Version(sv.id)
        }
    };

    let time_range = match query.range {
        Some((a, b)) if a <= b => Some(Interval::years(a, b)),
        Some((a, b)) => {
            return Err(QueryError::Unresolved(format!(
                "year range {a}..{b} is reversed"
            )))
        }
        None => None,
    };

    let mut filters = Vec::with_capacity(query.filters.len());
    for f in &query.filters {
        let dim = tmd
            .dimension_by_name(&f.dimension)
            .map_err(|_| QueryError::Unresolved(format!("dimension `{}`", f.dimension)))?;
        filters.push(mvolap_core::aggregate::MemberFilter {
            dimension: dim,
            level: f.level.clone(),
            members: f.members.clone(),
        });
    }

    Ok(AggregateQuery {
        group_by,
        time_level: time_level.unwrap_or(TimeLevel::All),
        measures,
        mode,
        time_range,
        filters,
    })
}

/// Parses, plans and executes a query string against a schema, reusing
/// pre-inferred structure versions. Execution routes through
/// [`evaluate_par`] with the caller's [`ExecContext`] and shared
/// [`QueryMemo`]; results are bit-identical for any thread count.
///
/// # Errors
///
/// Any lexing, parsing, planning or execution failure.
pub fn run_with_versions_par(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    input: &str,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<ResultSet> {
    let ast = parse(input)?;
    let q = plan(tmd, structure_versions, &ast)?;
    Ok(evaluate_par(tmd, structure_versions, &q, ctx, memo)?)
}

/// Parses, plans and executes a query string against a schema.
///
/// # Errors
///
/// Any lexing, parsing, planning or execution failure.
pub fn run(tmd: &Tmd, input: &str) -> Result<ResultSet> {
    let svs = tmd.structure_versions();
    run_with_versions_par(
        tmd,
        &svs,
        input,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
}

/// One entry of an `IN ALL MODES` comparison: the mode's result plus its
/// §5.2 quality factor under the requested (or default) weights.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// The presented result.
    pub result: ResultSet,
    /// The global quality factor `Q` of this presentation.
    pub quality: f64,
}

/// True when `input` parses as an `IN ALL MODES` query, i.e. the
/// comparison path ([`run_compare_par`]) applies
/// rather than the single-mode runners. Unparseable input is `false` —
/// the single-mode runner will surface the parse error.
#[must_use]
pub fn is_all_modes(input: &str) -> bool {
    matches!(parse(input), Ok(ast) if matches!(ast.mode, ModeSpec::AllModes { .. }))
}

/// Executes an `IN ALL MODES` query: the body is evaluated once per
/// temporal mode (tcm first, then each structure version), each scored
/// with the quality factor so the user "can choose his best version
/// among all temporal modes of presentation" (§5.2). Results come back
/// ordered best-quality first (ties keep TMP order).
///
/// Plain `IN MODE …` queries are also accepted and yield a single entry.
/// Every mode's evaluation shares `memo`, so mapping routes resolved
/// for one presentation are reused by the others; results are
/// bit-identical for any thread count.
///
/// # Errors
///
/// Any lexing, parsing, planning or execution failure.
pub fn run_compare_par(
    tmd: &Tmd,
    input: &str,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<Vec<ModeResult>> {
    let svs = tmd.structure_versions();
    let ast = parse(input)?;
    let mut out = match &ast.mode {
        ModeSpec::AllModes { weights } => {
            let weights = weights
                .map(|(s, e, a, u)| ConfidenceWeights::new(s, e, a, u))
                .unwrap_or_default();
            let mut concrete = ast.clone();
            concrete.mode = ModeSpec::Tcm;
            let query = plan(tmd, &svs, &concrete)?;
            compare_modes(tmd, &svs, &query, &weights, ctx, memo)?
        }
        _ => {
            let result = evaluate_par(tmd, &svs, &plan(tmd, &svs, &ast)?, ctx, memo)?;
            let quality = result.quality(&ConfidenceWeights::default());
            vec![ModeResult { result, quality }]
        }
    };
    out.sort_by(|a, b| {
        b.quality
            .partial_cmp(&a.quality)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

/// Evaluates `query` under **every** temporal mode in TMP order (tcm,
/// then each structure version), scoring each presentation with the
/// §5.2 quality factor under `weights`. The query's own `mode` is
/// ignored. All evaluations share `memo`.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn compare_modes(
    tmd: &Tmd,
    structure_versions: &[StructureVersion],
    query: &AggregateQuery,
    weights: &ConfidenceWeights,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<Vec<ModeResult>> {
    let mut query = query.clone();
    let mut out = Vec::new();
    for mode in all_modes(structure_versions) {
        query.mode = mode;
        let result = evaluate_par(tmd, structure_versions, &query, ctx, memo)?;
        let quality = result.quality(weights);
        out.push(ModeResult { result, quality });
    }
    Ok(out)
}

/// Runs `input` and renders its answer, the bytes the shell prints and
/// the session server replies: for `IN ALL MODES` one table per mode,
/// best quality first, each under a `== mode … ==` banner; otherwise the
/// one table, after a note when some facts have no representation in
/// the mode.
///
/// # Errors
///
/// Any lexing, parsing, planning, execution or rendering failure.
pub fn render_answer(
    tmd: &Tmd,
    input: &str,
    ctx: &ExecContext,
    memo: &QueryMemo,
) -> Result<String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    if is_all_modes(input) {
        for r in run_compare_par(tmd, input, ctx, memo)? {
            let _ = writeln!(
                out,
                "== mode {} (Q = {:.3}, {} unmapped) ==",
                r.result.mode.label(),
                r.quality,
                r.result.unmapped_rows
            );
            let _ = writeln!(out, "{}", r.result.render("result")?);
        }
    } else {
        let svs = tmd.structure_versions();
        let rs = run_with_versions_par(tmd, &svs, input, ctx, memo)?;
        if rs.unmapped_rows > 0 {
            let _ = writeln!(
                out,
                "note: {} source facts have no representation in this mode",
                rs.unmapped_rows
            );
        }
        out.push_str(&rs.render("result")?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::case_study::case_study;
    use mvolap_core::Confidence;

    fn compare(tmd: &Tmd, input: &str) -> Result<Vec<ModeResult>> {
        run_compare_par(tmd, input, &ExecContext::sequential(), &QueryMemo::new())
    }

    #[test]
    fn q1_tcm_matches_table_4() {
        let cs = case_study();
        let rs = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Division FOR 2001..2002 IN MODE tcm",
        )
        .unwrap();
        let rows: Vec<(String, String, Option<f64>)> = rs
            .rows
            .iter()
            .map(|r| (r.time.clone(), r.keys[0].clone(), r.cells[0].value))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("2001".into(), "Sales".into(), Some(150.0)),
                ("2001".into(), "R&D".into(), Some(100.0)),
                ("2002".into(), "Sales".into(), Some(100.0)),
                ("2002".into(), "R&D".into(), Some(150.0)),
            ]
        );
    }

    #[test]
    fn q2_in_version_2_matches_table_10() {
        let cs = case_study();
        let rs = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 IN MODE VERSION 2",
        )
        .unwrap();
        let bill_2002 = rs
            .rows
            .iter()
            .find(|r| r.time == "2002" && r.keys[0] == "Dpt.Bill")
            .unwrap();
        assert_eq!(bill_2002.cells[0].value, Some(40.0));
        assert_eq!(bill_2002.cells[0].confidence, Confidence::Approx);
    }

    #[test]
    fn at_mode_resolves_to_covering_version() {
        let cs = case_study();
        let a = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 IN MODE AT 06/2002",
        )
        .unwrap();
        let b = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 IN MODE VERSION 1",
        )
        .unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn no_time_key_aggregates_whole_period() {
        let cs = case_study();
        let rs = run(&cs.tmd, "SELECT sum(Amount) BY Org.Division IN MODE tcm").unwrap();
        assert_eq!(rs.rows.len(), 2);
        let sales = rs.rows.iter().find(|r| r.keys[0] == "Sales").unwrap();
        assert_eq!(sales.cells[0].value, Some(450.0));
    }

    #[test]
    fn unresolved_names_error() {
        let cs = case_study();
        assert!(matches!(
            run(&cs.tmd, "SELECT sum(Ghost) BY year IN MODE tcm"),
            Err(QueryError::Unresolved(_))
        ));
        assert!(matches!(
            run(
                &cs.tmd,
                "SELECT sum(Amount) BY Nowhere.Division IN MODE tcm"
            ),
            Err(QueryError::Unresolved(_))
        ));
        assert!(matches!(
            run(&cs.tmd, "SELECT sum(Amount) BY year IN MODE VERSION 9"),
            Err(QueryError::Unresolved(_))
        ));
        assert!(matches!(
            run(&cs.tmd, "SELECT sum(Amount) BY year IN MODE AT 06/1999"),
            Err(QueryError::Unresolved(_))
        ));
    }

    #[test]
    fn aggregator_mismatch_is_rejected() {
        let cs = case_study();
        let err = run(&cs.tmd, "SELECT max(Amount) BY year IN MODE tcm").unwrap_err();
        assert!(matches!(err, QueryError::AggregatorMismatch { .. }));
    }

    #[test]
    fn two_time_keys_rejected() {
        let cs = case_study();
        let err = run(&cs.tmd, "SELECT sum(Amount) BY year, instant IN MODE tcm").unwrap_err();
        assert_eq!(err, QueryError::MultipleTimeKeys);
    }

    #[test]
    fn all_modes_comparison_ranks_by_quality() {
        let cs = case_study();
        let results = compare(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 IN ALL MODES",
        )
        .unwrap();
        // tcm + three structure versions.
        assert_eq!(results.len(), 4);
        // Best first: tcm scores a perfect 1.0.
        assert_eq!(results[0].result.mode, TemporalMode::Consistent);
        assert!((results[0].quality - 1.0).abs() < 1e-12);
        for w in results.windows(2) {
            assert!(w[0].quality >= w[1].quality);
        }
    }

    #[test]
    fn all_modes_with_custom_weights() {
        let cs = case_study();
        // A user who fully trusts exact mappings: the 2002 structure
        // (exact merge) ties tcm at 1.0.
        let results = compare(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 \
             IN ALL MODES WITH WEIGHTS 10,10,0,0",
        )
        .unwrap();
        let vs1 = results
            .iter()
            .find(|r| r.result.mode.label() == "VS1")
            .unwrap();
        assert!((vs1.quality - 1.0).abs() < 1e-12);
    }

    /// Q2 (departments by year over 2002..2003) in every mode.
    fn compare_q2(weights: &ConfidenceWeights) -> Vec<ModeResult> {
        let cs = case_study();
        let q = AggregateQuery::by_year(cs.org, "Department", TemporalMode::Consistent)
            .in_range(Interval::years(2002, 2003));
        let svs = cs.tmd.structure_versions();
        let (ctx, memo) = (ExecContext::sequential(), QueryMemo::new());
        compare_modes(&cs.tmd, &svs, &q, weights, &ctx, &memo).unwrap()
    }

    #[test]
    fn tcm_scores_perfect_quality() {
        let scores = compare_q2(&ConfidenceWeights::DEFAULT);
        assert_eq!(scores.len(), 4); // tcm + 3 versions, in TMP order
        assert_eq!(scores[0].result.mode, TemporalMode::Consistent);
        assert!((scores[0].quality - 1.0).abs() < 1e-12);
        // Mapped modes lose quality.
        assert!(scores[3].quality < 1.0);
    }

    #[test]
    fn tcm_ranks_first_with_default_weights() {
        let scores = compare_q2(&ConfidenceWeights::DEFAULT);
        assert!(scores[1..].iter().all(|s| s.quality < scores[0].quality));
    }

    #[test]
    fn weights_change_the_ranking_between_mapped_modes() {
        // A user who trusts exact mappings as much as source data: the
        // 2002 mode (exact merge of Bill+Paul into Jones) ties tcm and
        // beats the 2003 mode (approximate split).
        let scores = compare_q2(&ConfidenceWeights::new(10, 10, 0, 0));
        let by_mode = |label: &str| {
            scores
                .iter()
                .find(|s| s.result.mode.label() == label)
                .map(|s| s.quality)
                .unwrap()
        };
        assert!((by_mode("VS1") - 1.0).abs() < 1e-12);
        assert!(by_mode("VS1") > by_mode("VS2"));
    }

    #[test]
    fn all_modes_rejected_by_plain_run() {
        let cs = case_study();
        let err = run(&cs.tmd, "SELECT sum(Amount) BY year IN ALL MODES").unwrap_err();
        assert!(matches!(err, QueryError::Unresolved(_)));
    }

    #[test]
    fn run_compare_accepts_single_mode_queries() {
        let cs = case_study();
        let results = compare(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Division FOR 2001..2002 IN MODE VERSION 1",
        )
        .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result.mode.label(), "VS1");
    }

    #[test]
    fn where_clause_filters_members() {
        let cs = case_study();
        let rs = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department \
             WHERE Org.Division = 'Sales' IN MODE tcm",
        )
        .unwrap();
        // Only the departments under Sales at each fact's own time.
        assert!(rs.rows.iter().all(|r| r.keys[0] != "Dpt.Brian"));
        // Smith is under Sales in 2001, under R&D afterwards.
        assert!(rs
            .rows
            .iter()
            .any(|r| r.time == "2001" && r.keys[0] == "Dpt.Smith"));
        assert!(!rs
            .rows
            .iter()
            .any(|r| r.time == "2002" && r.keys[0] == "Dpt.Smith"));
    }

    #[test]
    fn where_in_list_and_conjunction() {
        let cs = case_study();
        let rs = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year, Org.Department \
             WHERE Org.Department IN ('Dpt.Smith', 'Dpt.Brian') \
             AND Org.Division = 'R&D' \
             FOR 2001..2003 IN MODE tcm",
        )
        .unwrap();
        // Smith 2001 was in Sales: filtered by the second condition.
        let keys: Vec<(String, String)> = rs
            .rows
            .iter()
            .map(|r| (r.time.clone(), r.keys[0].clone()))
            .collect();
        assert!(keys.contains(&("2002".into(), "Dpt.Smith".into())));
        assert!(!keys.contains(&("2001".into(), "Dpt.Smith".into())));
        assert!(keys.contains(&("2001".into(), "Dpt.Brian".into())));
    }

    #[test]
    fn quarter_and_month_group_keys() {
        let cs = case_study();
        let rs = run(&cs.tmd, "SELECT sum(Amount) BY quarter IN MODE tcm").unwrap();
        // All case-study facts sit in June: Q2 of each year.
        assert!(rs.rows.iter().all(|r| r.time.ends_with("-Q2")));
        assert_eq!(rs.time_header, "Quarter");
        let rs = run(&cs.tmd, "SELECT sum(Amount) BY month IN MODE tcm").unwrap();
        assert!(rs.rows.iter().all(|r| r.time.ends_with("-06")));
    }

    #[test]
    fn where_unknown_dimension_is_unresolved() {
        let cs = case_study();
        assert!(matches!(
            run(
                &cs.tmd,
                "SELECT sum(Amount) BY year WHERE Ghost.Division = 'x' IN MODE tcm"
            ),
            Err(QueryError::Unresolved(_))
        ));
    }

    #[test]
    fn reversed_range_rejected() {
        let cs = case_study();
        let err = run(
            &cs.tmd,
            "SELECT sum(Amount) BY year FOR 2003..2001 IN MODE tcm",
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Unresolved(_)));
    }
}
