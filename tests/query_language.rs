//! End-to-end query-language coverage over the two-measure case study:
//! multi-measure selects, WHERE + FOR + mode clauses combined, grid
//! rendering, and the ALL MODES comparison — the full grammar surface
//! through the public facade.

use mvolap::core::case_study::case_study_two_measures;
use mvolap::core::{Confidence, ExecContext, QueryMemo};
use mvolap::query::{parse, parse_statement, render_answer, Statement};
use mvolap::query::{run, run_compare_par, QueryError};

#[test]
fn multi_measure_select_returns_both_columns() {
    let cs = case_study_two_measures();
    let rs = run(
        &cs.tmd,
        "SELECT sum(Turnover), sum(Profit) BY year, Org.Division IN MODE tcm",
    )
    .expect("query runs");
    assert_eq!(rs.measure_headers, vec!["Turnover", "Profit"]);
    let sales_2001 = rs
        .rows
        .iter()
        .find(|r| r.time == "2001" && r.keys[0] == "Sales")
        .expect("row present");
    assert_eq!(sales_2001.cells[0].value, Some(150.0));
    // Profit is 20 % of the amount in the fixture.
    assert_eq!(sales_2001.cells[1].value, Some(30.0));
}

#[test]
fn selecting_one_measure_restricts_columns() {
    let cs = case_study_two_measures();
    let rs = run(&cs.tmd, "SELECT sum(Profit) BY year IN MODE tcm").expect("query runs");
    assert_eq!(rs.measure_headers, vec!["Profit"]);
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn measures_map_with_their_own_factors() {
    // In the 2003 structure, Jones's 2002 turnover splits 40/60 while
    // profit splits 20/80 — per-measure mapping functions at work.
    let cs = case_study_two_measures();
    let rs = run(
        &cs.tmd,
        "SELECT sum(Turnover), sum(Profit) BY year, Org.Department \
         FOR 2002..2002 IN MODE VERSION 2",
    )
    .expect("query runs");
    let bill = rs
        .rows
        .iter()
        .find(|r| r.keys[0] == "Dpt.Bill")
        .expect("row");
    assert_eq!(bill.cells[0].value, Some(40.0)); // 0.4 × 100
    assert_eq!(bill.cells[1].value, Some(4.0)); // 0.2 × 20
    assert_eq!(bill.cells[0].confidence, Confidence::Approx);
    let paul = rs
        .rows
        .iter()
        .find(|r| r.keys[0] == "Dpt.Paul")
        .expect("row");
    assert_eq!(paul.cells[0].value, Some(60.0)); // 0.6 × 100
    assert_eq!(paul.cells[1].value, Some(16.0)); // 0.8 × 20
}

#[test]
fn where_for_and_mode_combine() {
    let cs = case_study_two_measures();
    let rs = run(
        &cs.tmd,
        "SELECT sum(Turnover) BY year, Org.Department \
         WHERE Org.Division = 'Sales' FOR 2002..2003 IN MODE VERSION 1",
    )
    .expect("query runs");
    // In the 2002 structure, Sales holds only Jones; Bill+Paul's 2003
    // facts fold back into him.
    assert!(rs.rows.iter().all(|r| r.keys[0] == "Dpt.Jones"));
    let jones_2003 = rs.rows.iter().find(|r| r.time == "2003").expect("row");
    assert_eq!(jones_2003.cells[0].value, Some(200.0));
    assert_eq!(jones_2003.cells[0].confidence, Confidence::Exact);
}

#[test]
fn grid_rendering_from_query_results() {
    let cs = case_study_two_measures();
    let rs = run(
        &cs.tmd,
        "SELECT sum(Turnover), sum(Profit) BY year, Org.Department \
         FOR 2002..2003 IN MODE VERSION 2",
    )
    .expect("query runs");
    let turnover = rs.render_grid(0);
    assert!(turnover.contains("40 (am)"));
    let profit = rs.render_grid(1);
    assert!(profit.contains("4 (am)"));
}

#[test]
fn all_modes_over_two_measures() {
    let cs = case_study_two_measures();
    let results = run_compare_par(
        &cs.tmd,
        "SELECT sum(Turnover), sum(Profit) BY year, Org.Department \
         FOR 2002..2003 IN ALL MODES",
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
    .expect("comparison runs");
    assert_eq!(results.len(), 4);
    assert!(results[0].quality >= results[3].quality);
    // Every mode reports both measures.
    for r in &results {
        assert_eq!(r.result.measure_headers.len(), 2);
    }
}

#[test]
fn helpful_error_for_wrong_aggregate() {
    let cs = case_study_two_measures();
    let err = run(&cs.tmd, "SELECT avg(Turnover) BY year IN MODE tcm").unwrap_err();
    match err {
        QueryError::AggregatorMismatch {
            measure,
            requested,
            configured,
        } => {
            assert_eq!(measure, "Turnover");
            assert_eq!(requested, "avg");
            assert_eq!(configured, "sum");
        }
        other => panic!("expected aggregator mismatch, got {other:?}"),
    }
}

#[test]
fn quoted_member_names_with_special_characters() {
    let cs = case_study_two_measures();
    // R&D contains `&`; quoting handles it.
    let rs = run(
        &cs.tmd,
        "SELECT sum(Turnover) BY year, Org.Department \
         WHERE Org.Division IN ('R&D') IN MODE tcm",
    )
    .expect("query runs");
    assert!(!rs.rows.is_empty());
    assert!(rs
        .rows
        .iter()
        .all(|r| r.keys[0] == "Dpt.Brian" || r.keys[0] == "Dpt.Smith"));
    // Smith's 2001 facts were under Sales: excluded.
    assert!(!rs
        .rows
        .iter()
        .any(|r| r.time == "2001" && r.keys[0] == "Dpt.Smith"));
}

#[test]
fn parse_reads_queries_only() {
    for text in [
        "SHOW VERSIONS",
        "show log",
        "SHOW QUALITY SELECT sum(Amount) BY year IN MODE tcm",
    ] {
        assert!(
            matches!(parse(text), Err(QueryError::Unexpected { at: 0, .. })),
            "{text}"
        );
    }
}

#[test]
fn statements_parse_case_insensitively() {
    let q = "SELECT sum(Turnover) BY year IN MODE tcm";
    let query = parse(q).unwrap();
    assert_eq!(parse_statement(q).unwrap(), Statement::Query(query.clone()));
    for (text, expected) in [
        ("SHOW VERSIONS", Statement::Versions),
        ("show Dimensions", Statement::Dimensions),
        ("Show measures;", Statement::Measures),
        ("SHOW LOG", Statement::Log),
        ("SHOW STATUS", Statement::Status),
        ("SHOW DOT Org", Statement::Dot("Org".into())),
        (
            &format!("SHOW QUALITY {q}"),
            Statement::Quality(query.clone()),
        ),
        (&format!("show grid {q};"), Statement::Grid(query.clone())),
    ] {
        assert_eq!(parse_statement(text).unwrap(), expected, "{text}");
    }
}

#[test]
fn statements_reject_trailing_tokens_and_unknown_targets() {
    for (text, at) in [
        ("SHOW VERSIONS now", 14),
        ("SHOW STATUS ; x", 14),
        ("SHOW DOT Org Time", 13),
    ] {
        match parse_statement(text) {
            Err(QueryError::Unexpected {
                expected, at: got, ..
            }) => {
                assert_eq!((expected.as_str(), got), ("end of query", at), "{text}");
            }
            other => panic!("{text}: expected a trailing-token error, got {other:?}"),
        }
    }
    match parse_statement("SHOW Mappings") {
        Err(QueryError::Unexpected {
            found,
            at,
            expected,
        }) => {
            assert_eq!((found.as_str(), at), ("Mappings", 5));
            assert!(
                expected.contains("VERSIONS") && expected.contains("STATUS"),
                "{expected}"
            );
        }
        other => panic!("expected an unknown-target error, got {other:?}"),
    }
    assert!(matches!(
        parse_statement("SHOW"),
        Err(QueryError::Unexpected { at: 4, .. })
    ));
    // A query behind SHOW QUALITY fails where a bare query would.
    let bare = parse("SELECT sum(Turnover) BY IN MODE tcm").unwrap_err();
    let shown = parse_statement("SHOW GRID SELECT sum(Turnover) BY IN MODE tcm").unwrap_err();
    let shift = |e: QueryError| match e {
        QueryError::Unexpected { at, .. } => at,
        other => panic!("{other:?}"),
    };
    assert_eq!(shift(shown), shift(bare) + "SHOW GRID ".len());
}

#[test]
fn render_answer_renders_statements_and_leaves_status_to_a_server() {
    let cs = case_study_two_measures();
    let answer =
        |text: &str| render_answer(&cs.tmd, text, &ExecContext::sequential(), &QueryMemo::new());
    assert_eq!(
        answer("SHOW MEASURES").unwrap(),
        "Turnover (sum)\nProfit (sum)\n"
    );
    let versions = answer("SHOW VERSIONS").unwrap();
    assert_eq!(versions.lines().count(), cs.tmd.structure_versions().len());
    assert!(answer("SHOW DOT Org").unwrap().starts_with("digraph"));
    assert!(matches!(answer("SHOW STATUS"), Err(QueryError::NoServer)));
    assert!(matches!(
        answer("SHOW DOT Nowhere"),
        Err(QueryError::Unresolved(_))
    ));
}
