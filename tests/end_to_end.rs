//! End-to-end pipeline tests: generated workloads flow through the full
//! stack (schema → structure versions → multiversion fact table → query
//! language → cube navigation → logical export) with cross-layer
//! invariants.

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultSet, TimeLevel};
use mvolap::core::logical;
use mvolap::core::{
    Confidence, ExecContext, MultiVersionFactTable, QueryMemo, StructureVersion, TemporalMode, Tmd,
};
use mvolap::query::{run_with_versions_par, CubeView};
use mvolap::workload::{generate, WorkloadConfig};

/// A sequential evaluation through a fresh memo.
fn evaluate(
    tmd: &Tmd,
    svs: &[StructureVersion],
    query: &AggregateQuery,
) -> mvolap::core::Result<ResultSet> {
    evaluate_par(
        tmd,
        svs,
        query,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
}

/// The full multiversion fact table, inferred sequentially.
fn infer(tmd: &Tmd) -> mvolap::core::Result<MultiVersionFactTable> {
    MultiVersionFactTable::infer_par(tmd, &ExecContext::sequential(), &QueryMemo::new())
}

fn evolving_workload(seed: u64) -> mvolap::workload::GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(seed);
    cfg.split_prob = 0.25;
    cfg.merge_prob = 0.10;
    cfg.reclassify_prob = 0.15;
    cfg.periods = 5;
    // No creations or deletions: every member is then reachable through
    // mapping chains in every mode, so nothing is unmapped (created
    // members have no counterpart in older structures; deleted members
    // have none in newer ones).
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    generate(&cfg).expect("workload generates")
}

#[test]
fn grand_total_is_identical_across_all_modes() {
    // Splits/merges/reclassifications conserve measure mass (the
    // generated mapping factors always sum to 1), so the grand total in
    // every structure-version mode must equal the consistent-time total.
    let w = evolving_workload(101);
    let svs = w.tmd.structure_versions();
    assert!(svs.len() > 1, "workload must actually evolve");
    let total_of = |mode: TemporalMode| -> f64 {
        let q = AggregateQuery {
            group_by: vec![],
            time_level: TimeLevel::All,
            measures: vec![],
            mode,
            time_range: None,
            filters: Vec::new(),
        };
        let rs = evaluate(&w.tmd, &svs, &q).expect("evaluates");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.unmapped_rows, 0, "no deletions => everything maps");
        rs.rows[0].cells[0].value.expect("known value")
    };
    let tcm = total_of(TemporalMode::Consistent);
    for sv in &svs {
        let v = total_of(TemporalMode::Version(sv.id));
        assert!(
            (tcm - v).abs() < 1e-6 * tcm.abs().max(1.0),
            "mode {} total {v} != tcm total {tcm}",
            sv.id
        );
    }
}

#[test]
fn consistent_mode_rows_equal_fact_count() {
    let w = evolving_workload(7);
    let mv = infer(&w.tmd).expect("inference");
    let tcm = mv.for_mode(&TemporalMode::Consistent).expect("tcm present");
    // Workload facts are unique per (leaf, time) except repeated inserts
    // on the same leaf/mid-year, which accumulate; row count is bounded
    // by the fact count and every cell is source data.
    assert!(tcm.rows.len() <= w.tmd.facts().len());
    assert!(tcm
        .rows
        .iter()
        .all(|r| r.cells.iter().all(|c| c.confidence == Confidence::Source)));
}

#[test]
fn query_language_agrees_with_programmatic_api() {
    let w = evolving_workload(33);
    let svs = w.tmd.structure_versions();
    let rs_text = run_with_versions_par(
        &w.tmd,
        &svs,
        "SELECT sum(Amount) BY year, Org.Division IN MODE tcm",
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
    .expect("query runs");
    let rs_api = evaluate(
        &w.tmd,
        &svs,
        &AggregateQuery::by_year(w.dim, "Division", TemporalMode::Consistent),
    )
    .expect("evaluates");
    assert_eq!(rs_text.rows, rs_api.rows);
}

#[test]
fn cube_nodes_are_consistent_with_direct_queries() {
    // Every node a view navigates to (each level or All × year or all
    // time) answers exactly what the equivalent direct query answers.
    let w = evolving_workload(55);
    let svs = w.tmd.structure_versions();
    let mode = TemporalMode::Version(svs.last().expect("has versions").id);
    let memo = QueryMemo::new();
    let mut view = CubeView::open(&w.tmd, &svs, mode.clone(), &memo);
    for level in [Some("Department"), Some("Division"), None] {
        for time_level in [TimeLevel::Year, TimeLevel::All] {
            match time_level {
                TimeLevel::All => view.roll_up_time(),
                _ => view.drill_down_time(),
            }
            let direct = AggregateQuery {
                group_by: level
                    .map(|l| vec![(w.dim, l.to_owned())])
                    .unwrap_or_default(),
                time_level,
                measures: vec![],
                mode: mode.clone(),
                time_range: None,
                filters: Vec::new(),
            };
            let direct = evaluate(&w.tmd, &svs, &direct).expect("evaluates");
            assert_eq!(
                view.rows().expect("view evaluates"),
                direct.rows,
                "{level:?} by {time_level:?}"
            );
        }
        view.roll_up(w.dim).expect("dimension exists");
    }
}

#[test]
fn cube_view_rollup_preserves_totals() {
    let w = evolving_workload(56);
    let svs = w.tmd.structure_versions();
    let memo = QueryMemo::new();
    let mut view = CubeView::open(&w.tmd, &svs, TemporalMode::Consistent, &memo);
    let total = |view: &CubeView<'_>| -> f64 {
        let rows = view.rows().expect("view evaluates");
        rows.iter().filter_map(|r| r.cells[0].value).sum()
    };
    let dept_total = total(&view);
    view.roll_up(w.dim).expect("dimension exists");
    let div_total = total(&view);
    assert!(
        (dept_total - div_total).abs() < 1e-6 * dept_total.abs().max(1.0),
        "roll-up changed the total: {dept_total} vs {div_total}"
    );
}

#[test]
fn logical_export_round_trips_through_relational_group_by() {
    // The exported multiversion fact table, grouped relationally with
    // the storage engine, must agree with the model's own aggregation.
    let w = evolving_workload(77);
    let svs = w.tmd.structure_versions();
    let mv = infer(&w.tmd).expect("inference");
    let fact = logical::export_multiversion_fact(&w.tmd, &mv).expect("exports");

    use mvolap::storage::{AggCall, AggFunc, Predicate};
    // tcm slice (tmp_id = 0), grouped by member.
    let tcm = fact
        .filter(&Predicate::eq("tmp_id", 0))
        .expect("filter")
        .group_by(
            &["Org_member"],
            &[AggCall::new(AggFunc::Sum, "Amount").with_alias("total")],
        )
        .expect("group by");
    let direct = evaluate(
        &w.tmd,
        &svs,
        &AggregateQuery {
            group_by: vec![(w.dim, "Department".into())],
            time_level: TimeLevel::All,
            measures: vec![],
            mode: TemporalMode::Consistent,
            time_range: None,
            filters: Vec::new(),
        },
    )
    .expect("evaluates");
    // Compare as name -> total maps.
    let mut relational: Vec<(String, f64)> = tcm
        .rows()
        .map(|r| {
            (
                r[0].as_str().expect("member name").to_owned(),
                r[1].as_float().expect("sum"),
            )
        })
        .collect();
    relational.sort_by(|a, b| a.0.cmp(&b.0));
    let mut model: Vec<(String, f64)> = direct
        .rows
        .iter()
        .map(|r| (r.keys[0].clone(), r.cells[0].value.expect("known")))
        .collect();
    model.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(relational.len(), model.len());
    for ((an, av), (bn, bv)) in relational.iter().zip(&model) {
        assert_eq!(an, bn);
        assert!((av - bv).abs() < 1e-6, "{an}: {av} vs {bv}");
    }
}

#[test]
fn warehouse_builds_for_generated_workloads() {
    let w = evolving_workload(90);
    let warehouse = logical::build_multiversion_warehouse(&w.tmd).expect("builds");
    assert!(!warehouse
        .get("fact_multiversion")
        .expect("exists")
        .is_empty());
    assert!(!warehouse.get("dim_Org_star").expect("exists").is_empty());
    // Evolution events were logged.
    assert!(!warehouse.get("meta_evolutions").expect("exists").is_empty());
}

#[test]
fn frozen_workload_has_single_version_and_pure_source_data() {
    let w = generate(&WorkloadConfig::small(5).frozen()).expect("generates");
    let svs = w.tmd.structure_versions();
    assert_eq!(svs.len(), 1);
    let mv = infer(&w.tmd).expect("inference");
    for p in mv.presentations() {
        for row in &p.rows {
            for c in &row.cells {
                assert_eq!(c.confidence, Confidence::Source);
            }
        }
    }
}

/// The steps of `examples/cube_navigation.rs` on the case study, each
/// rendering pinned byte for byte.
#[test]
fn cube_navigation_walk_renders_the_recorded_bytes() {
    use mvolap::core::case_study::case_study;
    use mvolap::core::{ConfidenceWeights, StructureVersionId};

    let cs = case_study();
    let svs = cs.tmd.structure_versions();
    let memo = QueryMemo::new();
    let mode = TemporalMode::Version(StructureVersionId(2));
    let mut view = CubeView::open(&cs.tmd, &svs, mode, &memo);
    let render = |view: &CubeView<'_>| view.render().expect("view evaluates");

    assert_eq!(
        render(&view),
        "2001 | Dpt.Bill : 40 [yellow]\n\
         2001 | Dpt.Paul : 60 [yellow]\n\
         2001 | Dpt.Smith : 50 [white]\n\
         2001 | Dpt.Brian : 100 [white]\n\
         2002 | Dpt.Bill : 40 [yellow]\n\
         2002 | Dpt.Paul : 60 [yellow]\n\
         2002 | Dpt.Smith : 100 [white]\n\
         2002 | Dpt.Brian : 50 [white]\n\
         2003 | Dpt.Bill : 150 [white]\n\
         2003 | Dpt.Paul : 50 [white]\n\
         2003 | Dpt.Smith : 110 [white]\n\
         2003 | Dpt.Brian : 40 [white]\n"
    );

    view.roll_up(cs.org).expect("org exists");
    assert_eq!(
        render(&view),
        "2001 | Sales : 100 [yellow]\n\
         2001 | R&D : 150 [white]\n\
         2002 | Sales : 100 [yellow]\n\
         2002 | R&D : 150 [white]\n\
         2003 | Sales : 200 [white]\n\
         2003 | R&D : 150 [white]\n"
    );

    view.roll_up_time();
    assert_eq!(
        render(&view),
        "all | Sales : 400 [yellow]\n\
         all | R&D : 450 [white]\n"
    );

    view.drill_down_time();
    view.drill_down(cs.org).expect("org exists");
    view.slice(cs.org, "Dpt.Bill").expect("org exists");
    assert_eq!(
        render(&view),
        "2001 | Dpt.Bill : 40 [yellow]\n\
         2002 | Dpt.Bill : 40 [yellow]\n\
         2003 | Dpt.Bill : 150 [white]\n"
    );

    view.dice(cs.org, vec!["Dpt.Bill".into(), "Dpt.Paul".into()])
        .expect("org exists");
    view.dice_time(vec!["2002".into()]);
    assert_eq!(
        render(&view),
        "2002 | Dpt.Bill : 40 [yellow]\n\
         2002 | Dpt.Paul : 60 [yellow]\n"
    );

    view.rotate(vec![1, 0]).expect("valid permutation");
    assert_eq!(
        render(&view),
        "Dpt.Bill | 2002 : 40 [yellow]\n\
         Dpt.Paul | 2002 : 60 [yellow]\n"
    );

    let q = view
        .quality(&ConfidenceWeights::DEFAULT)
        .expect("view evaluates");
    assert_eq!(format!("{q:.3}"), "0.500");
}
