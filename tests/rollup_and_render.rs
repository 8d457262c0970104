//! The two structures of the dense warm path against what they replace.
//!
//! * A [`Rollup`] table entry — one leaf's ancestors at one level in one
//!   structure version, as group ids — must name exactly the members
//!   `ancestors_at_level` finds at every boundary of that version, on
//!   generated workloads and on prefixes of generated operator scripts.
//! * `ResultSet::render` writes its text straight from the rows; its
//!   bytes must equal a naive re-statement of the table renderer over
//!   `to_storage_table`, and `render_table` must agree with it on every
//!   paper table.

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultRow, ResultSet, TimeLevel};
use mvolap::core::levels::{all_level_names, ancestors_at_level};
use mvolap::core::memo::Rollup;
use mvolap::core::tmp::all_modes;
use mvolap::core::{
    Confidence, DimensionId, ExecContext, MemberVersionId, MvCell, QueryMemo, TemporalMode, Tmd,
};
use mvolap::storage::render::render_table;
use mvolap::storage::{Table, Value};
use mvolap::workload::{generate, WorkloadConfig};
use mvolap_bench::paper;

/// Generated warehouses: the small shape, then heavier evolution.
fn workloads() -> Vec<(String, Tmd)> {
    (0..6u64)
        .map(|seed| {
            let mut config = WorkloadConfig::small(seed);
            if seed >= 3 {
                config.split_prob = 0.3;
                config.merge_prob = 0.25;
                config.reclassify_prob = 0.2;
                config.delete_prob = 0.1;
            }
            (format!("workload {seed}"), generate(&config).unwrap().tmd)
        })
        .collect()
}

/// Every 25th prefix and the final state of the two operator scripts
/// the oracle replays.
fn script_prefixes() -> Vec<(String, Tmd)> {
    let mut out = Vec::new();
    for (seed, records) in [(0xD15C_0B0B, 110), (7, 200)] {
        let script = mvolap::durable::generate(seed, records);
        let mut tmd = script.seed_schema.clone();
        for (n, record) in (1..).zip(script.ops()) {
            record.apply(&mut tmd).unwrap();
            if n % 25 == 0 || n == script.records {
                out.push((format!("script {seed:#x}, prefix {n}"), tmd.clone()));
            }
        }
    }
    out
}

/// Checks every roll-up table of `tmd` entry by entry; returns how many
/// entries it compared.
fn check_rollups(what: &str, tmd: &Tmd) -> usize {
    let memo = QueryMemo::new();
    let svs = memo.structure_versions(tmd);
    assert_eq!(*svs, tmd.structure_versions(), "{what}");
    let mut entries = 0;
    for (d, dimension) in tmd.dimensions().iter().enumerate() {
        let dim = DimensionId(d as u32);
        let name = |id: MemberVersionId| dimension.version(id).unwrap().name.clone();
        for level in all_level_names(dimension) {
            let rollup: std::sync::Arc<Rollup> = memo.rollup(tmd, dim, &level).unwrap();
            // A group id is the first version carrying the name.
            for v in dimension.versions() {
                assert_eq!(
                    rollup.group_of(v.id),
                    dimension.versions_named(&v.name)[0].id,
                    "{what}"
                );
            }
            for (i, sv) in svs.iter().enumerate() {
                for v in dimension.versions() {
                    let got = rollup.groups(i, v.id);
                    if !sv.contains(dim, v.id) {
                        assert!(
                            !matches!(got, Ok(Some(_))),
                            "{what}: {} not in {}",
                            v.name,
                            sv.id
                        );
                        continue;
                    }
                    let got = got.map(|g| g.unwrap().iter().map(|&g| name(g)).collect::<Vec<_>>());
                    for t in [sv.interval.start(), sv.interval.end()] {
                        let want = ancestors_at_level(dimension, v.id, &level, t)
                            .map(|a| a.into_iter().map(name).collect::<Vec<_>>());
                        assert_eq!(got, want, "{what}: {} at {level} in {}", v.name, sv.label());
                    }
                    entries += 1;
                }
            }
        }
    }
    entries
}

/// The case study after a Transform that keeps the name `Dpt.Brian`.
fn brian_keeps_his_name() -> (String, Tmd) {
    let mut cs = mvolap::core::case_study::case_study();
    let at = mvolap::temporal::Instant::ym(2003, 7);
    mvolap::core::evolution::transform(
        &mut cs.tmd,
        cs.org,
        cs.brian,
        "Dpt.Brian",
        Default::default(),
        at,
    )
    .unwrap();
    ("transform keeping its name".into(), cs.tmd)
}

#[test]
fn rollup_tables_equal_ancestors_at_level() {
    let mut entries = 0;
    let mut inputs = workloads();
    inputs.push(brian_keeps_his_name());
    for (what, tmd) in inputs.iter().chain(&script_prefixes()) {
        entries += check_rollups(what, tmd);
    }
    assert!(entries > 10_000, "too few entries compared: {entries}");
}

/// The table renderer as it was before the shared writer: every cell
/// through `Value`'s `Display`, padded to the widest cell in bytes, two
/// spaces apart, trailing spaces trimmed, a rule of dashes under the
/// header.
fn reference(table: &Table) -> String {
    let mut lines: Vec<Vec<String>> = vec![table
        .schema()
        .names()
        .into_iter()
        .map(str::to_owned)
        .collect()];
    lines.extend(
        table
            .rows()
            .map(|r| r.iter().map(Value::to_string).collect()),
    );
    let mut widths = vec![0; lines[0].len()];
    for line in &lines {
        for (w, c) in widths.iter_mut().zip(line) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = String::new();
    for (n, line) in lines.iter().enumerate() {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c}{}", " ".repeat(w - c.len())))
            .collect();
        out.push_str(padded.join("  ").trim_end_matches(' '));
        out.push('\n');
        if n == 0 {
            let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
            out.push_str(&"-".repeat(rule));
            out.push('\n');
        }
    }
    out
}

fn assert_renders_as_reference(rs: &ResultSet, what: &str) {
    let table = rs.to_storage_table("result").unwrap();
    assert_eq!(rs.render("result").unwrap(), reference(&table), "{what}");
}

#[test]
fn render_table_matches_the_reference_on_every_paper_table() {
    let mut tables = vec![
        paper::table_3_snapshot(),
        paper::table_12_mapping_relations(),
        paper::truth_table(),
    ];
    tables.extend([2001, 2002, 2003].map(paper::table_org));
    for mode in ["tcm", "VERSION 0", "VERSION 1", "VERSION 2"] {
        tables.push(paper::table_q1(mode));
        tables.push(paper::table_q2(mode));
    }
    for table in &tables {
        assert_eq!(render_table(table), reference(table), "{}", table.name());
    }
    // The literal bytes of Table 4, trailing trim included.
    assert_eq!(
        render_table(&paper::table_q1("tcm")),
        "Year  Division  Amount  Amount_cf\n\
         ---------------------------------\n\
         2001  Sales     150     sd\n\
         2001  R&D       100     sd\n\
         2002  Sales     100     sd\n\
         2002  R&D       150     sd\n"
    );
}

#[test]
fn result_render_matches_the_reference_on_generated_results() {
    let cs = mvolap::core::case_study::case_study();
    let mut inputs = workloads();
    inputs.push(("case study".into(), cs.tmd));
    let ctx = ExecContext::new(2).with_morsel_size(7);
    let mut checked = 0;
    for (what, tmd) in &inputs {
        let memo = QueryMemo::new();
        let svs = memo.structure_versions(tmd);
        for mode in all_modes(&svs) {
            for level in all_level_names(&tmd.dimensions()[0]) {
                for time_level in [TimeLevel::Year, TimeLevel::Month, TimeLevel::All] {
                    let mut q =
                        AggregateQuery::by_year(DimensionId(0), level.clone(), mode.clone());
                    q.time_level = time_level;
                    let rs = evaluate_par(tmd, &svs, &q, &ctx, &memo).unwrap();
                    assert_renders_as_reference(&rs, &format!("{what}, {mode}, {level}"));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 100, "too few results checked: {checked}");
}

/// A hand-made result: one row per tricky cell.
fn tricky(rows: Vec<ResultRow>) -> ResultSet {
    ResultSet {
        mode: TemporalMode::Consistent,
        time_header: "Year".into(),
        key_headers: vec!["Department".into()],
        measure_headers: vec!["Amount".into(), "Count".into()],
        rows,
        unmapped_rows: 0,
    }
}

fn row(time: &str, key: &str, values: [Option<f64>; 2]) -> ResultRow {
    ResultRow {
        time: time.into(),
        keys: vec![key.into()],
        cells: values
            .iter()
            .map(|&value| MvCell {
                value,
                confidence: if value.is_some() {
                    Confidence::Approx
                } else {
                    Confidence::Unknown
                },
            })
            .collect(),
    }
}

#[test]
fn result_render_matches_the_reference_on_edge_cells() {
    let rs = tricky(vec![
        row("2001", "Dpt.Smith", [None, Some(3.0)]),
        row("2001", "(unclassified)", [Some(0.125), Some(-4.0)]),
        row("2002", "Dpt.Brian", [Some(-2.5), Some(1e15)]),
        row(
            "all",
            "Dpt.Bill",
            [Some(123_456_789_012_345_680.0), Some(-0.0)],
        ),
        row("06/2001", "", [Some(f64::INFINITY), Some(1e-7)]),
    ]);
    assert_renders_as_reference(&rs, "edge cells");
    assert_renders_as_reference(&tricky(Vec::new()), "empty result");
    assert_eq!(
        tricky(Vec::new()).render("empty").unwrap(),
        "Year  Department  Amount  Amount_cf  Count  Count_cf\n\
         ----------------------------------------------------\n"
    );
}

#[test]
fn result_render_reports_what_the_table_export_reports() {
    // A key header equal to the time header is a duplicate column.
    let mut rs = tricky(vec![row("2001", "Dpt.Smith", [Some(1.0), Some(2.0)])]);
    rs.key_headers = vec!["Year".into()];
    let exported = rs.to_storage_table("result").unwrap_err();
    assert_eq!(rs.render("result").unwrap_err(), exported);
    // A measure `X` beside a key `X_cf` collides the same way.
    let mut rs = tricky(Vec::new());
    rs.key_headers = vec!["Amount_cf".into()];
    assert_eq!(
        rs.render("result").unwrap_err(),
        rs.to_storage_table("result").unwrap_err()
    );
    // A row of the wrong width.
    let mut rs = tricky(vec![row("2001", "Dpt.Smith", [Some(1.0), Some(2.0)])]);
    rs.rows[0].keys.push("extra".into());
    assert_eq!(
        rs.render("result").unwrap_err(),
        rs.to_storage_table("result").unwrap_err()
    );
}
