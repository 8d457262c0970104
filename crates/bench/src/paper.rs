//! Reproduction of every table and figure in the paper.
//!
//! The paper's evaluation is a worked case study; each function here
//! regenerates one of its artifacts *from the engine* (never from
//! hard-coded result literals), so the integration suite can assert the
//! implementation reproduces the published numbers exactly:
//!
//! | Artifact | Function |
//! |---|---|
//! | Table 1–2, 7 | [`table_org`] (the Org dimension at a year) |
//! | Table 3 | [`table_3_snapshot`] |
//! | Table 4–6 | [`table_q1`] (Q1 under a temporal mode) |
//! | Table 8–10 | [`table_q2`] (Q2 under a temporal mode) |
//! | Table 11 | [`table_11_operations`] |
//! | Table 12 | [`table_12_mapping_relations`] |
//! | Example 5 truth table | [`truth_table`] |
//! | Example 7 | [`structure_version_listing`] |
//! | Figure 2 | [`figure_2_dot`] |
//! | §5.2 quality | [`quality_listing`] |

use mvolap_core::case_study::{case_study, case_study_two_measures, CaseStudy, TABLE_3};
use mvolap_core::evolution::{self, MergeSource, PartialAnnexationSpec, SplitPart};
use mvolap_core::{
    Confidence, ConfidenceWeights, ExecContext, MeasureDef, MemberVersionSpec, QueryMemo,
    TemporalDimension, Tmd,
};
use mvolap_query::{compare_modes, run};
use mvolap_storage::render::render_table;
use mvolap_storage::{ColumnDef, DataType, Table, TableSchema};
use mvolap_temporal::{Granularity, Instant, Interval};

/// One reproduced paper artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Short id (`table4`, `figure2`, …).
    pub id: &'static str,
    /// Human title quoting the paper.
    pub title: &'static str,
    /// Rendered text.
    pub body: String,
}

/// The Org dimension as of `year` — Tables 1 (2001), 2 (2002) and
/// 7 (2003): `(Division, Department)` rows ordered as the paper prints
/// them (Sales block first, then member order).
pub fn table_org(year: i32) -> Table {
    let cs = case_study();
    let d = cs.tmd.dimension(cs.org).expect("case study dimension");
    let t = Instant::ym(year, 6);
    let schema = TableSchema::new(vec![
        ColumnDef::required("Division", DataType::Str),
        ColumnDef::required("Department", DataType::Str),
    ])
    .expect("static schema");
    let mut rows: Vec<(String, u32, String)> = Vec::new();
    for v in d.versions() {
        if v.level.as_deref() != Some("Department") || !v.validity.contains(t) {
            continue;
        }
        for p in d.parents_at(v.id, t) {
            let division = d.version(p).expect("parent exists").name.clone();
            rows.push((division, v.id.0, v.name.clone()));
        }
    }
    // Paper layout: Sales block first (reverse-alphabetical divisions),
    // then member-version order.
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut table = Table::new(format!("org_{year}"), schema);
    for (division, _, department) in rows {
        table
            .push_row(vec![division.into(), department.into()])
            .expect("schema-conformant row");
    }
    table
}

/// Table 3: the snapshot of fact data for 2001–2003, with the division
/// each department belonged to at the fact's own time.
pub fn table_3_snapshot() -> Table {
    let cs = case_study();
    let d = cs.tmd.dimension(cs.org).expect("case study dimension");
    let schema = TableSchema::new(vec![
        ColumnDef::required("Year", DataType::Int),
        ColumnDef::required("Division", DataType::Str),
        ColumnDef::required("Department", DataType::Str),
        ColumnDef::required("Amount", DataType::Float),
    ])
    .expect("static schema");
    let mut table = Table::new("table3", schema);
    for (year, dept, amount) in TABLE_3 {
        let t = Instant::ym(year, 6);
        let leaf = d.version_named_at(dept, t).expect("Table 3 member").id;
        let parent = d.parents_at(leaf, t)[0];
        let division = d.version(parent).expect("parent exists").name.clone();
        table
            .push_row(vec![
                (year as i64).into(),
                division.into(),
                dept.into(),
                amount.into(),
            ])
            .expect("schema-conformant row");
    }
    table
}

/// Q1 ("total amount by year and division", years 2001–2002) under a
/// temporal mode — Tables 4 (`tcm`), 5 (`VERSION 0`), 6 (`VERSION 1`).
pub fn table_q1(mode: &str) -> Table {
    let cs = case_study();
    let rs = run(
        &cs.tmd,
        &format!("SELECT sum(Amount) BY year, Org.Division FOR 2001..2002 IN MODE {mode}"),
    )
    .expect("Q1 is valid");
    rs.to_storage_table(&format!("q1_{mode}"))
        .expect("exportable")
}

/// Q2 ("total amounts per department", years 2002–2003) under a temporal
/// mode — Tables 8 (`tcm`), 9 (`VERSION 1`), 10 (`VERSION 2`).
pub fn table_q2(mode: &str) -> Table {
    let cs = case_study();
    let rs = run(
        &cs.tmd,
        &format!("SELECT sum(Amount) BY year, Org.Department FOR 2002..2003 IN MODE {mode}"),
    )
    .expect("Q2 is valid");
    rs.to_storage_table(&format!("q2_{mode}"))
        .expect("exportable")
}

/// A fresh minimal schema for demonstrating the Table 11 operator
/// translations: one division `P1`, departments `V`, `V1`, `V2`.
fn table_11_base() -> (
    Tmd,
    mvolap_core::DimensionId,
    [mvolap_core::MemberVersionId; 4],
) {
    let mut tmd = Tmd::new("t11", Granularity::Month);
    let mut d = TemporalDimension::new("Org");
    let all = Interval::since(Instant::ym(2001, 1));
    let p1 = d.add_version(MemberVersionSpec::named("P1").at_level("Division"), all);
    let v = d.add_version(MemberVersionSpec::named("V").at_level("Department"), all);
    let v1 = d.add_version(MemberVersionSpec::named("V1").at_level("Department"), all);
    let v2 = d.add_version(MemberVersionSpec::named("V2").at_level("Department"), all);
    for dept in [v, v1, v2] {
        d.add_relationship(dept, p1, all).expect("base edge");
    }
    let dim = tmd.add_dimension(d).expect("fresh schema");
    tmd.add_measure(MeasureDef::summed("m1"))
        .expect("fresh schema");
    (tmd, dim, [p1, v, v1, v2])
}

/// Table 11: each simple and complex operation compiled to its basic
/// operator sequence, rendered in the paper's notation. Every script is
/// *actually applied* to a fresh schema, not just pretty-printed.
pub fn table_11_operations() -> String {
    let t = Instant::ym(2003, 1);
    let mut out = String::new();

    {
        let (mut tmd, dim, [p1, ..]) = table_11_base();
        let o = evolution::create(&mut tmd, dim, "Vnew", Some("Department".into()), t, &[p1])
            .expect("create applies");
        out.push_str("Creation of Vnew at time T in the dimension Org as a child of P1:\n");
        out.push_str(&o.render(&tmd));
        out.push_str("\n\n");
    }
    {
        let (mut tmd, dim, [_, v, ..]) = table_11_base();
        let o = evolution::transform(&mut tmd, dim, v, "V'", Default::default(), t)
            .expect("transform applies");
        out.push_str("Change from V to V' at time T (equivalence relationship):\n");
        out.push_str(&o.render(&tmd));
        out.push_str("\n\n");
    }
    {
        let (mut tmd, dim, [p1, _, v1, v2]) = table_11_base();
        let o = evolution::merge(
            &mut tmd,
            dim,
            &[
                MergeSource::with_share(v1, 0.5, 1),
                MergeSource::with_unknown_share(v2, 1),
            ],
            "V12",
            Some("Department".into()),
            t,
            &[p1],
        )
        .expect("merge applies");
        out.push_str(
            "Merge of V1 and V2 into V12 at time T (half of V12 maps back to V1, \
             V12->V2 unknown):\n",
        );
        out.push_str(&o.render(&tmd));
        out.push_str("\n\n");
    }
    {
        let (mut tmd, dim, [p1, v, ..]) = table_11_base();
        let o =
            evolution::increase(&mut tmd, dim, v, "V+", 2.0, t, &[p1]).expect("increase applies");
        out.push_str("Increase V in V+ at time T (values increase with a factor 2):\n");
        out.push_str(&o.render(&tmd));
        out.push_str("\n\n");
    }
    {
        let (mut tmd, dim, [p1, _, v1, v2]) = table_11_base();
        let o = evolution::partial_annexation(
            &mut tmd,
            dim,
            v1,
            v2,
            "V1-",
            "V2+",
            PartialAnnexationSpec {
                moved: 0.1,
                target_growth: 0.2,
            },
            t,
            &[p1],
        )
        .expect("partial annexation applies");
        out.push_str(
            "Partial annexation of a portion of V1 to V2 at time T \
             (10% of V1 goes to V2, a 20% increase for V2):\n",
        );
        out.push_str(&o.render(&tmd));
        out.push('\n');
    }
    out
}

/// A split demonstration used by the Table 11 suite: the case-study
/// split expressed through the high-level operator (rather than the
/// pre-built case study).
pub fn split_outcome() -> (Tmd, evolution::EvolutionOutcome) {
    let (mut tmd, dim, [p1, v, ..]) = table_11_base();
    let o = evolution::split(
        &mut tmd,
        dim,
        v,
        &[
            SplitPart::proportional("Va", 0.4, 1),
            SplitPart::proportional("Vb", 0.6, 1),
        ],
        Instant::ym(2003, 1),
        &[p1],
    )
    .expect("split applies");
    (tmd, o)
}

/// Table 12: the mapping-relations metadata table of the two-measure
/// case study (Turnover split 60/40, Profit split 80/20).
pub fn table_12_mapping_relations() -> Table {
    let cs: CaseStudy = case_study_two_measures();
    mvolap_core::logical::export_mapping_relations(&cs.tmd, cs.org).expect("exportable")
}

/// Example 5's `⊗cf` truth table, rendered as the paper prints it.
pub fn truth_table() -> Table {
    let schema = TableSchema::new(
        std::iter::once(ColumnDef::required("⊗cf", DataType::Str))
            .chain(
                Confidence::ALL
                    .iter()
                    .map(|c| ColumnDef::required(c.code(), DataType::Str)),
            )
            .collect(),
    )
    .expect("static schema");
    let mut table = Table::new("truth_table", schema);
    for a in Confidence::ALL {
        let mut row: Vec<mvolap_storage::Value> = vec![a.code().into()];
        for b in Confidence::ALL {
            row.push(a.combine(b).code().into());
        }
        table.push_row(row).expect("schema-conformant row");
    }
    table
}

/// Examples 1–3: member versions and temporal relationships of the
/// case study in the paper's tuple notation
/// (`<MVid, Name, Level, ti, tf>` and `<Id_from, Id_to, ti, tf>`).
pub fn examples_1_3_tuples() -> String {
    let cs = case_study();
    let d = cs.tmd.dimension(cs.org).expect("case study dimension");
    let mut out = String::new();
    out.push_str("Member Versions (Definition 1):\n");
    for v in d.versions() {
        out.push_str("  ");
        out.push_str(&v.tuple_notation());
        out.push('\n');
    }
    out.push_str("Temporal Relationships (Definition 2):\n");
    for r in d.relationships() {
        let child = d.version(r.child).expect("exists");
        let parent = d.version(r.parent).expect("exists");
        out.push_str(&format!(
            "  <{}_id, {}_id, {}, {}>\n",
            child.name,
            parent.name,
            r.validity.start(),
            r.validity.end()
        ));
    }
    out
}

/// Example 7: the inferred structure versions of the case study.
pub fn structure_version_listing() -> String {
    let cs = case_study();
    let svs = cs.tmd.structure_versions();
    let d = cs.tmd.dimension(cs.org).expect("case study dimension");
    let mut out = String::new();
    for sv in &svs {
        out.push_str(&sv.label());
        let members: Vec<String> = sv.members[cs.org.index()]
            .iter()
            .map(|&id| d.version(id).expect("member exists").name.clone())
            .collect();
        out.push_str(&format!("  members: {}\n", members.join(", ")));
    }
    out
}

/// Figure 2: the Org dimension as a GraphViz DOT digraph with node and
/// edge validities.
pub fn figure_2_dot() -> String {
    let cs = case_study();
    cs.tmd
        .dimension(cs.org)
        .expect("case study dimension")
        .to_dot(Granularity::Month)
}

/// §5.2: the global quality factor of Q2 under every temporal mode,
/// with the default confidence weights.
pub fn quality_listing() -> String {
    let cs = case_study();
    let svs = cs.tmd.structure_versions();
    let q = mvolap_core::AggregateQuery::by_year(
        cs.org,
        "Department",
        mvolap_core::TemporalMode::Consistent,
    )
    .in_range(Interval::years(2002, 2003));
    let scores = compare_modes(
        &cs.tmd,
        &svs,
        &q,
        &ConfidenceWeights::DEFAULT,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
    .expect("Q2 evaluates in every mode");
    let mut out = String::new();
    for s in scores {
        out.push_str(&format!(
            "{:<6} Q = {:.3}  ({} rows, {} unmapped)\n",
            s.result.mode.label(),
            s.quality,
            s.result.rows.len(),
            s.result.unmapped_rows
        ));
    }
    out
}

/// Every artifact, in paper order.
pub fn all_artifacts() -> Vec<Artifact> {
    vec![
        Artifact {
            id: "table1",
            title: "Table 1. The organization dimension in 2001",
            body: render_table(&table_org(2001)),
        },
        Artifact {
            id: "table2",
            title: "Table 2. The organization dimension in 2002",
            body: render_table(&table_org(2002)),
        },
        Artifact {
            id: "table3",
            title: "Table 3. Snapshot of data for year 2001, 2002, 2003",
            body: render_table(&table_3_snapshot()),
        },
        Artifact {
            id: "table4",
            title: "Table 4. Result of Q1 in consistent time",
            body: render_table(&table_q1("tcm")),
        },
        Artifact {
            id: "table5",
            title: "Table 5. Result of Q1 mapped on 2001 organization",
            body: render_table(&table_q1("VERSION 0")),
        },
        Artifact {
            id: "table6",
            title: "Table 6. Result of Q1 mapped on 2002 organization",
            body: render_table(&table_q1("VERSION 1")),
        },
        Artifact {
            id: "table7",
            title: "Table 7. The organization dimension in 2003",
            body: render_table(&table_org(2003)),
        },
        Artifact {
            id: "table8",
            title: "Table 8. Result of Q2 in consistent time",
            body: render_table(&table_q2("tcm")),
        },
        Artifact {
            id: "table9",
            title: "Table 9. Result of Q2 on 2002 organization",
            body: render_table(&table_q2("VERSION 1")),
        },
        Artifact {
            id: "table10",
            title: "Table 10. Result of Q2 on 2003 organization",
            body: render_table(&table_q2("VERSION 2")),
        },
        Artifact {
            id: "table11",
            title: "Table 11. Examples of simple and complex operations",
            body: table_11_operations(),
        },
        Artifact {
            id: "table12",
            title: "Table 12. Table of mapping relations between version members",
            body: render_table(&table_12_mapping_relations()),
        },
        Artifact {
            id: "examples1-3",
            title: "Examples 1-3. Member versions and temporal relationships (tuple notation)",
            body: examples_1_3_tuples(),
        },
        Artifact {
            id: "truth-table",
            title: "Example 5. The ⊗cf aggregation truth table",
            body: render_table(&truth_table()),
        },
        Artifact {
            id: "structure-versions",
            title: "Example 7. Inferred structure versions",
            body: structure_version_listing(),
        },
        Artifact {
            id: "figure2",
            title: "Figure 2. The Org dimension (GraphViz DOT)",
            body: figure_2_dot(),
        },
        Artifact {
            id: "quality",
            title: "§5.2 Global quality factor of Q2 per temporal mode",
            body: quality_listing(),
        },
    ]
}
