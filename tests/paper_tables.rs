//! Asserts that every regenerated paper artifact matches the published
//! tables cell by cell. The artifacts are produced by the engine (via
//! `mvolap_bench::paper`), never from literals, so these tests pin the
//! whole pipeline to the paper.

use mvolap_bench::paper;
use mvolap_storage::{Table, Value};

/// Collects `(column -> String)` rows for easy comparison.
fn rows(table: &Table) -> Vec<Vec<String>> {
    table
        .rows()
        .map(|r| r.iter().map(Value::to_string).collect())
        .collect()
}

fn srow(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn table_1_organization_2001() {
    assert_eq!(
        rows(&paper::table_org(2001)),
        vec![
            srow(&["Sales", "Dpt.Jones"]),
            srow(&["Sales", "Dpt.Smith"]),
            srow(&["R&D", "Dpt.Brian"]),
        ]
    );
}

#[test]
fn table_2_organization_2002() {
    assert_eq!(
        rows(&paper::table_org(2002)),
        vec![
            srow(&["Sales", "Dpt.Jones"]),
            srow(&["R&D", "Dpt.Smith"]),
            srow(&["R&D", "Dpt.Brian"]),
        ]
    );
}

#[test]
fn table_3_snapshot() {
    assert_eq!(
        rows(&paper::table_3_snapshot()),
        vec![
            srow(&["2001", "Sales", "Dpt.Jones", "100"]),
            srow(&["2001", "Sales", "Dpt.Smith", "50"]),
            srow(&["2001", "R&D", "Dpt.Brian", "100"]),
            srow(&["2002", "Sales", "Dpt.Jones", "100"]),
            srow(&["2002", "R&D", "Dpt.Smith", "100"]),
            srow(&["2002", "R&D", "Dpt.Brian", "50"]),
            srow(&["2003", "Sales", "Dpt.Bill", "150"]),
            srow(&["2003", "Sales", "Dpt.Paul", "50"]),
            srow(&["2003", "R&D", "Dpt.Smith", "110"]),
            srow(&["2003", "R&D", "Dpt.Brian", "40"]),
        ]
    );
}

#[test]
fn table_4_q1_consistent_time() {
    assert_eq!(
        rows(&paper::table_q1("tcm")),
        vec![
            srow(&["2001", "Sales", "150", "sd"]),
            srow(&["2001", "R&D", "100", "sd"]),
            srow(&["2002", "Sales", "100", "sd"]),
            srow(&["2002", "R&D", "150", "sd"]),
        ]
    );
}

#[test]
fn table_5_q1_on_2001_organization() {
    assert_eq!(
        rows(&paper::table_q1("VERSION 0")),
        vec![
            srow(&["2001", "Sales", "150", "sd"]),
            srow(&["2001", "R&D", "100", "sd"]),
            srow(&["2002", "Sales", "200", "sd"]),
            srow(&["2002", "R&D", "50", "sd"]),
        ]
    );
}

#[test]
fn table_6_q1_on_2002_organization() {
    assert_eq!(
        rows(&paper::table_q1("VERSION 1")),
        vec![
            srow(&["2001", "Sales", "100", "sd"]),
            srow(&["2001", "R&D", "150", "sd"]),
            srow(&["2002", "Sales", "100", "sd"]),
            srow(&["2002", "R&D", "150", "sd"]),
        ]
    );
}

#[test]
fn table_7_organization_2003() {
    assert_eq!(
        rows(&paper::table_org(2003)),
        vec![
            srow(&["Sales", "Dpt.Bill"]),
            srow(&["Sales", "Dpt.Paul"]),
            srow(&["R&D", "Dpt.Smith"]),
            srow(&["R&D", "Dpt.Brian"]),
        ]
    );
}

#[test]
fn table_8_q2_consistent_time() {
    assert_eq!(
        rows(&paper::table_q2("tcm")),
        vec![
            srow(&["2002", "Dpt.Jones", "100", "sd"]),
            srow(&["2002", "Dpt.Smith", "100", "sd"]),
            srow(&["2002", "Dpt.Brian", "50", "sd"]),
            srow(&["2003", "Dpt.Bill", "150", "sd"]),
            srow(&["2003", "Dpt.Paul", "50", "sd"]),
            srow(&["2003", "Dpt.Smith", "110", "sd"]),
            srow(&["2003", "Dpt.Brian", "40", "sd"]),
        ]
    );
}

#[test]
fn table_9_q2_on_2002_organization() {
    // Bill's 150 and Paul's 50 of 2003 present as Jones 200, exact.
    assert_eq!(
        rows(&paper::table_q2("VERSION 1")),
        vec![
            srow(&["2002", "Dpt.Jones", "100", "sd"]),
            srow(&["2002", "Dpt.Smith", "100", "sd"]),
            srow(&["2002", "Dpt.Brian", "50", "sd"]),
            srow(&["2003", "Dpt.Jones", "200", "em"]),
            srow(&["2003", "Dpt.Smith", "110", "sd"]),
            srow(&["2003", "Dpt.Brian", "40", "sd"]),
        ]
    );
}

#[test]
fn table_10_q2_on_2003_organization() {
    // Jones's 100 of 2002 presents as Bill 40 / Paul 60, approximated.
    assert_eq!(
        rows(&paper::table_q2("VERSION 2")),
        vec![
            srow(&["2002", "Dpt.Bill", "40", "am"]),
            srow(&["2002", "Dpt.Paul", "60", "am"]),
            srow(&["2002", "Dpt.Smith", "100", "sd"]),
            srow(&["2002", "Dpt.Brian", "50", "sd"]),
            srow(&["2003", "Dpt.Bill", "150", "sd"]),
            srow(&["2003", "Dpt.Paul", "50", "sd"]),
            srow(&["2003", "Dpt.Smith", "110", "sd"]),
            srow(&["2003", "Dpt.Brian", "40", "sd"]),
        ]
    );
}

/// The full Table 11 rendering, line for line: the order of the basic
/// operators in each script is the contract (it decides the member
/// version ids, so the snapshot bytes and the WAL replay).
#[test]
fn table_11_operator_scripts() {
    let expected = "\
Creation of Vnew at time T in the dimension Org as a child of P1:
- Insert(Org, idVnew, Vnew, 01/2003, {idP1}, ∅)

Change from V to V' at time T (equivalence relationship):
- Exclude(Org, idV, 01/2003)
- Insert(Org, idV', V', 01/2003, {idP1}, ∅)
- Associate(idV, idV', {(x->x,em)}, {(x->x,em)})

Merge of V1 and V2 into V12 at time T (half of V12 maps back to V1, V12->V2 unknown):
- Exclude(Org, idV1, 01/2003)
- Exclude(Org, idV2, 01/2003)
- Insert(Org, idV12, V12, 01/2003, {idP1}, ∅)
- Associate(idV1, idV12, {(x->x,em)}, {(x->0.5*x,am)})
- Associate(idV2, idV12, {(x->x,em)}, {(-,uk)})

Increase V in V+ at time T (values increase with a factor 2):
- Exclude(Org, idV, 01/2003)
- Insert(Org, idV+, V+, 01/2003, {idP1}, ∅)
- Associate(idV, idV+, {(x->2*x,am)}, {(x->0.5*x,am)})

Partial annexation of a portion of V1 to V2 at time T (10% of V1 goes to V2, a 20% increase for V2):
- Exclude(Org, idV1, 01/2003)
- Exclude(Org, idV2, 01/2003)
- Insert(Org, idV1-, V1-, 01/2003, {idP1}, ∅)
- Insert(Org, idV2+, V2+, 01/2003, {idP1}, ∅)
- Associate(idV1, idV1-, {(x->0.9*x,am)}, {(x->x,em)})
- Associate(idV2, idV2+, {(x->x,em)}, {(x->0.8333333333333334*x,am)})
- Associate(idV1, idV2+, {(x->0.1*x,am)}, {(x->0.16666666666666669*x,am)})
";
    let text = paper::table_11_operations();
    assert_eq!(
        text.lines().collect::<Vec<_>>(),
        expected.lines().collect::<Vec<_>>()
    );
}

#[test]
fn table_11_split_applies_the_case_study_evolution() {
    let (tmd, outcome) = paper::split_outcome();
    assert_eq!(outcome.created.len(), 2);
    let expected = [
        "- Exclude(Org, idV, 01/2003)",
        "- Insert(Org, idVa, Va, 01/2003, {idP1}, ∅)",
        "- Insert(Org, idVb, Vb, 01/2003, {idP1}, ∅)",
        "- Associate(idV, idVa, {(x->0.4*x,am)}, {(x->x,em)})",
        "- Associate(idV, idVb, {(x->0.6*x,am)}, {(x->x,em)})",
    ];
    assert_eq!(outcome.render(&tmd), expected.join("\n"));
}

#[test]
fn table_12_mapping_relations() {
    assert_eq!(
        rows(&paper::table_12_mapping_relations()),
        vec![
            srow(&["Dpt.Jones", "Dpt.Bill", "0.4", "0.2", "1", "1", "1", "2"]),
            srow(&["Dpt.Jones", "Dpt.Paul", "0.6", "0.8", "1", "1", "1", "2"]),
        ]
    );
}

#[test]
fn examples_1_to_3_tuple_notation() {
    let text = mvolap_bench::paper::examples_1_3_tuples();
    // Example 1's three member versions.
    assert!(text.contains("'Dpt.Jones', Department, 01/2001, 12/2002"));
    assert!(text.contains("'Dpt.Paul', Department, 01/2003, Now"));
    assert!(text.contains("'Dpt.Bill', Department, 01/2003, Now"));
    // Example 2's temporal relationships.
    assert!(text.contains("<Dpt.Jones_id, Sales_id, 01/2001, 12/2002>"));
    assert!(text.contains("<Dpt.Paul_id, Sales_id, 01/2003, Now>"));
    assert!(text.contains("<Dpt.Bill_id, Sales_id, 01/2003, Now>"));
}

#[test]
fn example_5_truth_table() {
    assert_eq!(
        rows(&paper::truth_table()),
        vec![
            srow(&["sd", "sd", "em", "am", "uk"]),
            srow(&["em", "em", "em", "am", "uk"]),
            srow(&["am", "am", "am", "am", "uk"]),
            srow(&["uk", "uk", "uk", "uk", "uk"]),
        ]
    );
}

#[test]
fn example_7_structure_versions() {
    let listing = paper::structure_version_listing();
    assert!(listing.contains("VS0 [01/2001 ; 12/2001]"));
    assert!(listing.contains("VS1 [01/2002 ; 12/2002]"));
    assert!(listing.contains("VS2 [01/2003 ; Now]"));
    // Jones lives in VS0/VS1, the split parts only in VS2.
    let lines: Vec<&str> = listing.lines().collect();
    assert!(lines[0].contains("Dpt.Jones") && !lines[0].contains("Dpt.Bill"));
    assert!(lines[2].contains("Dpt.Bill") && !lines[2].contains("Dpt.Jones"));
}

#[test]
fn figure_2_dot_graph() {
    let dot = paper::figure_2_dot();
    assert!(dot.starts_with("digraph \"Org\""));
    for fragment in [
        "Dpt.Jones\\n[01/2001 ; 12/2002]",
        "Dpt.Bill\\n[01/2003 ; Now]",
        "Dpt.Paul\\n[01/2003 ; Now]",
        "Sales\\n[01/2001 ; Now]",
    ] {
        assert!(dot.contains(fragment), "missing {fragment}");
    }
    // Six roll-up edges.
    assert_eq!(dot.matches(" -> ").count(), 6);
}

#[test]
fn quality_listing_orders_modes_sensibly() {
    assert_eq!(
        paper::quality_listing(),
        "tcm    Q = 1.000  (7 rows, 0 unmapped)\n\
         VS0    Q = 0.967  (6 rows, 0 unmapped)\n\
         VS1    Q = 0.967  (6 rows, 0 unmapped)\n\
         VS2    Q = 0.875  (8 rows, 0 unmapped)\n"
    );
}

#[test]
fn all_artifacts_have_bodies() {
    let artifacts = paper::all_artifacts();
    assert_eq!(artifacts.len(), 17);
    for a in &artifacts {
        assert!(!a.body.trim().is_empty(), "artifact {} is empty", a.id);
    }
}
