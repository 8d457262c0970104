//! The paper's running case study (§2.1), ready-built.
//!
//! An institution's Organization dimension with hierarchy
//! `{Division > Department}` and a single measure `Amount`:
//!
//! * 2001: Sales = {Dpt.Jones, Dpt.Smith}, R&D = {Dpt.Brian} (Table 1);
//! * 2002: Smith's department is reorganised into R&D (Table 2);
//! * 2003: Jones's department splits into Paul's (60 %) and Bill's
//!   (40 %) (Table 7), with the mapping relationships of Example 6.
//!
//! The fact data is exactly the snapshot of Table 3. These builders are
//! used by tests, examples and the paper-table reproduction harness; a
//! two-measure variant (`Turnover` + `Profit` with split factors
//! 0.6/0.4 and 0.8/0.2) backs the Table 12 metadata experiment.

use mvolap_temporal::{Granularity, Instant, Interval};

use crate::dimension::TemporalDimension;
use crate::fact::MeasureDef;
use crate::ids::{DimensionId, MemberVersionId};
use crate::mapping::{MappingRelationship, MeasureMapping};
use crate::member::MemberVersionSpec;
use crate::schema::Tmd;

/// The assembled case study with the member-version ids of interest.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The schema, loaded with the Table 3 snapshot.
    pub tmd: Tmd,
    /// The Organization dimension.
    pub org: DimensionId,
    /// Division Sales `[01/2001 ; Now]`.
    pub sales: MemberVersionId,
    /// Division R&D `[01/2001 ; Now]`.
    pub rnd: MemberVersionId,
    /// Dpt.Jones `[01/2001 ; 12/2002]`.
    pub jones: MemberVersionId,
    /// Dpt.Smith `[01/2001 ; Now]` (reclassified Sales → R&D in 2002).
    pub smith: MemberVersionId,
    /// Dpt.Brian `[01/2001 ; Now]`.
    pub brian: MemberVersionId,
    /// Dpt.Bill `[01/2003 ; Now]` (40 % of Jones).
    pub bill: MemberVersionId,
    /// Dpt.Paul `[01/2003 ; Now]` (60 % of Jones).
    pub paul: MemberVersionId,
}

/// Builds the Organization dimension shared by both variants.
fn build_org() -> (TemporalDimension, [MemberVersionId; 7]) {
    let mut d = TemporalDimension::new("Org");
    let since01 = Interval::since(Instant::ym(2001, 1));
    let sales = d.add_version(
        MemberVersionSpec::named("Sales").at_level("Division"),
        since01,
    );
    let rnd = d.add_version(
        MemberVersionSpec::named("R&D").at_level("Division"),
        since01,
    );
    let jones = d.add_version(
        MemberVersionSpec::named("Dpt.Jones").at_level("Department"),
        Interval::of(Instant::ym(2001, 1), Instant::ym(2002, 12)),
    );
    let smith = d.add_version(
        MemberVersionSpec::named("Dpt.Smith").at_level("Department"),
        since01,
    );
    let brian = d.add_version(
        MemberVersionSpec::named("Dpt.Brian").at_level("Department"),
        since01,
    );
    let bill = d.add_version(
        MemberVersionSpec::named("Dpt.Bill").at_level("Department"),
        Interval::since(Instant::ym(2003, 1)),
    );
    let paul = d.add_version(
        MemberVersionSpec::named("Dpt.Paul").at_level("Department"),
        Interval::since(Instant::ym(2003, 1)),
    );
    d.add_relationship(
        jones,
        sales,
        Interval::of(Instant::ym(2001, 1), Instant::ym(2002, 12)),
    )
    .expect("case study edge");
    // Smith under Sales in 2001 (Table 1), under R&D from 2002 (Table 2).
    d.add_relationship(
        smith,
        sales,
        Interval::of(Instant::ym(2001, 1), Instant::ym(2001, 12)),
    )
    .expect("case study edge");
    d.add_relationship(smith, rnd, Interval::since(Instant::ym(2002, 1)))
        .expect("case study edge");
    d.add_relationship(brian, rnd, since01)
        .expect("case study edge");
    d.add_relationship(bill, sales, Interval::since(Instant::ym(2003, 1)))
        .expect("case study edge");
    d.add_relationship(paul, sales, Interval::since(Instant::ym(2003, 1)))
        .expect("case study edge");
    (d, [sales, rnd, jones, smith, brian, bill, paul])
}

/// A fact time in the middle of the given year (facts in the paper are
/// reported per year).
fn mid(year: i32) -> Instant {
    Instant::ym(year, 6)
}

/// The Table 3 snapshot: `(year, department, amount)`.
pub const TABLE_3: [(i32, &str, f64); 10] = [
    (2001, "Dpt.Jones", 100.0),
    (2001, "Dpt.Smith", 50.0),
    (2001, "Dpt.Brian", 100.0),
    (2002, "Dpt.Jones", 100.0),
    (2002, "Dpt.Smith", 100.0),
    (2002, "Dpt.Brian", 50.0),
    (2003, "Dpt.Bill", 150.0),
    (2003, "Dpt.Paul", 50.0),
    (2003, "Dpt.Smith", 110.0),
    (2003, "Dpt.Brian", 40.0),
];

/// Builds the single-measure (`Amount`) case study with the Example 6
/// mapping relationships, `<Jones, Bill, {(x→0.4x, am)}, {(x→x, em)}>`
/// and `<Jones, Paul, {(x→0.6x, am)}, {(x→x, em)}>`, and the Table 3
/// facts.
pub fn case_study() -> CaseStudy {
    build(&["Amount"], [&[0.4], &[0.6]], &[1.0])
}

/// The two-measure variant behind §5.2 / Table 12: `Turnover` (m1,
/// split 60 % Paul / 40 % Bill) and `Profit` (m2, split 80 % Paul /
/// 20 % Bill). Facts carry a synthetic profit of 20 % of the amount.
pub fn case_study_two_measures() -> CaseStudy {
    build(
        &["Turnover", "Profit"],
        [&[0.4, 0.2], &[0.6, 0.8]],
        &[1.0, 0.2],
    )
}

/// The case study with one summed measure per name: Jones's split maps
/// each measure to Bill and to Paul by its share (`splits`, approximate
/// forward, exact identity backward), and each Table 3 amount enters
/// each measure times its factor.
fn build(measures: &[&str], splits: [&[f64]; 2], factors: &[f64]) -> CaseStudy {
    let mut tmd = Tmd::new("institution", Granularity::Month);
    let (d, [sales, rnd, jones, smith, brian, bill, paul]) = build_org();
    let org = tmd
        .add_dimension(d)
        .expect("empty schema accepts dimensions");
    for name in measures {
        tmd.add_measure(MeasureDef::summed(*name))
            .expect("empty schema accepts measures");
    }
    for (to, shares) in [bill, paul].into_iter().zip(splits) {
        let rel = MappingRelationship {
            from: jones,
            to,
            forward: shares
                .iter()
                .map(|&k| MeasureMapping::approx_scale(k))
                .collect(),
            backward: vec![MeasureMapping::EXACT_IDENTITY; shares.len()],
        };
        tmd.add_mapping(org, rel).expect("case study mapping");
    }
    for (year, dept, amount) in TABLE_3 {
        let values: Vec<f64> = factors.iter().map(|f| amount * f).collect();
        tmd.add_fact_by_names(&[dept], mid(year), &values)
            .expect("Table 3 facts are valid");
    }
    CaseStudy {
        tmd,
        org,
        sales,
        rnd,
        jones,
        smith,
        brian,
        bill,
        paul,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingFunction;

    #[test]
    fn case_study_shape() {
        let cs = case_study();
        assert_eq!(cs.tmd.dimensions().len(), 1);
        assert_eq!(cs.tmd.measures().len(), 1);
        assert_eq!(cs.tmd.facts().len(), 10);
        assert_eq!(
            cs.tmd.mapping_graph(cs.org).unwrap().relationships().len(),
            2
        );
    }

    #[test]
    fn case_study_has_three_structure_versions() {
        let cs = case_study();
        let svs = cs.tmd.structure_versions();
        assert_eq!(svs.len(), 3);
        assert_eq!(svs[0].interval, Interval::years(2001, 2001));
        assert_eq!(svs[1].interval, Interval::years(2002, 2002));
        assert_eq!(svs[2].interval, Interval::since(Instant::ym(2003, 1)));
    }

    #[test]
    fn smith_moves_divisions_in_2002() {
        let cs = case_study();
        let d = cs.tmd.dimension(cs.org).unwrap();
        assert_eq!(d.parents_at(cs.smith, Instant::ym(2001, 6)), vec![cs.sales]);
        assert_eq!(d.parents_at(cs.smith, Instant::ym(2002, 6)), vec![cs.rnd]);
    }

    #[test]
    fn two_measure_variant_shape() {
        let cs = case_study_two_measures();
        assert_eq!(cs.tmd.measures().len(), 2);
        assert_eq!(cs.tmd.facts().len(), 10);
        let rels = cs.tmd.mapping_graph(cs.org).unwrap().relationships();
        assert_eq!(rels[0].forward[0].func, MappingFunction::Scale(0.4));
        assert_eq!(rels[0].forward[1].func, MappingFunction::Scale(0.2));
        assert_eq!(rels[1].forward[1].func, MappingFunction::Scale(0.8));
    }
}
