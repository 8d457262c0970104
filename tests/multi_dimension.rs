//! Multi-dimensional schemas: the case study has one evolving dimension;
//! these tests exercise two — an evolving Org crossed with an evolving
//! Product line — including simultaneous splits in both dimensions
//! (cartesian route fan-out in the multiversion presentation).

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultSet, TimeLevel};
use mvolap::core::evolution::{self, SplitPart};
use mvolap::core::{
    all_modes, present_par, Confidence, DimensionId, ExecContext, MappingFunction, MeasureDef,
    MeasureMapping, MemberVersionId, MemberVersionSpec, MultiVersionFactTable, PresentedFacts,
    QueryMemo, StructureVersion, TemporalDimension, TemporalMode, Tmd,
};
use mvolap::prelude::{Granularity, Instant, Interval};
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

/// A sequential presentation through a fresh memo.
fn present(
    tmd: &Tmd,
    svs: &[StructureVersion],
    mode: &TemporalMode,
) -> mvolap::core::Result<PresentedFacts> {
    present_par(
        tmd,
        svs,
        mode,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
}

struct TwoDim {
    tmd: Tmd,
    org: DimensionId,
    product: DimensionId,
    dept_a: MemberVersionId,
    gadget: MemberVersionId,
}

/// Org: Division1 > {DeptA, DeptB}; Product: All > {Gadget, Widget}.
/// In 2003 DeptA splits 50/50 into DeptA1/DeptA2 *and* Gadget splits
/// 30/70 into GadgetS/GadgetL.
fn build() -> TwoDim {
    let mut tmd = Tmd::new("sales", Granularity::Month);
    let all = Interval::since(Instant::ym(2001, 1));

    let mut org = TemporalDimension::new("Org");
    let div = org.add_version(
        MemberVersionSpec::named("Division1").at_level("Division"),
        all,
    );
    let dept_a = org.add_version(
        MemberVersionSpec::named("DeptA").at_level("Department"),
        all,
    );
    let dept_b = org.add_version(
        MemberVersionSpec::named("DeptB").at_level("Department"),
        all,
    );
    org.add_relationship(dept_a, div, all).expect("edge");
    org.add_relationship(dept_b, div, all).expect("edge");
    let org_id = tmd.add_dimension(org).expect("fresh schema");

    let mut product = TemporalDimension::new("Product");
    let family = product.add_version(
        MemberVersionSpec::named("AllProducts").at_level("Family"),
        all,
    );
    let gadget = product.add_version(MemberVersionSpec::named("Gadget").at_level("Item"), all);
    let widget = product.add_version(MemberVersionSpec::named("Widget").at_level("Item"), all);
    product.add_relationship(gadget, family, all).expect("edge");
    product.add_relationship(widget, family, all).expect("edge");
    let product_id = tmd.add_dimension(product).expect("fresh schema");

    tmd.add_measure(MeasureDef::summed("Revenue"))
        .expect("fresh schema");

    // 2001-2002 facts on the original structure.
    for year in [2001, 2002] {
        let t = Instant::ym(year, 6);
        tmd.add_fact(&[dept_a, gadget], t, &[100.0]).expect("fact");
        tmd.add_fact(&[dept_a, widget], t, &[40.0]).expect("fact");
        tmd.add_fact(&[dept_b, gadget], t, &[60.0]).expect("fact");
    }

    // 2003: both dimensions evolve simultaneously.
    let t3 = Instant::ym(2003, 1);
    evolution::split(
        &mut tmd,
        org_id,
        dept_a,
        &[
            SplitPart::proportional("DeptA1", 0.5, 1),
            SplitPart::proportional("DeptA2", 0.5, 1),
        ],
        t3,
        &[div],
    )
    .expect("org split");
    evolution::split(
        &mut tmd,
        product_id,
        gadget,
        &[
            SplitPart::proportional("GadgetS", 0.3, 1),
            SplitPart::proportional("GadgetL", 0.7, 1),
        ],
        t3,
        &[family],
    )
    .expect("product split");

    TwoDim {
        tmd,
        org: org_id,
        product: product_id,
        dept_a,
        gadget,
    }
}

#[test]
fn structure_versions_span_both_dimensions() {
    let s = build();
    let svs = s.tmd.structure_versions();
    // One boundary (2003) shared by both dimensions: two versions.
    assert_eq!(svs.len(), 2);
    assert!(svs[0].contains(s.org, s.dept_a));
    assert!(!svs[1].contains(s.org, s.dept_a));
    assert!(svs[0].contains(s.product, s.gadget));
    assert!(!svs[1].contains(s.product, s.gadget));
}

#[test]
fn simultaneous_splits_fan_out_cartesianly() {
    // DeptA×Gadget 2002 facts presented in the 2003 structure must fan
    // out into 2 × 2 = 4 cells with multiplied factors.
    let s = build();
    let svs = s.tmd.structure_versions();
    let mode = TemporalMode::Version(svs[1].id);
    let mv = infer(&s.tmd).expect("inference");
    let p = mv.for_mode(&mode).expect("mode present");
    let d_org = s.tmd.dimension(s.org).expect("org");
    let d_prod = s.tmd.dimension(s.product).expect("product");
    let name = |dim: &TemporalDimension, id| dim.version(id).expect("exists").name.clone();

    let mut fanned: Vec<(String, String, f64)> = p
        .rows
        .iter()
        .filter(|r| r.time.year() == 2002)
        .filter(|r| name(d_org, r.coords[0]).starts_with("DeptA"))
        .filter(|r| name(d_prod, r.coords[1]).starts_with("Gadget"))
        .map(|r| {
            (
                name(d_org, r.coords[0]),
                name(d_prod, r.coords[1]),
                r.cells[0].value.expect("known"),
            )
        })
        .collect();
    fanned.sort_by_key(|a| (a.0.clone(), a.1.clone()));
    assert_eq!(
        fanned,
        vec![
            ("DeptA1".into(), "GadgetL".into(), 100.0 * 0.5 * 0.7),
            ("DeptA1".into(), "GadgetS".into(), 100.0 * 0.5 * 0.3),
            ("DeptA2".into(), "GadgetL".into(), 100.0 * 0.5 * 0.7),
            ("DeptA2".into(), "GadgetS".into(), 100.0 * 0.5 * 0.3),
        ]
    );
    // Confidence combines across dimensions: am ⊗ am = am.
    for r in p.rows.iter().filter(|r| r.time.year() == 2002) {
        let org_mapped = name(d_org, r.coords[0]).starts_with("DeptA");
        let prod_mapped = name(d_prod, r.coords[1]).starts_with("Gadget");
        let expected = if org_mapped || prod_mapped {
            Confidence::Approx
        } else {
            Confidence::Source
        };
        assert_eq!(r.cells[0].confidence, expected);
    }
}

#[test]
fn mass_is_conserved_through_double_splits() {
    let s = build();
    let svs = s.tmd.structure_versions();
    let total = |mode: TemporalMode| -> f64 {
        let rs = evaluate(
            &s.tmd,
            &svs,
            &AggregateQuery {
                group_by: vec![],
                time_level: TimeLevel::All,
                measures: vec![],
                mode,
                time_range: None,
                filters: Vec::new(),
            },
        )
        .expect("evaluates");
        rs.rows[0].cells[0].value.expect("known")
    };
    let tcm = total(TemporalMode::Consistent);
    assert!((total(TemporalMode::Version(svs[0].id)) - tcm).abs() < 1e-9);
    assert!((total(TemporalMode::Version(svs[1].id)) - tcm).abs() < 1e-9);
}

#[test]
fn group_by_two_dimensions() {
    let s = build();
    let svs = s.tmd.structure_versions();
    let q = AggregateQuery {
        group_by: vec![(s.org, "Department".into()), (s.product, "Item".into())],
        time_level: TimeLevel::Year,
        measures: vec![],
        mode: TemporalMode::Consistent,
        time_range: Some(Interval::years(2001, 2001)),
        filters: Vec::new(),
    };
    let rs = evaluate(&s.tmd, &svs, &q).expect("evaluates");
    assert_eq!(rs.key_headers, vec!["Department", "Item"]);
    assert_eq!(rs.rows.len(), 3);
    let cell = rs
        .rows
        .iter()
        .find(|r| r.keys == vec!["DeptA".to_owned(), "Widget".to_owned()])
        .expect("cell present");
    assert_eq!(cell.cells[0].value, Some(40.0));
}

#[test]
fn mixed_mode_maps_one_dimension_only() {
    // §6 extension: present Org in the 2003 structure while Product
    // stays temporally consistent — DeptA's 2002 facts split, Gadget's
    // do not.
    let s = build();
    let svs = s.tmd.structure_versions();
    let mode = TemporalMode::Mixed(vec![(s.org, svs[1].id)]);
    let mv = present(&s.tmd, &svs, &mode).expect("presents");
    let d_org = s.tmd.dimension(s.org).expect("org");
    let d_prod = s.tmd.dimension(s.product).expect("product");
    let rows_2002: Vec<(String, String, f64)> = mv
        .rows
        .iter()
        .filter(|r| r.time.year() == 2002)
        .map(|r| {
            (
                d_org.version(r.coords[0]).expect("exists").name.clone(),
                d_prod.version(r.coords[1]).expect("exists").name.clone(),
                r.cells[0].value.expect("known"),
            )
        })
        .collect();
    // Gadget survives untouched; DeptA fans into A1/A2.
    assert!(rows_2002
        .iter()
        .any(|(o, p, v)| o == "DeptA1" && p == "Gadget" && *v == 50.0));
    assert!(rows_2002
        .iter()
        .any(|(o, p, v)| o == "DeptA2" && p == "Gadget" && *v == 50.0));
    assert!(rows_2002.iter().all(|(_, p, _)| !p.starts_with("GadgetS")));
    // Product side was untouched, Org mapping downgrades confidence.
    let q = AggregateQuery {
        group_by: vec![(s.product, "Item".into())],
        time_level: TimeLevel::All,
        measures: vec![],
        mode,
        time_range: None,
        filters: Vec::new(),
    };
    let rs = evaluate(&s.tmd, &svs, &q).expect("evaluates");
    let gadget = rs.rows.iter().find(|r| r.keys[0] == "Gadget").expect("row");
    // 2001+2002 gadget facts: (100+60)*2 = 320; 2003 facts on GadgetS/L
    // group separately (product stays consistent).
    assert_eq!(gadget.cells[0].value, Some(320.0));
}

#[test]
fn unmapped_facts_are_counted_when_no_route_exists() {
    // Delete DeptB in 2003 without any mapping: its facts cannot be
    // presented in the 2003 structure.
    let mut s = build();
    let dept_b = s
        .tmd
        .dimension(s.org)
        .expect("org")
        .version_named_at("DeptB", Instant::ym(2002, 6))
        .expect("exists")
        .id;
    evolution::delete(&mut s.tmd, s.org, dept_b, Instant::ym(2003, 1)).expect("delete");
    let svs = s.tmd.structure_versions();
    let last = svs.last().expect("versions").id;
    let p = present(&s.tmd, &svs, &TemporalMode::Version(last)).expect("presents");
    // DeptB had 2 facts (2001, 2002 gadget rows).
    assert_eq!(p.unmapped_rows, 2);
}

/// FNV-1a over every presented bit of one presentation: mode, unmapped
/// count, and each row's coordinates, time, confidence codes and value
/// bits, in row order.
fn presented_digest(mut h: u64, p: &PresentedFacts) -> u64 {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(format!("{}|{}|", p.mode, p.unmapped_rows).as_bytes());
    for r in &p.rows {
        eat(format!("{:?}|{:?}|", r.coords, r.time).as_bytes());
        for c in &r.cells {
            eat(format!("{:?}|", c.confidence).as_bytes());
            eat(&c.value.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        }
    }
    h
}

/// The two-dimension schema plus a 2004 split of DeptB whose parts map
/// *affinely*: DeptB × Gadget facts presented in the 2004 structure fan
/// out over an affine Org route and a scaled Product route, so both the
/// fan-out order and the left-to-right compose order across dimensions
/// show in the presented bits (scale factors alone commute).
fn build_affine() -> TwoDim {
    let mut s = build();
    let t4 = Instant::ym(2004, 1);
    let org = s.tmd.dimension(s.org).expect("org");
    let dept_b = org.version_named_at("DeptB", t4).expect("live").id;
    let div = org.version_named_at("Division1", t4).expect("live").id;
    let affine = |a, b| SplitPart {
        name: format!("DeptB{a}"),
        forward: vec![MeasureMapping {
            func: MappingFunction::Affine { a, b },
            confidence: Confidence::Approx,
        }],
        backward: vec![MeasureMapping::EXACT_IDENTITY],
    };
    evolution::split(
        &mut s.tmd,
        s.org,
        dept_b,
        &[affine(0.25, 7.0), affine(0.75, -7.0)],
        t4,
        &[div],
    )
    .expect("affine org split");
    let product = s.tmd.dimension(s.product).expect("product");
    let gadget_s = product.version_named_at("GadgetS", t4).expect("live").id;
    let org = s.tmd.dimension(s.org).expect("org");
    let b1 = org.version_named_at("DeptB0.25", t4).expect("live").id;
    for month in [3, 9] {
        s.tmd
            .add_fact(&[b1, gadget_s], Instant::ym(2004, month), &[12.5])
            .expect("fact");
    }
    s
}

/// Presented bits are pinned across the presentation fold's rewrites:
/// every mode of two schemas, at threads {1, 2, 3} × morsel sizes
/// {1, 7, 1024}. Thread count never changes a bit; morsel size fixes
/// the association tree, so each size has its own digest. The digests
/// were computed on the fold that built one route vector per fact row.
#[test]
fn presented_bits_are_pinned_across_threads_and_morsels() {
    let mut heavy = WorkloadConfig::small(11).with_periods(6);
    heavy.split_prob = 0.5;
    heavy.merge_prob = 0.3;
    let warehouse = generate(&heavy).expect("seeded config generates");
    assert!(warehouse.stats.splits > 0 && warehouse.stats.merges > 0);
    let schemas: [(&str, &Tmd, [u64; 3]); 2] = [
        (
            "two-dimension",
            &build_affine().tmd,
            [0x320b_360d_aa5f_02cf; 3],
        ),
        (
            "warehouse",
            &warehouse.tmd,
            [
                0x4535_c4e6_132c_4743,
                0x44b3_171e_0467_29b7,
                0xfb73_438b_cf4f_3734,
            ],
        ),
    ];
    for (name, tmd, pins) in schemas {
        let svs = tmd.structure_versions();
        for (morsel, pin) in [1, 7, 1024].into_iter().zip(pins) {
            for threads in [1, 2, 3] {
                let ctx = ExecContext::new(threads).with_morsel_size(morsel);
                let memo = QueryMemo::new();
                let digest = all_modes(&svs)
                    .iter()
                    .fold(0xcbf2_9ce4_8422_2325, |h, mode| {
                        let p = present_par(tmd, &svs, mode, &ctx, &memo).expect("presents");
                        presented_digest(h, &p)
                    });
                assert_eq!(
                    digest, pin,
                    "{name}: morsel {morsel}, threads {threads}: {digest:#x}"
                );
            }
        }
    }
}
