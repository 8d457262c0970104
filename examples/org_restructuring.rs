//! Driving evolutions with the §3.2 operators, from an empty schema.
//!
//! Builds a university's structure from scratch, then applies the whole
//! operator palette — create, reclassify, transform, split, merge,
//! increase, partial annexation — printing the compiled basic-operator
//! scripts (paper Table 11 style), the evolution log, the resulting
//! dimension as GraphViz DOT (Figure 2 style), and the per-mode quality
//! factors of a final query.
//!
//! ```text
//! cargo run --example org_restructuring
//! ```

use mvolap::core::evolution::{self, MergeSource, PartialAnnexationSpec, SplitPart};
use mvolap::core::{ConfidenceWeights, MeasureDef, MemberVersionSpec, TemporalDimension, Tmd};
use mvolap::prelude::*;
use mvolap::query::compare_modes;

fn main() {
    let mut tmd = Tmd::new("university", Granularity::Month);
    let dim = tmd
        .add_dimension(TemporalDimension::new("Faculty"))
        .expect("fresh schema");
    tmd.add_measure(MeasureDef::summed("Budget"))
        .expect("fresh schema");

    // 2010: two faculties, four institutes.
    let t0 = Instant::ym(2010, 1);
    let science = tmd
        .add_version(
            dim,
            MemberVersionSpec::named("Science").at_level("Faculty"),
            Interval::since(t0),
        )
        .expect("add version");
    let arts = tmd
        .add_version(
            dim,
            MemberVersionSpec::named("Arts").at_level("Faculty"),
            Interval::since(t0),
        )
        .expect("add version");
    let mut institutes = Vec::new();
    for (name, faculty) in [
        ("Inst.Math", science),
        ("Inst.Physics", science),
        ("Inst.History", arts),
        ("Inst.Music", arts),
    ] {
        let o = evolution::create(
            &mut tmd,
            dim,
            name,
            Some("Institute".into()),
            t0,
            &[faculty],
        )
        .expect("create");
        println!("create {name}:\n{}\n", o.render(&tmd));
        institutes.push(o.created[0]);
    }
    let [math, physics, history, music]: [_; 4] = institutes.try_into().expect("four institutes");

    // Budgets for 2010-2013 (before any evolution).
    for year in 2010..=2013 {
        for (inst, budget) in [
            (math, 300.0),
            (physics, 500.0),
            (history, 200.0),
            (music, 100.0),
        ] {
            if tmd
                .dimension(dim)
                .expect("dim")
                .is_valid_at(inst, Instant::ym(year, 6))
            {
                tmd.add_fact(&[inst], Instant::ym(year, 6), &[budget])
                    .expect("fact");
            }
        }
    }

    // 2014: History moves from Arts to Science (pure reclassification —
    // the conceptual model keeps the member version and re-wires edges).
    let t1 = Instant::ym(2014, 1);
    let o =
        evolution::reclassify(&mut tmd, dim, history, t1, &[arts], &[science]).expect("reclassify");
    println!(
        "reclassify Inst.History under Science:\n{}\n",
        o.render(&tmd)
    );

    // 2015: Math splits into Pure (30%) and Applied (70%).
    let t2 = Instant::ym(2015, 1);
    let o = evolution::split(
        &mut tmd,
        dim,
        math,
        &[
            SplitPart::proportional("Inst.PureMath", 0.3, 1),
            SplitPart::proportional("Inst.AppliedMath", 0.7, 1),
        ],
        t2,
        &[science],
    )
    .expect("split");
    println!("split Inst.Math:\n{}\n", o.render(&tmd));
    let pure = o.created[0];
    let applied = o.created[1];

    // 2016: Music and History merge into Humanities (60/40 backward).
    let t3 = Instant::ym(2016, 1);
    let o = evolution::merge(
        &mut tmd,
        dim,
        &[
            MergeSource::with_share(history, 0.6, 1),
            MergeSource::with_share(music, 0.4, 1),
        ],
        "Inst.Humanities",
        Some("Institute".into()),
        t3,
        &[arts],
    )
    .expect("merge");
    println!("merge History+Music:\n{}\n", o.render(&tmd));
    let humanities = o.created[0];

    // 2017: Physics annexes 20% of Applied Math (a 15% increase).
    let t4 = Instant::ym(2017, 1);
    let o = evolution::partial_annexation(
        &mut tmd,
        dim,
        applied,
        physics,
        "Inst.AppliedMath-",
        "Inst.Physics+",
        PartialAnnexationSpec {
            moved: 0.2,
            target_growth: 0.15,
        },
        t4,
        &[science],
    )
    .expect("partial annexation");
    println!("partial annexation Applied->Physics:\n{}\n", o.render(&tmd));
    let applied_minus = o.created[0];
    let physics_plus = o.created[1];

    // Budgets for the evolved years.
    for year in 2014..=2018 {
        let t = Instant::ym(year, 6);
        for (inst, budget) in [
            (pure, 120.0),
            (applied, 280.0),
            (applied_minus, 230.0),
            (physics, 520.0),
            (physics_plus, 610.0),
            (history, 210.0),
            (music, 90.0),
            (humanities, 310.0),
        ] {
            let d = tmd.dimension(dim).expect("dim");
            if d.is_valid_at(inst, t) && d.is_leaf_at(inst, t) {
                tmd.add_fact(&[inst], t, &[budget]).expect("fact");
            }
        }
    }

    println!("== Evolution log (metadata, §5.2) ==");
    for e in tmd.evolution_log().entries() {
        println!("  {} [{}] {}", e.at, e.operator, e.description);
    }
    println!();

    let svs = tmd.structure_versions();
    println!("== {} structure versions inferred ==", svs.len());
    for sv in &svs {
        println!("  {}", sv.label());
    }
    println!();

    println!("== Faculty dimension (GraphViz DOT — render with `dot -Tsvg`) ==");
    println!(
        "{}",
        tmd.dimension(dim).expect("dim").to_dot(Granularity::Month)
    );

    // Finally: budget by institute in every temporal mode, with the
    // §5.2 quality factor guiding the choice of mode.
    let q = AggregateQuery::by_year(dim, "Institute", TemporalMode::Consistent);
    println!("== Quality factor of `budget by institute and year` per mode ==");
    let scores = compare_modes(
        &tmd,
        &svs,
        &q,
        &ConfidenceWeights::DEFAULT,
        &ExecContext::sequential(),
        &QueryMemo::new(),
    )
    .expect("query evaluates");
    for s in &scores {
        println!(
            "  {:<6} Q = {:.3}  ({} rows, {} unmapped facts)",
            s.result.mode.label(),
            s.quality,
            s.result.rows.len(),
            s.result.unmapped_rows
        );
    }
    let best = scores
        .iter()
        .max_by(|a, b| a.quality.partial_cmp(&b.quality).expect("no NaN"))
        .expect("nonempty");
    println!(
        "\nBest mode under these weights: {}",
        best.result.mode.label()
    );
}
