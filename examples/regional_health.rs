//! Depth-derived levels on a deep hierarchy — the paper's "no explicit
//! schema" claim (§2.3) exercised end to end.
//!
//! A health agency tracks admissions across Region > District >
//! Facility, but *declares no levels at all*: hierarchy levels emerge
//! from the DAG depth of the instances (`L0`, `L1`, `L2`), evolve when
//! districts are reorganised, and everything downstream — queries,
//! cube, quality — works unchanged.
//!
//! ```text
//! cargo run --example regional_health
//! ```

use mvolap::core::evolution;
use mvolap::core::levels::{levels_at, LevelDerivation};
use mvolap::core::{MeasureDef, MemberVersionSpec, TemporalDimension, Tmd};
use mvolap::prelude::*;
use mvolap::query::{run, CubeView};

fn main() {
    let mut tmd = Tmd::new("health", Granularity::Month);
    let mut geo = TemporalDimension::new("Geo");
    let all = Interval::since(Instant::ym(2010, 1));

    // No `.at_level(...)` anywhere: levels will be derived from depth.
    let north = geo.add_version(MemberVersionSpec::named("North"), all);
    let south = geo.add_version(MemberVersionSpec::named("South"), all);
    let d1 = geo.add_version(MemberVersionSpec::named("District-1"), all);
    let d2 = geo.add_version(MemberVersionSpec::named("District-2"), all);
    let d3 = geo.add_version(MemberVersionSpec::named("District-3"), all);
    geo.add_relationship(d1, north, all).expect("edge");
    geo.add_relationship(d2, north, all).expect("edge");
    geo.add_relationship(d3, south, all).expect("edge");
    let mut facilities = Vec::new();
    for (name, district) in [
        ("Clinic-A", d1),
        ("Clinic-B", d1),
        ("Hospital-C", d2),
        ("Clinic-D", d3),
        ("Hospital-E", d3),
    ] {
        let f = geo.add_version(MemberVersionSpec::named(name), all);
        geo.add_relationship(f, district, all).expect("edge");
        facilities.push(f);
    }
    let dim = tmd.add_dimension(geo).expect("fresh schema");
    tmd.add_measure(MeasureDef::summed("Admissions"))
        .expect("fresh schema");

    // Levels are equivalence classes of DAG depth (Definition 4).
    let (derivation, levels) = levels_at(tmd.dimension(dim).expect("geo"), Instant::ym(2010, 6));
    assert_eq!(derivation, LevelDerivation::Depth);
    println!("Derived levels at 06/2010:");
    for l in &levels {
        println!("  {} -> {} members", l.name, l.members.len());
    }
    println!();

    // Admissions for 2010-2012.
    for year in 2010..=2012 {
        for (i, &f) in facilities.iter().enumerate() {
            tmd.add_fact(&[f], Instant::ym(year, 6), &[100.0 + 10.0 * i as f64])
                .expect("fact");
        }
    }

    // 2013: District-1 is split into District-1A and District-1B.
    // District-1 is an *interior* node, and Definition 7 restricts
    // mapping relationships to leaf member versions — interior values
    // "will be calculated from the aggregation of their children values".
    // So an interior split is: exclude the old district, create the new
    // ones, and reclassify the facilities below; no mapping functions
    // are needed because the facilities themselves live on.
    let t = Instant::ym(2013, 1);
    evolution::delete(&mut tmd, dim, d1, t).expect("exclude district");
    let d1a = evolution::create(&mut tmd, dim, "District-1A", None, t, &[north])
        .expect("create district")
        .created[0];
    let d1b = evolution::create(&mut tmd, dim, "District-1B", None, t, &[north])
        .expect("create district")
        .created[0];
    // Clinics move under the new districts: a reclassification each.
    evolution::reclassify(&mut tmd, dim, facilities[0], t, &[d1], &[d1a]).expect("reclassify");
    evolution::reclassify(&mut tmd, dim, facilities[1], t, &[d1], &[d1b]).expect("reclassify");
    for year in 2013..=2014 {
        for (i, &f) in facilities.iter().enumerate() {
            tmd.add_fact(&[f], Instant::ym(year, 6), &[120.0 + 10.0 * i as f64])
                .expect("fact");
        }
    }

    // District-1A/1B carry no facts of their own (interior nodes):
    // their admissions roll up from the clinics below — in every mode.
    let svs = tmd.structure_versions();
    println!("{} structure versions inferred:", svs.len());
    for sv in &svs {
        println!("  {}", sv.label());
    }
    println!();

    println!("== Admissions by derived level L1 (districts), consistent time ==");
    let rs = run(&tmd, "SELECT sum(Admissions) BY year, Geo.L1 IN MODE tcm").expect("query runs");
    print!("{}", rs.render("admissions").expect("renderable"));
    println!();

    println!("== The same, presented in the latest structure ==");
    let last = svs.last().expect("versions").id;
    let rs = run(
        &tmd,
        &format!(
            "SELECT sum(Admissions) BY year, Geo.L1 IN MODE VERSION {}",
            last.0
        ),
    )
    .expect("query runs");
    print!("{}", rs.render("admissions").expect("renderable"));
    println!();

    // Navigation works identically over derived levels.
    let memo = QueryMemo::new();
    let mut view = CubeView::open(&tmd, &svs, TemporalMode::Version(last), &memo);
    view.roll_up(dim).expect("geo exists"); // facilities -> districts
    view.roll_up(dim).expect("geo exists"); // districts -> regions
    println!("== Regions by year (rolled up twice) ==");
    print!("{}", view.render().expect("view evaluates"));
}
