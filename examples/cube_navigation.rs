//! Navigating the case study: roll-up, drill-down, slice, dice and
//! rotate, with per-cell confidence colours.
//!
//! Opens a view of the case study in the 2003-structure mode (where
//! 2002 data is approximately mapped through the Jones split) and walks
//! it the way the prototype's ProClarity front end would, the cell
//! colours (§5.2) flagging mapped data. Each step rewrites the view's
//! query; every read re-aggregates the mode's cached presentation.
//!
//! ```text
//! cargo run --example cube_navigation
//! ```

use mvolap::core::case_study::case_study;
use mvolap::prelude::*;
use mvolap::query::CubeView;

fn main() {
    let cs = case_study();
    let svs = cs.tmd.structure_versions();

    let memo = QueryMemo::new();
    let mode = TemporalMode::Version(StructureVersionId(2));
    let mut view = CubeView::open(&cs.tmd, &svs, mode, &memo);
    println!("== Departments by year (finest grain) ==");
    println!("{}", view.render().expect("view evaluates"));

    view.roll_up(cs.org).expect("org exists");
    println!("== Roll-up to divisions ==");
    println!("{}", view.render().expect("view evaluates"));

    view.roll_up_time();
    println!("== Roll time up to the whole period ==");
    println!("{}", view.render().expect("view evaluates"));

    view.drill_down_time();
    view.drill_down(cs.org).expect("org exists");
    view.slice(cs.org, "Dpt.Bill").expect("org exists");
    println!("== Slice: only Dpt.Bill ==");
    println!("{}", view.render().expect("view evaluates"));

    view.dice(cs.org, vec!["Dpt.Bill".into(), "Dpt.Paul".into()])
        .expect("org exists");
    view.dice_time(vec!["2002".into()]);
    println!("== Dice: Bill+Paul in 2002 (the mapped year: yellow cells) ==");
    println!("{}", view.render().expect("view evaluates"));

    view.rotate(vec![1, 0]).expect("valid permutation");
    println!("== Rotate: department before year ==");
    println!("{}", view.render().expect("view evaluates"));

    let weights = ConfidenceWeights::DEFAULT;
    println!(
        "Quality of this viewpoint: Q = {:.3} (white = source, yellow = approximated)",
        view.quality(&weights).expect("view evaluates")
    );
}
