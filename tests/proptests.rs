//! Cross-crate randomized property tests: model invariants that must
//! hold for *any* evolving workload, not just the paper's case study.
//! Driven by the in-repo deterministic generator (`mvolap_prng::check`
//! replaces the external `proptest` crate, which the offline build
//! cannot fetch).

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultRow, ResultSet, TimeLevel};
use mvolap::core::{
    infer_structure_versions, Confidence, DeltaMvft, ExecContext, MultiVersionFactTable, QueryMemo,
    StructureVersion, TemporalMode, Tmd,
};
use mvolap::query::CubeView;
use mvolap::workload::{generate, GeneratedWorkload, WorkloadConfig};
use mvolap_prng::{check, Rng};

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

const CASES: u64 = 24;

/// A generated workload with evolution but no creations/deletions (so
/// every fact is mappable in every mode).
fn conservative_workload(rng: &mut Rng) -> GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(rng.u64_below(1_000))
        .with_periods(rng.u32_in(2, 6))
        .with_departments(rng.usize_in(3, 12))
        .with_facts_per_department(2);
    cfg.split_prob = rng.f64_in(0.0, 0.4);
    cfg.merge_prob = rng.f64_in(0.0, 0.2);
    cfg.reclassify_prob = rng.f64_in(0.0, 0.3);
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    generate(&cfg).expect("valid configurations generate")
}

/// A workload allowing creations and deletions too.
fn any_workload(rng: &mut Rng) -> GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(rng.u64_below(1_000))
        .with_periods(rng.u32_in(2, 5))
        .with_departments(rng.usize_in(3, 10))
        .with_facts_per_department(2);
    cfg.split_prob = rng.f64_in(0.0, 0.3);
    cfg.delete_prob = rng.f64_in(0.0, 0.2);
    cfg.create_prob = 0.1;
    generate(&cfg).expect("valid configurations generate")
}

fn grand_total(w: &GeneratedWorkload, mode: TemporalMode) -> (Option<f64>, usize) {
    let svs = w.tmd.structure_versions();
    let rs = evaluate(
        &w.tmd,
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
    .expect("grand total evaluates");
    let value = rs.rows.first().and_then(|r| r.cells[0].value);
    (value, rs.unmapped_rows)
}

/// Measure mass is conserved in every temporal mode when every
/// transition carries a total mapping (splits sum to 1, merges map
/// identically forward).
#[test]
fn mass_conserved_across_modes() {
    check(CASES, 0xa001, |rng| {
        let w = conservative_workload(rng);
        let (tcm, _) = grand_total(&w, TemporalMode::Consistent);
        let tcm = tcm.expect("facts exist");
        for sv in w.tmd.structure_versions() {
            let (v, unmapped) = grand_total(&w, TemporalMode::Version(sv.id));
            assert_eq!(unmapped, 0);
            let v = v.expect("all facts map");
            assert!(
                (tcm - v).abs() < 1e-6 * tcm.abs().max(1.0),
                "mode {} total {} != tcm {}",
                sv.id,
                v,
                tcm
            );
        }
    });
}

/// The structure versions always partition the covered timeline:
/// chronologically ordered, gap-free inside coverage, adjacent versions
/// differing in membership.
#[test]
fn structure_versions_partition_history() {
    check(CASES, 0xa002, |rng| {
        let w = any_workload(rng);
        let svs = w.tmd.structure_versions();
        assert!(!svs.is_empty());
        for pair in svs.windows(2) {
            // Ordered and adjacent (the workload dimension has no gaps:
            // divisions are eternal).
            assert_eq!(pair[0].interval.end().succ(), pair[1].interval.start());
            // Adjacent versions must differ in members or edges, else
            // they would be one version.
            assert!(pair[0].members != pair[1].members || pair[0].edges != pair[1].edges);
        }
        // The last version is open (divisions live forever).
        assert!(svs.last().expect("nonempty").interval.is_current());
    });
}

/// Definition 11's inclusion: the restriction of the multiversion fact
/// table to tcm is the consistent fact table with `sd` confidence
/// everywhere.
#[test]
fn tcm_presentation_is_source_data() {
    check(CASES, 0xa003, |rng| {
        let w = any_workload(rng);
        let mv = infer(&w.tmd).expect("inference");
        let tcm = mv.for_mode(&TemporalMode::Consistent).expect("tcm");
        assert_eq!(tcm.unmapped_rows, 0);
        let total: f64 = tcm.rows.iter().filter_map(|r| r.cells[0].value).sum();
        let fact_total: f64 = (0..w.tmd.facts().len())
            .map(|r| w.tmd.facts().value(r, 0))
            .sum();
        assert!((total - fact_total).abs() < 1e-6);
        for row in &tcm.rows {
            for c in &row.cells {
                assert_eq!(c.confidence, Confidence::Source);
            }
        }
    });
}

/// The delta (differences-only) materialisation reconstructs exactly
/// the full materialisation, for every mode.
#[test]
fn delta_equals_full_materialisation() {
    check(CASES, 0xa004, |rng| {
        let w = any_workload(rng);
        let full = infer(&w.tmd).expect("full");
        let delta = DeltaMvft::infer_par(&w.tmd, &ExecContext::sequential(), &QueryMemo::new())
            .expect("delta");
        for sv in w.tmd.structure_versions() {
            let mode = TemporalMode::Version(sv.id);
            let f = full.for_mode(&mode).expect("mode present");
            let r = delta.reconstruct(&w.tmd, &mode).expect("reconstructs");
            assert_eq!(f.rows.len(), r.rows.len());
            assert_eq!(f.unmapped_rows, r.unmapped_rows);
            for row in &f.rows {
                let other = r
                    .rows
                    .iter()
                    .find(|o| o.coords == row.coords && o.time == row.time)
                    .expect("row present in reconstruction");
                for (a, b) in row.cells.iter().zip(&other.cells) {
                    assert_eq!(a.confidence, b.confidence);
                    match (a.value, b.value) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                        (None, None) => {}
                        _ => panic!("value/unknown mismatch"),
                    }
                }
            }
        }
    });
}

/// Mapped cells are never *more* confident than source data, and
/// versions that need no mapping stay fully source.
#[test]
fn confidence_never_exceeds_source() {
    check(CASES, 0xa005, |rng| {
        let w = any_workload(rng);
        let mv = infer(&w.tmd).expect("inference");
        for p in mv.presentations() {
            for row in &p.rows {
                for c in &row.cells {
                    assert!(c.confidence <= Confidence::Source);
                    if c.value.is_none() {
                        assert_eq!(c.confidence, Confidence::Unknown);
                    }
                }
            }
        }
    });
}

/// Roll-up never changes grand totals: aggregating departments or
/// divisions or everything gives the same overall sum (within a mode).
#[test]
fn rollup_preserves_totals() {
    check(CASES, 0xa006, |rng| {
        let w = conservative_workload(rng);
        let svs = w.tmd.structure_versions();
        let modes: Vec<TemporalMode> = std::iter::once(TemporalMode::Consistent)
            .chain(svs.iter().map(|sv| TemporalMode::Version(sv.id)))
            .collect();
        for mode in modes {
            let mut totals = Vec::new();
            for level in [Some("Department"), Some("Division"), None] {
                let q = AggregateQuery {
                    group_by: level
                        .map(|l| vec![(w.dim, l.to_owned())])
                        .unwrap_or_default(),
                    time_level: TimeLevel::All,
                    measures: vec![],
                    mode: mode.clone(),
                    time_range: None,
                    filters: Vec::new(),
                };
                let rs = evaluate(&w.tmd, &svs, &q).expect("evaluates");
                let t: f64 = rs.rows.iter().filter_map(|r| r.cells[0].value).sum();
                totals.push(t);
            }
            assert!((totals[0] - totals[1]).abs() < 1e-6 * totals[0].abs().max(1.0));
            assert!((totals[1] - totals[2]).abs() < 1e-6 * totals[1].abs().max(1.0));
        }
    });
}

/// `infer_structure_versions` is deterministic and stable under
/// recomputation.
#[test]
fn structure_version_inference_is_deterministic() {
    check(CASES, 0xa007, |rng| {
        let w = any_workload(rng);
        let a = infer_structure_versions(w.tmd.dimensions());
        let b = w.tmd.structure_versions();
        assert_eq!(a, b);
    });
}

/// Persistence round-trips any generated schema: the reloaded schema
/// answers every mode's grand total identically and re-infers the same
/// structure versions.
#[test]
fn persistence_roundtrips_any_workload() {
    check(CASES, 0xa008, |rng| {
        let w = any_workload(rng);
        let mut buf = Vec::new();
        mvolap::core::persist::write_tmd(&w.tmd, &mut buf).expect("write");
        let back = mvolap::core::persist::read_tmd(&mut buf.as_slice()).expect("read");
        assert_eq!(back.facts().len(), w.tmd.facts().len());
        assert_eq!(back.structure_versions(), w.tmd.structure_versions());
        assert_eq!(
            back.evolution_log().entries().len(),
            w.tmd.evolution_log().entries().len()
        );
        let b = GeneratedWorkload {
            tmd: back,
            dim: w.dim,
            stats: w.stats.clone(),
        };
        for sv in w.tmd.structure_versions() {
            let (x, ux) = grand_total(&w, TemporalMode::Version(sv.id));
            let (y, uy) = grand_total(&b, TemporalMode::Version(sv.id));
            assert_eq!(ux, uy);
            match (x, y) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                (x, y) => assert_eq!(x, y),
            }
        }
    });
}

/// Every temporal mode of a workload: tcm, then each structure version.
fn modes_of(w: &GeneratedWorkload) -> Vec<TemporalMode> {
    mvolap::core::all_modes(&w.tmd.structure_versions())
}

/// `drill_down ∘ roll_up` is the identity on a view: after rolling a
/// dimension (or time) up and drilling back down, the rows are the
/// opening view's, bit for bit.
#[test]
fn drill_down_undoes_roll_up() {
    check(CASES, 0xa009, |rng| {
        let w = any_workload(rng);
        let svs = w.tmd.structure_versions();
        let memo = QueryMemo::new();
        for mode in modes_of(&w) {
            let mut view = CubeView::open(&w.tmd, &svs, mode, &memo);
            let opening = view.rows().expect("view evaluates");
            let bits = |rows: &[ResultRow]| -> Vec<(String, Vec<String>, Vec<_>)> {
                rows.iter()
                    .map(|r| {
                        let cells = r.cells.iter();
                        let cells = cells.map(|c| (c.value.map(f64::to_bits), c.confidence));
                        (r.time.clone(), r.keys.clone(), cells.collect())
                    })
                    .collect()
            };
            view.roll_up(w.dim).expect("dimension exists");
            view.drill_down(w.dim).expect("dimension exists");
            assert_eq!(bits(&view.rows().expect("view evaluates")), bits(&opening));
            view.roll_up_time();
            view.drill_down_time();
            assert_eq!(bits(&view.rows().expect("view evaluates")), bits(&opening));
        }
    });
}

/// In a `Version` mode every roll-up step — each dimension level up to
/// All, then time up to all time — keeps the grand total of a sum
/// measure on conservative workloads.
#[test]
fn version_mode_roll_ups_keep_the_grand_total() {
    check(CASES, 0xa00a, |rng| {
        let w = conservative_workload(rng);
        let svs = w.tmd.structure_versions();
        let memo = QueryMemo::new();
        for sv in &svs {
            let mut view = CubeView::open(&w.tmd, &svs, TemporalMode::Version(sv.id), &memo);
            let total = |view: &CubeView<'_>| -> f64 {
                let rows = view.rows().expect("view evaluates");
                rows.iter().filter_map(|r| r.cells[0].value).sum()
            };
            let opening = total(&view);
            while view.levels()[w.dim.index()].is_some() {
                view.roll_up(w.dim).expect("dimension exists");
                let t = total(&view);
                assert!((t - opening).abs() < 1e-6 * opening.abs().max(1.0));
            }
            view.roll_up_time();
            let t = total(&view);
            assert!((t - opening).abs() < 1e-6 * opening.abs().max(1.0));
        }
    });
}

/// Rotating a view changes only the order of each row's labels: every
/// row keeps its cells and its set of labels, at every level.
#[test]
fn rotate_keeps_cells_and_labels() {
    check(CASES, 0xa00b, |rng| {
        let w = any_workload(rng);
        let svs = w.tmd.structure_versions();
        let memo = QueryMemo::new();
        let mode = modes_of(&w).swap_remove(rng.usize_in(0, svs.len() + 1));
        let mut view = CubeView::open(&w.tmd, &svs, mode, &memo);
        // Splits a rendered line into its sorted labels and its cells.
        let split = |text: String| -> Vec<(Vec<String>, String)> {
            text.lines()
                .map(|line| {
                    let (labels, cells) = line.split_once(" :").expect("row has cells");
                    let mut labels: Vec<String> = labels.split(" | ").map(str::to_owned).collect();
                    labels.sort();
                    (labels, cells.to_owned())
                })
                .collect()
        };
        let axes = w.tmd.dimensions().len() + 1;
        for _ in 0..3 {
            let plain = split(view.render().expect("view evaluates"));
            let mut order: Vec<usize> = (0..axes).collect();
            for i in (1..axes).rev() {
                order.swap(i, rng.usize_in(0, i + 1));
            }
            if order.iter().enumerate().all(|(i, &o)| i == o) {
                order.reverse();
            }
            view.rotate(order).expect("a permutation");
            assert_eq!(split(view.render().expect("view evaluates")), plain);
            view.rotate((0..axes).collect()).expect("a permutation");
            view.roll_up(w.dim).expect("dimension exists");
        }
    });
}
