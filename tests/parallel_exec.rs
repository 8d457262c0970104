//! Cross-thread determinism of the morsel-parallel execution engine.
//!
//! The engine's contract is *bit-identical* output for every thread
//! count: morsel boundaries depend only on the morsel size, and
//! per-worker partial states merge in morsel order. These tests pin
//! that contract on seeded `mvolap-workload` schemas whose evolutions
//! exercise the exact (`em`) and approximate (`am`) confidence folds,
//! and check that the shared generation-keyed memo cache never changes
//! a result — even across interleaved evolution operations.

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultSet};
use mvolap::core::evolution::{self, SplitPart};
use mvolap::core::multiversion::{present_par, MultiVersionFactTable, PresentedFacts};
use mvolap::core::tmp::{all_modes, TemporalMode};
use mvolap::core::{
    Confidence, CoreError, ExecContext, MeasureDef, MemberVersionSpec, QueryMemo,
    TemporalDimension, Tmd,
};
use mvolap::temporal::{Granularity, Instant, Interval};
use mvolap::workload::{generate, GeneratedWorkload, WorkloadConfig};

const THREADS: [usize; 3] = [1, 2, 8];

/// Three seeded configurations: the library default, a split/merge-heavy
/// schema, and a wider churning one. Together they must exercise both
/// split (am) and merge (em) mappings — asserted in the tests.
fn configs() -> Vec<WorkloadConfig> {
    let mut heavy = WorkloadConfig::small(11).with_periods(6);
    heavy.split_prob = 0.5;
    heavy.merge_prob = 0.3;
    let mut churn = WorkloadConfig::small(23).with_departments(16);
    churn.split_prob = 0.35;
    churn.merge_prob = 0.35;
    churn.reclassify_prob = 0.25;
    vec![WorkloadConfig::small(7), heavy, churn]
}

fn workloads() -> Vec<GeneratedWorkload> {
    let ws: Vec<GeneratedWorkload> = configs()
        .iter()
        .map(|c| generate(c).expect("seeded configs generate"))
        .collect();
    let splits: usize = ws.iter().map(|w| w.stats.splits).sum();
    let merges: usize = ws.iter().map(|w| w.stats.merges).sum();
    assert!(splits > 0, "workloads must exercise splits (am confidence)");
    assert!(merges > 0, "workloads must exercise merges (em confidence)");
    ws
}

/// Bit-level equality of two presentations: coordinates, times,
/// confidence codes, and the exact f64 bit pattern of every value.
fn assert_presented_identical(a: &PresentedFacts, b: &PresentedFacts, what: &str) {
    assert_eq!(a.unmapped_rows, b.unmapped_rows, "{what}: unmapped");
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.coords, y.coords, "{what}: coords");
        assert_eq!(x.time, y.time, "{what}: time");
        assert_eq!(x.cells.len(), y.cells.len(), "{what}: cell count");
        for (cx, cy) in x.cells.iter().zip(&y.cells) {
            assert_eq!(cx.confidence, cy.confidence, "{what}: confidence");
            assert_eq!(
                cx.value.map(f64::to_bits),
                cy.value.map(f64::to_bits),
                "{what}: value bits"
            );
        }
    }
}

/// Bit-level equality of two aggregation results.
fn assert_result_identical(a: &ResultSet, b: &ResultSet, what: &str) {
    assert_eq!(a.unmapped_rows, b.unmapped_rows, "{what}: unmapped");
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.time, y.time, "{what}: time key");
        assert_eq!(x.keys, y.keys, "{what}: group keys");
        for (cx, cy) in x.cells.iter().zip(&y.cells) {
            assert_eq!(cx.confidence, cy.confidence, "{what}: confidence");
            assert_eq!(
                cx.value.map(f64::to_bits),
                cy.value.map(f64::to_bits),
                "{what}: value bits"
            );
        }
    }
}

#[test]
fn present_par_is_bit_identical_across_threads() {
    for (i, w) in workloads().iter().enumerate() {
        let svs = w.tmd.structure_versions();
        for mode in all_modes(&svs) {
            // Sequential baseline = the threads-1 case of the same
            // morsel decomposition (a small morsel size forces several
            // morsels even on small workloads, exercising the merge).
            let base_ctx = ExecContext::new(1).with_morsel_size(64);
            let baseline = present_par(&w.tmd, &svs, &mode, &base_ctx, &QueryMemo::new()).unwrap();
            for threads in THREADS {
                let ctx = ExecContext::new(threads).with_morsel_size(64);
                let p = present_par(&w.tmd, &svs, &mode, &ctx, &QueryMemo::new()).unwrap();
                assert_presented_identical(
                    &baseline,
                    &p,
                    &format!("config {i}, mode {mode}, threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn evaluate_par_is_bit_identical_across_threads() {
    for (i, w) in workloads().iter().enumerate() {
        let svs = w.tmd.structure_versions();
        let latest = svs.last().expect("workloads have versions").id;
        for mode in [TemporalMode::Consistent, TemporalMode::Version(latest)] {
            let q = AggregateQuery::by_year(w.dim, "Division", mode.clone());
            let base_ctx = ExecContext::new(1).with_morsel_size(64);
            let baseline = evaluate_par(&w.tmd, &svs, &q, &base_ctx, &QueryMemo::new()).unwrap();
            // Some cell must carry a non-source confidence, or the
            // determinism claim never touches the ⊗cf merge path.
            if mode != TemporalMode::Consistent {
                assert!(
                    baseline
                        .rows
                        .iter()
                        .flat_map(|r| r.cells.iter())
                        .any(|c| c.confidence != Confidence::Source),
                    "config {i}: version mode should exercise mapped confidences"
                );
            }
            for threads in THREADS {
                let ctx = ExecContext::new(threads).with_morsel_size(64);
                let rs = evaluate_par(&w.tmd, &svs, &q, &ctx, &QueryMemo::new()).unwrap();
                assert_result_identical(
                    &baseline,
                    &rs,
                    &format!("config {i}, mode {mode}, threads {threads}"),
                );
            }
        }
    }
}

#[test]
fn mvft_infer_par_is_bit_identical_across_threads() {
    let w = &workloads()[1]; // the split/merge-heavy schema
    let baseline =
        MultiVersionFactTable::infer_par(&w.tmd, &ExecContext::sequential(), &QueryMemo::new())
            .unwrap();
    for threads in THREADS {
        let ctx = ExecContext::new(threads); // default morsel size
        let memo = QueryMemo::new();
        let mv = MultiVersionFactTable::infer_par(&w.tmd, &ctx, &memo).unwrap();
        assert_eq!(mv.presentations().len(), baseline.presentations().len());
        for (a, b) in baseline.presentations().iter().zip(mv.presentations()) {
            assert_presented_identical(a, b, &format!("mvft threads {threads}"));
        }
        // The shared memo must actually engage: a second inference on
        // it computes no route, and every lookup it makes is a hit.
        let first = memo.stats().routes;
        MultiVersionFactTable::infer_par(&w.tmd, &ctx, &memo).unwrap();
        let second = memo.stats().routes;
        assert_eq!(
            second.misses, first.misses,
            "threads {threads}: no route recomputed"
        );
        assert_eq!(
            second.hits - first.hits,
            first.hits + first.misses,
            "threads {threads}: the second pass repeats the first's lookups as hits"
        );
    }
}

/// Each worker keeps the first error of its morsels and the morsel-order
/// merge keeps the earliest, so every thread count reports the error a
/// sequential run meets first. A department sits under a Team (2001
/// only) inside a Unit (2001–2002), then directly under its Division:
/// grouping by Unit and Team succeeds on the 2001 facts, fails on Team
/// from 2002 and on Unit from 2003 — one fact per morsel, so later
/// morsels carry a different error than the earliest failing one.
#[test]
fn earliest_error_wins_at_every_thread_count() {
    let mut org = TemporalDimension::new("Org");
    let since = Interval::since(Instant::ym(2001, 1));
    let y2001 = Interval::years(2001, 2001);
    let y2002 = Interval::years(2002, 2002);
    let div = org.add_version(MemberVersionSpec::named("Div").at_level("Division"), since);
    let unit = org.add_version(
        MemberVersionSpec::named("Unit1").at_level("Unit"),
        Interval::years(2001, 2002),
    );
    let team = org.add_version(MemberVersionSpec::named("Team1").at_level("Team"), y2001);
    let dept = org.add_version(
        MemberVersionSpec::named("Dept").at_level("Department"),
        since,
    );
    org.add_relationship(team, unit, y2001).unwrap();
    org.add_relationship(unit, div, Interval::years(2001, 2002))
        .unwrap();
    org.add_relationship(dept, team, y2001).unwrap();
    org.add_relationship(dept, unit, y2002).unwrap();
    org.add_relationship(dept, div, Interval::since(Instant::ym(2003, 1)))
        .unwrap();
    let mut tmd = Tmd::new("partial levels", Granularity::Month);
    let org = tmd.add_dimension(org).unwrap();
    tmd.add_measure(MeasureDef::summed("Amount")).unwrap();
    for year in [2001, 2002, 2003] {
        for month in [2, 6, 10] {
            tmd.add_fact(&[dept], Instant::ym(year, month), &[1.0])
                .unwrap();
        }
    }
    let svs = tmd.structure_versions();
    let mut q = AggregateQuery::by_year(org, "Unit", TemporalMode::Consistent);
    q.group_by.push((org, "Team".into()));
    let expected = CoreError::UnknownLevel {
        dimension: "Org".into(),
        level: "Team".into(),
    };
    for threads in [1, 2, 4] {
        let ctx = ExecContext::new(threads).with_morsel_size(1);
        let err = evaluate_par(&tmd, &svs, &q, &ctx, &QueryMemo::new()).unwrap_err();
        assert_eq!(err, expected, "threads {threads}");
    }
    // Without the Team column the 2002 morsels succeed and 2003's fail
    // on Unit: the fixture does reach both errors.
    q.group_by.pop();
    let err = evaluate_par(&tmd, &svs, &q, &ExecContext::new(2), &QueryMemo::new()).unwrap_err();
    assert!(matches!(err, CoreError::UnknownLevel { level, .. } if level == "Unit"));
}

/// Proptest: a shared memo cache and a cache-bypassing run (fresh memo
/// per query) agree bit-for-bit, including after interleaved evolution
/// operations — a stale cache entry surviving a generation bump would
/// surface here as a value or confidence mismatch.
#[test]
fn prop_shared_memo_agrees_with_bypass_across_evolutions() {
    mvolap_prng::check(16, 0x9a01, |rng| {
        let mut cfg = WorkloadConfig::small(rng.u64_below(1_000));
        cfg.split_prob = 0.3;
        cfg.merge_prob = 0.2;
        let mut w = generate(&cfg).expect("valid configurations generate");
        let shared = QueryMemo::new();
        let ctx = ExecContext::new(4).with_morsel_size(32);

        for round in 0..3u32 {
            let svs = w.tmd.structure_versions();
            let latest = svs.last().expect("versions exist").id;
            for mode in [TemporalMode::Consistent, TemporalMode::Version(latest)] {
                let q = AggregateQuery::by_year(w.dim, "Division", mode);
                let cached = evaluate_par(&w.tmd, &svs, &q, &ctx, &shared).unwrap();
                let bypass = evaluate_par(&w.tmd, &svs, &q, &ctx, &QueryMemo::new()).unwrap();
                assert_result_identical(&cached, &bypass, &format!("round {round}"));
            }

            // Interleave an evolution: split a live department in two.
            // The generation bump must invalidate the shared memo.
            let at = Instant::ym(2010 + round as i32, 1);
            let dim = w.tmd.dimension(w.dim).unwrap();
            let candidates: Vec<_> = dim
                .versions()
                .iter()
                .filter(|v| v.level.as_deref() == Some("Department") && v.validity.contains(at))
                .map(|v| (v.id, v.name.clone()))
                .collect();
            if let Some((victim, name)) = rng.choose(&candidates).cloned() {
                let parents = dim.ancestors_at(victim, at);
                let measures = w.tmd.measures().len();
                let before = w.tmd.generation();
                evolution::split(
                    &mut w.tmd,
                    w.dim,
                    victim,
                    &[
                        SplitPart::proportional(format!("{name}.a"), 0.5, measures),
                        SplitPart::proportional(format!("{name}.b"), 0.5, measures),
                    ],
                    at,
                    &parents,
                )
                .expect("split of a live department succeeds");
                assert!(
                    w.tmd.generation() > before,
                    "evolution must bump generation"
                );
            }
        }
        // The shared cache must have been exercised, not silently idle.
        let stats = shared.stats();
        assert!(
            stats.routes.hits + stats.ancestors.hits > 0,
            "shared memo never hit — cache not engaged"
        );
    });
}
