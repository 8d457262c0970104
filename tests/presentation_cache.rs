//! The presentation cache (the MultiVersion tier `evaluate_par` reads)
//! against fresh evaluation.
//!
//! One shared memo follows a seeded script that interleaves fact
//! appends — one row at a time and several morsels at a time, with
//! fractional values so that the association order of every sum shows
//! in its bits — Table 11 operators and queries over every temporal
//! mode. At threads 1/2/8 and morsel sizes 1/7/1024 every answer must
//! be bit-identical to `evaluate_par` with a fresh memo, the store must
//! hold at most one table per structure version plus `tcm`, and `Mixed`
//! modes must never be cached.

use mvolap::core::aggregate::{evaluate_par, AggregateQuery, ResultSet, TimeLevel};
use mvolap::core::evolution::{self, SplitPart};
use mvolap::core::tmp::{all_modes, TemporalMode};
use mvolap::core::{ExecContext, MeasureMapping, QueryMemo, Tmd};
use mvolap::temporal::Instant;
use mvolap::workload::{generate, GeneratedWorkload, WorkloadConfig};
use mvolap_prng::Rng;

const THREADS: [usize; 3] = [1, 2, 8];
const MORSEL_SIZES: [usize; 3] = [1, 7, 1024];

/// One step of the script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Every mode, at every thread count, through the shared memo.
    Query,
    /// One fact row.
    AppendRow,
    /// Two whole morsels and part of a third.
    AppendMorsels,
    /// Revise the share of an existing mapping relationship.
    Confidence,
    /// Split a live department after the last fact.
    Split,
}

/// Every transition the cache distinguishes: a repeat (hit), appends
/// of either size (extension), operators with and without appends
/// before the next query (a new stamp).
const SCRIPT: [Step; 17] = [
    Step::Query,
    Step::Query,
    Step::AppendRow,
    Step::Query,
    Step::AppendMorsels,
    Step::Query,
    Step::Confidence,
    Step::Query,
    Step::AppendMorsels,
    Step::AppendRow,
    Step::Query,
    Step::Split,
    Step::Query,
    Step::AppendRow,
    Step::AppendMorsels,
    Step::Query,
    Step::Confidence,
];

/// Bit-level equality of two aggregation results.
fn assert_result_identical(a: &ResultSet, b: &ResultSet, what: &str) {
    assert_eq!(a.unmapped_rows, b.unmapped_rows, "{what}: unmapped");
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!((&x.time, &x.keys), (&y.time, &y.keys), "{what}: keys");
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

fn workload() -> GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(31);
    cfg.split_prob = 0.3;
    cfg.merge_prob = 0.2;
    generate(&cfg).expect("seeded configs generate")
}

/// Grouping by department and instant keeps one result row per
/// presented cell, so a presented cell's bits reach the answer.
fn query(w: &GeneratedWorkload, mode: TemporalMode) -> AggregateQuery {
    let mut q = AggregateQuery::by_year(w.dim, "Department", mode);
    q.time_level = TimeLevel::Instant;
    q
}

/// Every cacheable mode plus one `Mixed` mode.
fn modes(w: &GeneratedWorkload) -> Vec<TemporalMode> {
    let svs = w.tmd.structure_versions();
    let mut modes = all_modes(&svs);
    let latest = svs.last().expect("workloads have versions").id;
    modes.push(TemporalMode::Mixed(vec![(w.dim, latest)]));
    modes
}

/// Appends `rows` facts, each at the coordinates and time of an
/// existing fact (so they pile into cells that already have sums) with
/// a fractional value.
fn append(tmd: &mut Tmd, rng: &mut Rng, rows: usize) {
    for _ in 0..rows {
        let facts = tmd.facts();
        let row = rng.usize_below(facts.len());
        let (coords, t) = (facts.row_coords(row), facts.time(row));
        tmd.add_fact(&coords, t, &[rng.f64_in(-50.0, 250.0)])
            .expect("an existing fact's coordinates stay valid at its time");
    }
}

fn revise_confidence(w: &mut GeneratedWorkload, rng: &mut Rng) {
    let rels = w.tmd.mapping_graph(w.dim).unwrap().relationships();
    let rel = rng.choose(rels).expect("workloads have mappings").clone();
    let share = rng.f64_in(0.1, 0.9);
    evolution::change_confidence(
        &mut w.tmd,
        w.dim,
        rel.from,
        rel.to,
        vec![MeasureMapping::approx_scale(share)],
        vec![MeasureMapping::approx_scale(1.0 - share)],
    )
    .expect("an existing relationship can be revised");
}

fn split(w: &mut GeneratedWorkload, rng: &mut Rng, at: Instant) {
    let dim = w.tmd.dimension(w.dim).unwrap();
    let live: Vec<_> = dim
        .versions()
        .iter()
        .filter(|v| v.level.as_deref() == Some("Department") && v.validity.contains(at))
        .map(|v| (v.id, v.name.clone()))
        .collect();
    let (victim, name) = rng.choose(&live).expect("live departments").clone();
    let parents = dim.ancestors_at(victim, at);
    let share = rng.f64_in(0.2, 0.8);
    evolution::split(
        &mut w.tmd,
        w.dim,
        victim,
        &[
            SplitPart::proportional(format!("{name}.a"), share, 1),
            SplitPart::proportional(format!("{name}.b"), 1.0 - share, 1),
        ],
        at,
        &parents,
    )
    .expect("split of a live department succeeds");
}

/// Runs the script at one morsel size through one shared memo.
fn run_script(morsel_size: usize) {
    let mut w = workload();
    let mut rng = Rng::seed_from_u64(0x5eed ^ morsel_size as u64);
    let shared = QueryMemo::new();
    let mut splits = 0;
    for (i, step) in SCRIPT.iter().enumerate() {
        match step {
            Step::Query => {
                let svs = w.tmd.structure_versions();
                for mode in modes(&w) {
                    let q = query(&w, mode.clone());
                    let fresh_ctx = ExecContext::new(1).with_morsel_size(morsel_size);
                    let fresh = evaluate_par(&w.tmd, &svs, &q, &fresh_ctx, &QueryMemo::new())
                        .expect("the script's queries evaluate");
                    // Rotate which thread count meets the stale table
                    // first, so every one of them extends or rebuilds.
                    for k in 0..THREADS.len() {
                        let threads = THREADS[(i + k) % THREADS.len()];
                        let ctx = ExecContext::new(threads).with_morsel_size(morsel_size);
                        let cached = evaluate_par(&w.tmd, &svs, &q, &ctx, &shared).unwrap();
                        assert_result_identical(
                            &cached,
                            &fresh,
                            &format!("morsel {morsel_size}, step {i}, {mode}, threads {threads}"),
                        );
                    }
                }
                let cached = shared.presented_modes();
                assert!(
                    cached.len() <= svs.len() + 1,
                    "at most one table per structure version plus tcm: {cached:?}"
                );
                assert!(
                    !cached.iter().any(|m| matches!(m, TemporalMode::Mixed(_))),
                    "Mixed modes are never cached: {cached:?}"
                );
            }
            Step::AppendRow => append(&mut w.tmd, &mut rng, 1),
            Step::AppendMorsels => {
                let rows = 2 * morsel_size + rng.usize_below(morsel_size.max(2));
                append(&mut w.tmd, &mut rng, rows);
            }
            Step::Confidence => revise_confidence(&mut w, &mut rng),
            Step::Split => {
                split(&mut w, &mut rng, Instant::ym(2010 + splits, 1));
                splits += 1;
            }
        }
    }
    let stats = shared.stats();
    assert!(stats.presentations.hits > 0, "repeats must hit: {stats:?}");
    assert!(stats.extended > 0, "appends must extend: {stats:?}");
}

#[test]
fn cached_answers_are_bit_identical_to_fresh_evaluation() {
    for morsel_size in MORSEL_SIZES {
        run_script(morsel_size);
    }
}

/// The counters tell the three outcomes apart: a repeat hits, an append
/// extends, an operator (a new stamp) and a new morsel size rebuild.
#[test]
fn repeats_hit_appends_extend_operators_rebuild() {
    let mut w = workload();
    let mut rng = Rng::seed_from_u64(7);
    let memo = QueryMemo::new();
    let ctx = ExecContext::new(2).with_morsel_size(16);
    let run = |w: &GeneratedWorkload, ctx: &ExecContext| {
        let svs = w.tmd.structure_versions();
        evaluate_par(
            &w.tmd,
            &svs,
            &query(w, TemporalMode::Consistent),
            ctx,
            &memo,
        )
        .unwrap();
        let s = memo.stats();
        (s.presentations.hits, s.extended, s.presentations.misses)
    };
    assert_eq!(run(&w, &ctx), (0, 0, 1), "first query folds every fact");
    assert_eq!(run(&w, &ctx), (1, 0, 1), "a repeat touches no fact row");
    append(&mut w.tmd, &mut rng, 40);
    assert_eq!(run(&w, &ctx), (1, 1, 1), "an append extends");
    assert_eq!(run(&w, &ctx), (2, 1, 1), "and the extended table is kept");
    assert_eq!(
        run(&w, &ctx.with_morsel_size(8)),
        (2, 1, 2),
        "another morsel size is another association tree"
    );
    revise_confidence(&mut w, &mut rng);
    assert_eq!(run(&w, &ctx), (2, 1, 3), "an operator draws a new stamp");
    assert_eq!(memo.presented_modes(), [TemporalMode::Consistent]);
}
