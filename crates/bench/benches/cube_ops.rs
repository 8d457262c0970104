//! Cube navigation costs (DESIGN.md `bench_cube`): navigation is a
//! rewrite of the view's query, and every read re-evaluates it against
//! the caller's memo.
//!
//! Expected shape: opening a view on a cold memo pays the mode's
//! presentation; a roll-up or a slice on a warm memo pays only the
//! second-stage aggregation over the cached presented table, so it is
//! much cheaper than the cold open.

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvolap_core::{QueryMemo, TemporalMode};
use mvolap_query::CubeView;
use mvolap_workload::{generate, GeneratedWorkload, WorkloadConfig};

fn workload(departments: usize) -> GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(66)
        .with_departments(departments)
        .with_periods(4)
        .with_facts_per_department(6);
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    generate(&cfg).expect("workload generates")
}

/// Opening a view and reading it on a fresh memo: presentation plus
/// aggregation.
fn bench_open_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube/open_cold");
    group.sample_size(10);
    for departments in [20usize, 80] {
        let w = workload(departments);
        let svs = w.tmd.structure_versions();
        let mode = TemporalMode::Version(svs.last().expect("versions").id);
        group.bench_with_input(BenchmarkId::from_parameter(departments), &w, |b, w| {
            b.iter(|| {
                let memo = QueryMemo::new();
                let view = CubeView::open(&w.tmd, &svs, mode.clone(), &memo);
                view.rows().expect("view evaluates")
            })
        });
    }
    group.finish();
}

/// Navigation on a warm memo: each read re-aggregates the cached
/// presentation.
fn bench_navigation(c: &mut Criterion) {
    let w = workload(40);
    let svs = w.tmd.structure_versions();
    let memo = QueryMemo::new();
    CubeView::open(&w.tmd, &svs, TemporalMode::Consistent, &memo)
        .rows()
        .expect("warms the memo");

    c.bench_function("cube/rollup_and_read", |b| {
        b.iter(|| {
            let mut view = CubeView::open(&w.tmd, &svs, TemporalMode::Consistent, &memo);
            view.roll_up(w.dim).expect("dimension exists");
            view.rows().expect("view evaluates")
        })
    });

    c.bench_function("cube/slice_and_render", |b| {
        b.iter(|| {
            let mut view = CubeView::open(&w.tmd, &svs, TemporalMode::Consistent, &memo);
            view.slice(w.dim, "Dept0").expect("dimension exists");
            view.render().expect("view evaluates")
        })
    });
}

criterion_group!(benches, bench_open_cold, bench_navigation);
criterion_main!(benches);
