//! Physical dimension layouts (DESIGN.md `bench_layouts`): the §5.1
//! discussion made operational — group-by queries against the star
//! (denormalised), snowflake (normalised) and parent-child exports of
//! the same evolving dimension, executed by the relational engine.
//!
//! Expected shape: star wins for roll-up group-bys (the hierarchy is
//! pre-joined); snowflake pays one hash join per level; parent-child
//! pays per-edge reconstruction (modelled here as join against the
//! edge list).

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvolap_core::logical::{export_parent_child, export_snowflake, export_star};
use mvolap_core::{logical, ExecContext, MultiVersionFactTable, QueryMemo};
use mvolap_storage::{AggCall, AggFunc, Predicate, Table};
use mvolap_workload::{generate, WorkloadConfig};

struct Setup {
    star: Table,
    snowflake: Vec<Table>,
    parent_child: Table,
    fact: Table,
}

fn setup(departments: usize) -> Setup {
    let mut cfg = WorkloadConfig::small(91)
        .with_departments(departments)
        .with_periods(4)
        .with_facts_per_department(6);
    // Parent-child export requires single hierarchies; the generated
    // workload never creates multi-parent members, so all layouts apply.
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    let w = generate(&cfg).expect("workload generates");
    let mv =
        MultiVersionFactTable::infer_par(&w.tmd, &ExecContext::sequential(), &QueryMemo::new())
            .expect("inference");
    Setup {
        star: export_star(&w.tmd, w.dim).expect("star"),
        snowflake: export_snowflake(&w.tmd, w.dim).expect("snowflake"),
        parent_child: export_parent_child(&w.tmd, w.dim).expect("parent-child"),
        fact: logical::export_multiversion_fact(&w.tmd, &mv).expect("fact"),
    }
}

/// Group the tcm slice of the fact table by division through each
/// layout's join path.
fn bench_group_by(c: &mut Criterion) {
    let mut group = c.benchmark_group("layouts/groupby_division");
    group.sample_size(10);
    for departments in [20usize, 80] {
        let s = setup(departments);
        let tcm = s.fact.filter(&Predicate::eq("tmp_id", 0)).expect("filter");

        group.bench_with_input(BenchmarkId::new("star", departments), &s, |b, s| {
            b.iter(|| {
                tcm.join(&s.star, "Org_id", "mv_id")
                    .expect("join")
                    .group_by(&["Division"], &[AggCall::new(AggFunc::Sum, "Amount")])
                    .expect("group by")
            })
        });

        group.bench_with_input(BenchmarkId::new("snowflake", departments), &s, |b, s| {
            b.iter(|| {
                // Department level table, then its parent (division).
                let dept = &s.snowflake[1];
                let div = &s.snowflake[0];
                tcm.join(dept, "Org_id", "mv_id")
                    .expect("join dept")
                    .join(div, "parent_id", "mv_id")
                    .expect("join div")
                    .group_by(&["member_right"], &[AggCall::new(AggFunc::Sum, "Amount")])
                    .expect("group by")
            })
        });

        group.bench_with_input(BenchmarkId::new("parent_child", departments), &s, |b, s| {
            b.iter(|| {
                // Join the edge list to climb one level.
                tcm.join(&s.parent_child, "Org_id", "mv_id")
                    .expect("join edges")
                    .group_by(&["parent_id"], &[AggCall::new(AggFunc::Sum, "Amount")])
                    .expect("group by")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group_by);
criterion_main!(benches);
