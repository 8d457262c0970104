//! Query-language costs (DESIGN.md `bench_query`): lexing+parsing alone,
//! planning, and end-to-end execution.
//!
//! Expected shape: parse and plan are microseconds and independent of
//! data volume; execution dominates and scales with facts.

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvolap_core::{ExecContext, QueryMemo};
use mvolap_query::{parse, plan, run_with_versions_par};
use mvolap_workload::{generate, WorkloadConfig};

const Q: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2004 IN MODE tcm";
const Q_MAPPED: &str = "SELECT sum(Amount) BY year, Org.Department IN MODE VERSION 0";

fn bench_parse(c: &mut Criterion) {
    c.bench_function("query/parse", |b| b.iter(|| parse(Q).expect("parses")));
}

fn bench_plan_and_run(c: &mut Criterion) {
    let mut cfg = WorkloadConfig::small(55)
        .with_departments(25)
        .with_periods(4)
        .with_facts_per_department(8);
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    let w = generate(&cfg).expect("workload generates");
    let svs = w.tmd.structure_versions();

    let ast = parse(Q).expect("parses");
    c.bench_function("query/plan", |b| {
        b.iter(|| plan(&w.tmd, &svs, &ast).expect("plans"))
    });

    let mut group = c.benchmark_group("query/run");
    group.sample_size(20);
    for (label, text) in [("tcm", Q), ("mapped", Q_MAPPED)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &text, |b, text| {
            let exec = ExecContext::sequential();
            b.iter(|| {
                run_with_versions_par(&w.tmd, &svs, text, &exec, &QueryMemo::new()).expect("runs")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parse, bench_plan_and_run);
criterion_main!(benches);
