//! MultiVersion Fact Table inference cost (DESIGN.md
//! `bench_mvft_inference`): full materialisation vs the differences-only
//! extension, swept over fact volume and structure-version count.
//!
//! Expected shape: inference is linear in facts; full materialisation
//! grows with the number of structure versions (the §5.1 redundancy)
//! while the delta representation's stored volume stays near the mapped
//! fraction.

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvolap_core::{DeltaMvft, ExecContext, MultiVersionFactTable, QueryMemo};
use mvolap_workload::{generate, WorkloadConfig};

fn evolving(
    seed: u64,
    departments: usize,
    periods: u32,
    facts: usize,
) -> mvolap_workload::GeneratedWorkload {
    let mut cfg = WorkloadConfig::small(seed)
        .with_departments(departments)
        .with_periods(periods)
        .with_facts_per_department(facts);
    cfg.split_prob = 0.20;
    cfg.merge_prob = 0.05;
    cfg.reclassify_prob = 0.10;
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    generate(&cfg).expect("workload generates")
}

fn bench_fact_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvft_inference/facts");
    group.sample_size(10);
    for facts_per_dept in [2usize, 8, 32] {
        let w = evolving(7, 20, 4, facts_per_dept);
        let n = w.tmd.facts().len();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("full", n), &w, |b, w| {
            b.iter(|| {
                MultiVersionFactTable::infer_par(
                    &w.tmd,
                    &ExecContext::sequential(),
                    &QueryMemo::new(),
                )
                .expect("inference")
            })
        });
        group.bench_with_input(BenchmarkId::new("delta", n), &w, |b, w| {
            b.iter(|| {
                DeltaMvft::infer_par(&w.tmd, &ExecContext::sequential(), &QueryMemo::new())
                    .expect("inference")
            })
        });
    }
    group.finish();
}

fn bench_version_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("mvft_inference/versions");
    group.sample_size(10);
    for periods in [2u32, 4, 8] {
        let w = evolving(11, 15, periods, 4);
        let versions = w.tmd.structure_versions().len();
        group.bench_with_input(BenchmarkId::new("full", versions), &w, |b, w| {
            b.iter(|| {
                MultiVersionFactTable::infer_par(
                    &w.tmd,
                    &ExecContext::sequential(),
                    &QueryMemo::new(),
                )
                .expect("inference")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fact_sweep, bench_version_sweep);
criterion_main!(benches);
