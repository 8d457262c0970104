//! SCD baselines vs the multiversion model (DESIGN.md
//! `bench_scd_baselines`): ingesting the same snapshot stream.
//!
//! Expected shape: SCD1 is cheapest (overwrite), SCD3 close behind,
//! SCD2 pays row rewriting, and the multiversion load pays the
//! evolution operators (validity maintenance, DAG checks) — the price of
//! being the only strategy that can answer *both* history and
//! cross-transition comparison queries (see `examples/scd_comparison`).

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvolap_core::{MeasureDef, TemporalDimension, Tmd};
use mvolap_etl::{
    apply_changes, diff, Scd1Dimension, Scd2Dimension, Scd3Dimension, Snapshot, SnapshotRow,
};
use mvolap_prng::Rng;
use mvolap_temporal::{Granularity, Instant};

/// Generates a stream of yearly snapshots with `members` departments,
/// each year reclassifying ~10% of them across `divisions` divisions.
fn snapshot_stream(members: usize, divisions: usize, years: usize, seed: u64) -> Vec<Snapshot> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut parent_of: Vec<usize> = (0..members).map(|i| i % divisions).collect();
    let mut out = Vec::with_capacity(years);
    for y in 0..years {
        if y > 0 {
            for p in parent_of.iter_mut() {
                if rng.f64_unit() < 0.10 {
                    *p = rng.usize_below(divisions);
                }
            }
        }
        let rows = (0..divisions)
            .map(|d| SnapshotRow::new(format!("Div{d}"), None).at_level("Division"))
            .chain((0..members).map(|m| {
                SnapshotRow::new(format!("Dept{m}"), Some(&format!("Div{}", parent_of[m])))
                    .at_level("Department")
            }));
        out.push(Snapshot::new(Instant::ym(2001 + y as i32, 1), rows));
    }
    out
}

fn bench_loads(c: &mut Criterion) {
    let mut group = c.benchmark_group("scd/load");
    group.sample_size(10);
    for members in [20usize, 100] {
        let stream = snapshot_stream(members, 4, 6, 77);
        let rows: usize = stream.iter().map(Snapshot::len).sum();
        group.throughput(Throughput::Elements(rows as u64));

        group.bench_with_input(BenchmarkId::new("scd1", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd1Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(BenchmarkId::new("scd2", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd2Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(BenchmarkId::new("scd3", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd3Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(
            BenchmarkId::new("multiversion", members),
            &stream,
            |b, stream| {
                b.iter(|| {
                    let mut tmd = Tmd::new("org", Granularity::Month);
                    let dim = tmd
                        .add_dimension(TemporalDimension::new("Org"))
                        .expect("fresh schema");
                    tmd.add_measure(MeasureDef::summed("Amount"))
                        .expect("fresh schema");
                    mvolap_etl::load::bootstrap(&mut tmd, dim, &stream[0]).expect("bootstrap");
                    for pair in stream.windows(2) {
                        let events = diff(&pair[0], &pair[1]);
                        apply_changes(&mut tmd, dim, &events, pair[1].period).expect("load");
                    }
                    tmd
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_loads);
criterion_main!(benches);
