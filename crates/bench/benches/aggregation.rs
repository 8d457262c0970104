//! Aggregation throughput (DESIGN.md `bench_aggregate`): evaluating the
//! paper's Q1-shaped query in the consistent mode vs mapped
//! structure-version modes.
//!
//! Expected shape: tcm is cheapest (no mapping-route resolution); mapped
//! modes pay per distinct coordinate needing routes, then converge to
//! the same group-by cost.
//!
//! `aggregate/warm` times what a serving process pays per repeated
//! query: `evaluate_par` through one shared `QueryMemo` (the presented
//! table and roll-up tables already built) plus `ResultSet::render`.
//!
//! `answer/wide` follows the widest answer of the served mix (`BY year,
//! Org.Department IN MODE tcm` on the 106,500-fact warehouse, 1,775
//! rows) from the warm fold to the client's bytes: `render_answer` and
//! its two halves (`evaluate_par`, `ResultSet::render`), the reply
//! payload, the frame, the client's checksum and its decode.
//! `wire/crc32` is the checksum alone over 1 MiB.

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvolap_core::aggregate::{evaluate_par, AggregateQuery};
use mvolap_core::{ExecContext, QueryMemo, TemporalMode};
use mvolap_durable::{checksum::crc32, frame};
use mvolap_query::render_answer;
use mvolap_server::{decode_reply, encode_reply, Reply};
use mvolap_workload::{generate, WorkloadConfig};

fn bench_modes(c: &mut Criterion) {
    let mut cfg = WorkloadConfig::small(21)
        .with_departments(30)
        .with_periods(5)
        .with_facts_per_department(8);
    cfg.split_prob = 0.20;
    cfg.reclassify_prob = 0.10;
    cfg.create_prob = 0.0;
    cfg.delete_prob = 0.0;
    let w = generate(&cfg).expect("workload generates");
    let svs = w.tmd.structure_versions();
    let n = w.tmd.facts().len() as u64;
    let seq = ExecContext::sequential();

    let mut group = c.benchmark_group("aggregate/modes");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n));
    let modes: Vec<(String, TemporalMode)> =
        std::iter::once(("tcm".to_owned(), TemporalMode::Consistent))
            .chain(
                svs.iter()
                    .map(|sv| (sv.id.to_string(), TemporalMode::Version(sv.id))),
            )
            .collect();
    for (label, mode) in modes {
        let q = AggregateQuery::by_year(w.dim, "Division", mode);
        group.bench_with_input(BenchmarkId::from_parameter(label), &q, |b, q| {
            b.iter(|| evaluate_par(&w.tmd, &svs, q, &seq, &QueryMemo::new()).expect("evaluates"))
        });
    }
    group.finish();
}

fn bench_fact_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate/fact_scaling");
    group.sample_size(10);
    let seq = ExecContext::sequential();
    for facts in [4usize, 16, 64] {
        let mut cfg = WorkloadConfig::small(22)
            .with_departments(25)
            .with_periods(4)
            .with_facts_per_department(facts);
        cfg.create_prob = 0.0;
        cfg.delete_prob = 0.0;
        let w = generate(&cfg).expect("workload generates");
        let svs = w.tmd.structure_versions();
        let n = w.tmd.facts().len();
        let q = AggregateQuery::by_year(w.dim, "Department", TemporalMode::Consistent);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &q, |b, q| {
            b.iter(|| evaluate_par(&w.tmd, &svs, q, &seq, &QueryMemo::new()).expect("evaluates"))
        });
    }
    group.finish();
}

fn bench_warm(c: &mut Criterion) {
    let cfg = WorkloadConfig::small(23)
        .with_departments(60)
        .with_periods(6)
        .with_facts_per_department(20);
    let w = generate(&cfg).expect("workload generates");
    let memo = QueryMemo::new();
    let svs = memo.structure_versions(&w.tmd);
    let exec = ExecContext::new(2);
    let last = svs.last().expect("a structure version").id;

    let mut group = c.benchmark_group("aggregate/warm");
    group.sample_size(20);
    for (label, mode) in [
        ("tcm", TemporalMode::Consistent),
        ("version", TemporalMode::Version(last)),
    ] {
        for level in ["Division", "Department"] {
            let q = AggregateQuery::by_year(w.dim, level, mode.clone());
            let answer = || {
                evaluate_par(&w.tmd, &svs, &q, &exec, &memo)
                    .expect("evaluates")
                    .render("result")
                    .expect("renders")
            };
            answer(); // warm the memo
            group.bench_function(&format!("{label}/{level}"), |b| b.iter(answer));
        }
    }
    group.finish();
}

fn bench_wide_answer(c: &mut Criterion) {
    let cfg = WorkloadConfig::small(2003)
        .with_departments(200)
        .with_periods(8)
        .with_facts_per_department(60);
    let w = generate(&cfg).expect("workload generates");
    let (memo, seq) = (QueryMemo::new(), ExecContext::sequential());
    let text = "SELECT sum(Amount) BY year, Org.Department IN MODE tcm";
    let answer = || render_answer(&w.tmd, text, &seq, &memo).expect("answers");
    let reply = Reply::Result(answer()); // warms the memo
    let payload = encode_reply(&reply);
    let framed = frame::encode(&payload);

    let svs = memo.structure_versions(&w.tmd);
    let q = AggregateQuery::by_year(w.dim, "Department", TemporalMode::Consistent);
    let result = evaluate_par(&w.tmd, &svs, &q, &seq, &memo).expect("evaluates");

    let mut group = c.benchmark_group("answer/wide");
    group.sample_size(20);
    group.bench_function("render_answer", |b| b.iter(answer));
    group.bench_function("evaluate", |b| {
        b.iter(|| evaluate_par(&w.tmd, &svs, &q, &seq, &memo).expect("evaluates"))
    });
    group.bench_function("render", |b| {
        b.iter(|| result.render("result").expect("renders"))
    });
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode_reply", |b| b.iter(|| encode_reply(&reply)));
    group.bench_function("frame_encode", |b| b.iter(|| frame::encode(&payload)));
    group.bench_function("crc_check", |b| {
        b.iter(|| crc32(&framed[frame::HEADER..]).to_le_bytes() == framed[4..8])
    });
    group.bench_function("decode_reply", |b| {
        b.iter(|| decode_reply(&payload).expect("decodes"))
    });
    group.finish();

    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mebibyte: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let mut group = c.benchmark_group("wire/crc32");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(mebibyte.len() as u64));
    group.bench_function("1MiB", |b| b.iter(|| crc32(&mebibyte)));
    group.finish();
}

criterion_group!(
    benches,
    bench_modes,
    bench_fact_scaling,
    bench_warm,
    bench_wide_answer
);
criterion_main!(benches);
