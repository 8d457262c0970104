//! Quorum-commit cost: what majority acknowledgement adds on top of
//! local durability. The same fact batch is committed through a
//! single-node group (quorum 1/1 — local fsync only) and through a
//! three-node [`ClusterSet`] (quorum 2/3 — fsync plus supervision
//! rounds until a member confirms), over the in-memory channel
//! transport so the delta measures protocol work, not network jitter.
//!
//! Expected shape: the three-node commit pays a small constant factor
//! (frame shipping + member fsync + ack) per record; transport steps
//! per commit stay bounded by the batch configuration rather than
//! growing with history. Emits `BENCH_quorum.json` at the workspace
//! root.
//!
//! A third leg measures the same three-node quorum through the
//! **async pump**: one [`MemberPump`] shipping thread per member
//! tails the primary's WAL and ships batched frame envelopes while
//! `commit_replicated` parks on the quorum condvar. Expected shape:
//! both per-commit latency and transport steps per commit drop well
//! below the synchronous supervision loop, because acks arrive
//! continuously and many frames share one envelope round-trip.

use std::sync::{Arc, Mutex};

use mvolap_bench::harness::{BenchmarkId, Criterion, Throughput};
use mvolap_cluster::{
    ClusterConfig, ClusterSet, LocalCluster, MemberPump, PumpConfig, PumpShared, PumpTracker,
};
use mvolap_core::case_study;
use mvolap_durable::{
    CheckpointPolicy, DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, WalRecord,
};
use mvolap_replica::{ChannelTransport, Follower, NetAddr, NetConfig};
use mvolap_server::ServerOptions;
use mvolap_temporal::Instant;

/// Records committed per benchmark iteration.
const OPS: usize = 8;

/// One fact batch aimed at a case-study leaf — the smallest real
/// journaled write.
fn fact(leaf: mvolap_core::MemberVersionId, i: usize) -> WalRecord {
    WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![leaf],
            at: Instant::ym(2003, 1 + (i % 12) as u32),
            values: vec![i as f64],
        }],
    }
}

/// A group with `members` member replicas next to the primary.
fn build_set(base: &std::path::Path, members: usize) -> ClusterSet<ChannelTransport> {
    let cs = case_study::case_study();
    let mut set = ClusterSet::bootstrap(
        base,
        cs.tmd,
        Options::default(),
        GroupConfig::default(),
        ClusterConfig::default(),
        ChannelTransport::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    for m in 0..members {
        set.add_member(&format!("m{}", m + 1), Io::plain());
    }
    set
}

fn bench_commits(
    c: &mut Criterion,
    set: &mut ClusterSet<ChannelTransport>,
    leaf: mvolap_core::MemberVersionId,
    nodes: usize,
) {
    let mut group = c.benchmark_group("quorum/commits");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
        b.iter(|| {
            for i in 0..OPS {
                set.commit_quorum(fact(leaf, i)).expect("quorum commit");
            }
        })
    });
    group.finish();
}

/// The async leg: a primary group-commit handle plus two member
/// followers served by dedicated [`MemberPump`] shipping threads.
/// Commits go through `commit_replicated`, which parks on the quorum
/// condvar until a pump's continuous acks pass the watermark.
fn bench_async_commits(
    c: &mut Criterion,
    base: &std::path::Path,
    leaf: mvolap_core::MemberVersionId,
) -> (f64, f64, f64) {
    let cs = case_study::case_study();
    let primary_dir = base.join("primary");
    let store = DurableTmd::create_with(&primary_dir, cs.tmd, Options::default(), Io::plain())
        .expect("primary store");
    let commit = GroupCommit::new(store, GroupConfig::default());
    // Same quorum as the sync three-node leg: 2 of {primary, m1, m2}.
    commit.configure_quorum(2);

    let tracker = PumpTracker::new();
    let shared = PumpShared::new(commit.clone(), 0);
    let mut pumps = Vec::new();
    for name in ["m1", "m2"] {
        let follower = Arc::new(Mutex::new(Follower::create(
            name,
            base.join(name),
            Options::default(),
            Io::plain(),
        )));
        pumps.push(
            MemberPump::new(
                shared.clone(),
                name,
                follower,
                &primary_dir,
                PumpConfig::default(),
                tracker.clone(),
            )
            .spawn(),
        );
    }

    let mut group = c.benchmark_group("quorum/commits");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS as u64));
    group.bench_with_input(BenchmarkId::new("async", 3), &3, |b, _| {
        b.iter(|| {
            for i in 0..OPS {
                commit
                    .commit_replicated(fact(leaf, i), 5_000)
                    .expect("async quorum commit");
            }
        })
    });
    group.finish();

    // Let the slower member drain its tail so the step count covers
    // every commit's shipping, then stop the threads.
    let head = commit.wal_position();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        let drained = tracker
            .all()
            .iter()
            .filter(|(_, s)| s.acked_lsn >= head)
            .count();
        if drained == 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    shared.request_stop();
    for pump in &mut pumps {
        pump.join();
    }

    let commits = commit.wal_position() - 1;
    let steps = tracker.transport_steps();
    let steps_per_commit = steps as f64 / commits.max(1) as f64;
    let shipped: u64 = tracker.all().iter().map(|(_, s)| s.shipped_frames).sum();
    eprintln!(
        "async pump: {commits} commits, {shipped} frames in {steps} transport steps \
         ({steps_per_commit:.2} steps/commit)"
    );
    (commits as f64, steps as f64, steps_per_commit)
}

/// The membership leg: a served [`LocalCluster`] (primary + m1 + m2,
/// pumps running) takes a live `join` whose learner bootstraps from a
/// pruned tail via the pump-shipped chunked snapshot. Measures the
/// catch-up window (join journaled -> promotion at the watermark) and
/// the per-commit latency of commits issued *during* that window
/// against the steady-state latency of the same group beforehand.
fn bench_membership(base: &std::path::Path, leaf: mvolap_core::MemberVersionId) -> (f64, f64, f64) {
    const WARM: usize = 64;
    const K: usize = 16;
    let cs = case_study::case_study();
    let loopback = NetAddr::parse("127.0.0.1:0").expect("addr");
    let mut cluster = LocalCluster::start(
        base,
        cs.tmd,
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        // Small segments so the pre-join checkpoint prunes the tail
        // and the joiner pays the real snapshot bootstrap.
        Options {
            segment_bytes: 1024,
            policy: CheckpointPolicy::manual(),
            prune_on_checkpoint: true,
        },
        GroupConfig::default(),
        ServerOptions {
            quorum_timeout_ms: 10_000,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("membership cluster");
    cluster.spawn_pumps(PumpConfig::default());
    let mut client = cluster.client(NetConfig::default());

    // History for the snapshot image, then prune below it.
    for i in 0..WARM {
        client.commit(&fact(leaf, i)).expect("warm commit");
    }
    cluster
        .group()
        .with_store_mut(|s| s.checkpoint())
        .expect("checkpoint");

    // Steady-state: per-commit latency with the settled 3-node group.
    let t = std::time::Instant::now();
    for i in 0..K {
        client.commit(&fact(leaf, i)).expect("steady commit");
    }
    let steady_us = t.elapsed().as_secs_f64() * 1e6 / K as f64;

    // Join m3 and keep committing while its learner catches up: the
    // reconfiguration must not stall the commit path.
    let joined_at = std::time::Instant::now();
    cluster.join("m3", &loopback).expect("join journaled");
    let t = std::time::Instant::now();
    for i in 0..K {
        client
            .commit(&fact(leaf, i))
            .expect("commit during reconfig");
    }
    let reconfig_us = t.elapsed().as_secs_f64() * 1e6 / K as f64;
    let promoted = cluster
        .await_membership(std::time::Duration::from_secs(30))
        .expect("joiner promoted");
    assert_eq!(promoted, "m3");
    let catchup_ms = joined_at.elapsed().as_secs_f64() * 1e3;

    let snap_bootstraps = cluster
        .pump_status()
        .iter()
        .find(|(n, _)| n == "m3")
        .map_or(0, |(_, st)| st.snapshots);
    eprintln!(
        "membership: join catch-up {catchup_ms:.1}ms ({snap_bootstraps} snapshot \
         bootstraps), commit latency {reconfig_us:.1}us during reconfig \
         vs {steady_us:.1}us steady-state"
    );
    cluster.stop();
    (catchup_ms, reconfig_us, steady_us)
}

fn main() {
    let base = std::env::temp_dir().join(format!("mvolap_bench_quorum_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let leaf = case_study::case_study().bill;

    let mut c = Criterion::from_env();

    // Quorum 1/1: commit_quorum is satisfied by the local fsync alone.
    let mut single = build_set(&base.join("n1"), 0);
    bench_commits(&mut c, &mut single, leaf, 1);
    let single_commits = single.primary().expect("primary").wal_position() - 1;
    let single_steps = single.transport_steps();
    drop(single);

    // Quorum 2/3: the same path must also ship the tail and collect a
    // member ack before the watermark passes the record.
    let mut triple = build_set(&base.join("n3"), 2);
    let mark_steps = triple.transport_steps();
    bench_commits(&mut c, &mut triple, leaf, 3);
    let triple_commits = triple.primary().expect("primary").wal_position() - 1;
    let triple_steps = triple.transport_steps() - mark_steps;
    let quorum_required = triple.quorum_required();
    drop(triple);

    // Quorum 2/3 again, but replication rides the async pump threads:
    // commit_replicated parks on the condvar while shipping happens
    // off-thread in batched envelopes.
    let (_, _, steps_per_commit_3_async) = bench_async_commits(&mut c, &base.join("n3a"), leaf);

    // Live membership: join catch-up time and the commit-latency cost
    // of an in-flight reconfiguration.
    let (join_catchup_ms, lat_reconfig, lat_steady) = bench_membership(&base.join("mem"), leaf);

    c.final_summary();

    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Median ns per iteration -> per-commit latency and commits/sec.
    let stats = |needle: &str| {
        c.results()
            .iter()
            .find(|r| r.name.contains(needle))
            .map(|r| {
                let per_commit_ns = r.median_ns / OPS as f64;
                (per_commit_ns / 1e3, 1e9 / per_commit_ns)
            })
            .unwrap_or((0.0, 0.0))
    };
    let (lat1, tput1) = stats("commits/nodes/1");
    let (lat3, tput3) = stats("commits/nodes/3");
    let (lat3a, tput3a) = stats("commits/async/3");
    let steps_per_commit_1 = single_steps as f64 / single_commits.max(1) as f64;
    let steps_per_commit_3 = triple_steps as f64 / triple_commits.max(1) as f64;
    eprintln!(
        "commit latency: {lat1:.1}us (1 node) -> {lat3:.1}us (3 nodes sync) \
         -> {lat3a:.1}us (3 nodes async); \
         commits/s: {tput1:.0} -> {tput3:.0} -> {tput3a:.0}; \
         transport steps/commit: {steps_per_commit_1:.2} -> {steps_per_commit_3:.2} \
         -> {steps_per_commit_3_async:.2}"
    );

    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"ops_per_iter\": {OPS},\n  \
         \"quorum_required_3\": {quorum_required},\n  \
         \"commit_latency_us_1\": {lat1:.2},\n  \"commit_latency_us_3\": {lat3:.2},\n  \
         \"commit_latency_us_3_async\": {lat3a:.2},\n  \
         \"commits_per_sec_1\": {tput1:.1},\n  \"commits_per_sec_3\": {tput3:.1},\n  \
         \"commits_per_sec_3_async\": {tput3a:.1},\n  \
         \"transport_steps_per_commit_1\": {steps_per_commit_1:.3},\n  \
         \"transport_steps_per_commit_3\": {steps_per_commit_3:.3},\n  \
         \"transport_steps_per_commit_3_async\": {steps_per_commit_3_async:.3},\n  \
         \"join_catchup_ms\": {join_catchup_ms:.2},\n  \
         \"commit_latency_us_during_reconfig\": {lat_reconfig:.2},\n  \
         \"commit_latency_us_steady_state\": {lat_steady:.2},\n  \
         \"results\": {}\n}}\n",
        c.to_json()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_quorum.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    std::fs::remove_dir_all(&base).ok();
}
