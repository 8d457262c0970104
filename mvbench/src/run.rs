//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvolap_cluster::{MemberPumpStatus, PumpConfig};
use mvolap_core::{evaluate_par, present_par, ExecContext, QueryMemo, Tmd};
use mvolap_durable::{checkpoint, DurableTmd, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap_query::parse;
use mvolap_replica::{Follower, ReplicaMsg, WalTailer};
use mvolap_server::ServerOptions;

use crate::drive::{
    fact_amount, maintainer_quota, run_clients, set_up, Acked, ClientRun, Ready, Sampled,
};
use crate::engine::{commit_staged, plan_modes, render_query, render_query_staged};
use crate::stats::{mean, median, percentile};
use crate::trace::{render_table, Tracer};
use crate::workloads::{inputs, FactStream, Inputs, Kind, QueryOrder, Workload, MAINTAINER_WARMUP};

/// How a run is sized.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Seconds the clients drive the server for.
    pub seconds: f64,
    /// The untraced drive is cut into this many epochs, each on fresh
    /// client threads; the median latency and the rate are the median
    /// of the epochs' values, so one epoch's luck with the scheduler (or
    /// a noisy neighbour) does not set the run's number.
    pub epochs: usize,
    /// Set-up and reopen are repeated at least this often, and then
    /// until `repeat_budget_s` is spent; the metric is the median.
    pub min_repeats: usize,
    pub repeat_budget_s: f64,
    /// Requests the traced replay covers (rounded up to whole cycles of
    /// the query mix).
    pub replay_requests: usize,
    /// Timings taken per direct layer probe; the fastest counts.
    pub probe_reps: usize,
}

/// Upper limit on repeats of a cheap set-up or reopen.
const MAX_REPEATS: usize = 40;
/// Share of `seconds` each pass of the traced query replay may take.
const REPLAY_SHARE: f64 = 0.3;

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            epochs: 5,
            min_repeats: 5,
            repeat_budget_s: 1.0,
            replay_requests: 200,
            probe_reps: 2,
        }
    }

    /// Everything a hundred times shorter: a functional check of the
    /// whole path, not a measurement.
    pub fn smoke() -> Sizing {
        Sizing {
            seconds: 0.2,
            epochs: 1,
            min_repeats: 1,
            repeat_budget_s: 0.0,
            replay_requests: 12,
            probe_reps: 1,
        }
    }

    fn epoch_seconds(&self) -> f64 {
        self.seconds / self.epochs as f64
    }

    /// Whether a repeated measurement that has taken `spent_s` over
    /// `done` repeats goes round again.
    fn repeat_again(&self, done: usize, spent_s: f64) -> bool {
        done < self.min_repeats || (spent_s < self.repeat_budget_s && done < MAX_REPEATS)
    }
}

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Connections that drove the server.
    pub clients: usize,
    pub input_digest: u64,
    /// Human-readable findings: the first error of each kind, the
    /// per-layer table.
    pub notes: Vec<String>,
}

/// Maintainer records a run of `epochs` epochs of `seconds` needs.
fn script_len(epochs: usize, seconds: f64) -> usize {
    MAINTAINER_WARMUP + epochs * maintainer_quota(seconds)
}

fn schema_image(tmd: &Tmd) -> Vec<u8> {
    let mut image = Vec::new();
    mvolap_core::persist::write_tmd(tmd, &mut image).expect("in-memory write");
    image
}

fn fact_total(tmd: &Tmd) -> Acked {
    let facts = tmd.facts();
    Acked {
        rows: facts.len(),
        sum: (0..facts.len()).map(|row| facts.value(row, 0)).sum(),
    }
}

/// The shipped execution context of a serving worker.
fn server_exec() -> ExecContext {
    ExecContext::new(ServerOptions::default().exec_threads.max(1))
}

/// The reference rendering of every template, where the data stays as
/// generated. Computing it is the benchmark's own checking cost, so it
/// happens once, outside every timed section.
fn expected_replies(w: &Workload, inputs: &Inputs) -> Result<Option<Arc<Vec<String>>>, String> {
    if w.kind != Kind::Query {
        return Ok(None);
    }
    let (exec, memo) = (ExecContext::sequential(), QueryMemo::new());
    inputs
        .queries
        .iter()
        .map(|q| render_query(&inputs.tmd, q, &exec, &memo))
        .collect::<Result<Vec<_>, _>>()
        .map(|replies| Some(Arc::new(replies)))
}

fn check_pin(w: &Workload, inputs: &Inputs) -> Result<(), String> {
    if inputs.digest != w.pinned_digest {
        return Err(format!(
            "{}: input_digest {:#018x} differs from the pinned {:#018x}: the generated \
             warehouse or the query mix changed, so recorded numbers no longer describe \
             this workload",
            w.name, inputs.digest, w.pinned_digest
        ));
    }
    Ok(())
}

/// Where a run keeps its stores: inside the directory it was started
/// from, removed when the run ends.
fn data_dir(w: &Workload, seed: u64) -> PathBuf {
    PathBuf::from(".mvbench_data").join(format!("{}-{seed}-{}", w.name, std::process::id()))
}

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // The parent is shared between concurrent runs; it only goes
        // when empty.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// One epoch's view of the workload's primary operation.
struct Epoch {
    p50_ms: f64,
    ops_per_s: f64,
}

/// The clients' runs folded together, epoch by epoch.
struct Totals {
    attempted: u64,
    failed: u64,
    acked: Acked,
    epochs: Vec<Epoch>,
    /// Every latency of the workload's primary operation.
    primary_ms: Vec<f64>,
    /// The open-loop maintainer, where there is one.
    maintainer_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    notes: Vec<String>,
}

impl Totals {
    fn new(ready: &Ready) -> Totals {
        Totals {
            attempted: 0,
            failed: 0,
            acked: ready.warm_acked,
            epochs: Vec::new(),
            primary_ms: Vec::new(),
            maintainer_ms: Vec::new(),
            lateness_ms: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds one epoch: the runs of every client, in client order.
    fn absorb(&mut self, ready: &Ready, runs: Vec<ClientRun>) {
        let mut epoch_ms = Vec::new();
        let mut wall_s: f64 = 0.0;
        for (client, run) in ready.clients.iter().zip(runs) {
            self.attempted += run.attempted;
            self.failed += run.failed;
            self.acked += run.acked;
            if let Some(e) = run.first_error {
                self.notes.push(format!("first failure: {e}"));
            }
            if client.is_maintainer() {
                self.maintainer_ms.extend(run.latency_ms);
                self.lateness_ms.extend(run.lateness_ms);
            } else {
                epoch_ms.extend(run.latency_ms);
                wall_s = wall_s.max(run.wall_s);
            }
        }
        self.epochs.push(Epoch {
            ops_per_s: epoch_ms.len() as f64 / wall_s,
            p50_ms: percentile(&mut epoch_ms, 50.0),
        });
        self.primary_ms.extend(epoch_ms);
    }

    fn median_of(&self, f: impl Fn(&Epoch) -> f64) -> f64 {
        median(&mut self.epochs.iter().map(f).collect::<Vec<_>>())
    }
}

/// Brings a commit workload's journal to a fixed distance past its last
/// checkpoint, so the reopen replays the same number of records in
/// every run however many commits the run managed. Returns what was
/// added.
fn top_up_journal(ready: &Ready, inputs: &Inputs, seed: u64) -> Result<Acked, String> {
    /// Records the reopen replays on top of the newest checkpoint.
    const TAIL: u64 = 512;
    let every = Options::default().policy.every_records;
    let group = ready.service.group();
    // LSN 1 is the bootstrap image; every later LSN is one commit.
    let commits = group.wal_position().saturating_sub(2);
    let missing = (TAIL + every - commits % every) % every;
    let mut facts = FactStream::new(seed, 9, &inputs.leaves, inputs.fact_year);
    let mut added = Acked::default();
    for _ in 0..missing {
        let record = facts.next_record();
        added += fact_amount(&record);
        group
            .commit(record)
            .map_err(|e| format!("journal top-up: {e}"))?;
    }
    Ok(added)
}

/// Checks what the run left behind, stopping the service on the way:
/// the evolved schema against the script's shadow, and the committed
/// facts — count and grand total — in the reopened primary store and in
/// every member's. Returns what it found wrong.
fn verify(w: &Workload, inputs: &Inputs, ready: Ready, acked: Acked) -> Vec<String> {
    let mut wrong = Vec::new();
    let service = ready.service;
    drop(ready.clients);
    if w.kind == Kind::Mixed {
        let served = service.group().with_store(|s| schema_image(s.schema()));
        if served != schema_image(&inputs.shadow) {
            wrong.push("served schema differs from the script's shadow schema".to_owned());
        }
    }
    if w.kind == Kind::CommitQuorum && !service.await_members(Duration::from_secs(10)) {
        wrong.push("a member did not catch up with the primary's log".to_owned());
    }
    let stores: Vec<PathBuf> = std::iter::once(service.primary_dir.clone())
        .chain(service.member_dirs.iter().cloned())
        .collect();
    service.stop();
    if matches!(w.kind, Kind::CommitLocal | Kind::CommitQuorum) {
        let seeded = fact_total(&inputs.tmd);
        let (rows, sum) = (seeded.rows + acked.rows, seeded.sum + acked.sum);
        for dir in stores {
            match DurableTmd::open(&dir) {
                Ok(store) => {
                    let held = fact_total(store.schema());
                    if (held.rows, held.sum) != (rows, sum) {
                        wrong.push(format!(
                            "{}: holds {} facts totalling {}, expected {rows} totalling {sum}",
                            dir.display(),
                            held.rows,
                            held.sum
                        ));
                    }
                }
                Err(e) => wrong.push(format!("{}: reopen failed: {e}", dir.display())),
            }
        }
    }
    wrong
}

/// Median milliseconds of repeated reopens of the store in `dir`: the
/// time without service after a restart.
fn reopen_ms(dir: &Path, sizing: &Sizing) -> Result<f64, String> {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while sizing.repeat_again(samples.len(), begun.elapsed().as_secs_f64()) {
        let (store, took) = timed(|| DurableTmd::open(dir));
        store.map_err(|e| format!("reopen: {e}"))?;
        samples.push(took.as_secs_f64() * 1e3);
    }
    Ok(median(&mut samples))
}

/// The untraced run: set-up (repeated, the last one kept), the timed
/// drive over the wire in epochs, and the correctness checks.
pub fn measure(w: &Workload, seed: u64, sizing: &Sizing) -> Result<RunResult, String> {
    let base = DirGuard(data_dir(w, seed));
    let script_len = script_len(sizing.epochs, sizing.epoch_seconds());
    let reference = inputs(w, seed, script_len);
    check_pin(w, &reference)?;
    let expected = expected_replies(w, &reference)?;
    drop(reference);

    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Ready)> = None;
    while sizing.repeat_again(setup_s.len(), setup_s.iter().sum()) {
        if let Some((_, ready)) = kept.take() {
            ready.service.stop();
        }
        let started = Instant::now();
        let generated = inputs(w, seed, script_len);
        let dir = base.0.join(format!("setup{}", setup_s.len()));
        let ready = set_up(w, &generated, seed, expected.as_ref(), &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((generated, ready));
    }
    let (inputs, mut ready) = kept.expect("at least one set-up");

    let mut t = Totals::new(&ready);
    for _ in 0..sizing.epochs {
        let (runs, _) = run_clients(&mut ready, &inputs, sizing.epoch_seconds(), false);
        t.absorb(&ready, runs);
    }
    let clients = ready.clients.len();
    let wrong = verify(w, &inputs, ready, t.acked);

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_owned(), median(&mut setup_s));
    metrics.insert("op_p50_ms".to_owned(), t.median_of(|e| e.p50_ms));
    // The tail is read over the whole run: one epoch of the large
    // warehouse has too few samples beyond its 95th percentile.
    metrics.insert("op_p95_ms".to_owned(), percentile(&mut t.primary_ms, 95.0));
    metrics.insert("ops_per_s".to_owned(), t.median_of(|e| e.ops_per_s));

    let failed = t.failed + wrong.len() as u64;
    t.notes.extend(wrong);
    t.notes.push(format!(
        "op samples: {} over {} epochs; set-ups: {}",
        t.primary_ms.len(),
        sizing.epochs,
        setup_s.len()
    ));
    let per_epoch = |f: fn(&Epoch) -> f64| {
        let values: Vec<String> = t.epochs.iter().map(|e| format!("{:.4}", f(e))).collect();
        values.join(" ")
    };
    t.notes
        .push(format!("epochs op_p50_ms: {}", per_epoch(|e| e.p50_ms)));
    t.notes
        .push(format!("epochs ops_per_s: {}", per_epoch(|e| e.ops_per_s)));
    Ok(RunResult {
        correct: failed == 0,
        attempted: t.attempted,
        failed,
        metrics,
        clients,
        input_digest: inputs.digest,
        notes: t.notes,
    })
}

/// Server-side counters read before and after the wire phase.
struct Counters {
    served: u64,
    refused: u64,
    fsyncs: u64,
    wal_position: u64,
    memo_hits: u64,
    memo_misses: u64,
}

fn counters(ready: &Ready) -> Counters {
    let pool = ready.service.pool_stats();
    let group = ready.service.group();
    let memo = pool.memo.iter().fold((0, 0), |(h, m), s| {
        (
            h + s.routes.hits + s.ancestors.hits,
            m + s.routes.misses + s.ancestors.misses,
        )
    });
    Counters {
        served: pool.served,
        refused: pool.refused,
        fsyncs: group.fsyncs(),
        wal_position: group.wal_position(),
        memo_hits: memo.0,
        memo_misses: memo.1,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Publishes what the wire phase measured: the server's counters over
/// the phase, the sampled gauges, the pumps' totals and the clients' own
/// latencies.
fn put_wire_metrics(
    put: &mut impl FnMut(&str, f64),
    before: &Counters,
    after: &Counters,
    sampled: &Sampled,
    pumps: &[(String, MemberPumpStatus)],
    t: &mut Totals,
) {
    let hits = (after.memo_hits - before.memo_hits) as f64;
    let misses = (after.memo_misses - before.memo_misses) as f64;
    let commits = (after.wal_position - before.wal_position) as f64;
    put("server.served", (after.served - before.served) as f64);
    put("server.refused", (after.refused - before.refused) as f64);
    put("server.queued", mean(&sampled.queued));
    put("core.memo_hit_ratio", ratio(hits, hits + misses));
    put(
        "durable.fsyncs_per_commit",
        ratio((after.fsyncs - before.fsyncs) as f64, commits),
    );
    let total =
        |f: fn(&MemberPumpStatus) -> u64| pumps.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    put(
        "cluster.frames_per_envelope",
        ratio(total(|s| s.shipped_frames), total(|s| s.requests)),
    );
    // Pump counters run from the cluster's start, so the base is every
    // commit since then (LSN 1 is the bootstrap image).
    put(
        "cluster.transport_steps_per_commit",
        ratio(
            total(|s| s.requests + s.replies),
            (after.wal_position - 1) as f64,
        ),
    );
    put("cluster.member_lag_lsn", mean(&sampled.member_lag_lsn));
    put("wire.op_mean_us", mean(&t.primary_ms) * 1e3);
    put("wire.op_p50_ms", percentile(&mut t.primary_ms, 50.0));
    put("wire.op_p95_ms", percentile(&mut t.primary_ms, 95.0));
    put("wire.op_p99_ms", percentile(&mut t.primary_ms, 99.0));
    put("wire.op_max_ms", percentile(&mut t.primary_ms, 100.0));
    put("wire.op_samples", t.primary_ms.len() as f64);
    put(
        "maintainer.commit_p50_ms",
        percentile(&mut t.maintainer_ms, 50.0),
    );
    put(
        "maintainer.commit_p99_ms",
        percentile(&mut t.maintainer_ms, 99.0),
    );
    put(
        "maintainer.lateness_p99_ms",
        percentile(&mut t.lateness_ms, 99.0),
    );
}

/// The traced run: a shorter drive over the wire for the counters the
/// server keeps, then an in-process replay of the same request script —
/// once stage by stage with a span per layer boundary, once as the
/// whole call — and direct probes of the layers a span cannot separate.
pub fn trace(
    w: &Workload,
    seed: u64,
    sizing: &Sizing,
    out_dir: Option<&Path>,
) -> Result<RunResult, String> {
    let base = DirGuard(data_dir(w, seed));
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };

    let started = Instant::now();
    let inputs = inputs(w, seed, script_len(1, sizing.seconds));
    check_pin(w, &inputs)?;
    let expected = expected_replies(w, &inputs)?;
    let mut ready = set_up(w, &inputs, seed, expected.as_ref(), &base.0.join("live"))?;
    put("workload.generate_s", inputs.generate_s);
    put("durable.create_s", ready.service.create_s);
    put("trace.setup_s", started.elapsed().as_secs_f64());

    // Phase 1: the wire, untraced, with the server's own counters read
    // on either side.
    let reader_or_committer = ready.clients.len() - 1;
    put(
        "server.ping_us",
        ready.clients[reader_or_committer].ping_us(200)?,
    );
    let before = counters(&ready);
    let (runs, sampled) = run_clients(&mut ready, &inputs, sizing.seconds, true);
    let after = counters(&ready);
    let mut t = Totals::new(&ready);
    t.absorb(&ready, runs);
    let pumps = ready.service.pump_status();
    put_wire_metrics(&mut put, &before, &after, &sampled, &pumps, &mut t);
    let wire_mean_us = mean(&t.primary_ms) * 1e3;

    // The commit the server runs for a wire request, called directly on
    // the live group: what is left of the wire round-trip is transport.
    let mut live_commit_us = Vec::new();
    if matches!(w.kind, Kind::CommitLocal | Kind::CommitQuorum) {
        let group = ready.service.group();
        let timeout = ServerOptions::default().quorum_timeout_ms;
        let mut facts = FactStream::new(seed, 7, &inputs.leaves, inputs.fact_year);
        for _ in 0..sizing.replay_requests.min(100) {
            let record = facts.next_record();
            t.acked += fact_amount(&record);
            let (res, took) = timed(|| {
                if group.quorum_size() > 1 {
                    group.commit_replicated(record, timeout)
                } else {
                    group.commit(record)
                }
            });
            res.map_err(|e| format!("in-process commit on the live group: {e}"))?;
            live_commit_us.push(us(took));
        }
        t.acked += top_up_journal(&ready, &inputs, seed)?;
    }

    let clients = ready.clients.len();
    let primary_dir = ready.service.primary_dir.clone();
    let every_records = Options::default().policy.every_records;
    let wrong = verify(w, &inputs, ready, t.acked);
    let mut notes = std::mem::take(&mut t.notes);
    let failed = t.failed + wrong.len() as u64;
    notes.extend(wrong);
    put("durable.open_ms", reopen_ms(&primary_dir, sizing)?);
    let checkpoints = checkpoint::load_latest(&primary_dir)
        .ok()
        .flatten()
        .map_or(0, |(id, _)| {
            id.next_lsn.saturating_sub(2) / every_records.max(1)
        });
    put("durable.checkpoints", checkpoints as f64);

    // Phase 2: the same request script, in process.
    let mut tracer = Tracer::new();
    let mut replayed = 0usize;
    let mut queries = 0usize;
    let mut whole_us = 0.0; // untraced whole calls
    let mut staged_us = 0.0; // the same calls, stage by stage under spans
    let mut stage_sum_us = 0.0; // the stages' self times
    let mut in_process_mean_us = 0.0;

    if matches!(w.kind, Kind::Query | Kind::Mixed) {
        let q = replay_queries(&mut tracer, w, seed, &inputs, expected.as_deref(), sizing)?;
        replayed += q.requests;
        queries = q.requests;
        whole_us += q.whole_us;
        in_process_mean_us = q.whole_us / q.requests as f64;
        probe_query_layers(&inputs, sizing.probe_reps, &mut put);
    }
    if matches!(w.kind, Kind::Mixed | Kind::CommitLocal | Kind::CommitQuorum) {
        let records: Vec<WalRecord> = if w.kind == Kind::Mixed {
            inputs
                .script
                .iter()
                .take(sizing.replay_requests)
                .cloned()
                .collect()
        } else {
            let mut facts = FactStream::new(seed, 0, &inputs.leaves, inputs.fact_year);
            (0..sizing.replay_requests)
                .map(|_| facts.next_record())
                .collect()
        };
        let commit_whole_us = replay_commits(
            &mut tracer,
            &inputs,
            &records,
            replayed as u32,
            &base.0,
            w.kind,
            &mut put,
        )?;
        replayed += records.len();
        whole_us += commit_whole_us;
        // The hold window is inside `GroupCommit`, where no span of
        // ours can reach; its length is the shipped constant, and it
        // counts as a stage of every replayed commit.
        let held_us = records.len() as f64 * GroupConfig::default().hold_ms as f64 * 1e3;
        staged_us += held_us;
        stage_sum_us += held_us;
        if w.kind != Kind::Mixed {
            in_process_mean_us = mean(&live_commit_us);
            let local_us = commit_whole_us / records.len() as f64;
            if w.kind == Kind::CommitQuorum {
                put(
                    "cluster.quorum_wait_us",
                    (in_process_mean_us - local_us).max(0.0),
                );
            }
        }
    }
    put(
        "server.transport_us",
        (wire_mean_us - in_process_mean_us).max(0.0),
    );

    let table = tracer.table();
    for (name, row) in &table {
        match *name {
            "request" => staged_us += row.total_ns as f64 / 1e3,
            "server.proto" => staged_us -= row.total_ns as f64 / 1e3,
            _ => stage_sum_us += row.self_ns as f64 / 1e3,
        }
    }
    // Self time per request of the kind that enters the layer.
    let per_request = |name: &str, requests: usize| {
        table
            .get(name)
            .map_or(0.0, |r| r.self_ns as f64 / 1e3 / requests.max(1) as f64)
    };
    put("server.proto_us", per_request("server.proto", replayed));
    put("query.parse_us", per_request("query.parse", queries));
    put("query.plan_us", per_request("query.plan", queries));
    put(
        "core.structure_versions_us",
        per_request("core.structure_versions", queries),
    );
    put("core.evaluate_us", per_request("core.evaluate", queries));
    put("core.render_us", per_request("core.render", queries));
    put(
        "durable.append_apply_us",
        per_request("durable.append_apply", replayed - queries),
    );
    put(
        "durable.fsync_us",
        per_request("durable.fsync", replayed - queries),
    );
    put(
        "query.parses_per_request",
        ratio(
            table.get("query.parse").map_or(0.0, |r| r.count as f64),
            table
                .get("core.structure_versions")
                .map_or(0.0, |r| r.count as f64),
        ),
    );
    put("trace.requests", replayed as f64);
    let stage_sum_ratio = ratio(stage_sum_us, whole_us);
    put("trace.stage_sum_ratio", stage_sum_ratio);
    put("trace_overhead_ratio", ratio(staged_us, whole_us));
    if (stage_sum_ratio - 1.0).abs() > 0.10 {
        notes.push(format!(
            "stage self times sum to {stage_sum_ratio:.3} of the untraced whole call (outside 10%)"
        ));
    }
    let layers = render_table(&table, replayed);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!("{}-{seed}", w.name);
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), tracer.dump_spans())
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &layers))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    notes.push(layers);

    Ok(RunResult {
        correct: failed == 0,
        attempted: t.attempted,
        failed,
        metrics: m,
        clients,
        input_digest: inputs.digest,
        notes,
    })
}

struct QueryReplay {
    requests: usize,
    whole_us: f64,
}

/// Replays the reader's script against the generated schema with a
/// warm memo: each request stage by stage under spans and as the whole
/// call. Every rendering must equal the reference.
fn replay_queries(
    tracer: &mut Tracer,
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    expected: Option<&Vec<String>>,
    sizing: &Sizing,
) -> Result<QueryReplay, String> {
    let reader = if w.kind == Kind::Mixed { 1 } else { 0 };
    let exec = server_exec();
    let memo = QueryMemo::new();
    for q in &inputs.queries {
        render_query(&inputs.tmd, q, &exec, &memo)?;
    }
    // Whole cycles of the mix, so every template weighs as it does on
    // the wire; on a large warehouse the time budget ends the replay
    // before the request count does.
    let budget = Duration::from_secs_f64(sizing.seconds * REPLAY_SHARE);
    let begun = Instant::now();
    let mut order = QueryOrder::new(seed, reader, inputs.queries.len());
    let (mut requests, mut whole_us) = (0usize, 0.0);
    while requests == 0 || (requests < sizing.replay_requests && begun.elapsed() < budget) {
        for &t in order.next_cycle() {
            let text = &inputs.queries[t];
            tracer.set_request(requests as u32);
            // Staged and whole take turns going first, so neither pass
            // always finds the caches the other one warmed.
            let mut staged = None;
            if requests % 2 == 0 {
                staged = Some(render_query_staged(
                    tracer,
                    &inputs.tmd,
                    text,
                    &exec,
                    &memo,
                )?);
            }
            let (whole, took) = timed(|| render_query(&inputs.tmd, text, &exec, &memo));
            whole_us += us(took);
            let whole = whole?;
            let staged = match staged {
                Some(staged) => staged,
                None => render_query_staged(tracer, &inputs.tmd, text, &exec, &memo)?,
            };
            if whole != staged || expected.is_some_and(|x| x[t] != whole) {
                return Err(format!(
                    "replay of query {t}: staged, whole and reference renderings differ"
                ));
            }
            requests += 1;
        }
    }
    Ok(QueryReplay { requests, whole_us })
}

/// What a span cannot separate, measured by calling the layer
/// directly on each template of the mix (per-request means, the
/// `IN ALL MODES` template counting once per mode it evaluates).
fn probe_query_layers(inputs: &Inputs, reps: usize, put: &mut impl FnMut(&str, f64)) {
    let tmd = &inputs.tmd;
    let svs = tmd.structure_versions();
    let exec = server_exec();
    let sequential = ExecContext::sequential();
    let memo = QueryMemo::new();
    let n = inputs.queries.len() as f64;
    /// The last result and the fastest of `reps` timings of `f`.
    fn fastest<R>(reps: usize, f: impl Fn() -> R) -> (R, f64) {
        let mut best = timed(&f);
        for _ in 1..reps {
            let again = timed(&f);
            if again.1 < best.1 {
                best = again;
            }
        }
        (best.0, us(best.1))
    }
    let (mut present, mut evaluate, mut evaluate_1t) = (0.0, 0.0, 0.0);
    let (mut presented, mut unmapped, mut result_rows, mut evaluations) = (0, 0, 0, 0usize);
    for text in &inputs.queries {
        let ast = parse(text).expect("the mix parses");
        let (mut query, modes) = plan_modes(tmd, &svs, &ast).expect("the mix plans");
        for mode in modes {
            query.mode = mode;
            // Fill the memo first: the probes time the warm path.
            evaluate_par(tmd, &svs, &query, &exec, &memo).expect("the mix evaluates");
            let (p, took) = fastest(reps, || present_par(tmd, &svs, &query.mode, &exec, &memo));
            let p = p.expect("the mix presents");
            present += took;
            presented += p.rows.len();
            unmapped += p.unmapped_rows;
            let (rs, took) = fastest(reps, || evaluate_par(tmd, &svs, &query, &exec, &memo));
            evaluate += took;
            result_rows += rs.expect("the mix evaluates").rows.len();
            evaluate_1t += fastest(reps, || evaluate_par(tmd, &svs, &query, &sequential, &memo)).1;
            evaluations += 1;
        }
    }
    put("core.present_us", present / n);
    put("core.aggregate_us", (evaluate - present).max(0.0) / n);
    put("core.rows_in", tmd.facts().len() as f64);
    put("core.rows_presented", presented as f64 / evaluations as f64);
    put("core.unmapped_rows", unmapped as f64 / evaluations as f64);
    put("core.result_rows", result_rows as f64 / evaluations as f64);
    put("core.structure_versions", svs.len() as f64);
    put("core.evaluations_per_request", evaluations as f64 / n);
    put(
        "exec.morsels_per_query",
        exec.morsels_for(tmd.facts().len()) as f64,
    );
    put("exec.speedup_2t", ratio(evaluate_1t, evaluate));

    // The same request against a fresh memo and against the memo it
    // just filled: what an operator's invalidation costs the next query.
    let (mut cold, mut warm) = (0.0, 0.0);
    for text in &inputs.queries {
        let fresh = QueryMemo::new();
        cold += us(timed(|| render_query(tmd, text, &exec, &fresh)).1);
        warm += us(timed(|| render_query(tmd, text, &exec, &fresh)).1);
    }
    put("core.cold_over_warm", ratio(cold, warm));
}

/// Replays commit records on scratch stores seeded like the live one:
/// each record stage by stage on a bare store and as the whole
/// `GroupCommit::commit` call on a second one; then probes the durable and replication
/// layers on the log the replay wrote. Returns the microseconds the
/// whole calls took.
fn replay_commits(
    tracer: &mut Tracer,
    inputs: &Inputs,
    records: &[WalRecord],
    first_request: u32,
    base: &Path,
    kind: Kind,
    put: &mut impl FnMut(&str, f64),
) -> Result<f64, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("commit replay: {what}: {e}");
    let create = |name: &str| {
        DurableTmd::create_with(
            &base.join(name),
            inputs.tmd.clone(),
            Options::default(),
            Io::plain(),
        )
        .map_err(|e| fail("scratch store", &e))
    };
    let n = records.len() as f64;

    let staged_dir = base.join("staged");
    let mut store = create("staged")?;
    let group = GroupCommit::new(create("whole")?, GroupConfig::default());
    let wal_before = dir_bytes(&staged_dir.join("wal"));
    let mut whole_us = 0.0;
    for (i, record) in records.iter().enumerate() {
        tracer.set_request(first_request + i as u32);
        commit_staged(tracer, &mut store, record)?;
        let (res, took) = timed(|| group.commit(record.clone()));
        res.map_err(|e| fail("whole call", &e))?;
        whole_us += us(took);
    }
    drop(group);
    put(
        "durable.wal_bytes_per_commit",
        (dir_bytes(&staged_dir.join("wal")) - wal_before) as f64 / n,
    );

    let encode_us: f64 = records.iter().map(|r| us(timed(|| r.encode()).1)).sum();
    put("durable.encode_us", encode_us / n);
    let table = tracer.table();
    let staged_mean = |name: &str| table.get(name).map_or(0.0, |r| r.total_ns as f64 / 1e3 / n);
    put(
        "durable.group_wait_us",
        (whole_us / n - staged_mean("durable.append_apply") - staged_mean("durable.fsync"))
            .max(0.0),
    );

    if kind == Kind::CommitQuorum {
        // What a member pump does per round: fetch the tail behind the
        // fsynced head, and have the follower journal, fsync and apply
        // it. One frame per message, as a lone committer produces them.
        let pump = PumpConfig::default();
        let tailer = WalTailer::new(&staged_dir);
        let head = store.wal_position();
        let frames = store.tail(1).map_err(|e| fail("tail", &e))?;
        let mut follower =
            Follower::create("probe", base.join("probe"), Options::default(), Io::plain());
        let (mut fetch_us, mut apply_us, mut applied) = (0.0, 0.0, 0usize);
        for frame in frames {
            let lsn = frame.lsn;
            let (fetched, took) = timed(|| {
                tailer.fetch_budget(lsn, head, pump.max_batch_frames, pump.max_inflight_bytes)
            });
            fetched.map_err(|e| fail("fetch", &e))?;
            let msg = ReplicaMsg::Frames {
                epoch: 0,
                frames: vec![frame],
            };
            let (handled, apply) = timed(|| follower.handle(msg));
            handled.map_err(|e| fail("follower", &e))?;
            // LSN 1 is the bootstrap image, not a commit.
            if lsn > 1 {
                fetch_us += us(took);
                apply_us += us(apply);
                applied += 1;
            }
        }
        put("replica.fetch_us", fetch_us / applied.max(1) as f64);
        put(
            "replica.follower_apply_us",
            apply_us / applied.max(1) as f64,
        );
    }

    let (ckpt, took) = timed(|| store.checkpoint());
    ckpt.map_err(|e| fail("checkpoint", &e))?;
    put("durable.checkpoint_ms", us(took) / 1e3);
    Ok(whole_us)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}
