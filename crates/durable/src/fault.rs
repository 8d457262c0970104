//! Deterministic crash-point sweep: the subsystem's correctness
//! argument, executable.
//!
//! [`generate`] builds a seeded workload — a seed schema plus a long
//! mixed sequence of evolution operators, fact batches and manual
//! checkpoints, every one valid against a shadow schema it maintains
//! while generating. [`crash_sweep`] then:
//!
//! 1. runs the workload **fault-free**, counting every I/O primitive
//!    (`T` crash points) and caching the serialised schema after each
//!    committed record (the *prefix states*);
//! 2. re-runs the workload once per crash point `k < T` with an
//!    [`Io`] that simulates a crash (torn write included)
//!    on the `k`-th primitive;
//! 3. recovers each crashed directory and asserts **prefix
//!    consistency**: the recovered schema serialises identically to
//!    prefix state `q` for some `committed ≤ q ≤ committed + 1` — never
//!    a lost committed record, never an invented one, never a torn
//!    half-application — and answers an aggregate query with exactly
//!    the rows the prefix state answers.
//!
//! The `committed + 1` slack is inherent to write-ahead logging: a
//! crash *after* the record reached the disk but *before* the
//! acknowledgement returns leaves a fully journaled record the caller
//! was never told about; recovery legitimately surfaces it.

use std::collections::BTreeSet;
use std::path::Path;

use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::persist::write_tmd;
use mvolap_core::{
    AggregateQuery, DimensionId, MappingRelationship, MeasureDef, MeasureMapping, MemberVersionId,
    MemberVersionSpec, TemporalDimension, TemporalMode, Tmd,
};
use mvolap_prng::Rng;
use mvolap_temporal::{Granularity, Instant, Interval};

use crate::error::DurableError;
use crate::io::{FaultPlan, Io};
use crate::record::{FactRow, WalRecord};
use crate::store::{DurableTmd, Options};

/// One step of a generated workload.
#[derive(Debug, Clone)]
pub enum Step {
    /// Apply (and journal) one logical record.
    Op(WalRecord),
    /// Take a manual checkpoint.
    Checkpoint,
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// The schema the store is created with.
    pub seed_schema: Tmd,
    /// The (single) dimension all operations target.
    pub org: DimensionId,
    /// The steps, in order.
    pub steps: Vec<Step>,
    /// Number of `Step::Op` entries.
    pub records: usize,
}

/// What a [`crash_sweep`] established.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Crash points exercised (= I/O primitives in the fault-free run).
    pub crash_points: u64,
    /// Logical records in the workload.
    pub records: usize,
    /// Crashes so early nothing recoverable existed yet.
    pub recovered_empty: u64,
    /// Recoveries landing exactly on the committed prefix.
    pub recovered_at_committed: u64,
    /// Recoveries surfacing one durable-but-unacknowledged record.
    pub recovered_ahead: u64,
}

fn seed_schema() -> (
    Tmd,
    DimensionId,
    Vec<(MemberVersionId, MemberVersionId)>,
    [MemberVersionId; 2],
) {
    let mut tmd = Tmd::new("durable-workload", Granularity::Month);
    let mut d = TemporalDimension::new("Org");
    let since = Interval::since(Instant::ym(2001, 1));
    let north = d.add_version(
        MemberVersionSpec::named("North").at_level("Division"),
        since,
    );
    let south = d.add_version(
        MemberVersionSpec::named("South").at_level("Division"),
        since,
    );
    let mut leaves = Vec::new();
    for i in 0..4u32 {
        let parent = if i % 2 == 0 { north } else { south };
        let dept = d.add_version(
            MemberVersionSpec::named(format!("Dept-{i}")).at_level("Department"),
            since,
        );
        d.add_relationship(dept, parent, since)
            .expect("seed schema edge");
        leaves.push((dept, parent));
    }
    let org = tmd
        .add_dimension(d)
        .expect("empty schema takes a dimension");
    tmd.add_measure(MeasureDef::summed("Amount"))
        .expect("empty schema takes a measure");
    (tmd, org, leaves, [north, south])
}

/// Generates the seeded workload: `target_records` logical records with
/// interspersed checkpoints. Deterministic in `seed`.
pub fn generate(seed: u64, target_records: usize) -> Workload {
    let mut rng = Rng::seed_from_u64(seed);
    let (seed_tmd, org, mut alive, divisions) = seed_schema();
    let mut shadow = seed_tmd.clone();
    let mut steps = Vec::new();
    let mut records = 0usize;
    // Mapping-relationship endpoints known to exist (for confidence
    // revisions) resp. known NOT to exist (for bare associates).
    let mut mapped: Vec<(MemberVersionId, MemberVersionId)> = Vec::new();
    let mut mapped_set: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut graveyard: Vec<MemberVersionId> = Vec::new();
    let mut t = Instant::ym(2001, 2);
    let mut name_counter = 4u32;
    let fractions = [0.2, 0.25, 0.4, 0.5, 0.6, 0.75];

    let push_op =
        |steps: &mut Vec<Step>, shadow: &mut Tmd, record: WalRecord| -> Vec<MemberVersionId> {
            let before = shadow.dimensions()[org.0 as usize].versions().len();
            record
                .apply(shadow)
                .expect("generated workload must be valid");
            let after = shadow.dimensions()[org.0 as usize].versions().len();
            steps.push(Step::Op(record));
            (before..after).map(|i| MemberVersionId(i as u32)).collect()
        };

    while records < target_records {
        let roll = rng.usize_below(100);
        if roll < 55 {
            // Fact batch on currently alive leaves.
            let n = 1 + rng.usize_below(3);
            let rows = (0..n)
                .map(|_| FactRow {
                    coords: vec![alive[rng.usize_below(alive.len())].0],
                    at: t,
                    values: vec![rng.usize_below(4000) as f64 / 4.0],
                })
                .collect();
            push_op(&mut steps, &mut shadow, WalRecord::FactBatch { rows });
            records += 1;
        } else if roll < 65 {
            // Create a new department.
            t = t.succ();
            let parent = divisions[rng.usize_below(2)];
            let name = format!("Dept-{name_counter}");
            name_counter += 1;
            let created = push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Create {
                    dim: org,
                    name,
                    level: Some("Department".into()),
                    at: t,
                    parents: vec![parent],
                },
            );
            alive.push((created[0], parent));
            records += 1;
        } else if roll < 72 {
            // Delete a department (keep a healthy population).
            if alive.len() <= 3 {
                continue;
            }
            t = t.succ();
            let (id, _) = alive.swap_remove(rng.usize_below(alive.len()));
            push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Delete {
                    dim: org,
                    id,
                    at: t,
                },
            );
            graveyard.push(id);
            records += 1;
        } else if roll < 79 {
            // Split a department in two.
            t = t.succ();
            let idx = rng.usize_below(alive.len());
            let (source, parent) = alive.swap_remove(idx);
            let k = fractions[rng.usize_below(fractions.len())];
            let a = format!("Dept-{name_counter}");
            let b = format!("Dept-{}", name_counter + 1);
            name_counter += 2;
            let created = push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Split {
                    dim: org,
                    source,
                    parts: vec![
                        SplitPart::proportional(a, k, 1),
                        SplitPart::proportional(b, 1.0 - k, 1),
                    ],
                    at: t,
                    parents: vec![parent],
                },
            );
            for &c in &created {
                alive.push((c, parent));
                mapped.push((source, c));
                mapped_set.insert((source.0, c.0));
            }
            graveyard.push(source);
            records += 1;
        } else if roll < 85 {
            // Merge two departments.
            if alive.len() <= 3 {
                continue;
            }
            t = t.succ();
            let i = rng.usize_below(alive.len());
            let (s1, parent) = alive.swap_remove(i);
            let j = rng.usize_below(alive.len());
            let (s2, _) = alive.swap_remove(j);
            let name = format!("Dept-{name_counter}");
            name_counter += 1;
            let created = push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Merge {
                    dim: org,
                    sources: vec![
                        MergeSource::with_share(s1, 0.5, 1),
                        MergeSource::with_unknown_share(s2, 1),
                    ],
                    new_name: name,
                    level: Some("Department".into()),
                    at: t,
                    parents: vec![parent],
                },
            );
            alive.push((created[0], parent));
            for s in [s1, s2] {
                mapped.push((s, created[0]));
                mapped_set.insert((s.0, created[0].0));
                graveyard.push(s);
            }
            records += 1;
        } else if roll < 90 {
            // Reclassify a department to the other division.
            t = t.succ();
            let idx = rng.usize_below(alive.len());
            let (id, old_parent) = alive[idx];
            let new_parent = if old_parent == divisions[0] {
                divisions[1]
            } else {
                divisions[0]
            };
            push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Reclassify {
                    dim: org,
                    id,
                    at: t,
                    old_parents: vec![old_parent],
                    new_parents: vec![new_parent],
                },
            );
            alive[idx].1 = new_parent;
            records += 1;
        } else if roll < 94 {
            // Rename a department.
            t = t.succ();
            let idx = rng.usize_below(alive.len());
            let (id, parent) = alive.swap_remove(idx);
            let name = format!("Dept-{name_counter}");
            name_counter += 1;
            let created = push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Transform {
                    dim: org,
                    id,
                    new_name: name,
                    new_attributes: [("renamed".to_owned(), "yes".to_owned())].into(),
                    at: t,
                },
            );
            alive.push((created[0], parent));
            mapped.push((id, created[0]));
            mapped_set.insert((id.0, created[0].0));
            graveyard.push(id);
            records += 1;
        } else if roll < 96 {
            // Revise the confidence of an existing mapping.
            if mapped.is_empty() {
                continue;
            }
            let (from, to) = mapped[rng.usize_below(mapped.len())];
            let k = fractions[rng.usize_below(fractions.len())];
            push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Confidence {
                    dim: org,
                    from,
                    to,
                    forward: vec![MeasureMapping::approx_scale(k)],
                    backward: vec![MeasureMapping::approx_scale(1.0 / k)],
                },
            );
            records += 1;
        } else if roll < 97 {
            // Bare associate between a retired member and a live one.
            if graveyard.is_empty() {
                continue;
            }
            let from = graveyard[rng.usize_below(graveyard.len())];
            let to = alive[rng.usize_below(alive.len())].0;
            if from == to || mapped_set.contains(&(from.0, to.0)) {
                continue;
            }
            push_op(
                &mut steps,
                &mut shadow,
                WalRecord::Associate {
                    dim: org,
                    rel: MappingRelationship {
                        from,
                        to,
                        forward: vec![MeasureMapping::UNKNOWN],
                        backward: vec![MeasureMapping::UNKNOWN],
                    },
                },
            );
            mapped.push((from, to));
            mapped_set.insert((from.0, to.0));
            records += 1;
        } else {
            // Manual checkpoint.
            if matches!(steps.last(), Some(Step::Checkpoint) | None) {
                continue;
            }
            steps.push(Step::Checkpoint);
        }
    }
    Workload {
        seed_schema: seed_tmd,
        org,
        steps,
        records,
    }
}

/// Store options every sweep runs under (this crate's and the cluster
/// crate's): tiny segments so rotation and pruning happen often, no
/// auto-checkpointing (the workload checkpoints explicitly).
#[must_use]
pub fn sweep_options() -> Options {
    Options {
        segment_bytes: 2048,
        policy: crate::store::CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

/// Runs `workload` against a fresh store in `dir`. Returns the number
/// of records committed and, when the run finished without a fault,
/// the total number of I/O primitives performed.
fn run_workload(dir: &Path, workload: &Workload, io: Io) -> Result<(u64, Option<u64>), String> {
    std::fs::remove_dir_all(dir).ok();
    let mut store =
        match DurableTmd::create_with(dir, workload.seed_schema.clone(), sweep_options(), io) {
            Ok(s) => s,
            Err(e) if e.is_io_class() => return Ok((0, None)),
            Err(e) => return Err(format!("create failed non-faultily: {e}")),
        };
    let mut committed = 0u64;
    for step in &workload.steps {
        let res = match step {
            Step::Op(record) => store.apply(record.clone()).map(|_| ()),
            Step::Checkpoint => store.checkpoint().map(|_| ()),
        };
        match res {
            Ok(()) => {
                if matches!(step, Step::Op(_)) {
                    committed += 1;
                }
            }
            Err(e) if e.is_io_class() => return Ok((committed, None)),
            Err(e) => return Err(format!("workload step failed non-faultily: {e}")),
        }
    }
    Ok((committed, Some(store.io_ops())))
}

/// The schema's canonical bytes — what "byte-identical" means in every
/// sweep assertion.
#[must_use]
pub fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).expect("in-memory serialisation cannot fail");
    buf
}

/// Runs `workload` with the group-commit building blocks: records are
/// appended unsynced and a shared fsync lands after every `sync_every`
/// records (checkpoints also make everything applied durable). Returns
/// `(committed, attempted, ops)` — records durably acknowledged by a
/// completed sync, records applied (possibly awaiting one), and the
/// primitive count when the run finished fault-free.
fn run_workload_batched(
    dir: &Path,
    workload: &Workload,
    io: Io,
    sync_every: u64,
) -> Result<(u64, u64, Option<u64>), String> {
    std::fs::remove_dir_all(dir).ok();
    let mut store =
        match DurableTmd::create_with(dir, workload.seed_schema.clone(), sweep_options(), io) {
            Ok(s) => s,
            Err(e) if e.is_io_class() => return Ok((0, 0, None)),
            Err(e) => return Err(format!("create failed non-faultily: {e}")),
        };
    let mut committed = 0u64;
    let mut attempted = 0u64;
    let mut unsynced = 0u64;
    for step in &workload.steps {
        match step {
            Step::Op(record) => match store.apply_unsynced(record.clone()) {
                Ok(_) => {
                    attempted += 1;
                    unsynced += 1;
                    if unsynced >= sync_every {
                        match store.sync_wal() {
                            Ok(_) => {
                                committed = attempted;
                                unsynced = 0;
                            }
                            Err(e) if e.is_io_class() => return Ok((committed, attempted, None)),
                            Err(e) => return Err(format!("sync failed non-faultily: {e}")),
                        }
                    }
                }
                Err(e) if e.is_io_class() => return Ok((committed, attempted, None)),
                Err(e) => return Err(format!("workload step failed non-faultily: {e}")),
            },
            Step::Checkpoint => match store.checkpoint() {
                Ok(_) => {
                    // The snapshot durably contains every applied
                    // record, synced or not.
                    committed = attempted;
                    unsynced = 0;
                }
                Err(e) if e.is_io_class() => return Ok((committed, attempted, None)),
                Err(e) => return Err(format!("checkpoint failed non-faultily: {e}")),
            },
        }
    }
    match store.sync_wal() {
        Ok(_) => committed = attempted,
        Err(e) if e.is_io_class() => return Ok((committed, attempted, None)),
        Err(e) => return Err(format!("final sync failed non-faultily: {e}")),
    }
    Ok((committed, attempted, Some(store.io_ops())))
}

/// Fingerprints the answer a schema gives to the reference aggregate
/// query (per-year, per-division totals in consistent-time mode),
/// value bits and confidences included.
///
/// # Errors
///
/// The evaluation failure, rendered.
pub fn query_fingerprint(tmd: &Tmd, org: DimensionId) -> Result<Vec<String>, String> {
    let q = AggregateQuery::by_year(org, "Division", TemporalMode::Consistent);
    let svs = tmd.structure_versions();
    let rs = mvolap_core::evaluate(tmd, &svs, &q).map_err(|e| format!("query failed: {e}"))?;
    Ok(rs
        .rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .cells
                .iter()
                .map(|c| format!("{}:{:?}", c.value.map_or(0, f64::to_bits), c.confidence))
                .collect();
            format!("{}|{}|{}", r.time, r.keys.join(","), cells.join(","))
        })
        .collect())
}

/// Sweeps every crash point of the seeded workload under `base_dir` and
/// checks prefix-consistent recovery at each one.
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// durability bug (or genuine on-disk corruption).
pub fn crash_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<SweepOutcome, String> {
    let workload = generate(seed, target_records);

    // Prefix states: serialised schema + query fingerprint after each
    // committed record. Index q = state after q records.
    let mut prefix_bytes = Vec::with_capacity(workload.records + 1);
    let mut prefix_tmds = Vec::with_capacity(workload.records + 1);
    let mut state = workload.seed_schema.clone();
    prefix_bytes.push(serialise(&state));
    prefix_tmds.push(state.clone());
    for step in &workload.steps {
        if let Step::Op(record) = step {
            record
                .apply(&mut state)
                .map_err(|e| format!("prefix replay failed: {e}"))?;
            prefix_bytes.push(serialise(&state));
            prefix_tmds.push(state.clone());
        }
    }

    // Fault-free run: establishes the crash-point count.
    let free_dir = base_dir.join("fault-free");
    let (committed, ops) = run_workload(&free_dir, &workload, Io::plain())?;
    let total_ops = ops.ok_or_else(|| "fault-free run reported a fault".to_owned())?;
    if committed != workload.records as u64 {
        return Err(format!(
            "fault-free run committed {committed}/{} records",
            workload.records
        ));
    }
    // The fault-free store must recover to its own final state.
    let reopened = DurableTmd::open(&free_dir).map_err(|e| format!("clean reopen failed: {e}"))?;
    if serialise(reopened.schema()) != prefix_bytes[workload.records] {
        return Err("clean reopen diverged from the applied sequence".to_owned());
    }

    let mut outcome = SweepOutcome {
        crash_points: total_ops,
        records: workload.records,
        ..SweepOutcome::default()
    };

    let crash_dir = base_dir.join("crash");
    for k in 0..total_ops {
        let io = Io::faulty(FaultPlan::crash_after(k, seed));
        let (committed, finished) = run_workload(&crash_dir, &workload, io)?;
        if finished.is_some() {
            return Err(format!("crash point {k} never fired (T={total_ops})"));
        }
        match DurableTmd::open(&crash_dir) {
            Err(DurableError::NoStore) => {
                if committed != 0 {
                    return Err(format!(
                        "crash {k}: {committed} committed records but recovery found no store"
                    ));
                }
                outcome.recovered_empty += 1;
            }
            Err(e) => {
                return Err(format!(
                    "crash {k}: recovery failed ({committed} committed): {e}"
                ))
            }
            Ok(store) => {
                let got = serialise(store.schema());
                let committed = committed as usize;
                let q = (committed..=committed + 1)
                    .find(|&q| prefix_bytes.get(q) == Some(&got))
                    .ok_or_else(|| {
                        format!(
                            "crash {k}: recovered state is not the applied prefix \
                             ({committed} committed, {} attempted-at-most)",
                            committed + 1
                        )
                    })?;
                if q == committed {
                    outcome.recovered_at_committed += 1;
                } else {
                    outcome.recovered_ahead += 1;
                }
                // The recovered store must answer queries exactly like
                // the in-memory prefix replay.
                let expect = query_fingerprint(&prefix_tmds[q], workload.org)?;
                let actual = query_fingerprint(store.schema(), workload.org)?;
                if expect != actual {
                    return Err(format!(
                        "crash {k}: recovered store answers differently at prefix {q}"
                    ));
                }
            }
        }
    }
    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&free_dir).ok();
    Ok(outcome)
}

/// [`crash_sweep`] for the **group-commit path**: the workload runs
/// through [`DurableTmd::apply_unsynced`] with a shared fsync every
/// `sync_every` records, and recovery is checked against the wider
/// acknowledgement window batching implies — the recovered schema must
/// equal prefix state `q` for some `committed ≤ q ≤ attempted + 1`,
/// where `committed` counts only records covered by a completed sync
/// (or checkpoint) and `attempted` counts records applied. Unsynced
/// records are unacknowledged, so recovery surfacing any prefix of
/// them is legitimate; losing a synced record or inventing state that
/// was never applied is not.
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// durability bug (or genuine on-disk corruption).
pub fn group_crash_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
    sync_every: u64,
) -> Result<SweepOutcome, String> {
    let workload = generate(seed, target_records);

    let mut prefix_bytes = Vec::with_capacity(workload.records + 1);
    let mut prefix_tmds = Vec::with_capacity(workload.records + 1);
    let mut state = workload.seed_schema.clone();
    prefix_bytes.push(serialise(&state));
    prefix_tmds.push(state.clone());
    for step in &workload.steps {
        if let Step::Op(record) = step {
            record
                .apply(&mut state)
                .map_err(|e| format!("prefix replay failed: {e}"))?;
            prefix_bytes.push(serialise(&state));
            prefix_tmds.push(state.clone());
        }
    }

    // Fault-free run: establishes the crash-point count and proves the
    // batched path commits everything.
    let free_dir = base_dir.join("fault-free");
    let (committed, attempted, ops) =
        run_workload_batched(&free_dir, &workload, Io::plain(), sync_every)?;
    let total_ops = ops.ok_or_else(|| "fault-free run reported a fault".to_owned())?;
    if committed != workload.records as u64 || attempted != committed {
        return Err(format!(
            "fault-free batched run committed {committed}/{} records",
            workload.records
        ));
    }
    let reopened = DurableTmd::open(&free_dir).map_err(|e| format!("clean reopen failed: {e}"))?;
    if serialise(reopened.schema()) != prefix_bytes[workload.records] {
        return Err("clean batched reopen diverged from the applied sequence".to_owned());
    }

    let mut outcome = SweepOutcome {
        crash_points: total_ops,
        records: workload.records,
        ..SweepOutcome::default()
    };

    let crash_dir = base_dir.join("crash");
    for k in 0..total_ops {
        let io = Io::faulty(FaultPlan::crash_after(k, seed));
        let (committed, attempted, finished) =
            run_workload_batched(&crash_dir, &workload, io, sync_every)?;
        if finished.is_some() {
            return Err(format!("crash point {k} never fired (T={total_ops})"));
        }
        match DurableTmd::open(&crash_dir) {
            Err(DurableError::NoStore) => {
                if committed != 0 {
                    return Err(format!(
                        "crash {k}: {committed} committed records but recovery found no store"
                    ));
                }
                outcome.recovered_empty += 1;
            }
            Err(e) => {
                return Err(format!(
                    "crash {k}: recovery failed ({committed} committed): {e}"
                ))
            }
            Ok(store) => {
                let got = serialise(store.schema());
                let committed = committed as usize;
                // `attempted + 1` slack: the crash may have hit the
                // write of the next record after a complete frame
                // reached the disk, exactly as in the classic sweep.
                let hi = (attempted as usize + 1).min(workload.records);
                let q = (committed..=hi)
                    .find(|&q| prefix_bytes.get(q) == Some(&got))
                    .ok_or_else(|| {
                        format!(
                            "crash {k}: recovered state is not an applied prefix \
                             ({committed} committed, {attempted} attempted)"
                        )
                    })?;
                if q == committed {
                    outcome.recovered_at_committed += 1;
                } else {
                    outcome.recovered_ahead += 1;
                }
                let expect = query_fingerprint(&prefix_tmds[q], workload.org)?;
                let actual = query_fingerprint(store.schema(), workload.org)?;
                if expect != actual {
                    return Err(format!(
                        "crash {k}: recovered store answers differently at prefix {q}"
                    ));
                }
            }
        }
    }
    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&free_dir).ok();
    Ok(outcome)
}
