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
//!
//! [`crash_sweep`] and [`group_crash_sweep`] are two instances of one
//! crash-point harness that differ only in how often a record is
//! fsynced and in the upper end of that window. [`Prefixes`] holds the
//! prefix states; the cluster crate's sweeps check replicated schemas
//! against it too.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;
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

impl Workload {
    /// The logical records, in order, without the checkpoints.
    pub fn ops(&self) -> impl Iterator<Item = &WalRecord> {
        self.steps.iter().filter_map(|s| match s {
            Step::Op(r) => Some(r),
            Step::Checkpoint => None,
        })
    }
}

/// What a [`crash_sweep`] established.
#[derive(Debug, Default, PartialEq, Eq)]
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

/// The schema's canonical bytes — what "byte-identical" means in every
/// sweep assertion.
#[must_use]
pub fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).expect("in-memory serialisation cannot fail");
    buf
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

/// Every committed prefix of a workload, replayed in memory: the
/// schema and its bytes after each record (index `q` = state after `q`
/// records). Recovered and replicated schemas are checked against it.
#[derive(Debug)]
pub struct Prefixes {
    org: DimensionId,
    bytes: Vec<Vec<u8>>,
    tmds: Vec<Tmd>,
}

impl Prefixes {
    /// Replays `workload`'s records onto its seed schema.
    ///
    /// # Errors
    ///
    /// A record that does not apply to its own prefix.
    pub fn replay(workload: &Workload) -> Result<Prefixes, String> {
        let mut state = workload.seed_schema.clone();
        let mut tmds = vec![state.clone()];
        for record in workload.ops() {
            record
                .apply(&mut state)
                .map_err(|e| format!("prefix replay failed: {e}"))?;
            tmds.push(state.clone());
        }
        Ok(Prefixes {
            org: workload.org,
            bytes: tmds.iter().map(serialise).collect(),
            tmds,
        })
    }

    /// The canonical bytes of the state after `q` records.
    ///
    /// # Panics
    ///
    /// When `q` exceeds the workload's record count.
    #[must_use]
    pub fn bytes(&self, q: usize) -> &[u8] {
        &self.bytes[q]
    }

    /// The first prefix `q` in `window` that `schema` serialises to,
    /// after checking that `schema` also answers the reference query
    /// ([`query_fingerprint`]) exactly as that prefix does.
    ///
    /// # Errors
    ///
    /// No prefix in `window` matches, or the matching one answers
    /// differently.
    pub fn find(&self, schema: &Tmd, window: RangeInclusive<usize>) -> Result<usize, String> {
        let got = serialise(schema);
        let q = window
            .clone()
            .find(|&q| self.bytes.get(q) == Some(&got))
            .ok_or_else(|| format!("state is not the applied prefix in {window:?}"))?;
        if query_fingerprint(schema, self.org)? != query_fingerprint(&self.tmds[q], self.org)? {
            return Err(format!(
                "answers the reference query differently at prefix {q}"
            ));
        }
        Ok(q)
    }
}

/// One run of a workload against a store.
struct Run {
    /// Records made durable by a completed sync (or checkpoint).
    committed: u64,
    /// Records applied, durable or not.
    attempted: u64,
    /// I/O primitives performed, when the run finished without a fault.
    ops: Option<u64>,
}

/// Runs `workload` against a fresh store in `dir`, appending each
/// record unsynced and fsyncing after every `sync_every` of them (and,
/// when batched, once at the end); checkpoints make everything applied
/// durable.
fn run_workload(dir: &Path, workload: &Workload, io: Io, sync_every: u64) -> Result<Run, String> {
    std::fs::remove_dir_all(dir).ok();
    let mut run = Run {
        committed: 0,
        attempted: 0,
        ops: None,
    };
    let mut store =
        match DurableTmd::create_with(dir, workload.seed_schema.clone(), sweep_options(), io) {
            Ok(s) => s,
            Err(e) if e.is_io_class() => return Ok(run),
            Err(e) => return Err(format!("create failed non-faultily: {e}")),
        };
    // `None` closes the run.
    for step in workload.steps.iter().map(Some).chain([None]) {
        let res = match step {
            Some(Step::Op(record)) => store
                .apply_unsynced(record.clone())
                .map(|_| run.attempted += 1),
            Some(Step::Checkpoint) => store.checkpoint().map(|_| run.committed = run.attempted),
            None => Ok(()),
        }
        .and_then(|()| {
            // A batched run closes with one flush of its last batch,
            // pending or not (one more primitive); at `sync_every` 1
            // nothing is ever pending, so there is no such flush.
            let due = match step {
                Some(_) => run.attempted - run.committed >= sync_every,
                None => sync_every > 1,
            };
            if !due {
                return Ok(());
            }
            store.sync_wal().map(|_| run.committed = run.attempted)
        });
        match res {
            Ok(()) => {}
            Err(e) if e.is_io_class() => return Ok(run),
            Err(e) => return Err(format!("workload step failed non-faultily: {e}")),
        }
    }
    run.ops = Some(store.io_ops());
    Ok(run)
}

/// The crash-point harness both sweeps instantiate: a fault-free run
/// that counts the I/O primitives and must reopen to the final prefix,
/// then one run per primitive `k` that crashes there, recovers, and
/// must land on a prefix `q` with `committed ≤ q ≤ hi(run)` that also
/// answers the reference query identically.
fn sweep_crash_points(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
    sync_every: u64,
    hi: impl Fn(&Run) -> usize,
) -> Result<SweepOutcome, String> {
    let workload = generate(seed, target_records);
    let prefixes = Prefixes::replay(&workload)?;

    let free_dir = base_dir.join("fault-free");
    let free = run_workload(&free_dir, &workload, Io::plain(), sync_every)?;
    let total_ops = free
        .ops
        .ok_or_else(|| "fault-free run reported a fault".to_owned())?;
    if free.committed != workload.records as u64 {
        return Err(format!(
            "fault-free run committed {}/{} records",
            free.committed, workload.records
        ));
    }
    // The fault-free store must recover to its own final state.
    let reopened = DurableTmd::open(&free_dir).map_err(|e| format!("clean reopen failed: {e}"))?;
    if serialise(reopened.schema()) != prefixes.bytes(workload.records) {
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
        let run = run_workload(&crash_dir, &workload, io, sync_every)?;
        if run.ops.is_some() {
            return Err(format!("crash point {k} never fired (T={total_ops})"));
        }
        let committed = run.committed as usize;
        match DurableTmd::open(&crash_dir) {
            Err(DurableError::NoStore) if committed == 0 => outcome.recovered_empty += 1,
            Err(DurableError::NoStore) => {
                return Err(format!(
                    "crash {k}: {committed} committed records but recovery found no store"
                ))
            }
            Err(e) => {
                return Err(format!(
                    "crash {k}: recovery failed ({committed} committed): {e}"
                ))
            }
            Ok(store) => {
                let q = prefixes
                    .find(store.schema(), committed..=hi(&run))
                    .map_err(|e| {
                        format!(
                            "crash {k}: recovered store {e} ({committed} committed, {} attempted)",
                            run.attempted
                        )
                    })?;
                if q == committed {
                    outcome.recovered_at_committed += 1;
                } else {
                    outcome.recovered_ahead += 1;
                }
            }
        }
    }
    std::fs::remove_dir_all(&crash_dir).ok();
    std::fs::remove_dir_all(&free_dir).ok();
    Ok(outcome)
}

/// Sweeps every crash point of the seeded workload under `base_dir`,
/// each record committed (fsynced) on its own, and checks
/// prefix-consistent recovery at each one.
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
    sweep_crash_points(base_dir, seed, target_records, 1, |run| {
        run.committed as usize + 1
    })
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
    // `attempted + 1` slack: the crash may have hit the write of the
    // next record after a complete frame reached the disk, exactly as
    // in the classic sweep.
    sweep_crash_points(base_dir, seed, target_records, sync_every, |run| {
        (run.attempted as usize + 1).min(target_records)
    })
}
