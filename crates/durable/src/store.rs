//! [`DurableTmd`]: a temporal warehouse whose every evolution is
//! journaled before it is applied.
//!
//! ## Commit protocol
//!
//! The WAL must contain exactly the operations that *committed* — a
//! journaled record that could not be applied would poison every future
//! recovery. Evolution operators therefore validate on a **clone** of
//! the schema first, journal (append + fsync) second, and swap the
//! clone in third; the swap cannot fail. Fact batches skip the clone (a
//! bulk load would copy the whole warehouse per batch): they run the
//! exact read-only checks `Tmd::add_fact` performs, journal, then apply
//! directly.
//!
//! Consequently every record read back by recovery is guaranteed to
//! replay cleanly on the state it was journaled against; a replay
//! failure always means real corruption and is reported as such rather
//! than papered over.
//!
//! ## Failure handling
//!
//! When journaling itself fails (an I/O error or injected crash), the
//! in-memory schema no longer provably matches the log and the store
//! *poisons* itself: every subsequent operation returns
//! [`DurableError::Poisoned`]. Recovery is re-opening the directory.

use std::path::{Path, PathBuf};

use mvolap_core::token::{Escapes, TokenError, TokenReader, TokenWriter};
use mvolap_core::Tmd;

use crate::checkpoint::{self, CheckpointId};
use crate::clock::TimeSource;
use crate::error::DurableError;
use crate::io::{FaultPlan, Io};
use crate::record::{FactRow, WalRecord};
use crate::wal::Wal;

/// When a [`DurableTmd`] checkpoints automatically. Every threshold is
/// independent and `0` disables it; the store checkpoints as soon as
/// *any* enabled threshold is crossed after a commit.
///
/// `every_records` alone is the classic count policy, but a long tail
/// of *small* records (many tiny fact batches) or a tail inherited from
/// recovery can still grow unboundedly below it — `max_tail_bytes` and
/// `max_tail_ops` bound the uncheckpointed tail by size and by total
/// record count regardless of who appended it.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many records committed by this handle.
    pub every_records: u64,
    /// Checkpoint once the uncheckpointed WAL tail exceeds this many
    /// bytes (frame headers included).
    pub max_tail_bytes: u64,
    /// Checkpoint once the uncheckpointed WAL tail holds this many
    /// records, counting records replayed from the log at open — a
    /// store that recovers a long tail checkpoints promptly instead of
    /// re-replaying it on every future open.
    pub max_tail_ops: u64,
    /// Checkpoint once the oldest uncheckpointed record has been
    /// sitting in the tail for this many milliseconds (per the store's
    /// [`TimeSource`]). Count/byte triggers only fire on commit; a
    /// deployment that goes quiet after a burst needs this wall-clock
    /// trigger, checked by [`DurableTmd::maybe_checkpoint`] from a
    /// periodic driver.
    pub max_tail_age_ms: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_records: 1024,
            max_tail_bytes: 0,
            max_tail_ops: 0,
            max_tail_age_ms: 0,
        }
    }
}

impl CheckpointPolicy {
    /// Only the classic record-count trigger.
    pub fn every_records(n: u64) -> Self {
        CheckpointPolicy {
            every_records: n,
            ..CheckpointPolicy::manual()
        }
    }

    /// Only the wall-clock tail-age trigger.
    pub fn max_tail_age(ms: u64) -> Self {
        CheckpointPolicy {
            max_tail_age_ms: ms,
            ..CheckpointPolicy::manual()
        }
    }

    /// No automatic checkpointing at all.
    pub fn manual() -> Self {
        CheckpointPolicy {
            every_records: 0,
            max_tail_bytes: 0,
            max_tail_ops: 0,
            max_tail_age_ms: 0,
        }
    }

    fn due(&self, records_since: u64, tail_bytes: u64, tail_ops: u64, tail_age_ms: u64) -> bool {
        (self.every_records > 0 && records_since >= self.every_records)
            || (self.max_tail_bytes > 0 && tail_bytes >= self.max_tail_bytes)
            || (self.max_tail_ops > 0 && tail_ops >= self.max_tail_ops)
            || (self.max_tail_age_ms > 0 && tail_age_ms >= self.max_tail_age_ms)
    }
}

/// Tuning knobs of a [`DurableTmd`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Rotate WAL segments once they exceed this many bytes.
    pub segment_bytes: u64,
    /// When to checkpoint automatically.
    pub policy: CheckpointPolicy,
    /// Prune fully-covered WAL segments and superseded checkpoints
    /// after each checkpoint.
    pub prune_on_checkpoint: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            segment_bytes: 8 << 20,
            policy: CheckpointPolicy::default(),
            prune_on_checkpoint: true,
        }
    }
}

/// One journaled membership change, as recovered from the WAL or the
/// membership sidecar. The group layer replays these to rebuild the
/// voting-group history: each entry's new group size takes effect
/// exactly at `lsn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigEntry {
    /// LSN of the [`WalRecord::Reconfig`] record.
    pub lsn: u64,
    /// Epoch the reconfiguration was issued under.
    pub epoch: u64,
    /// `true` = `member` was added, `false` = removed.
    pub add: bool,
    /// The member id that joined or left.
    pub member: String,
    /// The member's read-server address (empty for removals).
    pub addr: String,
}

const MEMBERSHIP_MAGIC: &str = "mvolap-membership v1";

fn membership_path(dir: &Path) -> PathBuf {
    dir.join("membership")
}

/// Persists the membership log crash-atomically (tmp + fsync + rename +
/// dir fsync), so checkpoint pruning can never orphan a reconfiguration
/// whose WAL frame it removes.
fn write_membership(
    entries: &[ReconfigEntry],
    dir: &Path,
    io: &mut Io,
) -> Result<(), DurableError> {
    let mut w = TokenWriter::new(Escapes::Separators);
    w.raw(MEMBERSHIP_MAGIC).end_line();
    for e in entries {
        w.raw(e.lsn).raw(e.epoch);
        w.raw(if e.add { "add" } else { "remove" });
        w.text(&e.member).text(&e.addr).end_line();
    }
    let buf = w.finish();
    let finals = membership_path(dir);
    let tmp = dir.join("membership.tmp");
    let f = io.create(&tmp)?;
    let res = io
        .write(&f, &buf)
        .and_then(|()| io.sync(&f))
        .and_then(|()| {
            drop(f);
            io.rename(&tmp, &finals)
        })
        .and_then(|()| io.sync_dir(dir));
    if let Err(e) = res {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    Ok(())
}

/// Loads the membership sidecar; a missing file is an empty log and a
/// malformed line ends the parse (never fatal — the WAL scan re-adds
/// anything it still holds).
fn load_membership(dir: &Path) -> Vec<ReconfigEntry> {
    let Ok(text) = std::fs::read_to_string(membership_path(dir)) else {
        return Vec::new();
    };
    // Split on `\n` alone: `lines()` would also eat a carriage return
    // that ends a member's address.
    let mut lines = text.split('\n');
    if lines.next() != Some(MEMBERSHIP_MAGIC) {
        return Vec::new();
    }
    let entry = |line| -> Result<ReconfigEntry, TokenError> {
        let mut r = TokenReader::new(line);
        let entry = ReconfigEntry {
            lsn: r.parse("lsn")?,
            epoch: r.parse("epoch")?,
            add: match r.token()? {
                "add" => true,
                "remove" => false,
                other => return Err(r.bad("direction", other)),
            },
            member: r.text()?,
            addr: r.text()?,
        };
        r.finish()?;
        Ok(entry)
    };
    lines.map_while(|line| entry(line).ok()).collect()
}

/// A durable temporal multidimensional schema: [`Tmd`] + WAL +
/// checkpoints under one directory.
#[derive(Debug)]
pub struct DurableTmd {
    dir: PathBuf,
    tmd: Tmd,
    wal: Wal,
    io: Io,
    opts: Options,
    records_since_ckpt: u64,
    /// Bytes (frames included) appended to the tail since the last
    /// known checkpoint.
    bytes_since_ckpt: u64,
    /// First LSN *not* covered by the last known checkpoint; the
    /// uncheckpointed tail is `next_lsn - covered_lsn` records.
    covered_lsn: u64,
    /// Where this store reads "now" for the tail-age trigger.
    time: TimeSource,
    /// When the oldest uncheckpointed record entered the tail; `None`
    /// while the tail is empty.
    tail_since_ms: Option<u64>,
    /// Every journaled membership change, in LSN order. Rebuilt on open
    /// from the membership sidecar plus a WAL scan, so the log survives
    /// checkpoint pruning of the frames it came from.
    reconfigs: Vec<ReconfigEntry>,
    poisoned: bool,
}

impl DurableTmd {
    /// Creates a fresh store under `dir` seeded with `tmd`. The seed
    /// schema is journaled as the bootstrap record, so the store is
    /// recoverable before its first checkpoint.
    ///
    /// # Errors
    ///
    /// I/O failures; `dir` must not already contain a store.
    pub fn create(dir: &Path, tmd: Tmd) -> Result<DurableTmd, DurableError> {
        Self::create_with(dir, tmd, Options::default(), Io::plain())
    }

    /// [`DurableTmd::create`] with explicit options and I/O layer (fault
    /// injection enters here).
    ///
    /// # Errors
    ///
    /// I/O or injected-fault failures.
    pub fn create_with(
        dir: &Path,
        tmd: Tmd,
        opts: Options,
        mut io: Io,
    ) -> Result<DurableTmd, DurableError> {
        if dir.join("wal").exists() {
            return Err(DurableError::corrupt(format!(
                "refusing to create over an existing store in {}",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir)?;
        let mut wal = Wal::create(dir, opts.segment_bytes, &mut io)?;
        let mut snapshot = Vec::new();
        mvolap_core::persist::write_tmd(&tmd, &mut snapshot)?;
        let payload = WalRecord::Bootstrap { snapshot }.encode();
        wal.append(&payload, &mut io)?;
        let time = TimeSource::default();
        let tail_since_ms = Some(time.now_ms());
        Ok(DurableTmd {
            dir: dir.to_path_buf(),
            tmd,
            wal,
            io,
            opts,
            records_since_ckpt: 0,
            bytes_since_ckpt: (payload.len() + crate::frame::HEADER) as u64,
            covered_lsn: 1,
            time,
            tail_since_ms,
            reconfigs: Vec::new(),
            poisoned: false,
        })
    }

    /// Creates a store under `dir` from a checkpoint *snapshot* instead
    /// of a bootstrap record: the WAL starts empty at `next_lsn` and the
    /// snapshot is written as the covering checkpoint. A replication
    /// follower re-bootstrapping from a primary checkpoint uses this so
    /// its log stays LSN-aligned with the primary's.
    ///
    /// # Errors
    ///
    /// I/O or injected-fault failures; `dir` must not already contain a
    /// store. A crash between WAL creation and the checkpoint leaves a
    /// directory [`DurableTmd::open`] reports as
    /// [`DurableError::NoStore`] — recreate it.
    pub fn create_from_snapshot(
        dir: &Path,
        tmd: Tmd,
        next_lsn: u64,
        opts: Options,
        mut io: Io,
    ) -> Result<DurableTmd, DurableError> {
        if dir.join("wal").exists() {
            return Err(DurableError::corrupt(format!(
                "refusing to create over an existing store in {}",
                dir.display()
            )));
        }
        std::fs::create_dir_all(dir)?;
        let wal = Wal::create_at(dir, next_lsn, opts.segment_bytes, &mut io)?;
        checkpoint::write(&tmd, dir, next_lsn, &mut io)?;
        Ok(DurableTmd {
            dir: dir.to_path_buf(),
            tmd,
            wal,
            io,
            opts,
            records_since_ckpt: 0,
            bytes_since_ckpt: 0,
            covered_lsn: next_lsn,
            time: TimeSource::default(),
            tail_since_ms: None,
            reconfigs: Vec::new(),
            poisoned: false,
        })
    }

    /// Recovers a store from `dir`: loads the newest valid checkpoint
    /// (or replays from the bootstrap record) and applies the WAL tail
    /// through the validated construction API.
    ///
    /// # Errors
    ///
    /// [`DurableError::NoStore`] when nothing recoverable exists,
    /// [`DurableError::Corrupt`] on damage beyond torn-tail repair.
    pub fn open(dir: &Path) -> Result<DurableTmd, DurableError> {
        Self::open_with(dir, Options::default(), Io::plain())
    }

    /// [`DurableTmd::open`] with explicit options and I/O layer.
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::open`].
    pub fn open_with(dir: &Path, opts: Options, mut io: Io) -> Result<DurableTmd, DurableError> {
        let ckpt = checkpoint::load_latest(dir)?;
        let opened = Wal::open(dir, opts.segment_bytes, &mut io)?;
        let had_ckpt = ckpt.is_some();
        let (mut tmd, resume_lsn) = match ckpt {
            Some((id, tmd)) => (tmd, id.next_lsn),
            None => {
                // No checkpoint: replay everything from the bootstrap
                // record. The placeholder is replaced wholesale by it.
                (Tmd::new("recovering", Default::default()), 1)
            }
        };
        let mut replayed = 0u64;
        let mut tail_bytes = 0u64;
        // The membership log recovers from two sources: the sidecar
        // (covers reconfigurations whose frames checkpointing pruned)
        // and a scan of every surviving frame (covers reconfigurations
        // journaled after the last sidecar write). Deduped by LSN.
        let mut reconfigs = load_membership(dir);
        for rec in &opened.records {
            if rec.payload.starts_with(b"reconfig ") {
                if let Ok(WalRecord::Reconfig {
                    epoch,
                    add,
                    member,
                    addr,
                }) = WalRecord::decode(&rec.payload)
                {
                    reconfigs.retain(|e| e.lsn != rec.lsn);
                    reconfigs.push(ReconfigEntry {
                        lsn: rec.lsn,
                        epoch,
                        add,
                        member,
                        addr,
                    });
                }
            }
            if rec.lsn < resume_lsn {
                continue;
            }
            let record = WalRecord::decode(&rec.payload)?;
            record.apply(&mut tmd).map_err(|e| {
                DurableError::corrupt(format!(
                    "record {} ({}) does not apply: {e}",
                    rec.lsn,
                    record.kind()
                ))
            })?;
            replayed += 1;
            tail_bytes += (rec.payload.len() + crate::frame::HEADER) as u64;
        }
        if resume_lsn == 1 && replayed == 0 && !had_ckpt {
            // Neither a checkpoint nor a bootstrap record survived.
            return Err(DurableError::NoStore);
        }
        let time = TimeSource::default();
        // A recovered tail's true append times are unknown; age it from
        // the moment of recovery, which still bounds how long it can
        // linger uncheckpointed from here on.
        let tail_since_ms = (replayed > 0).then(|| time.now_ms());
        reconfigs.retain(|e| e.lsn < opened.wal.next_lsn());
        reconfigs.sort_by_key(|e| e.lsn);
        Ok(DurableTmd {
            dir: dir.to_path_buf(),
            tmd,
            wal: opened.wal,
            io,
            opts,
            records_since_ckpt: replayed,
            bytes_since_ckpt: tail_bytes,
            covered_lsn: resume_lsn,
            time,
            tail_since_ms,
            reconfigs,
            poisoned: false,
        })
    }

    /// The current schema (read-only: mutations must go through the
    /// journaled operations).
    pub fn schema(&self) -> &Tmd {
        &self.tmd
    }

    /// The LSN the next journaled record will receive.
    pub fn wal_position(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// The directory the store lives under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Streams every durable frame with `lsn >= from_lsn` — the
    /// replication tap (see [`crate::wal::tail`]).
    ///
    /// # Errors
    ///
    /// [`DurableError::Pruned`] when checkpointing already removed that
    /// part of the log; [`DurableError::Corrupt`] on damage or a
    /// future LSN.
    pub fn tail(&self, from_lsn: u64) -> Result<Vec<crate::wal::TailFrame>, DurableError> {
        crate::wal::tail(&self.dir, from_lsn)
    }

    /// Base LSN of the oldest WAL segment still on disk.
    ///
    /// # Errors
    ///
    /// I/O failures while reading segment headers.
    pub fn oldest_lsn(&self) -> Result<u64, DurableError> {
        self.wal.oldest_lsn()
    }

    /// Consumes the handle, returning its I/O layer — harnesses that
    /// thread one deterministic fault schedule through a store that is
    /// wiped and re-created (a follower re-bootstrapping from a
    /// snapshot) carry the layer across the rebuild with this.
    pub fn into_io(self) -> Io {
        self.io
    }

    /// Truncates the journaled suffix: every record with
    /// `lsn >= from_lsn` is removed from the log and the store is
    /// re-recovered from the shortened tail. Consumes the handle — the
    /// in-memory schema already reflects the removed records and cannot
    /// be rolled back in place. A no-op (returning `self`) when
    /// `from_lsn` is at or past the WAL position.
    ///
    /// This is the quorum-replication **rejoin** step: a deposed
    /// primary discards the un-quorum'd records only it holds before
    /// following the new primary. Works on a poisoned handle too —
    /// truncation *is* the reopen that recovers from poisoning.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] when a checkpoint already covers
    /// `from_lsn` (the records are folded into a snapshot and can no
    /// longer be cut — rebuild from the peer's snapshot instead);
    /// [`DurableError::Pruned`] when the cut predates the log; I/O
    /// failures while truncating or re-opening.
    pub fn truncate_suffix(self, from_lsn: u64) -> Result<DurableTmd, DurableError> {
        if from_lsn >= self.wal.next_lsn() {
            return Ok(self);
        }
        if from_lsn < self.covered_lsn {
            return Err(DurableError::corrupt(format!(
                "cannot truncate at LSN {from_lsn}: a checkpoint already covers up to {}",
                self.covered_lsn
            )));
        }
        let dir = self.dir.clone();
        let opts = self.opts.clone();
        let time = self.time.clone();
        let mut io = self.into_io();
        crate::wal::truncate_from(&dir, from_lsn, &mut io)?;
        let mut store = DurableTmd::open_with(&dir, opts, io)?;
        store.set_time_source(time);
        Ok(store)
    }

    /// Number of I/O primitives performed so far (crash-point counting).
    pub fn io_ops(&self) -> u64 {
        self.io.ops()
    }

    /// Number of file fsyncs performed so far — the assertion hook for
    /// group-commit tests ("N concurrent commits, ≤ k fsyncs").
    pub fn io_fsyncs(&self) -> u64 {
        self.io.fsyncs()
    }

    /// Whether an earlier fault poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn usable(&self) -> Result<(), DurableError> {
        if self.poisoned {
            Err(DurableError::Poisoned)
        } else {
            Ok(())
        }
    }

    /// Journals `record`; poisons the store when the append fails after
    /// validation (the in-memory state may then diverge from disk).
    /// With `sync` false the record is appended but not fsynced — the
    /// group-commit path, which batches many appends under one later
    /// [`DurableTmd::sync_wal`].
    fn journal(&mut self, record: &WalRecord, sync: bool) -> Result<u64, DurableError> {
        let payload = record.encode();
        let appended = if sync {
            self.wal.append(&payload, &mut self.io)
        } else {
            self.wal.append_unsynced(&payload, &mut self.io)
        };
        match appended {
            Ok(lsn) => {
                self.bytes_since_ckpt += (payload.len() + crate::frame::HEADER) as u64;
                if self.tail_since_ms.is_none() {
                    self.tail_since_ms = Some(self.time.now_ms());
                }
                Ok(lsn)
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn after_commit(&mut self) -> Result<(), DurableError> {
        self.records_since_ckpt += 1;
        if self.policy_due() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Whether the checkpoint policy is due against the current tail.
    fn policy_due(&self) -> bool {
        let tail_ops = self.wal.next_lsn().saturating_sub(self.covered_lsn);
        let tail_age_ms = self
            .tail_since_ms
            .map_or(0, |t| self.time.now_ms().saturating_sub(t));
        self.opts.policy.due(
            self.records_since_ckpt,
            self.bytes_since_ckpt,
            tail_ops,
            tail_age_ms,
        )
    }

    /// Replaces the store's time source. The tail-age reference point
    /// is restarted under the new source — instants from different
    /// sources are not comparable.
    pub fn set_time_source(&mut self, time: TimeSource) {
        if self.tail_since_ms.is_some() {
            self.tail_since_ms = Some(time.now_ms());
        }
        self.time = time;
    }

    /// Checkpoints now if any policy threshold (including wall-clock
    /// tail age) is crossed; the periodic driver a deployment calls
    /// between commits. Returns the checkpoint taken, if any.
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::checkpoint`].
    pub fn maybe_checkpoint(&mut self) -> Result<Option<CheckpointId>, DurableError> {
        self.usable()?;
        if self.tail_since_ms.is_some() && self.policy_due() {
            return Ok(Some(self.checkpoint()?));
        }
        Ok(None)
    }

    /// Applies one logical record: validate, journal, commit.
    ///
    /// # Errors
    ///
    /// [`DurableError::Core`] when the operation is invalid against the
    /// current schema (nothing journaled, store stays usable); I/O-class
    /// errors when journaling fails (store poisons itself).
    pub fn apply(&mut self, record: WalRecord) -> Result<u64, DurableError> {
        self.apply_inner(record, true)
    }

    /// [`DurableTmd::apply`] without the per-record fsync: the record is
    /// validated, journaled (unsynced) and applied, but it is **not
    /// durable** — and must not be acknowledged to a client — until a
    /// later [`DurableTmd::sync_wal`] (or checkpoint) covers it. This is
    /// the group-commit building block; see
    /// [`GroupCommit`](crate::group::GroupCommit) for the concurrent
    /// wrapper that batches the fsyncs.
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::apply`].
    pub fn apply_unsynced(&mut self, record: WalRecord) -> Result<u64, DurableError> {
        self.apply_inner(record, false)
    }

    /// Fsyncs the WAL's active segment, making every record appended by
    /// [`DurableTmd::apply_unsynced`] durable. Returns the WAL position
    /// (LSN of the next future record): everything below it is now on
    /// disk.
    ///
    /// # Errors
    ///
    /// I/O-class failures (the store poisons itself — unacknowledged
    /// records may or may not have reached the platter).
    pub fn sync_wal(&mut self) -> Result<u64, DurableError> {
        self.usable()?;
        match self.wal.sync(&mut self.io) {
            Ok(()) => Ok(self.wal.next_lsn()),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Captures the fsync [`DurableTmd::sync_wal`] would perform now,
    /// to be run with the store unlocked; if it fails the caller owes
    /// the store a [`DurableTmd::poison`].
    pub(crate) fn capture_sync(&self) -> Result<crate::wal::WalSync, DurableError> {
        self.usable()?;
        Ok(self.wal.capture_sync(&self.io))
    }

    /// Marks the handle unusable after a journal fault observed outside
    /// it (a failed out-of-lock fsync).
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    fn apply_inner(&mut self, record: WalRecord, sync: bool) -> Result<u64, DurableError> {
        self.usable()?;
        match record {
            WalRecord::Bootstrap { .. } => Err(DurableError::corrupt(
                "bootstrap records are internal to create/recovery",
            )),
            WalRecord::FactBatch { ref rows } => {
                // Hot path: read-only pre-validation instead of a clone.
                WalRecord::validate_facts(&self.tmd, rows)?;
                let lsn = self.journal(&record, sync)?;
                let WalRecord::FactBatch { rows } = record else {
                    unreachable!()
                };
                for r in &rows {
                    self.tmd
                        .add_fact(&r.coords, r.at, &r.values)
                        .expect("pre-validated fact batch must apply");
                }
                self.after_commit()?;
                Ok(lsn)
            }
            record => {
                // Validate on a clone; the swap after journaling cannot
                // fail, so the WAL holds exactly the committed ops.
                let mut next = self.tmd.clone();
                record.apply(&mut next)?;
                let lsn = self.journal(&record, sync)?;
                if let WalRecord::Reconfig {
                    epoch,
                    add,
                    ref member,
                    ref addr,
                } = record
                {
                    self.reconfigs.push(ReconfigEntry {
                        lsn,
                        epoch,
                        add,
                        member: member.clone(),
                        addr: addr.clone(),
                    });
                }
                self.tmd = next;
                self.after_commit()?;
                Ok(lsn)
            }
        }
    }

    /// Writes a checkpoint of the current schema and (optionally) prunes
    /// the log and older checkpoints behind it.
    ///
    /// # Errors
    ///
    /// I/O-class failures (the store poisons itself: a half-finished
    /// prune is recoverable, but the fault may equally have hit the
    /// journal).
    pub fn checkpoint(&mut self) -> Result<CheckpointId, DurableError> {
        self.usable()?;
        let next_lsn = self.wal.next_lsn();
        let result =
            checkpoint::write(&self.tmd, &self.dir, next_lsn, &mut self.io).and_then(|id| {
                // The membership sidecar must be durable *before* the
                // prune may remove the WAL frames its entries came
                // from; a crash in between leaves both sources intact
                // and recovery dedupes them.
                if !self.reconfigs.is_empty() {
                    write_membership(&self.reconfigs, &self.dir, &mut self.io)?;
                }
                if self.opts.prune_on_checkpoint {
                    self.wal.prune(id.next_lsn, &mut self.io)?;
                    checkpoint::prune(&self.dir, id, &mut self.io)?;
                }
                Ok(id)
            });
        match result {
            Ok(id) => {
                self.records_since_ckpt = 0;
                self.bytes_since_ckpt = 0;
                self.covered_lsn = id.next_lsn;
                self.tail_since_ms = None;
                Ok(id)
            }
            Err(e) => {
                if e.is_io_class() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Journaled fact-batch append (the ETL load path).
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::apply`].
    pub fn append_facts(&mut self, rows: Vec<FactRow>) -> Result<u64, DurableError> {
        self.apply(WalRecord::FactBatch { rows })
    }

    /// Every journaled membership change this store knows of, in LSN
    /// order — survives checkpoint pruning (via the membership sidecar)
    /// and reopen. The group layer replays this to reconstruct the
    /// voting-group size history.
    pub fn membership_log(&self) -> &[ReconfigEntry] {
        &self.reconfigs
    }
}

/// Builds a fault-injecting I/O layer: crash on the `ops`-th primitive,
/// torn-write cuts driven by `seed`. Convenience re-export for harnesses
/// and examples.
pub fn faulty_io(ops: u64, seed: u64) -> Io {
    Io::faulty(FaultPlan::crash_after(ops, seed))
}
