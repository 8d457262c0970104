//! Group commit: concurrent committers share fsyncs.
//!
//! [`DurableTmd::apply`] fsyncs once per record — correct, but a server
//! with many concurrent writers would pay one disk flush per commit.
//! [`GroupCommit`] wraps a store behind a shareable handle and batches.
//! Each committer takes the store lock once: it appends its record
//! unsynced, captures the fsync that would cover it (segment handle and
//! log position — a [`WalSync`]) and publishes the capture at the sync
//! gate, newest replacing older. The first committer to find the gate
//! free becomes the **sync leader**: it takes the published capture,
//! runs the fsync **with no lock held**, advances the durable
//! watermark to the captured position and wakes every waiter.
//!
//! The protocol clocks itself. Commits that arrive while a fsync is in
//! flight append freely, are not covered by it (it was captured before
//! they appended), and all ride the next one — so a commit that finds
//! the log quiet pays one fsync and no wait, and a crowd shares.
//!
//! One timer remains, and it paces rather than holds: on the system
//! clock a sync starts no sooner than [`SYNC_PACE`] (1 ms) after the
//! one before it was due, so a sustained stream of commits spends at
//! most 1,000 fsyncs a second and everything that arrives in between
//! shares one. Without it a closed loop of committers runs at the
//! disk's own speed — each fsync's latency, which moves by tenths from
//! one minute to the next on a shared disk, *is* the commit rate — and
//! the rate a client sees is no steadier than that. `hold_ms > 0`
//! additionally makes every leader hold the gate open first (on a
//! [`TimeSource`], so tests drive batching on a manual timeline, which
//! is never paced); nothing shipped sets it.
//!
//! The durability contract is unchanged: [`GroupCommit::commit`] only
//! returns `Ok` once a completed fsync covers the record. Records
//! appended but not yet synced sit in a classic WAL's unacknowledged
//! tail — recovery may surface any prefix of them (see the batched
//! crash sweep in [`crate::fault`]). Rotation fsyncs the segment it
//! seals and a checkpoint makes what it prunes durable another way, so
//! neither strands a record below a position a leader vouches for.
//!
//! A failed sync poisons the underlying store; the failure is sticky
//! and reported to every committer waiting on that batch and to all
//! later commits, exactly like [`DurableTmd`]'s own poisoning.
//!
//! # Quorum watermark
//!
//! When the store is the primary of a replication group, local
//! durability is not the whole contract: a majority of the group must
//! hold the record before a crash of any single node can no longer
//! lose it. [`GroupCommit`] therefore tracks a second watermark,
//! [`GroupCommit::quorum_lsn`]: the highest position synced by at
//! least ⌈group/2⌉+1 of the group's nodes, counting the primary's own
//! [`GroupCommit::synced_lsn`] as one vote and one durably-synced
//! position per member, reported via [`GroupCommit::member_synced`]
//! (the replication supervisor calls it as acks arrive).
//! [`GroupCommit::commit_replicated`] waits for this second watermark
//! and fails with the typed [`DurableError::Unreplicated`] when the
//! quorum does not form within its deadline — the record is then still
//! locally durable, just not majority-committed. With a group of one
//! (no quorum configured) the two watermarks coincide.
//!
//! # Epoch and fence
//!
//! The handle also carries the primary's replication epoch and its
//! fence — once, for every clone. [`GroupCommit::fence`] marks the
//! primary deposed: from then on every clone refuses commits and
//! checkpoints with the typed [`DurableError::Fenced`], whoever holds
//! it (a server session, a shipping thread, a supervisor).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::checkpoint::CheckpointId;
use crate::clock::TimeSource;
use crate::error::DurableError;
use crate::record::WalRecord;
use crate::store::DurableTmd;
use crate::wal::WalSync;

/// Tuning for [`GroupCommit`].
#[derive(Debug, Clone, Default)]
pub struct GroupConfig {
    /// Time the sync leader holds the gate open for joiners before it
    /// syncs, in milliseconds of `time`. `0`, the default, holds
    /// nothing: commits batch behind the fsync in flight.
    pub hold_ms: u64,
    /// Timeline the hold window is measured against. With a manual
    /// source the window only closes when the harness advances the
    /// counter past it — deterministic batching for tests.
    pub time: TimeSource,
}

/// Least time between the starts of two syncs on the system clock: a
/// sustained stream of commits shares at most 1,000 fsyncs a second. A
/// commit that arrives later than this after the previous sync began
/// is synced at once.
const SYNC_PACE: Duration = Duration::from_millis(1);

#[derive(Debug)]
struct SyncState {
    /// Every record with `lsn < synced_lsn` is durable on disk.
    synced_lsn: u64,
    /// Every record with `lsn < quorum_lsn` is durable on a majority
    /// of the replication group. Tracks `synced_lsn` when the group
    /// has a single node.
    quorum_lsn: u64,
    /// Highest durably-synced position reported by each remote member.
    members: BTreeMap<String, u64>,
    /// Voting nodes in the replication group, this primary included,
    /// **as of the current quorum watermark**. `<= 1` disables quorum
    /// tracking. Scheduled changes live in `resizes` until the
    /// watermark reaches them.
    group_size: usize,
    /// Joiners not yet promoted, each with the LSN of the record that
    /// adds it: its acks count toward that record and every later one,
    /// never toward an earlier one, and it does not vote in elections
    /// until [`GroupCommit::promote_voter`].
    learners: BTreeMap<String, u64>,
    /// Removed members: late acks from these ids are fenced (ignored)
    /// so a stale pump can never resurrect a dropped voter.
    banned: BTreeSet<String>,
    /// Scheduled group resizes `(lsn, new_size)`, ascending by LSN:
    /// each takes effect exactly when the quorum watermark reaches its
    /// LSN — the reconfig record itself is already judged under the
    /// new size.
    resizes: Vec<(u64, usize)>,
    /// The furthest unsynced position any committer has published,
    /// with the fsync that covers it; the next leader takes it.
    pending: Option<WalSync>,
    /// Whether some committer currently owns the sync gate.
    leader: bool,
    /// When the last sync was due; the next is paced against it.
    last_sync: Option<Instant>,
    /// Sticky failure: a sync failed and poisoned the store.
    failed: bool,
}

impl SyncState {
    /// Recomputes the quorum watermark from the primary's own synced
    /// position plus the reported position of every member whose ack
    /// counts at the watermark (voters, and joiners from their own add
    /// record on): the `required`-th largest position is held by a
    /// majority.
    ///
    /// Scheduled resizes make the advance stepwise: the watermark may
    /// only cross a resize's LSN under the majority rule in force
    /// *below* it, then the new size takes over for everything at and
    /// past that LSN — so each record is always judged against the
    /// committed group as of its own position.
    fn recompute_quorum(&mut self) {
        loop {
            while let Some(&(lsn, size)) = self.resizes.first() {
                if lsn <= self.quorum_lsn {
                    self.group_size = size;
                    self.resizes.remove(0);
                } else {
                    break;
                }
            }
            let bound = self.resizes.first().map_or(u64::MAX, |&(lsn, _)| lsn);
            let covered = if self.group_size <= 1 {
                self.quorum_lsn.max(self.synced_lsn)
            } else {
                let required = majority(self.group_size);
                let mut positions: Vec<u64> = Vec::with_capacity(self.members.len() + 1);
                positions.push(self.synced_lsn);
                positions.extend(
                    self.members
                        .iter()
                        .filter(|(name, _)| self.counts(name, self.quorum_lsn))
                        .map(|(_, &p)| p),
                );
                positions.sort_unstable_by(|a, b| b.cmp(a));
                if positions.len() >= required {
                    self.quorum_lsn.max(positions[required - 1])
                } else {
                    self.quorum_lsn
                }
            };
            let target = covered.min(bound);
            if target <= self.quorum_lsn {
                return;
            }
            self.quorum_lsn = target;
            // Crossing `bound` folds that resize in on the next pass
            // and the new size may cover further (or stall sooner).
        }
    }

    /// Whether `member`'s ack counts toward the record at `lsn`: a
    /// voter's always, a joiner's from its own add record on.
    fn counts(&self, member: &str, lsn: u64) -> bool {
        self.learners.get(member).is_none_or(|&from| from <= lsn)
    }

    /// The group size at the head of the log: the current size with
    /// every scheduled resize applied. Commits and elections happening
    /// *now* are judged against this.
    fn head_size(&self) -> usize {
        self.resizes.last().map_or(self.group_size, |&(_, s)| s)
    }
}

/// Votes a commit needs in a group of `group_size` voting nodes: a
/// strict majority, `group_size / 2 + 1`.
#[must_use]
pub fn majority(group_size: usize) -> usize {
    group_size / 2 + 1
}

#[derive(Debug)]
struct Inner {
    store: RwLock<DurableTmd>,
    sync: Mutex<SyncState>,
    arrivals: Condvar,
    cfg: GroupConfig,
    /// The replication epoch this primary writes under.
    epoch: AtomicU64,
    /// Set once a newer primary is proven to exist; never cleared.
    fenced: AtomicBool,
}

/// A shareable group-commit handle over a [`DurableTmd`]. Clones share
/// the store; every clone may commit, query and checkpoint
/// concurrently.
#[derive(Debug, Clone)]
pub struct GroupCommit {
    inner: Arc<Inner>,
}

/// Locks a mutex, ignoring std's panic-poisoning: the protected state
/// is kept consistent by construction (the store has its own logical
/// poisoning), and a server must keep serving after a worker panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl GroupCommit {
    /// Wraps `store` for concurrent group-committed use.
    pub fn new(store: DurableTmd, cfg: GroupConfig) -> GroupCommit {
        let synced_lsn = store.wal_position();
        GroupCommit {
            inner: Arc::new(Inner {
                store: RwLock::new(store),
                sync: Mutex::new(SyncState {
                    synced_lsn,
                    quorum_lsn: synced_lsn,
                    members: BTreeMap::new(),
                    group_size: 1,
                    learners: BTreeMap::new(),
                    banned: BTreeSet::new(),
                    resizes: Vec::new(),
                    pending: None,
                    leader: false,
                    last_sync: None,
                    failed: false,
                }),
                arrivals: Condvar::new(),
                cfg,
                epoch: AtomicU64::new(0),
                fenced: AtomicBool::new(false),
            }),
        }
    }

    /// The replication epoch this primary writes under (0 until set).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Raises the epoch to `epoch` without fencing: a primary's
    /// starting epoch, or a standing primary re-asserting itself after
    /// an aborted election consumed one. Never lowers it.
    pub fn adopt_epoch(&self, epoch: u64) {
        self.inner.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Fences this primary: a newer one exists at `epoch`. Every clone
    /// refuses commits and checkpoints from here on with
    /// [`DurableError::Fenced`], and parked waiters are woken so they
    /// observe it at once. The flag is raised before the epoch, so a
    /// reader that sees the newer epoch ([`GroupCommit::epoch`] then
    /// [`GroupCommit::is_fenced`]) also sees the fence — a deposed
    /// primary never stamps anything with its successor's epoch.
    pub fn fence(&self, epoch: u64) {
        self.inner.fenced.store(true, Ordering::SeqCst);
        self.adopt_epoch(epoch);
        self.inner.arrivals.notify_all();
    }

    /// Whether [`GroupCommit::fence`] was called on any clone.
    pub fn is_fenced(&self) -> bool {
        self.inner.fenced.load(Ordering::SeqCst)
    }

    /// `Err(Fenced)` once the primary is deposed.
    fn unfenced(&self) -> Result<(), DurableError> {
        if self.is_fenced() {
            return Err(DurableError::Fenced {
                epoch: self.epoch(),
            });
        }
        Ok(())
    }

    /// Commits one record: validate + journal (unsynced) + apply under
    /// the store lock, then wait until a shared fsync covers it. `Ok`
    /// means the record is durable.
    ///
    /// # Errors
    ///
    /// [`DurableError::Fenced`] once the primary is deposed and
    /// [`DurableError::Core`] when the record is invalid (nothing
    /// journaled either way); I/O-class errors when journaling or the
    /// covering sync failed (the store is then poisoned).
    pub fn commit(&self, record: WalRecord) -> Result<u64, DurableError> {
        let lsn = {
            let mut store = write_lock(&self.inner.store);
            self.unfenced()?;
            let lsn = store.apply_unsynced(record)?;
            self.publish(store.capture_sync()?);
            lsn
        };
        self.await_sync(lsn)?;
        Ok(lsn)
    }

    /// Commits one record like [`GroupCommit::commit`], then waits
    /// until the record is additionally covered by the quorum
    /// watermark — durable on a majority of the replication group, the
    /// primary included. A replication supervisor must be feeding
    /// member positions in via [`GroupCommit::member_synced`]
    /// concurrently, or the wait can only end in a timeout.
    ///
    /// With no quorum configured ([`GroupCommit::quorum_size`] `<= 1`)
    /// this is exactly [`GroupCommit::commit`].
    ///
    /// # Errors
    ///
    /// Everything [`GroupCommit::commit`] raises, plus the typed
    /// [`DurableError::Unreplicated`] when the quorum does not form
    /// within `timeout_ms` of the configured timeline — the record is
    /// then locally durable but not majority-committed.
    pub fn commit_replicated(
        &self,
        record: WalRecord,
        timeout_ms: u64,
    ) -> Result<u64, DurableError> {
        let lsn = self.commit(record)?;
        self.await_quorum(lsn, timeout_ms)?;
        Ok(lsn)
    }

    /// Waits until the quorum watermark passes `lsn`, with a deadline
    /// on the configured timeline.
    fn await_quorum(&self, lsn: u64, timeout_ms: u64) -> Result<(), DurableError> {
        let deadline = self.inner.cfg.time.now_ms() + timeout_ms;
        let mut st = lock(&self.inner.sync);
        loop {
            if st.quorum_lsn > lsn {
                return Ok(());
            }
            if st.failed {
                return Err(DurableError::Poisoned);
            }
            let now = self.inner.cfg.time.now_ms();
            if now >= deadline {
                // The local sync already covers `lsn` (commit returned),
                // so this node counts as one ack.
                let acked = 1 + st
                    .members
                    .iter()
                    .filter(|(name, &p)| p > lsn && st.counts(name, lsn))
                    .count();
                return Err(DurableError::Unreplicated { lsn, acked });
            }
            // Park until an ack arrives ([`GroupCommit::member_synced`]
            // notifies) or the deadline nears. A manual timeline only
            // advances when the harness does, so its waits stay short
            // slices; on the system clock the wait can cover the whole
            // remaining window — the pump's notify ends it early.
            let slice = match self.inner.cfg.time {
                TimeSource::System => Duration::from_millis((deadline - now).min(50)),
                TimeSource::Manual(_) => Duration::from_millis(5),
            };
            st = self
                .inner
                .arrivals
                .wait_timeout(st, slice)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Declares the replication group's size (voting nodes, this
    /// primary included), resets which members are known and clears any
    /// learner, ban or scheduled-resize state — the assembly-time
    /// baseline. `<= 1` disables quorum tracking and snaps the quorum
    /// watermark back to the local one.
    pub fn configure_quorum(&self, group_size: usize) {
        let mut st = lock(&self.inner.sync);
        st.group_size = group_size;
        st.learners.clear();
        st.banned.clear();
        st.resizes.clear();
        st.recompute_quorum();
        self.inner.arrivals.notify_all();
    }

    /// Schedules a voting-group resize that takes effect exactly at
    /// `lsn` — the LSN of the quorum-committed reconfiguration record.
    /// The watermark advances up to `lsn` under the majority rule in
    /// force below it, then `group_size` governs everything at and
    /// past `lsn`. Resizes must be scheduled in LSN order (membership
    /// changes are single-change, so there is at most one in flight).
    pub fn configure_quorum_at(&self, lsn: u64, group_size: usize) {
        let mut st = lock(&self.inner.sync);
        st.resizes.retain(|&(l, _)| l < lsn);
        st.resizes.push((lsn, group_size));
        st.recompute_quorum();
        self.inner.arrivals.notify_all();
    }

    /// Registers `member` as a learner added by the record at `from`:
    /// its acks count toward that record and every later one (Raft's
    /// single-server change — the joiner is part of the configuration
    /// its own add record starts), never toward an earlier record, and
    /// it stays out of elections until [`GroupCommit::promote_voter`].
    /// Lifts any earlier ban — a re-added member starts over.
    pub fn add_learner(&self, member: &str, from: u64) {
        let mut st = lock(&self.inner.sync);
        st.banned.remove(member);
        st.learners.insert(member.to_string(), from);
        st.members.entry(member.to_string()).or_insert(0);
    }

    /// Promotes a learner to voter: from here its acks count toward
    /// every record and it may stand in elections. Returns `false` if
    /// `member` was not a learner (already a voter, or unknown).
    pub fn promote_voter(&self, member: &str) -> bool {
        let mut st = lock(&self.inner.sync);
        if st.learners.remove(member).is_none() {
            return false;
        }
        st.recompute_quorum();
        self.inner.arrivals.notify_all();
        true
    }

    /// Whether `member` is currently a non-voting learner.
    pub fn is_learner(&self, member: &str) -> bool {
        lock(&self.inner.sync).learners.contains_key(member)
    }

    /// Removes `member` from the group entirely: its reported position
    /// is dropped (so the quorum watermark recomputes over the
    /// remaining voters immediately) and late acks from the id are
    /// fenced — a removed member can never count toward a majority
    /// again unless it is re-added via [`GroupCommit::add_learner`].
    pub fn ban_member(&self, member: &str) {
        let mut st = lock(&self.inner.sync);
        st.members.remove(member);
        st.learners.remove(member);
        st.banned.insert(member.to_string());
        st.recompute_quorum();
        self.inner.arrivals.notify_all();
    }

    /// Records that member `member` has durably synced every record
    /// below `synced_lsn` (monotonic — stale reports are ignored) and
    /// advances the quorum watermark if a majority now covers more.
    /// Acks from banned (removed) members are fenced.
    pub fn member_synced(&self, member: &str, synced_lsn: u64) {
        let mut st = lock(&self.inner.sync);
        if st.banned.contains(member) {
            return;
        }
        let slot = st.members.entry(member.to_string()).or_insert(0);
        if synced_lsn <= *slot {
            return;
        }
        *slot = synced_lsn;
        st.recompute_quorum();
        self.inner.arrivals.notify_all();
    }

    /// Drops a member's reported position (it left the group or is
    /// being rebuilt); the watermark itself never moves backwards.
    pub fn forget_member(&self, member: &str) {
        lock(&self.inner.sync).members.remove(member);
    }

    /// The pump-facing tail cursor: parks until the **local** durable
    /// watermark passes `lsn` (`synced_lsn() > lsn` — there is at
    /// least one newly fsynced frame to ship), the store is poisoned,
    /// or `timeout` of wall-clock time elapses. Returns the current
    /// `synced_lsn` either way; the caller distinguishes progress from
    /// a timeout by comparing against its own cursor.
    ///
    /// Every completed sync notifies the same condvar the quorum
    /// waiters park on, so a shipping thread sleeping here wakes the
    /// moment a commit's fsync lands instead of polling on an
    /// interval. The timeout is real time (not the configured
    /// [`TimeSource`]) because the waiter is a live thread that must
    /// stay responsive to shutdown — see
    /// [`GroupCommit::notify_waiters`].
    pub fn wait_synced_past(&self, lsn: u64, timeout: Duration) -> u64 {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = lock(&self.inner.sync);
        loop {
            if st.synced_lsn > lsn || st.failed {
                return st.synced_lsn;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return st.synced_lsn;
            }
            st = self
                .inner
                .arrivals
                .wait_timeout(st, (deadline - now).min(Duration::from_millis(50)))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Wakes every thread parked on this group's condvar — quorum
    /// waiters in [`GroupCommit::commit_replicated`] and shipping
    /// threads in [`GroupCommit::wait_synced_past`] — without changing
    /// any state. Shutdown calls this so parked threads re-check their
    /// stop flags immediately.
    pub fn notify_waiters(&self) {
        self.inner.arrivals.notify_all();
    }

    /// First LSN **not** yet durable on a majority of the group.
    /// Equals [`GroupCommit::synced_lsn`] when no quorum is configured.
    pub fn quorum_lsn(&self) -> u64 {
        lock(&self.inner.sync).quorum_lsn
    }

    /// Voting nodes in the replication group at the head of the log
    /// (1 = quorum off): the current size with every scheduled resize
    /// applied, since commits and elections happening now are judged
    /// against it.
    pub fn quorum_size(&self) -> usize {
        lock(&self.inner.sync).head_size()
    }

    /// The group size in force at the current quorum watermark —
    /// differs from [`GroupCommit::quorum_size`] only while a
    /// scheduled resize is still ahead of the watermark.
    pub fn committed_quorum_size(&self) -> usize {
        lock(&self.inner.sync).group_size
    }

    /// Every member's last reported durably-synced position.
    pub fn member_positions(&self) -> Vec<(String, u64)> {
        lock(&self.inner.sync)
            .members
            .iter()
            .map(|(n, &p)| (n.clone(), p))
            .collect()
    }

    /// Publishes a capture at the gate, with the store lock still
    /// held: captures arrive in log order (newest is furthest), and
    /// whoever can see an append finds its capture here.
    fn publish(&self, sync: WalSync) {
        lock(&self.inner.sync).pending = Some(sync);
    }

    /// Waits until a completed fsync covers `lsn` (whose capture is
    /// published), leading one if nobody else is.
    fn await_sync(&self, lsn: u64) -> Result<(), DurableError> {
        let mut st = lock(&self.inner.sync);
        loop {
            if st.synced_lsn > lsn {
                return Ok(());
            }
            if st.failed {
                return Err(DurableError::Poisoned);
            }
            if st.leader {
                // A sync is in flight (ours to share, or captured
                // before we appended); wait for the verdict. The
                // timeout is a liveness backstop, not a correctness
                // device — the loop re-checks state.
                st = self
                    .inner
                    .arrivals
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
                continue;
            }
            st.leader = true;
            st = self.hold_window(st);
            let batch = st
                .pending
                .take()
                .expect("an uncovered committer's capture is still published");
            drop(st);
            // One fsync for everything published so far, no lock held:
            // whatever is appended from here on rides the next sync.
            let synced = batch.run();
            if synced.is_err() {
                write_lock(&self.inner.store).poison();
            }
            st = lock(&self.inner.sync);
            st.leader = false;
            match synced {
                Ok(pos) => {
                    st.synced_lsn = st.synced_lsn.max(pos);
                    st.recompute_quorum();
                    self.inner.arrivals.notify_all();
                }
                Err(e) => {
                    st.failed = true;
                    self.inner.arrivals.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Leader-side wait before a sync, releasing the sync lock so
    /// joiners can publish: until `hold_ms` of the configured timeline
    /// elapsed and, on the system clock, until the sync is due —
    /// [`SYNC_PACE`] after the previous one was. Pacing against the
    /// due time, not the wake-up, keeps timer overshoot from adding up.
    fn hold_window<'a>(&'a self, mut st: MutexGuard<'a, SyncState>) -> MutexGuard<'a, SyncState> {
        let cfg = &self.inner.cfg;
        let held = Instant::now() + Duration::from_millis(cfg.hold_ms);
        let due = st.last_sync.map_or(held, |t| held.max(t + SYNC_PACE));
        st.last_sync = Some(due);
        let closes = cfg.time.now_ms() + cfg.hold_ms;
        loop {
            // A system window is real time: one wait, re-armed with
            // what is left when a wake-up ends it early. A manual one
            // closes when the harness says so: polled in 1 ms slices.
            let slice = match cfg.time {
                TimeSource::System => due.saturating_duration_since(Instant::now()),
                TimeSource::Manual(_) => {
                    Duration::from_millis(u64::from(cfg.time.now_ms() < closes))
                }
            };
            if slice.is_zero() {
                return st;
            }
            st = self
                .inner
                .arrivals
                .wait_timeout(st, slice)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Makes everything appended so far durable before returning, by
    /// the same shared-sync protocol as a commit. Shutdown calls this.
    ///
    /// # Errors
    ///
    /// [`DurableError::Poisoned`] on a poisoned store; I/O-class
    /// failures of the sync (which poison it).
    pub fn flush(&self) -> Result<u64, DurableError> {
        let head = {
            let store = read_lock(&self.inner.store);
            let sync = store.capture_sync()?;
            let head = sync.next_lsn();
            self.publish(sync);
            head
        };
        self.await_sync(head.saturating_sub(1))?;
        Ok(head)
    }

    /// Runs `f` with shared read access to the store (queries,
    /// replication taps) — readers run concurrently with each other
    /// and only block while a commit appends, never behind an fsync.
    /// Writes go through [`GroupCommit::commit`] and the checkpoint
    /// methods, so none bypasses the fence.
    pub fn with_store<R>(&self, f: impl FnOnce(&DurableTmd) -> R) -> R {
        f(&read_lock(&self.inner.store))
    }

    /// Checkpoints the store — refused once the primary is fenced.
    ///
    /// # Errors
    ///
    /// [`DurableError::Fenced`] after fencing; otherwise as
    /// [`DurableTmd::checkpoint`].
    pub fn checkpoint(&self) -> Result<CheckpointId, DurableError> {
        let mut store = write_lock(&self.inner.store);
        self.unfenced()?;
        store.checkpoint()
    }

    /// Runs the store's policy-gated checkpoint check — the periodic
    /// driver behind `CheckpointPolicy::max_tail_age_ms`. A fenced
    /// primary's store is frozen, so the check is skipped (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::maybe_checkpoint`].
    pub fn maybe_checkpoint(&self) -> Result<Option<CheckpointId>, DurableError> {
        let mut store = write_lock(&self.inner.store);
        if self.is_fenced() {
            return Ok(None);
        }
        store.maybe_checkpoint()
    }

    /// The LSN the next committed record will receive.
    pub fn wal_position(&self) -> u64 {
        read_lock(&self.inner.store).wal_position()
    }

    /// First LSN **not** yet covered by a durable sync.
    pub fn synced_lsn(&self) -> u64 {
        lock(&self.inner.sync).synced_lsn
    }

    /// Number of file fsyncs the underlying store performed — the
    /// batching assertion hook (see [`crate::io::Io::fsyncs`]).
    pub fn fsyncs(&self) -> u64 {
        read_lock(&self.inner.store).io_fsyncs()
    }

    /// Unwraps the handle back into the store when this is the last
    /// clone; returns `Err(self)` otherwise.
    ///
    /// # Errors
    ///
    /// The handle itself, when other clones are still alive.
    pub fn try_into_store(self) -> Result<DurableTmd, GroupCommit> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner
                .store
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)),
            Err(inner) => Err(GroupCommit { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FactRow;
    use crate::store::Options;
    use mvolap_core::{MeasureDef, MemberVersionSpec, TemporalDimension, Tmd};
    use mvolap_temporal::{Granularity, Instant, Interval};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvolap_group_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn seed() -> (Tmd, mvolap_core::MemberVersionId) {
        let mut tmd = Tmd::new("group", Granularity::Month);
        let mut d = TemporalDimension::new("Org");
        let leaf = d.add_version(
            MemberVersionSpec::named("Leaf").at_level("Department"),
            Interval::since(Instant::ym(2001, 1)),
        );
        tmd.add_dimension(d).unwrap();
        tmd.add_measure(MeasureDef::summed("Amount")).unwrap();
        (tmd, leaf)
    }

    #[test]
    fn concurrent_commits_share_fsyncs_and_survive_reopen() {
        let dir = tmp("share");
        let (tmd, leaf) = seed();
        let store = DurableTmd::create_with(
            &dir,
            tmd,
            Options {
                policy: crate::store::CheckpointPolicy::manual(),
                ..Options::default()
            },
            crate::io::Io::plain(),
        )
        .unwrap();
        let time = TimeSource::manual(0);
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 40,
                time: time.clone(),
            },
        );
        let before = g.fsyncs();
        let base = g.wal_position();

        let committers = 8;
        let mut handles = Vec::new();
        for i in 0..committers {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                g.commit(WalRecord::FactBatch {
                    rows: vec![FactRow {
                        coords: vec![leaf],
                        at: Instant::ym(2001, 2),
                        values: vec![i as f64],
                    }],
                })
                .unwrap()
            }));
        }
        // Wait until every committer appended, then close the hold
        // window on the manual timeline: one fsync covers all eight.
        while g.wal_position() < base + committers {
            std::thread::sleep(Duration::from_millis(1));
        }
        time.advance(1_000);
        let lsns: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut sorted = lsns.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (base..base + committers).collect::<Vec<_>>());

        let spent = g.fsyncs() - before;
        assert!(
            spent < committers,
            "8 commits should share fsyncs, spent {spent}"
        );
        assert!(g.synced_lsn() > sorted[sorted.len() - 1]);

        drop(g);
        let reopened = DurableTmd::open(&dir).unwrap();
        assert_eq!(reopened.wal_position(), base + committers);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn fact(leaf: mvolap_core::MemberVersionId, value: f64) -> WalRecord {
        WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![value],
            }],
        }
    }

    /// A default-configured group (`hold_ms: 0`) over a fresh store,
    /// plus a second handle on its I/O layer to arm the fsync gate.
    fn gated(
        name: &str,
    ) -> (
        PathBuf,
        GroupCommit,
        crate::io::Io,
        mvolap_core::MemberVersionId,
    ) {
        let dir = tmp(name);
        let (tmd, leaf) = seed();
        let io = crate::io::Io::plain();
        let probe = io.share();
        let store = DurableTmd::create_with(&dir, tmd, Options::default(), io).unwrap();
        (
            dir,
            GroupCommit::new(store, GroupConfig::default()),
            probe,
            leaf,
        )
    }

    fn spawn_commit(
        g: &GroupCommit,
        record: WalRecord,
    ) -> std::thread::JoinHandle<Result<u64, DurableError>> {
        let g = g.clone();
        std::thread::spawn(move || g.commit(record))
    }

    #[test]
    fn sync_in_flight_blocks_nobody_and_covers_only_its_capture() {
        let (dir, g, io, leaf) = gated("inflight");
        let base = g.wal_position();
        let fsyncs = g.fsyncs();
        let gate = io.gate_next_sync();
        let leader = spawn_commit(&g, fact(leaf, 1.0));
        gate.wait_parked();

        // The fsync is parked with no lock held: a reader and an
        // append both complete behind it.
        assert_eq!(g.with_store(DurableTmd::wal_position), base + 1);
        let late = write_lock(&g.inner.store)
            .apply_unsynced(fact(leaf, 2.0))
            .unwrap();
        assert_eq!(late, base + 1);

        gate.release();
        assert_eq!(leader.join().unwrap().unwrap(), base);
        // The sync vouches for the position its leader captured, not
        // for what was appended while it ran.
        assert_eq!(g.synced_lsn(), late, "the late record is not covered yet");
        assert_eq!(g.fsyncs() - fsyncs, 1);
        // The next sync covers it.
        assert_eq!(g.flush().unwrap(), late + 1);
        assert_eq!(g.synced_lsn(), late + 1);
        assert_eq!(g.fsyncs() - fsyncs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commits_arriving_during_a_sync_share_the_next_one() {
        let (dir, g, io, leaf) = gated("selfclocked");
        let base = g.wal_position();
        let fsyncs = g.fsyncs();
        let gate = io.gate_next_sync();
        let mut committers = vec![spawn_commit(&g, fact(leaf, 0.0))];
        gate.wait_parked();
        committers.extend((1..4).map(|i| spawn_commit(&g, fact(leaf, f64::from(i)))));
        // A capture is published before its append's store lock drops,
        // so once the position shows all four, all four are at the gate.
        while g.wal_position() < base + 4 {
            std::thread::yield_now();
        }
        gate.release();
        let mut lsns: Vec<u64> = committers
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        lsns.sort_unstable();
        assert_eq!(lsns, (base..base + 4).collect::<Vec<_>>());
        // No timer anywhere: the first sync covered its leader, the
        // second everything that arrived while the first was in flight.
        assert_eq!(g.fsyncs() - fsyncs, 2, "4 commits, 2 fsyncs");
        assert_eq!(g.synced_lsn(), base + 4);

        drop(g);
        assert_eq!(DurableTmd::open(&dir).unwrap().wal_position(), base + 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_out_of_lock_sync_poisons_the_store_and_fails_every_waiter() {
        let (dir, g, io, leaf) = gated("oolfail");
        let base = g.wal_position();
        let gate = io.gate_next_sync();
        let leader = spawn_commit(&g, fact(leaf, 1.0));
        gate.wait_parked();
        let waiters = [
            spawn_commit(&g, fact(leaf, 2.0)),
            spawn_commit(&g, fact(leaf, 3.0)),
        ];
        while g.wal_position() < base + 3 {
            std::thread::yield_now();
        }
        gate.fail();
        match leader.join().unwrap() {
            Err(DurableError::Injected { op: "fsync" }) => {}
            other => panic!("expected the injected fsync failure, got {other:?}"),
        }
        for w in waiters {
            match w.join().unwrap() {
                Err(DurableError::Poisoned) => {}
                other => panic!("expected Poisoned, got {other:?}"),
            }
        }
        assert!(g.with_store(DurableTmd::is_poisoned));
        assert_eq!(g.synced_lsn(), base, "nothing was acknowledged");
        match g.commit(fact(leaf, 4.0)) {
            Err(DurableError::Poisoned) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn system_hold_window_is_rearmed_when_woken_early() {
        let dir = tmp("hold");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 20,
                time: TimeSource::System,
            },
        );
        // Notifies that end the wait early re-arm it for what is left.
        let poker = g.clone();
        let poke = std::thread::spawn(move || {
            for _ in 0..50 {
                poker.notify_waiters();
                std::thread::yield_now();
            }
        });
        let started = std::time::Instant::now();
        g.commit(fact(leaf, 1.0)).unwrap();
        let held = started.elapsed();
        poke.join().unwrap();
        assert!(
            held >= Duration::from_millis(20),
            "window cut short: {held:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn back_to_back_syncs_are_paced_on_the_system_clock_only() {
        let (dir, g, _io, leaf) = gated("pace");
        let (base, fsyncs) = (g.wal_position(), g.fsyncs());
        let started = std::time::Instant::now();
        for i in 0..10 {
            g.commit(fact(leaf, f64::from(i))).unwrap();
        }
        // The first sync is due at once, each later one a pace after
        // the one before; pacing delays syncs, it never merges a lone
        // committer's.
        let took = started.elapsed();
        assert!(took >= 9 * SYNC_PACE, "ten commits in {took:?}");
        assert_eq!(g.fsyncs() - fsyncs, 10);
        assert_eq!(g.synced_lsn(), base + 10);
        std::fs::remove_dir_all(&dir).ok();

        // A manual timeline only waits for what the harness dictates:
        // with the clock standing still, nothing here may wait on it.
        let dir = tmp("pace_manual");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::manual(0),
            },
        );
        for i in 0..10 {
            g.commit(fact(leaf, f64::from(i))).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_sync_is_sticky_for_later_commits() {
        let dir = tmp("sticky");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        // Re-open with a plan that crashes on the fsync of the first
        // group sync: the append (write) succeeds, the sync fails.
        drop(store);
        let store =
            DurableTmd::open_with(&dir, Options::default(), crate::store::faulty_io(1, 7)).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::default(),
            },
        );
        let rec = WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![1.0],
            }],
        };
        let err = g.commit(rec.clone()).unwrap_err();
        assert!(err.is_io_class(), "expected an I/O-class failure: {err}");
        // Sticky: the next commit is refused as poisoned.
        match g.commit(rec) {
            Err(DurableError::Poisoned) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fence_refuses_commits_and_checkpoints_through_every_clone() {
        let (dir, g, _io, leaf) = gated("fence");
        g.adopt_epoch(2);
        g.adopt_epoch(1);
        assert_eq!(g.epoch(), 2, "adopting never lowers the epoch");
        let clone = g.clone();
        let head = g.commit(fact(leaf, 1.0)).unwrap() + 1;
        clone.fence(3);
        assert!(g.is_fenced());
        for refused in [
            g.commit(fact(leaf, 2.0)),
            clone.commit_replicated(fact(leaf, 3.0), 0),
            g.checkpoint().map(|id| id.next_lsn),
        ] {
            match refused {
                Err(DurableError::Fenced { epoch: 3 }) => {}
                other => panic!("expected Fenced at 3, got {other:?}"),
            }
        }
        assert_eq!(
            g.maybe_checkpoint().unwrap(),
            None,
            "a fenced store is frozen"
        );
        assert_eq!(g.wal_position(), head, "nothing journaled after the fence");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quorum_watermark_requires_majority_acks() {
        let dir = tmp("quorum");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::manual(0),
            },
        );
        let rec = |v: f64| WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![v],
            }],
        };

        // Group of one: the two watermarks coincide.
        let lsn = g.commit_replicated(rec(0.0), 0).unwrap();
        assert_eq!(g.quorum_lsn(), g.synced_lsn());

        // Group of three: local sync alone is one vote of the two
        // required, so the watermark stalls and the deadline (already
        // expired on the manual timeline) reports Unreplicated.
        g.configure_quorum(3);
        let stalled = g.quorum_lsn();
        match g.commit_replicated(rec(1.0), 0) {
            Err(DurableError::Unreplicated { lsn, acked }) => {
                assert_eq!(acked, 1, "only the local sync covers {lsn}");
            }
            other => panic!("expected Unreplicated, got {other:?}"),
        }
        assert_eq!(g.quorum_lsn(), stalled);

        // One member ack forms the 2-of-3 majority up to its position;
        // stale re-reports are ignored, a second member changes nothing
        // the majority doesn't already cover.
        let head = g.synced_lsn();
        g.member_synced("a", head);
        assert_eq!(g.quorum_lsn(), head);
        g.member_synced("a", lsn);
        assert_eq!(g.quorum_lsn(), head, "stale ack must not regress");
        g.member_synced("b", head);
        assert_eq!(g.quorum_lsn(), head);
        assert_eq!(
            g.member_positions(),
            vec![("a".to_string(), head), ("b".to_string(), head)]
        );

        // With a member already past the head, commit_replicated
        // succeeds as soon as the local sync lands (2 of 3).
        g.member_synced("a", u64::MAX);
        g.commit_replicated(rec(2.0), 0).unwrap();
        assert!(g.quorum_lsn() > lsn);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quorum_resize_takes_effect_at_its_lsn_and_learners_dont_vote() {
        let dir = tmp("resize");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::manual(0),
            },
        );
        let rec = |v: f64| WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![v],
            }],
        };

        // 3-voter group with one member fully caught up: watermark at
        // the head.
        g.configure_quorum(3);
        let l1 = g.commit(rec(0.0)).unwrap();
        g.member_synced("a", l1 + 1);
        assert_eq!(g.quorum_lsn(), l1 + 1);

        // Schedule a grow-to-4 at the head (the reconfig record's LSN)
        // with the joiner as a learner: the head size changes now, the
        // committed size only once the watermark passes the record.
        let head = g.synced_lsn();
        g.configure_quorum_at(head, 4);
        g.add_learner("c", head);
        assert_eq!(g.quorum_size(), 4);

        // The record at the resize LSN is judged under the NEW size:
        // 3 of 4 needed, and the joiner's ack makes only 2.
        let l2 = g.commit(rec(1.0)).unwrap();
        assert_eq!(l2, head);
        assert_eq!(g.committed_quorum_size(), 4, "resize folded at its LSN");
        assert_eq!(g.quorum_lsn(), head, "2 of 4 is not a majority");
        g.member_synced("c", l2 + 1);
        assert_eq!(g.quorum_lsn(), head, "primary and joiner are 2 of 4");
        assert!(g.is_learner("c"));

        // Promotion makes the learner's (already tracked) position
        // count immediately: primary + a? no — primary, c and a's old
        // ack give 3 of 4 once a re-acks the head.
        assert!(g.promote_voter("c"));
        assert!(!g.promote_voter("c"), "second promote is a no-op");
        g.member_synced("a", l2 + 1);
        assert!(g.quorum_lsn() > l2, "3 of 4 voters past the record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_node_grow_requires_promoted_joiner() {
        let dir = tmp("grow1");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::manual(0),
            },
        );
        let rec = WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![1.0],
            }],
        };
        // Group of one growing to two: the single-node rule may carry
        // the watermark up to the resize LSN but no further — past it,
        // 2 of 2 are required, and the joiner's ack counts toward its
        // own add record and later ones.
        let head = g.synced_lsn();
        g.configure_quorum_at(head, 2);
        g.add_learner("x", head);
        let l = g.commit(rec).unwrap();
        assert_eq!(l, head);
        assert_eq!(g.quorum_lsn(), head, "capped at the resize LSN");
        g.member_synced("x", l + 1);
        assert!(
            g.quorum_lsn() > l,
            "the joiner's ack commits its add record"
        );
        assert!(g.is_learner("x"), "still a learner until promoted");
        g.promote_voter("x");
        assert!(g.quorum_lsn() > l, "both voters past the record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ban_member_fences_late_acks_and_recomputes() {
        let dir = tmp("ban");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::manual(0),
            },
        );
        let rec = |v: f64| WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![v],
            }],
        };
        g.configure_quorum(3);
        let l1 = g.commit(rec(0.0)).unwrap();
        g.member_synced("a", l1 + 1);
        g.member_synced("b", l1 + 1);
        assert_eq!(g.quorum_lsn(), l1 + 1);

        // Remove `a`: shrink to 2 at the next record's LSN and ban the
        // id. Its position is gone and late acks are ignored.
        let head = g.synced_lsn();
        g.configure_quorum_at(head, 2);
        g.ban_member("a");
        assert!(!g.member_positions().iter().any(|(n, _)| n == "a"));
        let l2 = g.commit(rec(1.0)).unwrap();
        g.member_synced("a", u64::MAX);
        assert!(
            !g.member_positions().iter().any(|(n, _)| n == "a"),
            "a banned member's late ack must be fenced"
        );
        assert_eq!(g.quorum_lsn(), head, "b has not acked the record yet");
        g.member_synced("b", l2 + 1);
        assert!(g.quorum_lsn() > l2, "2 of 2 remaining voters");

        // Re-adding the id starts it over as a learner.
        g.add_learner("a", g.synced_lsn());
        assert!(g.is_learner("a"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wait_synced_past_wakes_on_sync_and_times_out_idle() {
        let dir = tmp("waitpast");
        let (tmd, leaf) = seed();
        let store =
            DurableTmd::create_with(&dir, tmd, Options::default(), crate::io::Io::plain()).unwrap();
        let g = GroupCommit::new(
            store,
            GroupConfig {
                hold_ms: 0,
                time: TimeSource::System,
            },
        );
        let rec = |v: f64| WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![leaf],
                at: Instant::ym(2001, 2),
                values: vec![v],
            }],
        };

        // Already past: returns immediately with the watermark.
        let lsn = g.commit(rec(0.0)).unwrap();
        assert_eq!(g.wait_synced_past(lsn, Duration::from_secs(5)), lsn + 1);

        // Nothing new: the timeout expires and the cursor is unmoved.
        let head = g.synced_lsn();
        assert_eq!(g.wait_synced_past(head, Duration::from_millis(10)), head);

        // Parked waiter wakes when a concurrent commit's fsync lands —
        // the pump's no-polling path.
        let waiter = g.clone();
        let t = std::thread::spawn(move || waiter.wait_synced_past(head, Duration::from_secs(30)));
        g.commit(rec(1.0)).unwrap();
        let seen = t.join().unwrap();
        assert!(
            seen > head,
            "waiter saw watermark {seen}, expected > {head}"
        );

        // notify_waiters wakes a parked waiter without state change; it
        // re-checks and keeps waiting until its real deadline.
        let waiter = g.clone();
        let cur = g.synced_lsn();
        let t = std::thread::spawn(move || waiter.wait_synced_past(cur, Duration::from_millis(50)));
        g.notify_waiters();
        assert_eq!(t.join().unwrap(), cur);
        std::fs::remove_dir_all(&dir).ok();
    }
}
