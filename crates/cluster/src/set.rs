//! The quorum supervisor: one primary plus N members form a
//! replication *group* whose commits are acknowledged only at
//! majority, whose leader is chosen by a deterministic election, and
//! whose deposed primaries rejoin by truncating their un-quorum'd
//! suffix.
//!
//! [`ClusterSet`] is the deterministic model of the group —
//! single-threaded, time counted in ticks, which is what lets the
//! sweeps enumerate every fault point. It ships exactly as the served
//! group does: each member has one [`MemberPump`] over the primary's
//! [`PumpShared`], and [`ClusterSet::tick`] is one [`MemberPump::step`]
//! per live member followed by [`PendingReconfig::settle`], the
//! settlement [`crate::LocalCluster`] calls too. Every envelope and
//! every vote request crosses one [`Link`], where the sweeps inject
//! their faults. A commit is *cluster-acknowledged* only once
//! [`GroupCommit::quorum_lsn`] passes it.
//!
//! # Election
//!
//! When the primary is lost, members vote for the candidate with the
//! highest `(synced_lsn, member_id)` credential — every voter ranks
//! candidates identically, so the election is deterministic. The
//! winner **never truncates**: a majority acknowledged every
//! quorum-committed record, and any two majorities intersect, so the
//! top-ranked member's log contains every acknowledged record. The
//! *loser's* obligation is the inverse: a deposed primary may hold a
//! locally-durable suffix that never reached quorum, and it must
//! truncate that suffix (back to the CRC match point against the new
//! primary's log) before it serves, votes or stands again — that is
//! [`ClusterSet::rejoin_member`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use mvolap_core::Tmd;
use mvolap_durable::{
    DurableError, DurableTmd, GroupCommit, GroupConfig, Io, Options, TimeSource, WalRecord,
};
use mvolap_replica::{decode_batch, encode_batch, Follower, ReplicaError, ReplicaMsg, WalTailer};

use crate::pump::{answer, plock, Link, MemberPump, PumpConfig, PumpShared, PumpStep, PumpTracker};

/// Supervision policy knobs for a quorum group.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Leaderless supervision rounds before [`ClusterSet::tick`] calls
    /// an election on its own.
    pub heartbeat_miss_limit: u64,
    /// Supervision rounds [`ClusterSet::commit_quorum`] runs while
    /// waiting for the watermark before declaring the commit
    /// unreplicated.
    pub commit_ticks: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            heartbeat_miss_limit: 3,
            commit_ticks: 64,
        }
    }
}

/// A tailer over the log of `group`'s store.
pub(crate) fn tailer(group: &GroupCommit) -> WalTailer {
    WalTailer::new(group.with_store(|s| s.dir().to_path_buf()))
}

/// The model's pumps: the served defaults, with a stall's backoff on a
/// timeline that never moves, so a pump whose exchange was lost retries
/// on its next step.
fn pump_config() -> PumpConfig {
    PumpConfig {
        retry_wait_ms: 0,
        time: TimeSource::manual(0),
        ..PumpConfig::default()
    }
}

/// Supervisor's view of one member.
struct Member {
    follower: Arc<Mutex<Follower>>,
    /// Ships the primary's log to the member; `None` while leaderless.
    pump: Option<MemberPump>,
    /// The member's store crashed; needs [`ClusterSet::restart_member`].
    crashed: bool,
    /// The member refuses replay; needs [`ClusterSet::rebuild_member`].
    refusing: bool,
    /// A joiner whose add has not settled: replicated to, its acks
    /// counted from its own add record on, but barred from elections
    /// until promoted.
    learner: bool,
}

impl Member {
    fn votable(&self) -> bool {
        !self.crashed && !self.refusing && !self.learner
    }
}

/// The single in-flight membership change — one add *or* one remove
/// at a time. An add completes when the learner is promoted to voter;
/// a remove completes when its journaled record is quorum-committed
/// under the shrunk group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingReconfig {
    /// LSN of the journaled `Reconfig` record.
    pub lsn: u64,
    /// `true` = add, `false` = remove.
    pub add: bool,
    /// The member joining or leaving.
    pub member: String,
    /// The joiner's address (empty for a remove).
    pub addr: String,
}

impl PendingReconfig {
    /// Journals a single-member change on the primary `group` of
    /// `voters` voting nodes: the `Reconfig` record is appended and
    /// fsynced like any commit, and the majority threshold moves by one
    /// effective exactly at its LSN. A joiner enters as a learner whose
    /// acks count from that record on; a leaver is dropped from the
    /// quorum tracker and fenced against late acks.
    ///
    /// # Errors
    ///
    /// [`DurableError::ReconfigInFlight`] while `inflight` has not
    /// settled; otherwise as [`GroupCommit::commit`].
    pub fn journal(
        group: &GroupCommit,
        inflight: Option<&PendingReconfig>,
        voters: usize,
        add: bool,
        member: &str,
        addr: &str,
    ) -> Result<PendingReconfig, DurableError> {
        if let Some(p) = inflight {
            return Err(DurableError::ReconfigInFlight {
                lsn: p.lsn,
                member: p.member.clone(),
            });
        }
        let lsn = group.commit(WalRecord::Reconfig {
            epoch: group.epoch(),
            add,
            member: member.to_string(),
            addr: addr.to_string(),
        })?;
        if add {
            group.configure_quorum_at(lsn, voters + 1);
            group.add_learner(member, lsn);
        } else {
            group.configure_quorum_at(lsn, voters - 1);
            group.ban_member(member);
        }
        Ok(PendingReconfig {
            lsn,
            add,
            member: member.to_string(),
            addr: addr.to_string(),
        })
    }

    /// The one settlement rule, for the model and the served group
    /// alike: whether this change completed on the primary `group`. A
    /// remove completes once its record is quorum-committed under the
    /// shrunk group. An add completes once its record is
    /// quorum-committed (the joiner's own ack counts toward it) and the
    /// joiner has synced up to the quorum watermark; the joiner is then
    /// promoted to voter on `group`.
    pub fn settle(&self, group: &GroupCommit) -> bool {
        let quorum = group.quorum_lsn();
        if quorum <= self.lsn {
            return false;
        }
        if !self.add {
            return true;
        }
        let synced = (group.member_positions().into_iter())
            .find(|(n, _)| *n == self.member)
            .map_or(0, |(_, p)| p);
        if synced < quorum {
            return false;
        }
        group.promote_voter(&self.member);
        true
    }
}

/// Noteworthy state changes surfaced by one [`ClusterSet::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// The member's store hit an I/O-class failure.
    MemberCrashed {
        /// Node name.
        node: String,
    },
    /// The member refuses replay (divergence or invalid record).
    MemberRefused {
        /// Node name.
        node: String,
        /// Human-readable refusal.
        detail: String,
    },
    /// A leaderless group elected `node` primary at `epoch`.
    Elected {
        /// The winner.
        node: String,
        /// The new epoch.
        epoch: u64,
    },
    /// An election closed without a majority.
    ElectionFailed {
        /// The epoch the failed election consumed.
        epoch: u64,
        /// Votes collected.
        votes: usize,
        /// Votes a majority requires.
        required: usize,
    },
    /// A learner's synced position reached the quorum watermark; it is
    /// now a voter and the pending add is complete.
    MemberPromoted {
        /// The promoted member.
        node: String,
    },
}

/// How a deposed (or lagging) node re-entered the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejoinOutcome {
    /// Its log was a clean prefix of the primary's; kept as-is.
    Clean,
    /// An un-quorum'd suffix from `cut` on was truncated.
    Truncated {
        /// First LSN removed.
        cut: u64,
    },
    /// A checkpoint already covered past the cut (or nothing was
    /// recoverable); the directory was wiped and the member
    /// re-bootstraps from the primary.
    Rebuilt,
}

/// Cumulative supervisor counters. What was shipped, acked and retried
/// lives in the pumps' [`PumpTracker`] ([`ClusterSet::tracker`]).
#[derive(Debug, Default, Clone)]
pub struct ClusterStats {
    /// Commits confirmed majority-durable.
    pub quorum_commits: u64,
    /// Elections won.
    pub elections: u64,
    /// Elections that closed without a majority.
    pub failed_elections: u64,
    /// Deposed primaries fenced.
    pub fences: u64,
    /// Rejoins that truncated an un-quorum'd suffix.
    pub truncated_rejoins: u64,
    /// Rejoins that wiped and re-bootstrapped.
    pub rebuilt_rejoins: u64,
    /// Journaled membership changes issued.
    pub reconfigs: u64,
    /// Learners promoted to voter after catching up.
    pub promotions: u64,
}

/// One primary + N members with majority-ack commit semantics,
/// shipping through one [`MemberPump`] per member over one [`Link`].
pub struct ClusterSet {
    base: PathBuf,
    opts: Options,
    group_cfg: GroupConfig,
    cfg: ClusterConfig,
    link: Link,
    tracker: PumpTracker,
    epoch: u64,
    /// Voting nodes: voters + the primary. Changed at assembly
    /// ([`ClusterSet::add_member`]) and by journaled reconfiguration —
    /// an add counts here only once its learner is promoted, a remove
    /// counts immediately. Elections and rejoins do not change it.
    group_size: usize,
    /// The write-accepting node: its name and what its pumps share —
    /// its [`GroupCommit`], which holds the epoch and the fence (so
    /// server sessions sharing a clone of it are fenced with it).
    primary: Option<(String, Arc<PumpShared>)>,
    retired: Option<GroupCommit>,
    members: BTreeMap<String, Member>,
    /// The one membership change in flight, if any; a second is
    /// refused with [`DurableError::ReconfigInFlight`].
    pending_reconfig: Option<PendingReconfig>,
    leaderless_rounds: u64,
    stats: ClusterStats,
}

impl ClusterSet {
    /// Creates a group whose primary is a fresh store under
    /// `base/primary` seeded with `seed`, shipping over `link`.
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::create_with`].
    pub fn bootstrap(
        base: &Path,
        seed: Tmd,
        opts: Options,
        group_cfg: GroupConfig,
        cfg: ClusterConfig,
        link: Link,
        io: Io,
    ) -> Result<ClusterSet, ReplicaError> {
        let dir = base.join("primary");
        let store = DurableTmd::create_with(&dir, seed, opts.clone(), io)?;
        let group = GroupCommit::new(store, group_cfg.clone());
        group.configure_quorum(1);
        Ok(ClusterSet {
            base: base.to_path_buf(),
            opts,
            group_cfg,
            cfg,
            link,
            tracker: PumpTracker::new(),
            epoch: 0,
            group_size: 1,
            primary: Some(("primary".to_string(), PumpShared::new(group))),
            retired: None,
            members: BTreeMap::new(),
            pending_reconfig: None,
            leaderless_rounds: 0,
            stats: ClusterStats::default(),
        })
    }

    /// Registers a fresh member under `base/<name>` and grows the
    /// voting group by one; it bootstraps from the primary on
    /// subsequent ticks.
    pub fn add_member(&mut self, name: &str, io: Io) {
        let dir = self.base.join(name);
        self.insert_member(name, Follower::create(name, dir, self.opts.clone(), io));
        self.group_size += 1;
        if let Some(p) = self.primary() {
            p.configure_quorum(self.group_size);
        }
    }

    /// Votes a majority requires: `⌈(group_size + 1) / 2⌉`.
    pub fn quorum_required(&self) -> usize {
        mvolap_durable::majority(self.group_size)
    }

    /// Voting nodes in the group (members + primary). Unpromoted
    /// learners are not counted.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Journals a single-member **add** ([`PendingReconfig::journal`]):
    /// `name` enters as a learner, replicated to and counted toward
    /// quorum from its own record on, but barred from elections until
    /// the change settles — the tick that finds the record
    /// quorum-committed and the learner synced to the watermark
    /// promotes it ([`ClusterEvent::MemberPromoted`]).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary;
    /// [`ReplicaError::Protocol`] when `name` is already in the group;
    /// [`DurableError::ReconfigInFlight`] (wrapped) while a prior
    /// change is incomplete; otherwise as [`ClusterSet::commit_local`].
    pub fn reconfig_add(&mut self, name: &str, addr: &str, io: Io) -> Result<u64, ReplicaError> {
        let (primary, shared) = self.primary.as_ref().ok_or(ReplicaError::NotPrimary)?;
        if self.members.contains_key(name) || primary == name {
            return Err(ReplicaError::Protocol(format!(
                "`{name}` is already a member of the group"
            )));
        }
        let pending = PendingReconfig::journal(
            shared.commit(),
            self.pending_reconfig.as_ref(),
            self.group_size,
            true,
            name,
            addr,
        )?;
        let lsn = pending.lsn;
        self.pending_reconfig = Some(pending);
        self.stats.reconfigs += 1;
        let dir = self.base.join(name);
        self.insert_member(name, Follower::create(name, dir, self.opts.clone(), io))
            .learner = true;
        Ok(lsn)
    }

    /// Journals a single-member **remove** ([`PendingReconfig::journal`]):
    /// the member stops counting toward the watermark at once, and read
    /// routing stops considering it. The change completes once the
    /// record itself is quorum-committed under the shrunk group.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary;
    /// [`ReplicaError::UnknownNode`] for a non-member;
    /// [`DurableError::ReconfigInFlight`] (wrapped) while a prior
    /// change is incomplete; otherwise as [`ClusterSet::commit_local`].
    pub fn reconfig_remove(&mut self, name: &str) -> Result<u64, ReplicaError> {
        let p = self.primary().ok_or(ReplicaError::NotPrimary)?;
        if !self.members.contains_key(name) {
            return Err(ReplicaError::UnknownNode(name.to_string()));
        }
        let pending = PendingReconfig::journal(
            p,
            self.pending_reconfig.as_ref(),
            self.group_size,
            false,
            name,
            "",
        )?;
        let lsn = pending.lsn;
        self.pending_reconfig = Some(pending);
        self.group_size -= 1;
        self.members.remove(name);
        self.stats.reconfigs += 1;
        Ok(lsn)
    }

    /// The membership change in flight, if any.
    pub fn pending_reconfig(&self) -> Option<&PendingReconfig> {
        self.pending_reconfig.as_ref()
    }

    /// Whether member `name` is an unpromoted learner.
    pub fn is_learner(&self, name: &str) -> bool {
        self.members.get(name).is_some_and(|m| m.learner)
    }

    /// Completes the in-flight reconfiguration once
    /// [`PendingReconfig::settle`] says it has.
    fn settle_reconfig(&mut self, events: &mut Vec<ClusterEvent>) {
        let (Some(pending), Some(p)) = (&self.pending_reconfig, self.primary()) else {
            return;
        };
        if !pending.settle(p) {
            return;
        }
        let pending = self.pending_reconfig.take().expect("checked");
        if pending.add {
            if let Some(m) = self.members.get_mut(&pending.member) {
                m.learner = false;
            }
            self.group_size += 1;
            self.stats.promotions += 1;
            events.push(ClusterEvent::MemberPromoted {
                node: pending.member,
            });
        }
    }

    /// Journals one record on the primary (local durability only).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary; otherwise
    /// as [`GroupCommit::commit`].
    pub fn commit_local(&mut self, record: WalRecord) -> Result<u64, ReplicaError> {
        Ok(self
            .primary()
            .ok_or(ReplicaError::NotPrimary)?
            .commit(record)?)
    }

    /// Journals one record and runs supervision rounds until it is
    /// majority-durable.
    ///
    /// # Errors
    ///
    /// [`DurableError::Unreplicated`] (wrapped in
    /// [`ReplicaError::Durable`]) when the watermark does not pass the
    /// record within [`ClusterConfig::commit_ticks`] rounds — the
    /// record *is* locally durable, but a majority never confirmed it;
    /// otherwise as [`ClusterSet::commit_local`].
    pub fn commit_quorum(&mut self, record: WalRecord) -> Result<u64, ReplicaError> {
        let lsn = self.commit_local(record)?;
        for _ in 0..self.cfg.commit_ticks {
            if self.quorum_covers(lsn) {
                break;
            }
            self.tick();
        }
        if self.quorum_covers(lsn) {
            self.stats.quorum_commits += 1;
            return Ok(lsn);
        }
        let acked = 1
            + (self.members.keys())
                .filter(|n| self.member_synced(n) > lsn)
                .count();
        Err(ReplicaError::Durable(DurableError::Unreplicated {
            lsn,
            acked,
        }))
    }

    fn quorum_covers(&self, lsn: u64) -> bool {
        self.primary().is_some_and(|p| p.quorum_lsn() > lsn)
    }

    /// Checkpoints the primary.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary; otherwise
    /// as [`GroupCommit::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<(), ReplicaError> {
        self.primary()
            .ok_or(ReplicaError::NotPrimary)?
            .checkpoint()?;
        Ok(())
    }

    /// Removes the primary, simulating its crash or loss — its pumps,
    /// and whatever they had in flight, go with it; returns its group
    /// for inspection. Drop it before [`ClusterSet::rejoin_member`]
    /// reopens its directory.
    pub fn kill_primary(&mut self) -> Option<GroupCommit> {
        self.leaderless_rounds = 0;
        for m in self.members.values_mut() {
            m.pump = None;
        }
        let (_, shared) = self.primary.take()?;
        Some(shared.commit().clone())
    }

    /// One supervision round. With a primary: one pump step per live
    /// member, then settlement of the membership change in flight.
    /// Without one: counts leaderless rounds and, past
    /// [`ClusterConfig::heartbeat_miss_limit`], runs an election.
    pub fn tick(&mut self) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        if self.primary.is_none() {
            self.leaderless_rounds += 1;
            if self.leaderless_rounds >= self.cfg.heartbeat_miss_limit {
                match self.elect() {
                    Ok((node, epoch)) => events.push(ClusterEvent::Elected { node, epoch }),
                    Err(ReplicaError::NoQuorum {
                        epoch,
                        votes,
                        required,
                    }) => events.push(ClusterEvent::ElectionFailed {
                        epoch,
                        votes,
                        required,
                    }),
                    Err(_) => {}
                }
            }
            return events;
        }
        self.leaderless_rounds = 0;
        for (name, m) in &mut self.members {
            if m.crashed || m.refusing {
                continue;
            }
            let step = m.pump.as_mut().map(MemberPump::step);
            if let Some(PumpStep::Stalled { crash: true, .. }) = step {
                m.crashed = true;
                events.push(ClusterEvent::MemberCrashed { node: name.clone() });
            } else if let Some(e) = plock(&m.follower).refusal_error() {
                m.refusing = true;
                events.push(ClusterEvent::MemberRefused {
                    node: name.clone(),
                    detail: e.to_string(),
                });
            }
        }
        self.settle_reconfig(&mut events);
        events
    }

    /// Runs one deterministic election.
    ///
    /// The candidate is the member with the highest
    /// `(synced_lsn, member_id)` among those that hold replicated state
    /// and are not crashed, refusing or learning. Every other voter is
    /// asked for its vote over the [`Link`] (so partitions suppress
    /// votes); the candidate's own vote is implicit. At majority the
    /// candidate's store becomes the new primary — *without
    /// truncation*: quorum intersection guarantees its log contains
    /// every quorum-acknowledged record. The deposed primary (if any)
    /// is fenced at the new epoch, and every member gets a pump over
    /// the new primary.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NoQuorum`] when fewer than
    /// [`ClusterSet::quorum_required`] votes arrive — the epoch is
    /// consumed, nothing else changes (a standing primary re-asserts
    /// itself at the failed epoch and keeps serving).
    pub fn elect(&mut self) -> Result<(String, u64), ReplicaError> {
        let new_epoch = self.epoch + 1;
        self.epoch = new_epoch;
        let required = self.quorum_required();
        let candidate = (self.members.iter())
            .filter(|(_, m)| m.votable())
            .filter_map(|(n, m)| {
                let f = plock(&m.follower);
                f.store().map(|_| (f.next_lsn(), n.clone()))
            })
            .max();
        let Some((cand_lsn, cand_name)) = candidate else {
            return Err(self.failed_election(0, required));
        };
        // The candidate stands for itself. A *standing* primary being
        // deposed (operator-initiated failover) yields its vote — but
        // only when the candidate's log covers the primary's quorum
        // watermark, so no quorum-acknowledged record can be lost by
        // the handover. An unsafe candidate simply does not get the
        // yield, and the election falls short.
        let mut votes = 1usize;
        if self.primary().is_some_and(|p| cand_lsn >= p.quorum_lsn()) {
            votes += 1;
        }
        let request = encode_batch(&[ReplicaMsg::VoteRequest {
            candidate: cand_name.clone(),
            epoch: new_epoch,
            synced_lsn: cand_lsn,
        }]);
        for (name, m) in &self.members {
            if *name == cand_name || m.learner {
                continue; // Learners hold no vote to request.
            }
            // A lost exchange or a refused vote is no vote.
            let reply = (self.link).exchange(name, request.clone(), |wire| {
                answer(&mut plock(&m.follower), wire)
            });
            let granted = reply
                .and_then(|wire| decode_batch(&wire))
                .is_ok_and(|msgs| {
                    msgs.iter().any(|msg| {
                        matches!(msg, ReplicaMsg::VoteGrant { epoch, candidate, .. }
                        if *epoch == new_epoch && *candidate == cand_name)
                    })
                });
            votes += usize::from(granted);
        }
        if votes < required {
            return Err(self.failed_election(votes, required));
        }
        let Member { follower, pump, .. } = self.members.remove(&cand_name).expect("candidate");
        drop(pump);
        let follower = Arc::try_unwrap(follower)
            .map_err(|_| ReplicaError::Protocol(format!("`{cand_name}` is held elsewhere")))?
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let group = GroupCommit::new(follower.into_primary_store()?, self.group_cfg.clone());
        // Rebuild the quorum tracker's view of the group, including an
        // in-flight reconfiguration: the resize still takes effect at
        // the journaled record's LSN, the learner's acks still count
        // from there, and a removed id stays fenced.
        match &self.pending_reconfig {
            Some(pd) if pd.add => {
                group.configure_quorum(self.group_size);
                group.configure_quorum_at(pd.lsn, self.group_size + 1);
                group.add_learner(&pd.member, pd.lsn);
            }
            Some(pd) => {
                group.configure_quorum(self.group_size + 1);
                group.configure_quorum_at(pd.lsn, self.group_size);
                group.ban_member(&pd.member);
            }
            None => group.configure_quorum(self.group_size),
        }
        if let Some((_, old)) = self.primary.take() {
            old.commit().fence(new_epoch);
            self.stats.fences += 1;
            self.retired = Some(old.commit().clone());
        }
        group.adopt_epoch(new_epoch);
        self.primary = Some((cand_name.clone(), PumpShared::new(group.clone())));
        self.leaderless_rounds = 0;
        self.stats.elections += 1;
        // An in-flight reconfiguration whose journaled record did not
        // survive into the winner's log (it was durable only on the
        // crashed primary — never quorum-committed, so losing it is
        // safe) is re-journaled here: the change is already reflected
        // in the supervisor's state and the quorum tracker, but its
        // threshold switch must anchor to a record that exists. The
        // fresh record lands at or before the stale LSN, so scheduling
        // the resize there also drops the stale schedule.
        self.attach_pumps();
        if let Some(pd) = self.pending_reconfig.as_mut() {
            if group.wal_position() <= pd.lsn {
                let voters = self.group_size + usize::from(!pd.add);
                *pd = PendingReconfig::journal(&group, None, voters, pd.add, &pd.member, &pd.addr)?;
                self.stats.reconfigs += 1;
            }
        }
        Ok((cand_name, new_epoch))
    }

    /// Closes a failed election: counted, and a standing primary adopts
    /// the consumed epoch so members that granted a vote (and moved
    /// their epoch forward) accept its envelopes again. There is still
    /// exactly one writer, so raising its fencing token is safe.
    fn failed_election(&mut self, votes: usize, required: usize) -> ReplicaError {
        self.stats.failed_elections += 1;
        if let Some(p) = self.primary() {
            p.adopt_epoch(self.epoch);
        }
        ReplicaError::NoQuorum {
            epoch: self.epoch,
            votes,
            required,
        }
    }

    /// Re-admits node `name` (typically a deposed or restarted primary)
    /// as a member, realising the truncation-on-promotion invariant at
    /// the only safe place: the *rejoiner* cuts its un-quorum'd suffix
    /// back to the CRC match point against the current primary's log
    /// before it may replicate, vote or stand again. The voting group
    /// size does not change.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary;
    /// [`ReplicaError::Protocol`] when `name` is already a member or is
    /// the primary; [`ReplicaError::Durable`] when the directory's
    /// recovery or truncation fails non-faultily.
    pub fn rejoin_member(&mut self, name: &str) -> Result<RejoinOutcome, ReplicaError> {
        let primary = self.primary().ok_or(ReplicaError::NotPrimary)?;
        if self.members.contains_key(name) {
            return Err(ReplicaError::Protocol(format!(
                "`{name}` is already a member"
            )));
        }
        if self.primary_name() == Some(name) {
            return Err(ReplicaError::Protocol(format!(
                "`{name}` is the serving primary"
            )));
        }
        let p_tailer = tailer(primary);
        let p_head = primary.wal_position();
        let dir = self.base.join(name);
        let store = match DurableTmd::open_with(&dir, self.opts.clone(), Io::plain()) {
            Ok(s) => s,
            Err(DurableError::NoStore) => {
                // Nothing recoverable; enter as a fresh member.
                self.insert_member(
                    name,
                    Follower::create(name, dir, self.opts.clone(), Io::plain()),
                );
                self.stats.rebuilt_rejoins += 1;
                return Ok(RejoinOutcome::Rebuilt);
            }
            Err(e) => return Err(e.into()),
        };
        let local_head = store.wal_position();
        let l_tailer = WalTailer::new(&dir);
        // Walk down from the shared range's top to the last LSN where
        // both logs hold the same frame (or where either side is
        // pruned — unverifiable positions are accepted; replay
        // re-validates everything above them).
        let mut match_end = 0u64;
        let mut lsn = local_head.min(p_head).saturating_sub(1);
        while lsn >= 1 {
            let ours = l_tailer.crc_at(lsn)?;
            let theirs = p_tailer.crc_at(lsn)?;
            match (ours, theirs) {
                (Some(a), Some(b)) if a == b => {
                    match_end = lsn;
                    break;
                }
                (None, _) | (_, None) => {
                    match_end = lsn;
                    break;
                }
                _ => lsn -= 1,
            }
        }
        let cut = match_end + 1;
        let outcome = if cut >= local_head {
            drop(store);
            RejoinOutcome::Clean
        } else {
            match store.truncate_suffix(cut) {
                Ok(truncated) => {
                    drop(truncated);
                    self.stats.truncated_rejoins += 1;
                    RejoinOutcome::Truncated { cut }
                }
                Err(DurableError::Corrupt { .. }) => {
                    // A checkpoint covers past the cut: the suffix is
                    // baked into a snapshot and cannot be unwound.
                    // Wipe; the member re-bootstraps from the primary.
                    match std::fs::remove_dir_all(&dir) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(ReplicaError::Durable(e.into())),
                    }
                    self.stats.rebuilt_rejoins += 1;
                    RejoinOutcome::Rebuilt
                }
                Err(e) => return Err(e.into()),
            }
        };
        let follower = Follower::open(name, &dir, self.opts.clone(), Io::plain())?;
        self.insert_member(name, follower);
        Ok(outcome)
    }

    /// Inserts member `name` with a pump over the current primary.
    fn insert_member(&mut self, name: &str, follower: Follower) -> &mut Member {
        let follower = Arc::new(Mutex::new(follower));
        let pump = self.pump(name, &follower);
        let member = Member {
            follower,
            pump,
            crashed: false,
            refusing: false,
            learner: false,
        };
        self.members.insert(name.to_string(), member);
        self.members.get_mut(name).expect("just inserted")
    }

    /// A pump shipping the primary's log to `follower`, if there is a
    /// primary.
    fn pump(&self, name: &str, follower: &Arc<Mutex<Follower>>) -> Option<MemberPump> {
        let (primary, shared) = self.primary.as_ref()?;
        let pump = MemberPump::new(
            shared.clone(),
            name,
            follower.clone(),
            &self.base.join(primary),
            pump_config(),
            self.tracker.clone(),
        );
        Some(pump.over(self.link.clone()))
    }

    /// Gives every member a fresh pump over the current primary.
    fn attach_pumps(&mut self) {
        let names: Vec<String> = self.members.keys().cloned().collect();
        for name in names {
            let pump = self.pump(&name, &self.members[&name].follower);
            self.members.get_mut(&name).expect("listed").pump = pump;
        }
    }

    /// Replaces member `name` with `follower`, keeping its learner
    /// flag.
    fn replace_member(&mut self, name: &str, follower: Follower) -> Result<(), ReplicaError> {
        let learner = (self.members.get(name))
            .ok_or_else(|| ReplicaError::UnknownNode(name.to_string()))?
            .learner;
        self.insert_member(name, follower).learner = learner;
        Ok(())
    }

    /// Replaces a crashed member with one recovered from its directory.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::UnknownNode`]; otherwise as [`Follower::open`].
    pub fn restart_member(&mut self, name: &str) -> Result<(), ReplicaError> {
        if !self.members.contains_key(name) {
            return Err(ReplicaError::UnknownNode(name.to_string()));
        }
        let f = Follower::open(name, self.base.join(name), self.opts.clone(), Io::plain())?;
        self.replace_member(name, f)
    }

    /// Discards a refusing member's state entirely; it re-bootstraps
    /// from the current primary. Its previously acked position is
    /// forgotten (the watermark never moves backwards, so this cannot
    /// un-acknowledge anything).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::UnknownNode`]; I/O failure wiping the directory.
    pub fn rebuild_member(&mut self, name: &str) -> Result<(), ReplicaError> {
        if !self.members.contains_key(name) {
            return Err(ReplicaError::UnknownNode(name.to_string()));
        }
        let dir = self.base.join(name);
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(ReplicaError::Durable(e.into())),
        }
        self.replace_member(
            name,
            Follower::create(name, dir, self.opts.clone(), Io::plain()),
        )?;
        if let Some(p) = self.primary() {
            p.forget_member(name);
        }
        Ok(())
    }

    /// The member (never the primary) best placed to serve a read that
    /// requires every LSN up to `min_lsn` applied: the freshest member
    /// whose acked position covers the bound.
    pub fn route_read(&self, min_lsn: u64) -> Option<&str> {
        self.freshest_member()
            .filter(|&(_, lsn)| lsn > min_lsn)
            .map(|(name, _)| name)
    }

    /// The freshest live member and its acked position — what a
    /// `TooStale` reply names when no member covers the bound.
    pub fn freshest_member(&self) -> Option<(&str, u64)> {
        (self.members.iter())
            .filter(|(_, m)| !m.crashed && !m.refusing)
            .map(|(n, _)| (n.as_str(), self.member_synced(n)))
            .max_by_key(|&(n, lsn)| (lsn, n))
    }

    /// Runs `rounds` supervision ticks, collecting every event.
    pub fn run_ticks(&mut self, rounds: u64) -> Vec<ClusterEvent> {
        let mut events = Vec::new();
        for _ in 0..rounds {
            events.extend(self.tick());
        }
        events
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The live primary's group commit (clone it into server
    /// sessions).
    pub fn primary(&self) -> Option<&GroupCommit> {
        self.primary.as_ref().map(|(_, shared)| shared.commit())
    }

    /// The live primary's node name.
    pub fn primary_name(&self) -> Option<&str> {
        self.primary.as_ref().map(|(name, _)| name.as_str())
    }

    /// The most recently deposed primary's group commit (fencing probes
    /// write through it and must be refused).
    pub fn retired(&self) -> Option<&GroupCommit> {
        self.retired.as_ref()
    }

    /// Member by name, locked for inspection.
    pub fn member(&self, name: &str) -> Option<MutexGuard<'_, Follower>> {
        self.members.get(name).map(|m| plock(&m.follower))
    }

    /// Member by name, shared — to wire another primary's pump to it.
    pub fn member_handle(&self, name: &str) -> Option<Arc<Mutex<Follower>>> {
        self.members.get(name).map(|m| m.follower.clone())
    }

    /// Registered member names.
    pub fn member_names(&self) -> Vec<String> {
        self.members.keys().cloned().collect()
    }

    /// Highest durably-synced LSN member `name` has acked to the live
    /// primary (a member fsyncs every record it applies, so this is
    /// its applied position too).
    pub fn member_synced(&self, name: &str) -> u64 {
        (self.primary())
            .and_then(|p| p.member_positions().into_iter().find(|(n, _)| n == name))
            .map_or(0, |(_, lsn)| lsn)
    }

    /// Whether member `name` crashed (needs a restart).
    pub fn member_crashed(&self, name: &str) -> bool {
        self.members.get(name).is_some_and(|m| m.crashed)
    }

    /// Whether member `name` is refusing replay (needs a rebuild).
    pub fn member_refusing(&self, name: &str) -> bool {
        self.members.get(name).is_some_and(|m| m.refusing)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Every pump's counters — shipped frames, envelopes, acks,
    /// snapshots and stalls, across primaries.
    pub fn tracker(&self) -> &PumpTracker {
        &self.tracker
    }
}
