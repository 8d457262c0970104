//! The quorum supervisor: one primary plus N members form a
//! replication *group* whose commits are acknowledged only at
//! majority, whose leader is chosen by a deterministic election, and
//! whose deposed primaries rejoin by truncating their un-quorum'd
//! suffix.
//!
//! [`ClusterSet`] is the one tick-driven supervisor — single-threaded,
//! transport-driven, time counted in ticks, which is what lets the
//! sweeps enumerate every fault point. Each round a member's hello is
//! answered from the primary's log ([`WalTailer::answer_hello`]),
//! members answer replication with [`ReplicaMsg::QuorumAck`], the
//! primary feeds each member's durably-synced position into its
//! [`GroupCommit`] watermark, and a commit is *cluster-acknowledged*
//! only once [`GroupCommit::quorum_lsn`] passes it.
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

use mvolap_core::Tmd;
use mvolap_durable::{DurableError, DurableTmd, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap_replica::{Follower, ReplicaError, ReplicaMsg, ReplicaTransport, WalTailer};

/// Inbox name the supervisor collects election replies on; never a
/// member name.
const SUPERVISOR: &str = "supervisor";

/// Supervision policy knobs for a quorum group.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Max frames shipped per round.
    pub batch_frames: usize,
    /// Leaderless supervision rounds before [`ClusterSet::tick`] calls
    /// an election on its own.
    pub heartbeat_miss_limit: u64,
    /// Supervision rounds [`ClusterSet::commit_quorum`] pumps while
    /// waiting for the watermark before declaring the commit
    /// unreplicated.
    pub commit_ticks: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            batch_frames: 32,
            heartbeat_miss_limit: 3,
            commit_ticks: 64,
        }
    }
}

/// A tailer over the log of `group`'s store.
pub(crate) fn tailer(group: &GroupCommit) -> WalTailer {
    WalTailer::new(group.with_store(|s| s.dir().to_path_buf()))
}

/// Supervisor's view of one member.
#[derive(Debug)]
struct MemberLink {
    follower: Follower,
    /// Highest applied LSN the member has quorum-acked.
    applied_lsn: u64,
    /// Highest durably-synced LSN the member has quorum-acked.
    synced_lsn: u64,
    /// The member's store crashed; needs [`ClusterSet::restart_member`].
    crashed: bool,
    /// The member refuses replay; needs [`ClusterSet::rebuild_member`].
    refusing: bool,
    /// A joining member catching up: replicated to, but not counted
    /// for quorum and barred from elections until its synced position
    /// reaches the quorum watermark (catch-up-before-vote).
    learner: bool,
}

impl MemberLink {
    fn new(follower: Follower) -> MemberLink {
        MemberLink {
            follower,
            applied_lsn: 0,
            synced_lsn: 0,
            crashed: false,
            refusing: false,
            learner: false,
        }
    }

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

/// Cumulative supervisor counters.
#[derive(Debug, Default, Clone)]
pub struct ClusterStats {
    /// WAL frames shipped to members.
    pub frames_shipped: u64,
    /// Snapshot bootstraps served (pruned-log path).
    pub snapshots_served: u64,
    /// Quorum acks processed.
    pub acks: u64,
    /// Transport errors absorbed (the round retries next tick).
    pub retries: u64,
    /// Commits confirmed majority-durable.
    pub quorum_commits: u64,
    /// Elections won.
    pub elections: u64,
    /// Elections that closed without a majority.
    pub failed_elections: u64,
    /// Fence messages delivered to deposed primaries.
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

/// One primary + N members over a transport, with majority-ack
/// commit semantics.
#[derive(Debug)]
pub struct ClusterSet<T: ReplicaTransport> {
    base: PathBuf,
    opts: Options,
    group_cfg: GroupConfig,
    cfg: ClusterConfig,
    transport: T,
    epoch: u64,
    /// Voting nodes: voters + the primary. Changed at assembly
    /// ([`ClusterSet::add_member`]) and by journaled reconfiguration —
    /// an add counts here only once its learner is promoted, a remove
    /// counts immediately. Elections and rejoins do not change it.
    group_size: usize,
    /// The write-accepting node: its name and its [`GroupCommit`],
    /// which holds the epoch and the fence (so server sessions sharing
    /// a clone of it are fenced with it).
    primary: Option<(String, GroupCommit)>,
    retired: Option<GroupCommit>,
    members: BTreeMap<String, MemberLink>,
    /// The one membership change in flight, if any; a second is
    /// refused with [`DurableError::ReconfigInFlight`].
    pending_reconfig: Option<PendingReconfig>,
    leaderless_rounds: u64,
    stats: ClusterStats,
}

impl<T: ReplicaTransport> ClusterSet<T> {
    /// Creates a group whose primary is a fresh store under
    /// `base/primary` seeded with `seed`.
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
        transport: T,
        io: Io,
    ) -> Result<ClusterSet<T>, ReplicaError> {
        let dir = base.join("primary");
        let store = DurableTmd::create_with(&dir, seed, opts.clone(), io)?;
        let group = GroupCommit::new(store, group_cfg.clone());
        group.configure_quorum(1);
        Ok(ClusterSet {
            base: base.to_path_buf(),
            opts,
            group_cfg,
            cfg,
            transport,
            epoch: 0,
            group_size: 1,
            primary: Some(("primary".to_string(), group)),
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
        self.members.insert(
            name.to_string(),
            MemberLink::new(Follower::create(name, dir, self.opts.clone(), io)),
        );
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

    /// Journals a single-member **add** through the WAL and quorum
    /// machinery: a `Reconfig` record is appended and fsynced like any
    /// commit, the quorum tracker's majority threshold grows by one
    /// effective exactly at that record's LSN, and `name` enters as a
    /// **non-voting learner** — replicated to, but not counted for
    /// quorum and barred from elections until its synced position
    /// reaches the quorum watermark, at which point the next tick
    /// promotes it ([`ClusterEvent::MemberPromoted`]) and the
    /// reconfiguration completes.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary;
    /// [`DurableError::ReconfigInFlight`] (wrapped) while a prior
    /// change is incomplete; [`ReplicaError::Protocol`] when `name` is
    /// already in the group; otherwise as [`ClusterSet::commit_local`].
    pub fn reconfig_add(&mut self, name: &str, addr: &str, io: Io) -> Result<u64, ReplicaError> {
        let primary_name = self.primary_name().ok_or(ReplicaError::NotPrimary)?;
        if let Some(p) = &self.pending_reconfig {
            return Err(ReplicaError::Durable(DurableError::ReconfigInFlight {
                lsn: p.lsn,
                member: p.member.clone(),
            }));
        }
        if self.members.contains_key(name) || primary_name == name {
            return Err(ReplicaError::Protocol(format!(
                "`{name}` is already a member of the group"
            )));
        }
        let lsn = self.commit_local(WalRecord::Reconfig {
            epoch: self.epoch,
            add: true,
            member: name.to_string(),
            addr: addr.to_string(),
        })?;
        let p = self.primary().expect("primary exists");
        p.configure_quorum_at(lsn, self.group_size + 1);
        p.add_learner(name);
        let dir = self.base.join(name);
        let mut link = MemberLink::new(Follower::create(name, dir, self.opts.clone(), io));
        link.learner = true;
        self.members.insert(name.to_string(), link);
        self.pending_reconfig = Some(PendingReconfig {
            lsn,
            add: true,
            member: name.to_string(),
            addr: addr.to_string(),
        });
        self.stats.reconfigs += 1;
        Ok(lsn)
    }

    /// Journals a single-member **remove**: the `Reconfig` record is
    /// appended and fsynced, the majority threshold shrinks by one
    /// effective at its LSN, the member is dropped from the quorum
    /// tracker (so the watermark recomputes immediately) with its id
    /// fenced against late acks, and read routing stops considering
    /// it. The reconfiguration completes once the record itself is
    /// quorum-committed under the shrunk group.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NotPrimary`] without a live primary;
    /// [`DurableError::ReconfigInFlight`] (wrapped) while a prior
    /// change is incomplete; [`ReplicaError::UnknownNode`] for a
    /// non-member; otherwise as [`ClusterSet::commit_local`].
    pub fn reconfig_remove(&mut self, name: &str) -> Result<u64, ReplicaError> {
        self.primary().ok_or(ReplicaError::NotPrimary)?;
        if let Some(p) = &self.pending_reconfig {
            return Err(ReplicaError::Durable(DurableError::ReconfigInFlight {
                lsn: p.lsn,
                member: p.member.clone(),
            }));
        }
        if !self.members.contains_key(name) {
            return Err(ReplicaError::UnknownNode(name.to_string()));
        }
        let lsn = self.commit_local(WalRecord::Reconfig {
            epoch: self.epoch,
            add: false,
            member: name.to_string(),
            addr: String::new(),
        })?;
        self.group_size -= 1;
        let p = self.primary().expect("primary exists");
        p.configure_quorum_at(lsn, self.group_size);
        p.ban_member(name);
        self.members.remove(name);
        self.pending_reconfig = Some(PendingReconfig {
            lsn,
            add: false,
            member: name.to_string(),
            addr: String::new(),
        });
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

    /// Completes the in-flight reconfiguration when its condition is
    /// met: an add promotes the learner once its synced position
    /// covers both the reconfig record and the quorum watermark; a
    /// remove completes once its record is quorum-committed.
    fn settle_reconfig(&mut self, events: &mut Vec<ClusterEvent>) {
        let Some(pending) = self.pending_reconfig.clone() else {
            return;
        };
        let Some(watermark) = self.primary().map(GroupCommit::quorum_lsn) else {
            return;
        };
        if pending.add {
            let ready = self.members.get(&pending.member).is_some_and(|link| {
                link.learner && link.synced_lsn > pending.lsn && link.synced_lsn >= watermark
            });
            if ready {
                let link = self.members.get_mut(&pending.member).expect("checked");
                link.learner = false;
                if let Some(p) = self.primary() {
                    p.promote_voter(&pending.member);
                }
                self.group_size += 1;
                self.pending_reconfig = None;
                self.stats.promotions += 1;
                events.push(ClusterEvent::MemberPromoted {
                    node: pending.member,
                });
            }
        } else if watermark > pending.lsn {
            self.pending_reconfig = None;
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

    /// Journals one record and pumps supervision rounds until it is
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
                self.stats.quorum_commits += 1;
                return Ok(lsn);
            }
            self.tick();
        }
        if self.quorum_covers(lsn) {
            self.stats.quorum_commits += 1;
            return Ok(lsn);
        }
        let acked = 1 + self.members.values().filter(|m| m.synced_lsn > lsn).count();
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

    /// Removes the primary, simulating its crash or loss; returns its
    /// group for inspection. Drop it before
    /// [`ClusterSet::rejoin_member`] reopens its directory.
    pub fn kill_primary(&mut self) -> Option<GroupCommit> {
        self.leaderless_rounds = 0;
        self.primary.take().map(|(_, group)| group)
    }

    /// One supervision round. With a primary: each member's
    /// hello/replicate/quorum-ack exchange. Without one: counts
    /// leaderless rounds and, past
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
        let names: Vec<String> = self.members.keys().cloned().collect();
        for name in names {
            let link = self.members.get(&name).expect("member exists");
            if link.crashed || link.refusing {
                continue;
            }
            if let Err(ev) = self.round(&name, &mut events) {
                if ev {
                    self.stats.retries += 1;
                }
            }
        }
        self.settle_reconfig(&mut events);
        events
    }

    /// One exchange with member `name`. `Err(true)` is a transport
    /// fault (retry next tick); member-side failures are reported via
    /// `events` and the link flags.
    fn round(&mut self, name: &str, events: &mut Vec<ClusterEvent>) -> Result<(), bool> {
        let primary_name = self.primary_name().expect("primary exists").to_string();
        let hello = self
            .members
            .get(name)
            .expect("member exists")
            .follower
            .hello();
        self.transport
            .send(&primary_name, &hello)
            .map_err(|_| true)?;
        self.pump_primary(&primary_name)?;
        self.pump_member(name, Some(&primary_name), events)?;
        self.pump_primary(&primary_name)?;
        Ok(())
    }

    /// Drains the primary's inbox: hellos are answered with heartbeat
    /// plus frames or a snapshot; quorum acks feed the watermark.
    fn pump_primary(&mut self, primary_name: &str) -> Result<(), bool> {
        loop {
            let msg = self.transport.recv(primary_name).map_err(|_| true)?;
            let Some(msg) = msg else { break };
            match msg {
                ReplicaMsg::Hello {
                    node,
                    next_lsn,
                    last_crc,
                    ..
                } => {
                    let primary = self.primary().expect("primary exists");
                    // A position check that cannot read the log skips
                    // the round; the member asks again next tick.
                    let Ok(answer) = tailer(primary).answer_hello(
                        self.epoch,
                        primary.wal_position(),
                        next_lsn,
                        last_crc,
                        self.cfg.batch_frames,
                    ) else {
                        continue;
                    };
                    self.stats.frames_shipped += answer.frames as u64;
                    self.stats.snapshots_served += u64::from(answer.snapshot);
                    for msg in &answer.msgs {
                        self.transport.send(&node, msg).map_err(|_| true)?;
                    }
                }
                ReplicaMsg::QuorumAck {
                    node,
                    epoch,
                    applied_lsn,
                    synced_lsn,
                } => {
                    if epoch > self.epoch {
                        // An ack from the future is a protocol bug or a
                        // stray from a parallel history; never let it
                        // advance the watermark.
                        continue;
                    }
                    self.stats.acks += 1;
                    // Only current members may move the watermark: an
                    // ack from a removed (or never-admitted) id would
                    // count quorum against a stale group. The group's
                    // own ban list fences removed ids a second time.
                    if !self.members.contains_key(&node) {
                        continue;
                    }
                    // A member can never have synced past the
                    // primary's own head: cap the claim so a corrupt
                    // or lying ack cannot advance the quorum watermark
                    // (or the routing positions) beyond records that
                    // exist.
                    let head = self.primary().map(GroupCommit::wal_position);
                    if let Some(p) = self.primary() {
                        p.member_synced(&node, synced_lsn.min(p.wal_position()));
                    }
                    if let Some(link) = self.members.get_mut(&node) {
                        let cap = head.unwrap_or(u64::MAX);
                        link.applied_lsn = link.applied_lsn.max(applied_lsn.min(cap));
                        link.synced_lsn = link.synced_lsn.max(synced_lsn.min(cap));
                    }
                }
                // Stray traffic (old votes, fences echoing); ignore.
                _ => {}
            }
        }
        Ok(())
    }

    /// Drains member `name`'s inbox through [`Follower::handle`]. Plain
    /// acks are upgraded to quorum acks before forwarding — the member
    /// fsyncs every applied record, so its synced position is its
    /// applied position. Vote grants go to the supervisor's inbox.
    fn pump_member(
        &mut self,
        name: &str,
        forward_to: Option<&str>,
        events: &mut Vec<ClusterEvent>,
    ) -> Result<(), bool> {
        loop {
            let msg = self.transport.recv(name).map_err(|_| true)?;
            let Some(msg) = msg else { break };
            let link = self.members.get_mut(name).expect("member exists");
            match link.follower.handle(msg) {
                Ok(Some(ReplicaMsg::Ack { .. })) => {
                    if let Some(to) = forward_to {
                        let ack = link.follower.quorum_ack();
                        self.transport.send(to, &ack).map_err(|_| true)?;
                    }
                }
                Ok(Some(grant @ ReplicaMsg::VoteGrant { .. })) => {
                    self.transport.send(SUPERVISOR, &grant).map_err(|_| true)?;
                }
                Ok(Some(reply)) => {
                    if let Some(to) = forward_to {
                        self.transport.send(to, &reply).map_err(|_| true)?;
                    }
                }
                Ok(None) => {}
                Err(e) if e.is_crash() => {
                    link.crashed = true;
                    events.push(ClusterEvent::MemberCrashed {
                        node: name.to_string(),
                    });
                    return Ok(());
                }
                Err(e) => {
                    // Vote refusals are per-message verdicts, not link
                    // failures; everything else is a sticky refusal.
                    if link.follower.is_refusing() {
                        link.refusing = true;
                        events.push(ClusterEvent::MemberRefused {
                            node: name.to_string(),
                            detail: e.to_string(),
                        });
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one deterministic election.
    ///
    /// The candidate is the member with the highest
    /// `(synced_lsn, member_id)` among those that hold replicated state
    /// and are not crashed or refusing. Every other member is asked for
    /// its vote over the transport (so partitions suppress votes); the
    /// candidate's own vote is implicit. At majority the candidate's
    /// store becomes the new primary — *without truncation*: quorum
    /// intersection guarantees its log contains every
    /// quorum-acknowledged record. The deposed primary (if any) is
    /// fenced at the new epoch.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::NoQuorum`] when fewer than
    /// [`ClusterSet::quorum_required`] votes arrive — the epoch is
    /// consumed, nothing else changes (a standing primary re-asserts
    /// itself at the failed epoch and keeps serving).
    pub fn elect(&mut self) -> Result<(String, u64), ReplicaError> {
        // Settle in-flight replication first so rankings are current:
        // queued frames from the old primary still apply.
        let names: Vec<String> = self.members.keys().cloned().collect();
        let mut events = Vec::new();
        for name in &names {
            let _ = self.pump_member(name, None, &mut events);
        }
        let new_epoch = self.epoch + 1;
        self.epoch = new_epoch;
        let required = self.quorum_required();
        // Learners are filtered by `votable`: a joiner stands in
        // elections only after catch-up promoted it.
        let candidate = self
            .members
            .iter()
            .filter(|(_, m)| m.votable() && m.follower.store().is_some())
            .max_by_key(|(n, m)| (m.follower.next_lsn(), n.as_str()))
            .map(|(n, m)| (n.clone(), m.follower.next_lsn()));
        let Some((cand_name, cand_lsn)) = candidate else {
            self.stats.failed_elections += 1;
            self.reassert_primary(new_epoch);
            return Err(ReplicaError::NoQuorum {
                epoch: new_epoch,
                votes: 0,
                required,
            });
        };
        let mut votes = 1usize; // The candidate stands for itself.
                                // Voluntary yield: a *standing* primary being deposed
                                // (operator-initiated failover) contributes its vote — but only
                                // when the candidate's log covers the primary's quorum
                                // watermark, so no quorum-acknowledged record can be lost by
                                // the handover. An unsafe candidate simply does not get the
                                // yield, and the election falls short.
        if let Some(p) = self.primary() {
            if cand_lsn >= p.quorum_lsn() {
                votes += 1;
            }
        }
        let request = ReplicaMsg::VoteRequest {
            candidate: cand_name.clone(),
            epoch: new_epoch,
            synced_lsn: cand_lsn,
        };
        for name in &names {
            if *name == cand_name {
                continue;
            }
            if self.members.get(name).is_some_and(|m| m.learner) {
                continue; // Learners hold no vote to request.
            }
            if self.transport.send(name, &request).is_err() {
                continue; // Partitioned; no vote.
            }
            let _ = self.pump_member(name, None, &mut events);
        }
        while let Ok(Some(msg)) = self.transport.recv(SUPERVISOR) {
            if let ReplicaMsg::VoteGrant {
                node,
                epoch,
                candidate,
                ..
            } = msg
            {
                // Count only voters: a grant from a learner (or a
                // stray id) never contributes to the majority.
                if epoch == new_epoch
                    && candidate == cand_name
                    && self.members.get(&node).is_some_and(|m| !m.learner)
                {
                    votes += 1;
                }
            }
        }
        if votes < required {
            self.stats.failed_elections += 1;
            self.reassert_primary(new_epoch);
            return Err(ReplicaError::NoQuorum {
                epoch: new_epoch,
                votes,
                required,
            });
        }
        let link = self.members.remove(&cand_name).expect("candidate exists");
        let store = match link.follower.into_primary_store() {
            Ok(store) => store,
            Err(e) => {
                // Cannot happen for a votable, bootstrapped member;
                // restore the map if it somehow does.
                let dir = self.base.join(&cand_name);
                if let Ok(f) = Follower::open(&cand_name, dir, self.opts.clone(), Io::plain()) {
                    self.members.insert(cand_name.clone(), MemberLink::new(f));
                }
                return Err(e);
            }
        };
        let group = GroupCommit::new(store, self.group_cfg.clone());
        // Rebuild the quorum tracker's view of the group, including an
        // in-flight reconfiguration: the resize still takes effect at
        // the journaled record's LSN, the learner stays uncounted, and
        // a removed id stays fenced — before any seeded ack can move
        // the watermark.
        match &self.pending_reconfig {
            Some(pd) if pd.add => {
                group.configure_quorum(self.group_size);
                group.configure_quorum_at(pd.lsn, self.group_size + 1);
                group.add_learner(&pd.member);
            }
            Some(pd) => {
                group.configure_quorum(self.group_size + 1);
                group.configure_quorum_at(pd.lsn, self.group_size);
                group.ban_member(&pd.member);
            }
            None => group.configure_quorum(self.group_size),
        }
        for (n, m) in &self.members {
            if m.synced_lsn > 0 {
                group.member_synced(n, m.synced_lsn);
            }
        }
        if let Some((old_name, old)) = self.primary.take() {
            old.fence(new_epoch);
            if self
                .transport
                .send(&old_name, &ReplicaMsg::Fence { epoch: new_epoch })
                .is_ok()
            {
                self.stats.fences += 1;
            }
            self.retired = Some(old);
        }
        group.adopt_epoch(new_epoch);
        self.primary = Some((cand_name.clone(), group));
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
        if let Some(pd) = self.pending_reconfig.as_mut() {
            let p = self
                .primary
                .as_ref()
                .map(|(_, g)| g)
                .expect("just installed");
            if p.wal_position() <= pd.lsn {
                let lsn = p.commit(WalRecord::Reconfig {
                    epoch: new_epoch,
                    add: pd.add,
                    member: pd.member.clone(),
                    addr: pd.addr.clone(),
                })?;
                let size = if pd.add {
                    self.group_size + 1
                } else {
                    self.group_size
                };
                p.configure_quorum_at(lsn, size);
                pd.lsn = lsn;
                self.stats.reconfigs += 1;
            }
        }
        Ok((cand_name, new_epoch))
    }

    /// After a failed election, a standing primary adopts the consumed
    /// epoch so members that granted a vote (and moved their epoch
    /// forward) accept its heartbeats again. There is still exactly one
    /// writer, so raising its fencing token is safe.
    fn reassert_primary(&mut self, epoch: u64) {
        if let Some(p) = self.primary() {
            p.adopt_epoch(epoch);
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

    fn insert_member(&mut self, name: &str, follower: Follower) {
        self.members
            .insert(name.to_string(), MemberLink::new(follower));
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
        let dir = self.base.join(name);
        let f = Follower::open(name, dir, self.opts.clone(), Io::plain())?;
        let link = self.members.get_mut(name).expect("member exists");
        let synced = link.synced_lsn;
        let applied = link.applied_lsn;
        *link = MemberLink::new(f);
        link.synced_lsn = synced;
        link.applied_lsn = applied;
        Ok(())
    }

    /// Discards a refusing member's state entirely; it re-bootstraps
    /// from the current primary. Its previously acked positions are
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
        self.insert_member(
            name,
            Follower::create(name, dir, self.opts.clone(), Io::plain()),
        );
        if let Some(p) = self.primary() {
            p.forget_member(name);
        }
        Ok(())
    }

    /// The member (never the primary) best placed to serve a read that
    /// requires every LSN up to `min_lsn` applied: the freshest member
    /// whose acked applied position covers the bound.
    pub fn route_read(&self, min_lsn: u64) -> Option<&str> {
        self.members
            .iter()
            .filter(|(_, m)| !m.crashed && !m.refusing && m.applied_lsn > min_lsn)
            .max_by_key(|(n, m)| (m.applied_lsn, n.as_str()))
            .map(|(n, _)| n.as_str())
    }

    /// The freshest member and its acked applied position — what a
    /// `TooStale` reply names when no member covers the bound.
    pub fn freshest_member(&self) -> Option<(&str, u64)> {
        self.members
            .iter()
            .filter(|(_, m)| !m.crashed && !m.refusing)
            .max_by_key(|(n, m)| (m.applied_lsn, n.as_str()))
            .map(|(n, m)| (n.as_str(), m.applied_lsn))
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
        self.primary.as_ref().map(|(_, group)| group)
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

    /// Member by name.
    pub fn member(&self, name: &str) -> Option<&Follower> {
        self.members.get(name).map(|m| &m.follower)
    }

    /// Registered member names.
    pub fn member_names(&self) -> Vec<String> {
        self.members.keys().cloned().collect()
    }

    /// Highest applied LSN member `name` has acked.
    pub fn member_applied(&self, name: &str) -> u64 {
        self.members.get(name).map_or(0, |m| m.applied_lsn)
    }

    /// Highest durably-synced LSN member `name` has acked.
    pub fn member_synced(&self, name: &str) -> u64 {
        self.members.get(name).map_or(0, |m| m.synced_lsn)
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

    /// Transport operations performed so far.
    pub fn transport_steps(&self) -> u64 {
        self.transport.steps()
    }

    /// Direct access to the transport — fault harnesses inject forged
    /// or hostile protocol messages through this.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }
}
