//! Fault-injected quorum sweep: the cluster subsystem's correctness
//! argument, executable.
//!
//! [`cluster_sweep`] extends the durability crate's crash sweep to the
//! replicated setting. It runs the seeded workload
//! ([`mvolap_durable::generate`]) on a primary with two members under
//! majority-ack commit, then re-runs it once per injection point
//! across three fault classes:
//!
//! 1. **Primary crashes** — the primary's I/O layer crashes at every
//!    I/O primitive. The survivors must elect a new primary
//!    deterministically, every *quorum-acknowledged* commit must be
//!    present (same LSN, same frame CRC) on the winner, and the
//!    crashed primary must rejoin by truncating any un-quorum'd
//!    suffix before replicating again.
//! 2. **Partitions** — member `m1` is cut off at every link
//!    crossing. A healing outage must reconverge byte-identically; a
//!    permanent partition must still quorum through the surviving
//!    member, and an operator failover must fence the deposed primary
//!    so it refuses writes in the new epoch — the dual-primary probe.
//! 3. **Member crashes** — member `m1`'s I/O layer crashes at every
//!    primitive; the supervisor restarts it from its own directory and
//!    it must reconverge byte-identically while the quorum carries on
//!    through `m2`.
//!
//! A staged quorum-loss scenario additionally proves a leaderless,
//! partitioned group refuses to elect ([`ReplicaError::NoQuorum`])
//! rather than risk two histories, then elects automatically once the
//! partition heals; a staged divergence scenario forks two histories
//! after a shared prefix and proves the fork is refused with a typed
//! error on both sides of the protocol and bars the refusing member
//! from election.
//!
//! The group ships as the served group does, through one
//! [`crate::MemberPump`] per member; a partition is a cut on their
//! [`Link`]. [`cluster_sweep_net`] runs the same three-node group with
//! every link crossing on a loopback socket through a [`FaultProxy`]
//! that drops or stalls the connection at every crossing.
//!
//! These sweeps and [`membership_sweep`] share one harness: one
//! scripted run (the same bootstrap and the same classification of
//! every write: acknowledged, unreplicated, primary crashed, or a hard
//! error), one convergence check against expected schema bytes, and the
//! durable crate's [`Prefixes`] as the reference states.

use std::path::Path;

use mvolap_durable::fault::{generate, serialise, sweep_options, Prefixes, Step, Workload};
use mvolap_durable::{
    DurableError, DurableTmd, FaultPlan, GroupCommit, GroupConfig, Io, TimeSource, WalRecord,
};
use mvolap_replica::{FaultProxy, NetClient, NetConfig, ProxyFault, ReplicaError, ReplicaMsg};

use crate::pump::{Link, MemberPump, PumpConfig, PumpShared, PumpStep, PumpTracker};
use crate::set::{tailer, ClusterConfig, ClusterEvent, ClusterSet, RejoinOutcome};

/// Ticks the drain loop will spend waiting for convergence. Generous:
/// a cut member loses one crossing every other tick, so healing an
/// outage takes many rounds.
const DRAIN_TICKS: usize = 128;

/// Lost crossings before a healing outage repairs itself. Must be
/// comfortably below `DRAIN_TICKS` / 2 so convergence is reachable
/// within the drain budget.
const OUTAGE: u64 = 16;

/// What a [`cluster_sweep`] established.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ClusterSweepOutcome {
    /// Total injection points exercised across all classes.
    pub injection_points: u64,
    /// Runs where the primary's I/O crashed.
    pub primary_crashes: u64,
    /// Runs where member `m1`'s I/O crashed and it was restarted.
    pub member_crashes: u64,
    /// Runs with an injected partition or socket outage (healing or
    /// permanent).
    pub partitions: u64,
    /// Healing outages that reconverged exactly.
    pub healed_outages: u64,
    /// Elections won (crash failovers and operator failovers).
    pub elections: u64,
    /// Elections that closed without a majority.
    pub failed_elections: u64,
    /// Deposed primaries observed refusing a write with `Fenced` —
    /// the dual-primary probe.
    pub fenced_refusals: u64,
    /// Rejoins that truncated an un-quorum'd suffix.
    pub truncated_rejoins: u64,
    /// Rejoins that wiped and re-bootstrapped.
    pub rebuilt_rejoins: u64,
    /// Rejoins whose log was already a clean prefix.
    pub clean_rejoins: u64,
    /// Crashes so early no member held state to elect.
    pub unpromotable: u64,
    /// Commits that timed out waiting for quorum (locally durable,
    /// never cluster-acknowledged).
    pub unreplicated_commits: u64,
    /// Typed divergence refusals observed in the fork scenario.
    pub divergence_refusals: u64,
    /// Logical records in the workload.
    pub records: usize,
}

fn sweep_cluster_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_miss_limit: 3,
        commit_ticks: 16,
    }
}

/// What one clustered run injects: the primary's and `m1`'s I/O
/// layers and the link between the nodes — plus the supervision
/// policy, which a socket link needs to be less patient.
struct Faults {
    primary_io: Io,
    m1_io: Io,
    link: Link,
    /// The socket hop the link crosses, kept alive for the run.
    hop: Option<FaultProxy>,
    cfg: ClusterConfig,
}

impl Faults {
    /// Plain I/O on every node; whatever faults there are live on
    /// `link`.
    fn on(link: Link) -> Faults {
        Faults {
            primary_io: Io::plain(),
            m1_io: Io::plain(),
            link,
            hop: None,
            cfg: sweep_cluster_config(),
        }
    }

    /// A link over a loopback socket: every crossing goes through a
    /// [`FaultProxy`] that mistreats `outage_len` request frames once
    /// `plan` fires (`0`: never). A commit waits two supervision rounds
    /// for its quorum, not sixteen: every lost crossing on a cut socket
    /// pays a reconnect, and the refusal is as typed after two rounds
    /// as after sixteen.
    fn socket(plan: FaultPlan, outage_len: u64, kind: ProxyFault) -> Result<Faults, String> {
        // The read timeout sits comfortably above a loopback round
        // trip and well below a stalled proxy's silence, so a hung
        // link surfaces fast. One reconnect, so the client absorbs
        // part of a bounded outage itself — except under a permanent
        // cut, where a retry could only double the cost of failing.
        let cfg = NetConfig {
            connect_timeout_ms: 2_000,
            read_timeout_ms: 50,
            write_timeout_ms: 2_000,
            reconnect_attempts: u32::from(outage_len != u64::MAX),
            backoff_start_ms: 0,
        };
        let proxy = FaultProxy::spawn(plan, outage_len, kind)
            .map_err(|e| format!("sweep proxy spawn: {e}"))?;
        let link = Link::via(NetClient::connect(proxy.addr().clone(), cfg));
        Ok(Faults {
            hop: Some(proxy),
            cfg: ClusterConfig {
                commit_ticks: 2,
                ..sweep_cluster_config()
            },
            ..Faults::on(link)
        })
    }
}

/// Deterministic group commit: no hold window, manual clock — the
/// watermark moves only through supervision rounds.
fn sweep_group_config() -> GroupConfig {
    GroupConfig {
        hold_ms: 0,
        time: TimeSource::manual(0),
    }
}

/// One scripted run of a workload on a primary + m1 + m2 group.
struct ClusterRun {
    set: ClusterSet,
    /// The run's link — its crossing count enumerates injection points.
    link: Link,
    _hop: Option<FaultProxy>,
    /// Every commit the cluster *acknowledged* at quorum: `(lsn, frame
    /// crc)` — the records no failure is allowed to lose.
    acked: Vec<(u64, u32)>,
    committed: u64,
    unreplicated: u64,
    /// Times `m1`'s store crashed and was restarted from its directory.
    member_crashes: u64,
    primary_crashed: bool,
    /// The membership script's learner was promoted to voter.
    promoted: bool,
    /// The membership script's journaled remove completed.
    remove_done: bool,
}

impl ClusterRun {
    /// Bootstraps the group under `base` with majority-ack commits;
    /// `None` when the primary crashed creating its store.
    fn bootstrap(
        base: &Path,
        workload: &Workload,
        faults: Faults,
    ) -> Result<Option<ClusterRun>, String> {
        std::fs::remove_dir_all(base).ok();
        let mut set = match ClusterSet::bootstrap(
            base,
            workload.seed_schema.clone(),
            sweep_options(),
            sweep_group_config(),
            faults.cfg,
            faults.link.clone(),
            faults.primary_io,
        ) {
            Ok(set) => set,
            Err(ReplicaError::Durable(e)) if e.is_io_class() => return Ok(None),
            Err(e) => return Err(format!("cluster bootstrap failed non-faultily: {e}")),
        };
        set.add_member("m1", faults.m1_io);
        set.add_member("m2", Io::plain());
        Ok(Some(ClusterRun {
            set,
            link: faults.link,
            _hop: faults.hop,
            acked: Vec::new(),
            committed: 0,
            unreplicated: 0,
            member_crashes: 0,
            primary_crashed: false,
            promoted: false,
            remove_done: false,
        }))
    }

    /// Classifies one scripted write: `Ok(Some(lsn))` is a commit
    /// acknowledged at quorum (its `(lsn, crc)` is recorded), `Ok(None)`
    /// a step that commits nothing, a typed `Unreplicated` refusal is
    /// counted and the script presses on. An I/O-class failure means
    /// the primary crashed: the script must stop (`false`). Anything
    /// else is a hard error.
    fn settle(
        &mut self,
        what: &str,
        res: Result<Option<u64>, ReplicaError>,
    ) -> Result<bool, String> {
        match res {
            Ok(Some(lsn)) => {
                self.committed += 1;
                let crc = tailer(self.set.primary().expect("primary lives"))
                    .crc_at(lsn)
                    .map_err(|e| format!("crc_at({lsn}) failed: {e}"))?;
                self.acked.extend(crc.map(|crc| (lsn, crc)));
            }
            Ok(None) => {}
            Err(ReplicaError::Durable(DurableError::Unreplicated { .. })) => {
                // Locally durable, never cluster-acknowledged: the
                // session would see a typed `unreplicated` error.
                self.unreplicated += 1;
            }
            Err(ReplicaError::Durable(e)) if e.is_io_class() => {
                self.primary_crashed = true;
                return Ok(false);
            }
            Err(e) => return Err(format!("{what} failed non-faultily: {e}")),
        }
        Ok(true)
    }

    /// Commits `record` at quorum; `false` when the primary crashed.
    fn commit(&mut self, record: WalRecord) -> Result<bool, String> {
        let res = self.set.commit_quorum(record).map(Some);
        self.settle("commit", res)
    }

    /// Runs one workload step; `false` when the primary crashed.
    fn step(&mut self, step: &Step) -> Result<bool, String> {
        match step {
            Step::Op(record) => self.commit(record.clone()),
            Step::Checkpoint => {
                let res = self.set.checkpoint().map(|()| None);
                self.settle("checkpoint", res)
            }
        }
    }

    /// Asserts every quorum-acknowledged `(lsn, crc)` pair is present in
    /// the current primary's log (or pruned into a covering checkpoint —
    /// never *different*).
    fn check_acked(&self, what: &str) -> Result<(), String> {
        let tailer = tailer(self.set.primary().expect("primary lives"));
        for (lsn, crc) in &self.acked {
            match tailer.crc_at(*lsn) {
                Ok(Some(c)) if c == *crc => {}
                Ok(Some(c)) => {
                    return Err(format!(
                        "{what}: acked LSN {lsn} rewritten (crc {crc:#010x} -> {c:#010x})"
                    ))
                }
                Ok(None) => {} // Pruned into a checkpoint; still durable.
                Err(e) => return Err(format!("{what}: acked LSN {lsn} unreadable: {e}")),
            }
        }
        Ok(())
    }
}

/// Runs `workload` on a fresh primary + m1 + m2 group under `base`
/// with majority-ack commits. Injected crashes are recorded — a
/// crashed `m1` is at once reopened from its directory (with plain
/// I/O) and replication continues; non-faulty failures are hard
/// errors. `None` when the primary crashed bootstrapping.
fn run_cluster(
    base: &Path,
    workload: &Workload,
    faults: Faults,
) -> Result<Option<ClusterRun>, String> {
    let Some(mut run) = ClusterRun::bootstrap(base, workload, faults)? else {
        return Ok(None);
    };
    for step in &workload.steps {
        if !run.step(step)? {
            break;
        }
        if run.set.member_crashed("m1") {
            run.member_crashes += 1;
            run.set
                .restart_member("m1")
                .map_err(|e| format!("member restart failed: {e}"))?;
        }
    }
    Ok(Some(run))
}

/// The run of a script whose primary no fault targets: it must not
/// have crashed.
fn undisturbed(run: Option<ClusterRun>, what: &str) -> Result<ClusterRun, String> {
    run.filter(|r| !r.primary_crashed)
        .ok_or_else(|| format!("{what}: primary was disturbed"))
}

/// The records the primary's log holds past its bootstrap record —
/// the prefix of the workload it claims to be.
fn primary_records(set: &ClusterSet) -> usize {
    (set.primary().expect("primary lives").wal_position() - 2) as usize
}

/// Asserts the primary's state is the in-memory replay of its own log
/// length, byte for byte and answer for answer.
fn assert_prefix_consistent(
    set: &ClusterSet,
    prefixes: &Prefixes,
    what: &str,
) -> Result<(), String> {
    let q = primary_records(set);
    set.primary()
        .expect("primary lives")
        .with_store(|s| prefixes.find(s.schema(), q..=q))
        .map(drop)
        .map_err(|e| format!("{what}: primary {e}"))
}

/// Pumps ticks until each member in `names` catches the primary's head
/// (or the tick budget runs out); asserts its replicated schema then
/// serialises to `expect`.
fn converge(set: &mut ClusterSet, names: &[&str], expect: &[u8], what: &str) -> Result<(), String> {
    let head = set.primary().expect("primary lives").wal_position();
    for name in names {
        for _ in 0..DRAIN_TICKS {
            if set.member(name).is_some_and(|f| f.next_lsn() >= head) {
                break;
            }
            set.tick();
        }
        let f = set
            .member(name)
            .ok_or_else(|| format!("{what}: member {name} missing"))?;
        if f.next_lsn() < head {
            return Err(format!(
                "{what}: member {name} stopped at LSN {} of {head}",
                f.next_lsn()
            ));
        }
        let schema = f
            .schema()
            .ok_or_else(|| format!("{what}: member {name} never bootstrapped"))?;
        if serialise(schema) != expect {
            return Err(format!("{what}: member {name} diverged from the primary"));
        }
    }
    Ok(())
}

/// The primary's schema bytes.
fn primary_bytes(set: &ClusterSet) -> Vec<u8> {
    set.primary()
        .expect("primary lives")
        .with_store(|s| serialise(s.schema()))
}

/// A probe record for fencing checks.
fn probe_record(workload: &Workload) -> WalRecord {
    workload
        .ops()
        .next()
        .cloned()
        .expect("workload has records")
}

/// The dual-primary probe: the deposed primary must be fenced at
/// `epoch` and refuse a write.
fn probe_fence(
    set: &ClusterSet,
    workload: &Workload,
    epoch: u64,
    what: &str,
) -> Result<(), String> {
    let old = set.retired().expect("deposed primary retained");
    if !old.is_fenced() {
        return Err(format!("{what}: deposed primary not fenced"));
    }
    match old.commit(probe_record(workload)) {
        Err(DurableError::Fenced { epoch: at }) if at == epoch => Ok(()),
        Err(DurableError::Fenced { epoch: at }) => {
            Err(format!("{what}: fenced at epoch {at}, expected {epoch}"))
        }
        other => Err(format!(
            "{what}: deposed primary accepted a write ({other:?})"
        )),
    }
}

/// Rejoins the deposed primary as a member and tallies how it
/// re-entered.
fn rejoin_primary(
    set: &mut ClusterSet,
    outcome: &mut ClusterSweepOutcome,
    what: &str,
) -> Result<(), String> {
    match set.rejoin_member("primary") {
        Ok(RejoinOutcome::Truncated { .. }) => outcome.truncated_rejoins += 1,
        Ok(RejoinOutcome::Rebuilt) => outcome.rebuilt_rejoins += 1,
        Ok(RejoinOutcome::Clean) => outcome.clean_rejoins += 1,
        Err(e) => return Err(format!("{what}: rejoin failed: {e}")),
    }
    Ok(())
}

/// Staged quorum-loss scenario: the primary dies while `m1` is
/// partitioned, so the group cannot reach a majority — the election
/// must fail with a typed [`ReplicaError::NoQuorum`] and the group
/// must stay primary-less. Once the partition heals, the supervisor's
/// own heartbeat-miss counter must elect without being asked.
fn quorum_loss_scenario(
    base: &Path,
    workload: &Workload,
    outcome: &mut ClusterSweepOutcome,
) -> Result<(), String> {
    // The outage must start when the leaderless phase does: count the
    // crossings a clean run of the workload takes, then cut m1 from
    // there for a bounded outage.
    let clean = run_cluster(base, workload, Faults::on(Link::new()))?;
    let after_workload = clean.map_or(0, |run| run.link.crossings());
    let link = Link::new();
    link.cut(&["m1"], after_workload, OUTAGE);
    let mut run = run_cluster(base, workload, Faults::on(link))?.expect("set lives");
    drop(run.set.kill_primary().expect("primary present"));
    // Direct election while m1 is cut: m2 stands, m1 cannot vote.
    match run.set.elect() {
        Err(ReplicaError::NoQuorum {
            votes, required, ..
        }) => {
            if votes >= required {
                return Err("quorum-loss scenario: NoQuorum with enough votes".to_string());
            }
            outcome.failed_elections += 1;
        }
        other => {
            return Err(format!(
                "quorum-loss scenario: election without a majority did not refuse ({other:?})"
            ))
        }
    }
    if run.set.primary().is_some() {
        return Err("quorum-loss scenario: a primary appeared without quorum".to_string());
    }
    // Heartbeat-miss driven: once the outage window is consumed, the
    // supervisor's own tick must elect.
    let elected = (0..DRAIN_TICKS).any(|_| {
        run.set
            .tick()
            .iter()
            .any(|e| matches!(e, ClusterEvent::Elected { .. }))
    });
    if !elected {
        return Err("quorum-loss scenario: healed partition never elected".to_string());
    }
    outcome.elections += 1;
    run.check_acked("quorum-loss scenario")?;
    std::fs::remove_dir_all(base).ok();
    Ok(())
}

/// Staged divergence scenario: two histories fork after a shared
/// prefix — the classic post-failover split — and the fork must be
/// refused with a typed error on both sides of the protocol, and bar
/// the refusing member from election. Returns the number of distinct
/// refusals observed (member-side duplicate check, election bar, and
/// the pump's divergence gate facing the rebuilt member).
fn divergence_scenario(base: &Path, seed: u64) -> Result<u64, String> {
    let workload = generate(seed, 8);

    // History A: the full workload, quorum-committed on primary + m1 + m2.
    let mut run = run_cluster(&base.join("a"), &workload, Faults::on(Link::new()))?
        .expect("fault-free run has a set");
    if run.committed != workload.records as u64 {
        return Err(format!(
            "fork scenario committed {}/{}",
            run.committed, workload.records
        ));
    }

    // History B: same prefix, but the last record is replaced by a
    // different (valid) evolution.
    let b_dir = base.join("b");
    let mut b = DurableTmd::create_with(
        &b_dir,
        workload.seed_schema.clone(),
        sweep_options(),
        Io::plain(),
    )
    .map_err(|e| format!("fork scenario history B create: {e}"))?;
    for r in workload.ops().take(workload.records - 1) {
        b.apply(r.clone())
            .map_err(|e| format!("fork scenario history B apply: {e}"))?;
    }
    b.apply(WalRecord::Create {
        dim: workload.org,
        name: "Dept-fork".to_string(),
        level: Some("Department".to_string()),
        at: mvolap_temporal::Instant::ym(2030, 1),
        parents: vec![mvolap_core::MemberVersionId(0)],
    })
    .map_err(|e| format!("fork record apply: {e}"))?;
    let fork_lsn = b.wal_position() - 1;

    let mut refusals = 0u64;

    // Member-side duplicate check: history B's forked frame, handed to
    // m2 over its own log, must be refused, and the refusal must be
    // sticky and typed.
    let forked_frames = b
        .tail(fork_lsn)
        .map_err(|e| format!("fork scenario tail: {e}"))?;
    let epoch = run.set.epoch();
    let forked = ReplicaMsg::Frames {
        epoch,
        frames: forked_frames,
    };
    if run.set.member("m2").expect("m2").handle(forked).is_ok() {
        return Err("fork scenario: m2 took a forked frame".to_string());
    }
    let refused = run
        .set
        .tick()
        .iter()
        .any(|e| matches!(e, ClusterEvent::MemberRefused { node, .. } if node == "m2"));
    let m2_refusal = run.set.member("m2").expect("m2").refusal_error();
    match m2_refusal {
        Some(ReplicaError::Diverged { lsn, .. })
            if refused && lsn == fork_lsn && run.set.member_refusing("m2") =>
        {
            refusals += 1;
        }
        other => {
            return Err(format!(
                "fork scenario: member duplicate check did not refuse ({other:?})"
            ))
        }
    }

    // A refusing member never stands: m2 would win the tie on its name,
    // yet the operator failover must elect m1.
    match run.set.elect() {
        Ok((winner, _)) if winner == "m1" => refusals += 1,
        other => {
            return Err(format!(
                "fork scenario: refusing member was not barred from election ({other:?})"
            ))
        }
    }
    run.check_acked("fork scenario")?;

    // The pump's divergence gate: m2, rebuilt from the new primary,
    // holds history A again. A pump of a primary serving history B
    // takes its cursor from m2, finds the fork and ships `Diverged`
    // alone; m2 refuses, typed and sticky, and acks nothing to B.
    run.set
        .rebuild_member("m2")
        .map_err(|e| format!("fork scenario: rebuild failed: {e}"))?;
    let expect = primary_bytes(&run.set);
    converge(&mut run.set, &["m2"], &expect, "fork scenario rebuild")?;
    let b_group = GroupCommit::new(b, sweep_group_config());
    let m2 = run.set.member_handle("m2").expect("m2");
    let mut pump = MemberPump::new(
        PumpShared::new(b_group.clone()),
        "m2",
        m2,
        &b_dir,
        PumpConfig::default(),
        PumpTracker::new(),
    );
    let (shipped, delivered) = (pump.step(), pump.step());
    let m2_refusal = run.set.member("m2").expect("m2").refusal_error();
    match (shipped, delivered, m2_refusal) {
        (
            PumpStep::Progress { shipped: 0, .. },
            PumpStep::Stalled { .. },
            Some(ReplicaError::Diverged { lsn, .. }),
        ) if lsn == fork_lsn && b_group.member_positions().is_empty() => refusals += 1,
        other => {
            return Err(format!(
                "fork scenario: the pump's divergence gate did not refuse ({other:?})"
            ))
        }
    }

    std::fs::remove_dir_all(base).ok();
    Ok(refusals)
}

/// The fault-free run every sweep starts from: the whole workload must
/// commit at quorum, the watermark must reach the head and both
/// members must converge byte-identically. Returns the run, whose
/// counters enumerate the injection points.
fn fault_free_run(
    dir: &Path,
    workload: &Workload,
    faults: Faults,
    prefixes: &Prefixes,
) -> Result<ClusterRun, String> {
    let free = undisturbed(run_cluster(dir, workload, faults)?, "fault-free run")?;
    if free.unreplicated != 0 || free.committed != workload.records as u64 {
        return Err(format!(
            "fault-free run committed {}/{} ({} unreplicated)",
            free.committed, workload.records, free.unreplicated
        ));
    }
    if free.acked.len() != workload.records {
        return Err(format!(
            "fault-free run acked {} of {} commits",
            free.acked.len(),
            workload.records
        ));
    }
    let mut free = free;
    let p = free.set.primary().expect("primary lives");
    if p.quorum_lsn() < p.wal_position() {
        return Err("fault-free watermark never caught the head".to_string());
    }
    let expect = prefixes.bytes(primary_records(&free.set));
    converge(&mut free.set, &["m1", "m2"], expect, "fault-free")?;
    Ok(free)
}

/// Sweeps every fault-injection point of the quorum-replicated
/// workload and checks the cluster invariants at each one: **no
/// quorum-acknowledged commit is ever lost** across a single-node
/// crash or partition, and **no two primaries accept writes in the
/// same epoch** (the deposed one is probed at every failover).
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster bug.
pub fn cluster_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<ClusterSweepOutcome, String> {
    let workload = generate(seed, target_records);
    let prefixes = Prefixes::replay(&workload)?;
    let mut outcome = ClusterSweepOutcome {
        records: workload.records,
        ..ClusterSweepOutcome::default()
    };

    // ---- Stage 0: fault-free quorum run ----------------------------
    let free_dir = base_dir.join("free");
    let free = fault_free_run(&free_dir, &workload, Faults::on(Link::new()), &prefixes)?;
    let primary_points = (free.set.primary())
        .expect("primary lives")
        .with_store(DurableTmd::io_ops);
    let member_points = free.set.member("m1").expect("m1 registered").io_ops();
    let link_points = free.link.crossings();
    drop(free);

    // ---- Stage A: primary crashes at every I/O primitive -----------
    let a_dir = base_dir.join("p-crash");
    for k in 0..primary_points {
        outcome.injection_points += 1;
        let what = format!("primary crash {k}");
        let faults = Faults {
            primary_io: Io::faulty(FaultPlan::crash_after(k, seed)),
            ..Faults::on(Link::new())
        };
        let Some(mut run) = run_cluster(&a_dir, &workload, faults)? else {
            outcome.primary_crashes += 1;
            outcome.unpromotable += 1; // Crashed creating the primary.
            continue;
        };
        if !run.primary_crashed {
            // The fault fired inside a read path or not at all on this
            // run's shorter op sequence; the workload completed — treat
            // as a clean point.
            run.check_acked(&format!("{what} (no-fire)"))?;
            continue;
        }
        outcome.primary_crashes += 1;
        outcome.unreplicated_commits += run.unreplicated;
        // Release the store handle; rejoin reopens the dir.
        drop(run.set.kill_primary().expect("primary present before kill"));
        match run.set.elect() {
            Ok(_) => {
                outcome.elections += 1;
                run.check_acked(&what)?;
                assert_prefix_consistent(&run.set, &prefixes, &what)?;
                // The crashed primary rejoins: recovery, then the
                // truncation-on-rejoin invariant — any suffix beyond
                // the CRC match point with the new primary is cut.
                rejoin_primary(&mut run.set, &mut outcome, &what)?;
                let expect = prefixes.bytes(primary_records(&run.set));
                converge(&mut run.set, &["primary"], expect, &what)?;
                run.check_acked(&format!("{what} post-rejoin"))?;
                // The elected member must be a fully functional
                // durable store: checkpoint, then recover from disk to
                // the same state.
                let p = run.set.primary().expect("elected");
                p.checkpoint()
                    .map_err(|e| format!("{what}: elected checkpoint failed: {e}"))?;
                let dir = p.with_store(|s| s.dir().to_path_buf());
                let reopened = DurableTmd::open(&dir)
                    .map_err(|e| format!("{what}: elected reopen failed: {e}"))?;
                if serialise(reopened.schema()) != primary_bytes(&run.set) {
                    return Err(format!("{what}: elected store does not survive reopen"));
                }
            }
            Err(ReplicaError::NoQuorum { .. }) if run.acked.is_empty() => {
                // Crashed before anything replicated; no member holds
                // state worth electing.
                outcome.unpromotable += 1;
            }
            Err(e) => {
                return Err(format!(
                    "{what}: election failed despite {} acked commits: {e}",
                    run.acked.len()
                ))
            }
        }
    }

    // ---- Stage B: partition member m1 at every link crossing --------
    let b_dir = base_dir.join("partition");
    for j in 0..link_points {
        outcome.injection_points += 1;
        outcome.partitions += 1;
        let what = format!("partition {j}");
        if j % 2 == 0 {
            // Healing outage: the group must reconverge exactly, and
            // no commit may be lost or rewritten.
            let link = Link::new();
            link.cut(&["m1"], j, OUTAGE);
            let mut run = undisturbed(run_cluster(&b_dir, &workload, Faults::on(link))?, &what)?;
            outcome.unreplicated_commits += run.unreplicated;
            run.check_acked(&what)?;
            let expect = prefixes.bytes(primary_records(&run.set));
            converge(&mut run.set, &["m1", "m2"], expect, &what)?;
            outcome.healed_outages += 1;
            continue;
        }
        // Permanent partition of m1, then an operator failover: the
        // quorum must have stayed reachable through m2, the deposed
        // primary must be fenced, and it must refuse a write in the
        // new epoch — no two primaries ever accept writes in the same
        // epoch.
        let link = Link::new();
        link.cut(&["m1"], j, u64::MAX);
        let mut run = undisturbed(run_cluster(&b_dir, &workload, Faults::on(link))?, &what)?;
        outcome.unreplicated_commits += run.unreplicated;
        if run.unreplicated > 0 {
            return Err(format!(
                "{what}: quorum unreachable with a single member cut ({} unreplicated)",
                run.unreplicated
            ));
        }
        run.check_acked(&what)?;
        match run.set.elect() {
            Ok((_winner, epoch)) => {
                outcome.elections += 1;
                let what = format!("{what} failover");
                run.check_acked(&what)?;
                assert_prefix_consistent(&run.set, &prefixes, &what)?;
                probe_fence(&run.set, &workload, epoch, &what)?;
                outcome.fenced_refusals += 1;
                // The deposed primary rejoins the group it lost.
                rejoin_primary(&mut run.set, &mut outcome, &what)?;
                let expect = prefixes.bytes(primary_records(&run.set));
                converge(&mut run.set, &["primary"], expect, &what)?;
            }
            Err(ReplicaError::NoQuorum { .. }) => {
                // The partition fired before m2 replicated enough
                // to stand safely; the standing primary must keep
                // serving.
                outcome.failed_elections += 1;
                let lsn = run
                    .set
                    .commit_local(probe_record(&workload))
                    .map_err(|e| format!("{what}: standing primary refused: {e}"))?;
                if lsn == 0 {
                    return Err(format!("{what}: probe commit returned LSN 0"));
                }
                run.check_acked(&format!("{what} no-quorum"))?;
            }
            Err(e) => return Err(format!("{what}: election failed oddly: {e}")),
        }
    }

    // ---- Stage C: member m1 crashes at every I/O primitive ---------
    let c_dir = base_dir.join("m-crash");
    for k in 0..member_points {
        outcome.injection_points += 1;
        let what = format!("member crash {k}");
        let faults = Faults {
            m1_io: Io::faulty(FaultPlan::crash_after(k, seed ^ 0x5EED_F011)),
            ..Faults::on(Link::new())
        };
        let run = run_cluster(&c_dir, &workload, faults)?;
        if run.as_ref().is_none_or(|run| run.member_crashes == 0) {
            return Err(format!("member crash point {k} never fired"));
        }
        outcome.member_crashes += 1;
        // The quorum carries on through m2: the primary never notices.
        let mut run = undisturbed(run, &what)?;
        if run.unreplicated != 0 || run.committed != workload.records as u64 {
            return Err(format!(
                "{what}: primary was disturbed ({} committed, {} unreplicated)",
                run.committed, run.unreplicated
            ));
        }
        run.check_acked(&what)?;
        let expect = prefixes.bytes(primary_records(&run.set));
        converge(&mut run.set, &["m1", "m2"], expect, &what)?;
    }

    // ---- Staged scenario: quorum loss refuses election -------------
    quorum_loss_scenario(&base_dir.join("q-loss"), &workload, &mut outcome)?;

    // ---- Staged scenario: forked histories refuse with typed errors
    outcome.divergence_refusals = divergence_scenario(&base_dir.join("fork"), seed)?;

    if outcome.fenced_refusals == 0 {
        return Err("no failover ever probed the dual-primary invariant".to_string());
    }
    if outcome.elections == 0 {
        return Err("no election ever ran".to_string());
    }

    std::fs::remove_dir_all(&free_dir).ok();
    std::fs::remove_dir_all(&a_dir).ok();
    std::fs::remove_dir_all(&b_dir).ok();
    std::fs::remove_dir_all(&c_dir).ok();
    Ok(outcome)
}

/// [`cluster_sweep`]'s partition class over real TCP on loopback:
/// every crossing of the three-node group's link — each request, then
/// its reply — goes through a socket and a [`FaultProxy`], which faults
/// the connection at every crossing. A *healing* outage — three request frames dropped (the
/// client sees resets) or stalled past the read timeout (it sees a
/// hung link) — must reconverge byte-identically with no acknowledged
/// commit lost. A *permanent* one cuts the whole group off: commits
/// from then on must be refused with the typed
/// [`DurableError::Unreplicated`], and once the primary is gone the
/// election must be refused with the typed [`ReplicaError::NoQuorum`],
/// leaving the group primary-less rather than guessing.
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster (or socket-layer) bug.
pub fn cluster_sweep_net(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<ClusterSweepOutcome, String> {
    /// A stalled proxy stays silent this long — three read timeouts.
    const STALL_MS: u64 = 150;
    let workload = generate(seed, target_records);
    let prefixes = Prefixes::replay(&workload)?;
    let mut outcome = ClusterSweepOutcome {
        records: workload.records,
        ..ClusterSweepOutcome::default()
    };

    let free_dir = base_dir.join("net-free");
    let clean = Faults::socket(FaultPlan::crash_after(0, seed), 0, ProxyFault::Drop)?;
    let link_points = fault_free_run(&free_dir, &workload, clean, &prefixes)?
        .link
        .crossings();

    let dir = base_dir.join("net-fault");
    let mut loud_runs = 0u64;
    for j in 0..link_points {
        outcome.injection_points += 1;
        outcome.partitions += 1;
        let plan = FaultPlan::crash_after(j, seed);
        if j % 2 == 0 {
            let what = format!("socket outage {j}");
            let kind = if j % 8 == 2 {
                ProxyFault::Stall(STALL_MS)
            } else {
                ProxyFault::Drop
            };
            let faults = Faults::socket(plan, 3, kind)?;
            let mut run = undisturbed(run_cluster(&dir, &workload, faults)?, &what)?;
            outcome.unreplicated_commits += run.unreplicated;
            run.check_acked(&what)?;
            let expect = prefixes.bytes(primary_records(&run.set));
            converge(&mut run.set, &["m1", "m2"], expect, &what)?;
            outcome.healed_outages += 1;
            if run.set.tracker().all().iter().any(|(_, s)| s.stalls > 0) {
                loud_runs += 1;
            }
            continue;
        }
        let what = format!("socket partition {j}");
        let faults = Faults::socket(plan, u64::MAX, ProxyFault::Drop)?;
        let mut run = undisturbed(run_cluster(&dir, &workload, faults)?, &what)?;
        // Every step came back acknowledged or refused typed.
        if run.committed + run.unreplicated != workload.records as u64 {
            return Err(format!(
                "{what}: {} acked + {} unreplicated of {} commits",
                run.committed, run.unreplicated, workload.records
            ));
        }
        outcome.unreplicated_commits += run.unreplicated;
        run.check_acked(&what)?;
        drop(run.set.kill_primary());
        match run.set.elect() {
            Err(ReplicaError::NoQuorum {
                votes, required, ..
            }) if votes < required => outcome.failed_elections += 1,
            other => {
                return Err(format!(
                    "{what}: election without a reachable majority did not refuse ({other:?})"
                ))
            }
        }
        if run.set.primary().is_some() {
            return Err(format!("{what}: a primary appeared without quorum"));
        }
    }
    if link_points >= 8 && loud_runs == 0 {
        return Err("no socket outage ever lost a crossing".to_string());
    }
    if link_points >= 8 && outcome.unreplicated_commits == 0 {
        return Err("no socket partition ever refused a commit as unreplicated".to_string());
    }

    std::fs::remove_dir_all(&free_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
    Ok(outcome)
}

// ---------------------------------------------------- membership sweep

/// What a [`membership_sweep`] established.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MembershipSweepOutcome {
    /// Total injection points exercised across all classes.
    pub injection_points: u64,
    /// Runs where the primary's I/O crashed mid-reconfiguration.
    pub primary_crashes: u64,
    /// Runs with an injected partition of the joiner or the removed
    /// member.
    pub partitions: u64,
    /// Learner promotions observed (catch-up-before-vote completing).
    pub promotions: u64,
    /// Journaled removals that completed.
    pub removals: u64,
    /// Elections won during or after a reconfiguration.
    pub elections: u64,
    /// Deposed primaries probed refusing a write — the dual-primary
    /// invariant under reconfiguration.
    pub fenced_refusals: u64,
    /// Forged acks from a removed id that the watermark ignored.
    pub stale_acks_fenced: u64,
    /// Reconfigurations that completed *after* a failover — the
    /// in-flight change survives the primary's crash.
    pub resumed_reconfigs: u64,
    /// Crashes so early no member held state to elect.
    pub unpromotable: u64,
    /// Commits that timed out waiting for quorum.
    pub unreplicated_commits: u64,
    /// Logical records in the workload.
    pub records: usize,
}

/// Drives one scripted membership-change workload: base traffic on
/// primary + m1 + m2, a checkpoint (pruning the tail the joiner will
/// need, forcing the snapshot path), a journaled **add** of `m3`
/// (learner until caught up), traffic during catch-up, a journaled
/// **remove** of `m1`, and tail traffic under the shrunk group. `None`
/// when the primary crashed bootstrapping.
fn run_membership(
    base: &Path,
    workload: &Workload,
    faults: Faults,
) -> Result<Option<ClusterRun>, String> {
    let Some(mut run) = ClusterRun::bootstrap(base, workload, faults)? else {
        return Ok(None);
    };
    // Split the workload: the last six ops are reserved as the
    // traffic that rides *through* the reconfiguration phases.
    let first_reserved = workload.records - 6.min(workload.records.saturating_sub(1));
    let phase_cut = workload
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Op(_)))
        .nth(first_reserved)
        .map(|(i, _)| i)
        .expect("workload has records");
    let mut tail = workload.ops().skip(first_reserved).cloned();

    // Phase 1 — base traffic.
    for step in &workload.steps[..phase_cut] {
        if !run.step(step)? {
            return Ok(Some(run));
        }
    }
    // Checkpoint so the joiner's tail is pruned: its bootstrap must go
    // through the snapshot path, not a frame replay from LSN 1.
    let res = run.set.checkpoint().map(|()| None);
    if !run.settle("pre-join checkpoint", res)? {
        return Ok(Some(run));
    }

    // Phase 2 — journaled add of m3; it enters as a learner.
    let res = run.set.reconfig_add("m3", "local://m3", Io::plain());
    if !run.settle("reconfig_add", res.map(|_| None))? {
        return Ok(Some(run));
    }
    if !run.set.is_learner("m3") {
        return Err("joiner did not enter as a learner".to_string());
    }
    for record in tail.by_ref().take(2) {
        if !run.commit(record)? {
            return Ok(Some(run));
        }
    }
    // Catch-up: ticks until the learner's synced position reaches the
    // watermark and the supervisor promotes it. Promotion may already
    // have happened inside a commit's own supervision rounds, so the
    // *state* — not the event stream — is the authority.
    for _ in 0..DRAIN_TICKS {
        if run.set.pending_reconfig().is_none() && !run.set.is_learner("m3") {
            run.promoted = true;
            break;
        }
        run.set.tick();
    }
    if !run.promoted {
        return Ok(Some(run));
    }

    // Phase 3 — journaled remove of m1 (even while it is partitioned:
    // removal must never need the removed member's cooperation).
    let res = run.set.reconfig_remove("m1");
    if !run.settle("reconfig_remove", res.map(|_| None))? {
        return Ok(Some(run));
    }
    for record in tail.by_ref().take(2) {
        if !run.commit(record)? {
            return Ok(Some(run));
        }
    }
    for _ in 0..DRAIN_TICKS {
        if run.set.pending_reconfig().is_none() {
            run.remove_done = true;
            break;
        }
        run.set.tick();
    }
    // Tail traffic under the shrunk group.
    for record in tail {
        if !run.commit(record)? {
            break;
        }
    }
    Ok(Some(run))
}

/// Probes that a forged ack from the removed member id cannot move
/// the quorum watermark — "no quorum counted against a stale group".
fn probe_stale_ack(
    set: &ClusterSet,
    outcome: &mut MembershipSweepOutcome,
    what: &str,
) -> Result<(), String> {
    let Some(p) = set.primary() else {
        return Ok(());
    };
    let before = p.quorum_lsn();
    p.member_synced("m1", u64::MAX);
    if p.quorum_lsn() != before {
        return Err(format!(
            "{what}: a forged ack from removed `m1` moved the watermark \
             ({before} -> {})",
            p.quorum_lsn()
        ));
    }
    outcome.stale_acks_fenced += 1;
    Ok(())
}

/// After a crash-driven failover, completes whatever reconfiguration
/// was still in flight: a pending add must still promote the learner
/// under the new primary; a pending remove must still commit under
/// the shrunk group (probe commits push the watermark past it).
fn resume_reconfig(
    run: &mut ClusterRun,
    workload: &Workload,
    outcome: &mut MembershipSweepOutcome,
    what: &str,
) -> Result<(), String> {
    let Some(pending) = run.set.pending_reconfig().cloned() else {
        return Ok(());
    };
    if pending.add {
        if run.set.member(&pending.member).is_none() {
            return Err(format!("{what}: pending joiner vanished across failover"));
        }
        for _ in 0..DRAIN_TICKS {
            if run.set.pending_reconfig().is_none() {
                break;
            }
            run.set.tick();
        }
        if run.set.pending_reconfig().is_some() {
            return Err(format!(
                "{what}: in-flight add never completed after the failover"
            ));
        }
        run.promoted = true;
    } else {
        for _ in 0..8 {
            if run.set.pending_reconfig().is_none() {
                break;
            }
            run.commit(probe_record(workload))?;
        }
        if run.set.pending_reconfig().is_some() {
            return Err(format!(
                "{what}: in-flight remove never committed after the failover"
            ));
        }
        run.remove_done = true;
    }
    outcome.resumed_reconfigs += 1;
    Ok(())
}

/// Staged dual-primary scenario: an operator failover *while the add
/// is in flight* (learner unpromoted). The deposed primary must be
/// fenced and refuse a write; the winner must not be the learner; the
/// add must complete under the new primary.
fn reconfig_failover_scenario(
    base: &Path,
    workload: &Workload,
    outcome: &mut MembershipSweepOutcome,
) -> Result<(), String> {
    let what = "failover scenario";
    let mut run =
        run_membership(base, workload, Faults::on(Link::new()))?.expect("clean run has a set");
    // Re-issue a fresh add so a reconfiguration is in flight now: the
    // clean run completed both changes, so add a fourth member.
    let lsn = run
        .set
        .reconfig_add("m4", "local://m4", Io::plain())
        .map_err(|e| format!("{what}: add refused: {e}"))?;
    // A second change while this one is in flight must be refused with
    // the typed error.
    match run.set.reconfig_remove("m2") {
        Err(ReplicaError::Durable(DurableError::ReconfigInFlight { lsn: at, member })) => {
            if at != lsn || member != "m4" {
                return Err(format!(
                    "{what}: ReconfigInFlight names ({member}, {at}), expected (m4, {lsn})"
                ));
            }
        }
        other => {
            return Err(format!(
                "{what}: overlapping reconfig not refused ({other:?})"
            ))
        }
    }
    drop(run.set.kill_primary().expect("primary present"));
    let (winner, epoch) = run
        .set
        .elect()
        .map_err(|e| format!("{what}: election failed: {e}"))?;
    outcome.elections += 1;
    if winner == "m4" {
        return Err(format!("{what}: unpromoted learner won the election"));
    }
    run.check_acked(what)?;
    // Rejoin the deposed primary, then probe the dual-primary
    // invariant through a retired handle: a second operator failover
    // fences the *standing* primary.
    run.set
        .rejoin_member("primary")
        .map_err(|e| format!("{what}: rejoin failed: {e}"))?;
    resume_reconfig(&mut run, workload, outcome, what)?;
    let _ = run.set.run_ticks(8);
    let (_, epoch2) = run
        .set
        .elect()
        .map_err(|e| format!("{what}: second election failed: {e}"))?;
    outcome.elections += 1;
    if epoch2 <= epoch {
        return Err(format!("{what}: epoch did not advance"));
    }
    probe_fence(&run.set, workload, epoch2, what)?;
    outcome.fenced_refusals += 1;
    std::fs::remove_dir_all(base).ok();
    Ok(())
}

/// Sweeps every fault-injection point of a scripted **membership
/// change** (journaled add with learner catch-up, then a journaled
/// remove) and checks, at each point: **no quorum-acknowledged commit
/// is ever lost**, **no two primaries accept writes in the same
/// epoch**, **an unpromoted learner never wins an election**, and **no
/// quorum is ever counted against a stale group** (forged acks from
/// the removed id are fenced; an in-flight change survives failover
/// and completes under the new primary).
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster bug.
pub fn membership_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<MembershipSweepOutcome, String> {
    let workload = generate(seed, target_records);
    let mut outcome = MembershipSweepOutcome {
        records: workload.records,
        ..MembershipSweepOutcome::default()
    };

    // ---- Stage 0: fault-free membership run ------------------------
    let free_dir = base_dir.join("m-free");
    let free = run_membership(&free_dir, &workload, Faults::on(Link::new()))?;
    let mut free = free
        .filter(|run| !run.primary_crashed)
        .ok_or("fault-free membership run crashed")?;
    if !free.promoted || !free.remove_done {
        return Err(format!(
            "fault-free membership run: promoted={}, remove_done={}",
            free.promoted, free.remove_done
        ));
    }
    if free.set.group_size() != 3 {
        return Err(format!(
            "fault-free membership run: group size {} after add+remove, expected 3",
            free.set.group_size()
        ));
    }
    probe_stale_ack(&free.set, &mut outcome, "fault-free")?;
    free.check_acked("fault-free membership")?;
    let expect = primary_bytes(&free.set);
    converge(
        &mut free.set,
        &["m2", "m3"],
        &expect,
        "fault-free membership",
    )?;
    outcome.promotions += 1;
    outcome.removals += 1;
    let primary_points = free
        .set
        .primary()
        .expect("primary lives")
        .with_store(DurableTmd::io_ops);
    let link_points = free.link.crossings();
    drop(free);

    // ---- Stage A: crash the primary at every I/O primitive ---------
    let a_dir = base_dir.join("m-crash");
    for k in 0..primary_points {
        outcome.injection_points += 1;
        let what = format!("primary crash {k}");
        let faults = Faults {
            primary_io: Io::faulty(FaultPlan::crash_after(k, seed)),
            ..Faults::on(Link::new())
        };
        let Some(mut run) = run_membership(&a_dir, &workload, faults)? else {
            outcome.primary_crashes += 1;
            outcome.unpromotable += 1;
            continue;
        };
        if !run.primary_crashed {
            run.check_acked(&format!("{what} (no-fire)"))?;
            continue;
        }
        outcome.primary_crashes += 1;
        outcome.unreplicated_commits += run.unreplicated;
        let learner_standing = run.set.is_learner("m3");
        drop(run.set.kill_primary().expect("primary present before kill"));
        match run.set.elect() {
            Ok((winner, _epoch)) => {
                outcome.elections += 1;
                if learner_standing && winner == "m3" {
                    return Err(format!("{what}: unpromoted learner won the election"));
                }
                run.check_acked(&what)?;
                run.set
                    .rejoin_member("primary")
                    .map_err(|e| format!("{what}: rejoin failed: {e}"))?;
                resume_reconfig(&mut run, &workload, &mut outcome, &what)?;
                run.check_acked(&format!("{what} post-resume"))?;
            }
            Err(ReplicaError::NoQuorum { .. }) if run.acked.is_empty() => {
                outcome.unpromotable += 1;
            }
            Err(e) => {
                return Err(format!(
                    "{what}: election failed despite {} acked commits: {e}",
                    run.acked.len()
                ))
            }
        }
    }

    // ---- Stage B: partition the joiner / the removed member --------
    let b_dir = base_dir.join("m-partition");
    // Every link crossing, bounded to keep the sweep tractable: the
    // stride still lands points in every phase of the script.
    let stride = (link_points / 128).max(1) as usize;
    for j in (0..link_points).step_by(stride) {
        outcome.injection_points += 1;
        outcome.partitions += 1;
        let what = format!("member partition {j}");
        // Even strides: the *joiner* suffers a healing outage
        // mid-catch-up, and the snapshot transfer and promotion must
        // still complete. Odd strides: the member being *removed* is
        // cut permanently — removal must never need its cooperation,
        // and the group must re-route quorum through the surviving
        // voters.
        let heal = (j / stride as u64).is_multiple_of(2);
        let link = Link::new();
        if heal {
            link.cut(&["m3"], j, OUTAGE);
        } else {
            link.cut(&["m1"], j, u64::MAX);
        }
        let mut run = undisturbed(run_membership(&b_dir, &workload, Faults::on(link))?, &what)?;
        outcome.unreplicated_commits += run.unreplicated;
        if !run.promoted {
            return Err(if heal {
                format!("{what}: joiner never promoted after the outage healed")
            } else {
                format!("{what}: joiner never promoted with m1 cut")
            });
        }
        if !run.remove_done {
            return Err(if heal {
                format!("{what}: removal never completed")
            } else {
                format!("{what}: removing a partitioned member never completed")
            });
        }
        if !heal && run.set.member("m1").is_some() {
            return Err(format!("{what}: removed member still routed"));
        }
        run.check_acked(&what)?;
        probe_stale_ack(&run.set, &mut outcome, &what)?;
        let expect = primary_bytes(&run.set);
        converge(&mut run.set, &["m3"], &expect, &what)?;
        outcome.promotions += 1;
        outcome.removals += 1;
    }

    // ---- Staged scenario: failover mid-reconfiguration -------------
    reconfig_failover_scenario(&base_dir.join("m-failover"), &workload, &mut outcome)?;
    outcome.injection_points += 1;

    if outcome.fenced_refusals == 0 {
        return Err("no failover ever probed the dual-primary invariant".to_string());
    }
    if outcome.stale_acks_fenced == 0 {
        return Err("no run ever probed the stale-group fence".to_string());
    }
    if outcome.promotions == 0 || outcome.removals == 0 {
        return Err("the sweep never completed a reconfiguration".to_string());
    }

    std::fs::remove_dir_all(&free_dir).ok();
    std::fs::remove_dir_all(&a_dir).ok();
    std::fs::remove_dir_all(&b_dir).ok();
    Ok(outcome)
}
