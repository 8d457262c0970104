//! Cluster integration tests: replication to byte-identical members
//! (catch-up, snapshot bootstrap, crash/restart, divergence refusal),
//! quorum commit, deterministic election, fencing,
//! truncation-on-rejoin, read routing, the group's link over loopback
//! TCP, the pump's divergence gate, membership with a voter down, and
//! the full fault-injection sweeps.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mvolap_cluster::{
    cluster_sweep, cluster_sweep_net, membership_sweep, ClusterConfig, ClusterEvent, ClusterSet,
    ClusterSweepOutcome, Link, LocalCluster, MemberPump, MembershipSweepOutcome, PumpConfig,
    PumpShared, PumpState, PumpStep, PumpTracker, RejoinOutcome,
};
use mvolap_durable::fault::{generate, serialise};
use mvolap_durable::{
    CheckpointPolicy, DurableError, DurableTmd, FaultPlan, GroupCommit, GroupConfig, Io, Options,
    TailFrame, TimeSource, WalRecord,
};
use mvolap_replica::{
    FaultProxy, Follower, NetAddr, NetClient, NetConfig, ProxyFault, ReplicaError, ReplicaMsg,
    TailSource, WalTailer,
};
use mvolap_server::{quorum_figure, ServerError, ServerOptions};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_cluster_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options {
        segment_bytes: 2048,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

fn group_cfg() -> GroupConfig {
    GroupConfig {
        hold_ms: 0,
        time: TimeSource::manual(0),
    }
}

const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";

/// The reference query's full answer, for byte-for-byte comparison.
fn answer(tmd: &mvolap_core::Tmd) -> String {
    let versions = tmd.structure_versions();
    format!(
        "{:?}",
        mvolap_query::run_with_versions_par(
            tmd,
            &versions,
            QUERY,
            &mvolap_core::ExecContext::sequential(),
            &mvolap_core::QueryMemo::new(),
        )
        .unwrap()
    )
}

/// A three-node group (primary + m1 + m2) with `n` quorum-committed
/// records from the seeded workload, plus the remaining records of the
/// workload for later use.
fn three_nodes(dir: &Path, n: usize) -> (ClusterSet, Vec<WalRecord>) {
    three_nodes_over(dir, n, opts(), Link::new())
}

fn three_nodes_over(
    dir: &Path,
    n: usize,
    opts: Options,
    link: Link,
) -> (ClusterSet, Vec<WalRecord>) {
    let workload = generate(7, n + 4);
    let mut records = ops(&workload);
    let rest = records.split_off(n);
    let mut set = ClusterSet::bootstrap(
        dir,
        workload.seed_schema.clone(),
        opts,
        group_cfg(),
        ClusterConfig::default(),
        link,
        Io::plain(),
    )
    .expect("bootstrap");
    set.add_member("m1", Io::plain());
    set.add_member("m2", Io::plain());
    for r in records {
        set.commit_quorum(r).expect("quorum commit");
    }
    (set, rest)
}

/// Ticks until member `name` holds the primary's whole log, collecting
/// every event on the way.
fn drain(set: &mut ClusterSet, name: &str) -> Vec<ClusterEvent> {
    let mut events = Vec::new();
    for _ in 0..64 {
        let head = set.primary().expect("primary alive").wal_position();
        if set.member(name).expect("member exists").next_lsn() >= head {
            return events;
        }
        events.extend(set.tick());
    }
    panic!("member {name} failed to catch up; events: {events:?}");
}

/// Asserts member `name` is the primary's byte-identical twin: same
/// head, same schema bytes, same answer to the reference query.
fn assert_twin(set: &ClusterSet, name: &str) {
    let primary = set.primary().expect("primary alive");
    let member = set.member(name).expect("member exists");
    assert_eq!(member.next_lsn(), primary.wal_position());
    let schema = primary.with_store(|s| s.schema().clone());
    assert_eq!(
        serialise(member.schema().expect("bootstrapped")),
        serialise(&schema),
        "{name}: replayed schema must be byte-identical"
    );
    assert_eq!(answer(member.schema().unwrap()), answer(&schema));
}

#[test]
fn quorum_commit_advances_watermark_and_members() {
    let dir = tmp("watermark");
    let (set, _) = three_nodes(&dir, 5);
    let p = set.primary().expect("primary alive");
    let head = p.wal_position();
    assert!(
        p.quorum_lsn() >= head - 1,
        "watermark {} never caught head {head}",
        p.quorum_lsn()
    );
    // A majority acked every commit; with a link that loses nothing
    // *both* members end up at the head.
    for m in ["m1", "m2"] {
        assert!(
            set.member_synced(m) >= head - 1,
            "{m} synced only to {}",
            set.member_synced(m)
        );
    }
    assert_eq!(set.quorum_required(), 2);
    assert_eq!(set.group_size(), 3);
    // Members replayed the evolutions through the validated path into
    // a log that is byte-identical frame by frame, and answer the
    // reference query exactly as the primary does.
    let ours = p.with_store(|s| s.tail(1)).unwrap();
    for m in ["m1", "m2"] {
        assert_twin(&set, m);
        assert_eq!(set.member_synced(m), head);
        let theirs = set.member(m).unwrap().store().unwrap().tail(1).unwrap();
        assert_eq!(ours, theirs, "{m}: logs must match frame by frame");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A member joining after the primary pruned its log bootstraps from a
/// checkpoint snapshot served at the right LSN, then keeps up with
/// later writes.
#[test]
fn late_joiner_bootstraps_from_snapshot() {
    let dir = tmp("snapshot");
    let small_segments = Options {
        segment_bytes: 256,
        ..opts()
    };
    let (mut set, mut rest) = three_nodes_over(&dir, 8, small_segments, Link::new());
    set.checkpoint().unwrap();
    let oldest = set
        .primary()
        .unwrap()
        .with_store(|s| s.oldest_lsn())
        .unwrap();
    assert!(oldest > 1, "256-byte segments must have pruned");

    set.add_member("late", Io::plain());
    drain(&mut set, "late");
    let snapshots = set.tracker().status("late").map_or(0, |s| s.snapshots);
    assert!(snapshots >= 1, "{:?}", set.tracker().all());
    assert_twin(&set, "late");

    set.commit_quorum(rest.remove(0)).unwrap();
    drain(&mut set, "late");
    assert_twin(&set, "late");
    std::fs::remove_dir_all(&dir).ok();
}

/// A member that crashes mid-replication is detected, restarted from
/// its own durable state and reconverges exactly.
#[test]
fn crashed_member_restarts_and_reconverges() {
    let dir = tmp("mcrash");
    let (mut set, _) = three_nodes(&dir, 6);
    set.add_member("m3", Io::faulty(FaultPlan::crash_after(6, 0xC0FFEE)));

    let mut crashed = false;
    for _ in 0..64 {
        for ev in set.tick() {
            if matches!(&ev, ClusterEvent::MemberCrashed { node } if node == "m3") {
                crashed = true;
                assert!(set.member_crashed("m3"));
                set.restart_member("m3").unwrap();
            }
        }
        let head = set.primary().unwrap().wal_position();
        if crashed && set.member("m3").unwrap().next_lsn() >= head {
            break;
        }
    }
    assert!(crashed, "the injected fault must fire");
    assert!(!set.member_crashed("m3"));
    assert_twin(&set, "m3");
    std::fs::remove_dir_all(&dir).ok();
}

/// A frame whose CRC contradicts the member's own log at the same LSN
/// is a divergence: refused with the typed error, sticky, and fatal to
/// the member's candidacy.
#[test]
fn divergent_frame_is_refused_and_bars_the_member_from_election() {
    let dir = tmp("diverge");
    let (mut set, _) = three_nodes(&dir, 3);
    let epoch = set.epoch();
    let tail_from =
        |set: &ClusterSet, lsn: u64| set.primary().unwrap().with_store(|s| s.tail(lsn)).unwrap();

    // Forge a duplicate of LSN 2 with a different checksum — the claim
    // that some other history holds that position.
    let genuine = tail_from(&set, 2)[0].clone();
    let forged = TailFrame {
        lsn: 2,
        crc: genuine.crc ^ 0xDEAD_BEEF,
        payload: genuine.payload,
    };
    let frames = |frames| ReplicaMsg::Frames { epoch, frames };
    let handed = set.member("m2").unwrap().handle(frames(vec![forged]));
    assert!(handed.is_err(), "{handed:?}");
    let events = set.tick();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::MemberRefused { node, .. } if node == "m2")),
        "{events:?}"
    );
    assert!(set.member_refusing("m2"));
    match set.member("m2").unwrap().refusal_error() {
        Some(ReplicaError::Diverged { lsn, .. }) => assert_eq!(lsn, 2),
        other => panic!("expected Diverged, got {other:?}"),
    }
    // Sticky: even the genuine frame stream is refused now, and the
    // supervisor stops replicating to the member.
    let before = set.member("m2").unwrap().next_lsn();
    let genuine_again = frames(tail_from(&set, 2));
    let handed = set.member("m2").unwrap().handle(genuine_again);
    assert!(handed.is_err(), "{handed:?}");
    set.run_ticks(2);
    assert!(set.member("m2").unwrap().is_refusing());
    assert_eq!(set.member("m2").unwrap().next_lsn(), before);
    // m2 would win the election's name tie-break; refusing, it never
    // stands — and never votes.
    let (winner, _) = set.elect().expect("m1 plus the yielding primary");
    assert_eq!(winner, "m1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_without_reachable_members_is_unreplicated() {
    let dir = tmp("unreplicated");
    let workload = generate(3, 2);
    let record = workload.ops().next().cloned().unwrap();
    // Both members crash on their very first I/O primitive: they exist
    // but can never fsync, so no ack ever arrives and the commit must
    // surface the typed unreplicated error while staying locally
    // durable.
    let mut set = ClusterSet::bootstrap(
        &dir,
        workload.seed_schema,
        opts(),
        group_cfg(),
        ClusterConfig {
            commit_ticks: 4,
            ..ClusterConfig::default()
        },
        Link::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    set.add_member(
        "m1",
        Io::faulty(mvolap_durable::FaultPlan::crash_after(0, 1)),
    );
    set.add_member(
        "m2",
        Io::faulty(mvolap_durable::FaultPlan::crash_after(0, 1)),
    );
    match set.commit_quorum(record) {
        Err(ReplicaError::Durable(DurableError::Unreplicated { lsn, acked })) => {
            assert_eq!(acked, 1, "only the primary's own fsync counts");
            assert!(lsn >= 2);
        }
        other => panic!("expected Unreplicated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn election_is_deterministic_and_fences_the_deposed_primary() {
    let dir = tmp("election");
    let (mut set, rest) = three_nodes(&dir, 5);
    let epoch_before = set.epoch();
    let old = set.kill_primary().expect("primary present");
    drop(old);
    let (winner, epoch) = set.elect().expect("two live members elect");
    // Both members are at the same LSN, so the tie breaks on the
    // member id — deterministically the lexically greatest.
    assert_eq!(winner, "m2");
    assert!(epoch > epoch_before);
    assert_eq!(set.primary_name(), Some("m2"));
    assert_eq!(set.primary().expect("new primary").epoch(), epoch);
    // m2 left the member set; m1 remains.
    assert_eq!(set.member_names(), vec!["m1".to_string()]);
    // The group keeps committing at quorum (primary + m1 = 2 of 3).
    let mut rest = rest;
    let r = rest.remove(0);
    set.commit_quorum(r).expect("post-failover quorum commit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn operator_failover_fences_live_primary() {
    let dir = tmp("failover");
    let (mut set, mut rest) = three_nodes(&dir, 5);
    let before = set.primary().unwrap().with_store(|s| s.schema().clone());
    let warehouse = |tmd: &mvolap_core::Tmd| {
        mvolap_storage::persist::catalog_digest(
            &mvolap_core::logical::build_multiversion_warehouse(tmd).unwrap(),
        )
    };
    // Planned handover: the primary is alive and yields.
    let (winner, epoch) = set.elect().expect("operator failover");
    assert_eq!(winner, "m2");
    // The promoted member carries the deposed primary's exact state —
    // schema bytes, query answer, even the exported §5.1 warehouse
    // tables.
    let promoted = set.primary().unwrap();
    assert_eq!(promoted.epoch(), epoch);
    let after = promoted.with_store(|s| s.schema().clone());
    assert_eq!(serialise(&after), serialise(&before));
    assert_eq!(answer(&after), answer(&before));
    assert_eq!(warehouse(&after), warehouse(&before));
    // The deposed primary refuses every further write.
    let retired = set.retired().expect("deposed primary retained");
    assert!(retired.is_fenced());
    match retired.commit(rest.remove(0)) {
        Err(DurableError::Fenced { epoch: at }) => assert_eq!(at, epoch),
        other => panic!("deposed primary accepted a write: {other:?}"),
    }
    assert!(matches!(
        retired.checkpoint(),
        Err(DurableError::Fenced { .. })
    ));
    // The fence lives on the group commit itself: a session holding a
    // clone of the deposed primary's handle is refused, typed, too.
    let head = retired.wal_position();
    match retired.clone().commit(rest.remove(0)) {
        Err(DurableError::Fenced { epoch: at }) => assert_eq!(at, epoch),
        other => panic!("a clone of the deposed group journaled a write: {other:?}"),
    }
    assert_eq!(retired.wal_position(), head, "nothing journaled");
    // A member that joins under the new primary learns its epoch.
    set.add_member("m3", Io::plain());
    drain(&mut set, "m3");
    assert_eq!(set.member("m3").unwrap().epoch(), epoch);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejoin_truncates_unquorumed_suffix() {
    let dir = tmp("rejoin");
    let (mut set, mut rest) = three_nodes(&dir, 5);
    // Two more commits that never replicate: locally durable only.
    let first_lost = set.commit_local(rest.remove(0)).expect("local commit");
    set.commit_local(rest.remove(0)).expect("local commit");
    let old = set.kill_primary().expect("primary present");
    drop(old);
    let (winner, _) = set.elect().expect("election");
    assert_eq!(winner, "m2");
    // The deposed primary's log runs past the group's history; rejoin
    // must cut the un-quorum'd suffix at the divergence point.
    match set.rejoin_member("primary").expect("rejoin") {
        RejoinOutcome::Truncated { cut } => assert_eq!(cut, first_lost),
        other => panic!("expected truncation, got {other:?}"),
    }
    // And it now follows the new primary faithfully.
    let head = set.primary().expect("primary").wal_position();
    set.run_ticks(32);
    assert!(set.member("primary").expect("rejoined").next_lsn() >= head);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn election_without_any_member_state_is_refused() {
    let dir = tmp("noquorum");
    let workload = generate(11, 2);
    let mut set = ClusterSet::bootstrap(
        &dir,
        workload.seed_schema,
        opts(),
        group_cfg(),
        ClusterConfig::default(),
        Link::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    let old = set.kill_primary().expect("primary present");
    drop(old);
    match set.elect() {
        Err(ReplicaError::NoQuorum {
            votes, required, ..
        }) => {
            assert!(votes < required);
        }
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    assert!(set.primary().is_none(), "no primary may appear sans quorum");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_routing_picks_the_freshest_member() {
    let dir = tmp("routing");
    let (set, _) = three_nodes(&dir, 5);
    let head = set.primary().expect("primary").wal_position();
    // Both members are at the head; the router must satisfy a bound
    // just under it and break the tie deterministically.
    let chosen = set.route_read(head - 1).expect("a member qualifies");
    assert_eq!(chosen, "m2");
    // A bound beyond every member is unsatisfiable.
    assert!(set.route_read(head + 10).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// The quorum-envelope row the wire fuzz table cannot cover: an ack
/// claiming a *future* LSN decodes fine, so the refusal is semantic —
/// the pump must cap the claim at the primary's head so neither the
/// quorum watermark nor read routing ever points past records that
/// exist. Here m1 is handed two records ahead of the primary, so the
/// ack it returns for the next envelope claims one record the primary
/// never wrote.
#[test]
fn forged_future_lsn_ack_never_advances_the_watermark() {
    let dir = tmp("forged_ack");
    let (mut set, rest) = three_nodes(&dir, 4);
    let epoch = set.epoch();
    let ahead = set.primary().expect("primary").wal_position();
    let frames: Vec<TailFrame> = (rest.iter().take(2).zip(ahead..))
        .map(|(record, lsn)| {
            let payload = record.encode();
            let crc = mvolap_durable::checksum::crc32(&payload);
            TailFrame { lsn, crc, payload }
        })
        .collect();
    let handed = set
        .member("m1")
        .unwrap()
        .handle(ReplicaMsg::Frames { epoch, frames });
    assert!(handed.is_ok(), "{handed:?}");
    assert_eq!(set.member("m1").unwrap().next_lsn(), ahead + 2);
    // The primary writes the first of them: its pump ships that frame,
    // m1 finds it a matching duplicate and acks everything it holds.
    set.commit_local(rest[0].clone()).unwrap();
    set.run_ticks(4);
    let p = set.primary().expect("primary");
    let head = p.wal_position();
    assert_eq!(head, ahead + 1);
    assert!(
        p.quorum_lsn() <= p.wal_position(),
        "forged ack pushed the watermark past the head"
    );
    assert!(
        set.member_synced("m1") <= head,
        "forged ack inflated m1's position to {}",
        set.member_synced("m1")
    );
    assert!(
        set.route_read(head + 100).is_none(),
        "read routed to a position nobody holds"
    );
    // An ack from a *future epoch* never moves a position: the member
    // that learnt a newer epoch refuses the next envelope, and the pump
    // takes that as proof the primary is deposed.
    set.member("m1")
        .unwrap()
        .handle(ReplicaMsg::Fence { epoch: epoch + 10 })
        .unwrap();
    set.commit_local(rest[1].clone()).unwrap();
    set.run_ticks(4);
    assert!(set.member_synced("m1") <= head);
    assert!(set.primary().expect("primary").is_fenced());
    std::fs::remove_dir_all(&dir).ok();
}

/// A served group of `n` members and the primary commits on a strict
/// majority of `n + 1` votes; the shell's banner and the primary's
/// `SHOW STATUS` print that figure.
#[test]
fn served_cluster_quorum_figure_is_a_majority_of_members_and_primary() {
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    for (n, expected) in [(1, "2/2"), (2, "2/3"), (3, "3/4")] {
        let dir = tmp(&format!("quorum_figure_{n}"));
        let members: Vec<_> = (1..=n)
            .map(|i| (format!("m{i}"), loopback.clone()))
            .collect();
        let mut cluster = LocalCluster::start(
            &dir,
            mvolap_core::case_study::case_study().tmd,
            &loopback,
            &members,
            opts(),
            GroupConfig::default(),
            ServerOptions {
                workers: 1,
                ..ServerOptions::default()
            },
            NetConfig::default(),
        )
        .expect("cluster starts");
        assert_eq!(quorum_figure(&cluster.group()), expected, "{n} members");
        let status = cluster.client(NetConfig::default()).query("SHOW STATUS");
        let status = status.expect("the primary answers SHOW STATUS");
        assert!(
            status.contains(&format!("  quorum: {expected}\n")),
            "{status}"
        );
        cluster.stop();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The served three-node loopback group: quorum-gated commits over the
/// wire, fleet read routing with the member named in refusals.
#[test]
fn served_cluster_quorums_commits_and_routes_reads() {
    let dir = tmp("served");
    let workload = generate(5, 3);
    let records = ops(&workload);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        GroupConfig::default(),
        ServerOptions {
            quorum_timeout_ms: 300,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");

    // 1. Before the pumps are spawned, a commit is locally durable
    //    but the quorum never forms: typed unreplicated refusal.
    let mut client = cluster.client(NetConfig::default());
    match client.commit(&records[0]) {
        Err(ServerError::Unreplicated { acked, .. }) => {
            assert_eq!(acked, 1, "only the primary acked");
        }
        other => panic!("expected Unreplicated, got {other:?}"),
    }

    // 2. Hand replication to the pump threads: the same commit path
    //    clears the quorum with nobody driving a loop.
    cluster.spawn_pumps(PumpConfig::default());
    let group = cluster.group();
    let lsn = client.commit(&records[1]).expect("quorum commit over wire");
    assert!(group.quorum_lsn() > lsn);
    for (name, status) in cluster.pump_status() {
        assert!(
            !matches!(
                status.state,
                PumpState::Stalled { .. } | PumpState::Fenced { .. }
            ),
            "pump for {name} unhealthy: {:?}",
            status.state
        );
    }

    // 3. Fleet read routing: a bound at the committed LSN is served
    //    by a member (freshness advanced by the pump threads alone);
    //    an unsatisfiable bound is refused naming the freshest member
    //    consulted.
    let out = client.read_at(lsn, "SELECT sum(Amount) BY year IN MODE tcm");
    let table = out.expect("fleet read served");
    assert!(!table.is_empty());
    match client.read_at(lsn + 100, "SELECT sum(Amount) BY year IN MODE tcm") {
        Err(ServerError::TooStale {
            required, member, ..
        }) => {
            assert_eq!(required, lsn + 100);
            let who = member.expect("fleet refusal names the member");
            assert!(who == "m1" || who == "m2", "unexpected member {who}");
        }
        other => panic!("expected TooStale with member, got {other:?}"),
    }
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the plain ops of a generated workload.
fn ops(workload: &mvolap_durable::fault::Workload) -> Vec<WalRecord> {
    workload.ops().cloned().collect()
}

/// Drives a pump until it reports Idle, panicking on anything other
/// than progress/blocked along the way.
fn drive_to_idle(pump: &mut MemberPump) {
    for _ in 0..200 {
        match pump.step() {
            PumpStep::Idle => return,
            PumpStep::Progress { .. } | PumpStep::Blocked { .. } => {}
            other => panic!("pump for {} derailed: {other:?}", pump.member()),
        }
    }
    panic!("pump for {} never converged", pump.member());
}

/// Backpressure: a member that stops acking caps the primary's
/// in-flight window — bounded queue, typed `Blocked` state in the
/// tracker, no further fetches — and the pump recovers cleanly when
/// the member heals. A member whose store crashes is typed `Stalled`
/// with every retry gated by the manual clock. Fully deterministic:
/// the engine is stepped directly, no threads.
#[test]
fn pump_backpressure_caps_window_and_recovers_on_heal() {
    let dir = tmp("backpressure");
    let workload = generate(9, 16);
    let records = ops(&workload);
    assert!(records.len() >= 12);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(2);
    let follower = Arc::new(Mutex::new(Follower::create(
        "m1",
        dir.join("m1"),
        opts(),
        Io::plain(),
    )));
    let time = TimeSource::manual(0);
    let cfg = PumpConfig {
        max_batch_frames: 2,
        max_inflight_frames: 4,
        max_inflight_bytes: 1 << 16,
        snap_chunk_bytes: 64 << 10,
        idle_wait_ms: 1,
        retry_wait_ms: 30,
        time: time.clone(),
    };
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let mut pump = MemberPump::new(
        shared.clone(),
        "m1",
        follower.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );

    for r in records.iter().take(12) {
        commit.commit(r.clone()).unwrap();
    }
    let head = commit.synced_lsn();

    // The first step fills the whole window into one envelope: 4
    // frames (2 per inner message) of the 12+ available.
    match pump.step() {
        PumpStep::Progress { shipped, acked } => {
            assert_eq!(shipped, 4, "window cap bounds the first ship");
            assert_eq!(acked, 0);
        }
        other => panic!("expected Progress, got {other:?}"),
    }

    // Wedge the member — a long-running read holds its lock, so it
    // stops acking. The window must not grow past its cap no matter
    // how often the pump steps.
    {
        let _wedge = follower.lock().unwrap();
        for _ in 0..5 {
            match pump.step() {
                PumpStep::Blocked { inflight } => assert_eq!(inflight, 4),
                other => panic!("expected Blocked, got {other:?}"),
            }
        }
        let st = tracker.status("m1").unwrap();
        assert_eq!(st.state, PumpState::Blocked);
        assert_eq!(st.inflight_frames, 4, "bounded in-flight queue");
        assert_eq!(st.requests, 1, "nothing further fetched while blocked");
        assert_eq!(st.replies, 0, "wedged member never acked");
    }

    // Healed: delivery drains the window, acks flow, the 2-of-2
    // quorum watermark passes the head.
    drive_to_idle(&mut pump);
    assert_eq!(commit.quorum_lsn(), head, "member acks formed the quorum");
    let st = tracker.status("m1").unwrap();
    assert_eq!(st.state, PumpState::Idle);
    assert_eq!(st.acked_lsn, head);
    assert_eq!(st.inflight_frames, 0);
    assert_eq!(st.shipped_frames, head - 1, "whole log shipped");
    assert!(
        st.requests < st.shipped_frames,
        "batching: fewer envelopes than frames"
    );

    // A member whose store crashes on its first I/O primitive is
    // typed Stalled; the manual clock gates every retry.
    let sick = Arc::new(Mutex::new(Follower::create(
        "m2",
        dir.join("m2"),
        opts(),
        Io::faulty(FaultPlan::crash_after(0, 1)),
    )));
    let mut sick_pump = MemberPump::new(
        shared.clone(),
        "m2",
        sick,
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    assert!(matches!(sick_pump.step(), PumpStep::Progress { .. }));
    match sick_pump.step() {
        PumpStep::Stalled { reason, crash } => assert!(!reason.is_empty() && crash, "{reason}"),
        other => panic!("expected Stalled, got {other:?}"),
    }
    let st = tracker.status("m2").unwrap();
    assert!(matches!(st.state, PumpState::Stalled { .. }));
    assert_eq!(st.stalls, 1);
    assert_eq!(st.inflight_frames, 0, "stall drops the window");
    // Inside the backoff window nothing moves — the manual clock
    // gates the retry. Past it the pump re-derives the member's
    // position and ships again; the crash plan was consumed by the
    // failed bootstrap, so the healed member now catches all the way
    // up.
    assert_eq!(sick_pump.step(), PumpStep::Backoff);
    time.advance(30);
    assert!(matches!(sick_pump.step(), PumpStep::Progress { .. }));
    drive_to_idle(&mut sick_pump);
    let st = tracker.status("m2").unwrap();
    assert_eq!(st.state, PumpState::Idle);
    assert_eq!(st.acked_lsn, head, "healed member caught up");
    assert_eq!(st.stalls, 1);
    assert_eq!(commit.quorum_lsn(), head);
    std::fs::remove_dir_all(&dir).ok();
}

/// Election interaction: a pump with an envelope mid-flight when its
/// primary is fenced stops shipping and drops the window; a member
/// that learned the new epoch refuses stale-epoch frames; and the new
/// primary's pumps (stamped with the higher epoch) take over shipping
/// to the surviving members.
#[test]
fn fenced_pump_stops_shipping_and_new_primary_pumps_take_over() {
    let dir = tmp("pumpfence");
    let workload = generate(11, 10);
    let records = ops(&workload);
    assert!(records.len() >= 7);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(3);
    let m1 = Arc::new(Mutex::new(Follower::create(
        "m1",
        dir.join("m1"),
        opts(),
        Io::plain(),
    )));
    let m2 = Arc::new(Mutex::new(Follower::create(
        "m2",
        dir.join("m2"),
        opts(),
        Io::plain(),
    )));
    let cfg = PumpConfig {
        max_batch_frames: 4,
        idle_wait_ms: 1,
        retry_wait_ms: 10,
        time: TimeSource::manual(0),
        ..PumpConfig::default()
    };
    commit.adopt_epoch(1);
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let mut p1 = MemberPump::new(
        shared.clone(),
        "m1",
        m1.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );
    let mut p2 = MemberPump::new(
        shared.clone(),
        "m2",
        m2.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );

    // Steady state: 4 quorum-covered records on both members.
    for r in records.iter().take(4) {
        commit.commit(r.clone()).unwrap();
    }
    drive_to_idle(&mut p1);
    drive_to_idle(&mut p2);
    let h = commit.synced_lsn();
    assert_eq!(commit.quorum_lsn(), h);

    // Two more records land; m1 wedges with the envelope mid-flight
    // (shipped, not yet delivered).
    for r in records.iter().skip(4).take(2) {
        commit.commit(r.clone()).unwrap();
    }
    let wedge = m1.lock().unwrap();
    match p1.step() {
        PumpStep::Progress { shipped, acked } => {
            assert_eq!(shipped, 2);
            assert_eq!(acked, 0, "wedged member took nothing yet");
        }
        other => panic!("expected Progress, got {other:?}"),
    }

    // An election deposes this primary. Both pumps observe the fence
    // on their next step, drop their windows, and ship nothing more —
    // ever; and the primary's own handle refuses commits, typed.
    commit.fence(2);
    assert_eq!(p1.step(), PumpStep::Fenced { epoch: 2 });
    assert_eq!(p2.step(), PumpStep::Fenced { epoch: 2 });
    let head = commit.wal_position();
    match commit.commit(records[6].clone()) {
        Err(DurableError::Fenced { epoch }) => assert_eq!(epoch, 2),
        other => panic!("the deposed primary journaled a write: {other:?}"),
    }
    assert_eq!(commit.wal_position(), head, "nothing journaled");
    let requests_at_fence = tracker.status("m1").unwrap().requests;
    assert_eq!(tracker.status("m1").unwrap().inflight_frames, 0);
    drop(wedge);
    assert_eq!(p1.step(), PumpStep::Fenced { epoch: 2 });
    assert_eq!(
        tracker.status("m1").unwrap().requests,
        requests_at_fence,
        "a fenced pump ships nothing, even after the member heals"
    );

    // The member side is independently safe: once m1 learns the new
    // epoch, stale-epoch frames are refused outright — applied LSN
    // unmoved.
    {
        let mut f = m1.lock().unwrap();
        f.handle(ReplicaMsg::Fence { epoch: 2 }).unwrap();
        let before = f.next_lsn();
        let stale = match WalTailer::new(&primary_dir)
            .fetch_budget(before, u64::MAX, 8, usize::MAX)
            .unwrap()
        {
            TailSource::Frames(frames) => frames,
            other => panic!("expected frames, got {other:?}"),
        };
        assert!(!stale.is_empty(), "the deposed primary has a suffix");
        match f.handle(ReplicaMsg::Frames {
            epoch: 1,
            frames: stale,
        }) {
            Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 2),
            other => panic!("expected Fenced, got {other:?}"),
        }
        assert_eq!(f.next_lsn(), before, "no stale-epoch frame applied");
    }

    // m2 — at the full quorum-acked history — is promoted. Its pumps,
    // stamped with epoch 2, take over shipping to m1.
    drop(p2);
    let promoted = Arc::try_unwrap(m2)
        .expect("sole handle")
        .into_inner()
        .unwrap();
    let new_store = promoted.into_primary_store().expect("promotable");
    let new_commit = GroupCommit::new(new_store, group_cfg());
    new_commit.configure_quorum(3);
    new_commit.adopt_epoch(2);
    let new_shared = PumpShared::new(new_commit.clone());
    let takeover = PumpTracker::new();
    let mut np1 = MemberPump::new(
        new_shared,
        "m1",
        m1.clone(),
        &dir.join("m2"),
        cfg,
        takeover.clone(),
    );
    let r = records[6].clone();
    new_commit.commit(r).unwrap();
    drive_to_idle(&mut np1);
    let new_head = new_commit.synced_lsn();
    assert_eq!(
        m1.lock().unwrap().next_lsn(),
        new_head,
        "the new primary's pump caught m1 up"
    );
    assert_eq!(
        new_commit.quorum_lsn(),
        new_head,
        "primary + m1 = 2 of 3: quorum commits resumed at epoch 2"
    );
    assert_eq!(takeover.status("m1").unwrap().acked_lsn, new_head);
    std::fs::remove_dir_all(&dir).ok();
}

/// A member that reports a newer epoch deposes the whole primary, not
/// just the pump that heard it: the group is fenced, so every other
/// pump of that primary stops too and the primary refuses commits.
#[test]
fn member_reported_newer_epoch_stops_every_pump_of_the_primary() {
    let dir = tmp("pumplearn");
    let workload = generate(13, 8);
    let records = ops(&workload);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(3);
    commit.adopt_epoch(1);
    let member = |name: &str| {
        Arc::new(Mutex::new(Follower::create(
            name,
            dir.join(name),
            opts(),
            Io::plain(),
        )))
    };
    let (m1, m2) = (member("m1"), member("m2"));
    let cfg = PumpConfig {
        time: TimeSource::manual(0),
        ..PumpConfig::default()
    };
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let mut p1 = MemberPump::new(
        shared.clone(),
        "m1",
        m1.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );
    let mut p2 = MemberPump::new(shared, "m2", m2, &primary_dir, cfg, tracker.clone());
    commit.commit(records[0].clone()).unwrap();
    drive_to_idle(&mut p1);
    drive_to_idle(&mut p2);

    // m1 learns of epoch 2 elsewhere; the next envelope it is handed
    // carries the old epoch and is refused.
    m1.lock()
        .unwrap()
        .handle(ReplicaMsg::Fence { epoch: 2 })
        .unwrap();
    commit.commit(records[1].clone()).unwrap();
    assert!(matches!(p1.step(), PumpStep::Progress { shipped: 1, .. }));
    assert_eq!(p1.step(), PumpStep::Fenced { epoch: 2 });

    // The whole primary is deposed: m2's pump — which never heard
    // from m1 — ships nothing, and the primary refuses commits.
    assert!(commit.is_fenced());
    let requests = tracker.status("m2").unwrap().requests;
    commit
        .commit(records[2].clone())
        .expect_err("a deposed primary journals nothing");
    assert_eq!(p2.step(), PumpStep::Fenced { epoch: 2 });
    assert_eq!(tracker.status("m2").unwrap().requests, requests);
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole guarantee: the full fault sweep. Debug builds run a
/// smaller workload (the release CI job runs the big one); every
/// outcome field is pinned at both sizes.
#[test]
fn cluster_sweep_holds_every_invariant() {
    let records = if cfg!(debug_assertions) { 6 } else { 45 };
    let dir = tmp("sweep");
    let outcome = cluster_sweep(&dir, 0xC1u64, records).expect("sweep invariants hold");
    let floor = if cfg!(debug_assertions) { 60 } else { 200 };
    assert!(
        outcome.injection_points >= floor,
        "sweep too small: {} points (floor {floor})",
        outcome.injection_points
    );
    assert!(outcome.primary_crashes > 0, "no primary crash exercised");
    assert!(outcome.member_crashes > 0, "no member crash exercised");
    assert!(outcome.partitions > 0, "no partition exercised");
    assert!(outcome.healed_outages > 0, "no outage healed");
    assert!(outcome.elections > 0, "no election ran");
    assert!(outcome.fenced_refusals > 0, "dual-primary probe never ran");
    assert!(
        outcome.truncated_rejoins + outcome.rebuilt_rejoins + outcome.clean_rejoins > 0,
        "no rejoin exercised"
    );
    assert_eq!(outcome.divergence_refusals, 3, "{outcome:?}");
    let expected = if cfg!(debug_assertions) {
        ClusterSweepOutcome {
            injection_points: 64,
            primary_crashes: 20,
            member_crashes: 20,
            partitions: 24,
            healed_outages: 12,
            elections: 23,
            failed_elections: 1,
            fenced_refusals: 12,
            truncated_rejoins: 6,
            rebuilt_rejoins: 0,
            clean_rejoins: 16,
            unpromotable: 10,
            unreplicated_commits: 0,
            divergence_refusals: 3,
            records: 6,
        }
    } else {
        ClusterSweepOutcome {
            injection_points: 395,
            primary_crashes: 112,
            member_crashes: 103,
            partitions: 180,
            healed_outages: 90,
            elections: 193,
            failed_elections: 1,
            fenced_refusals: 90,
            truncated_rejoins: 45,
            rebuilt_rejoins: 0,
            clean_rejoins: 147,
            unpromotable: 10,
            unreplicated_commits: 0,
            divergence_refusals: 3,
            records: 45,
        }
    };
    assert_eq!(outcome, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The whole group supervises over a socket link: every envelope and
/// every ack crosses a loopback socket through a [`FaultProxy`] that
/// never faults, under the unchanged tick loop.
#[test]
fn net_cluster_set_supervises_over_tcp_transport() {
    let dir = tmp("tcp_set");
    let proxy = FaultProxy::spawn(FaultPlan::crash_after(0, 1), 0, ProxyFault::Drop).unwrap();
    let link = Link::via(NetClient::connect(
        proxy.addr().clone(),
        NetConfig::default(),
    ));
    let (mut set, mut rest) = three_nodes_over(&dir, 4, opts(), link.clone());
    set.commit_local(rest.remove(0)).unwrap();
    drain(&mut set, "m1");
    drain(&mut set, "m2");
    let head = set.primary().unwrap().wal_position();
    for m in ["m1", "m2"] {
        assert_twin(&set, m);
        assert_eq!(
            set.member_synced(m),
            head,
            "the ack travelled over the wire"
        );
    }
    assert_eq!(set.primary().unwrap().quorum_lsn(), head);
    assert!(link.crossings() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The partition class over loopback TCP: *socket* faults — dropped
/// and stalled connections injected by the byte-level proxy — at every
/// link exchange. Debug builds sweep a smaller workload: same legs,
/// same invariants, fewer points.
#[test]
fn net_cluster_sweep_holds_over_loopback_tcp() {
    let (records, floor) = if cfg!(debug_assertions) {
        (16, 60)
    } else {
        (100, 400)
    };
    let dir = tmp("net-sweep");
    let outcome = cluster_sweep_net(&dir, 0xFA11_0FE8, records).expect("net sweep invariants");
    assert!(
        outcome.injection_points >= floor,
        "need a real sweep, got {outcome:?}"
    );
    assert!(outcome.healed_outages > 0, "{outcome:?}");
    assert!(outcome.unreplicated_commits > 0, "{outcome:?}");
    assert!(outcome.failed_elections > 0, "{outcome:?}");
    // Only the point count is pinned: the unreplicated and
    // failed-election tallies depend on socket timeouts.
    let points = if cfg!(debug_assertions) { 64 } else { 400 };
    assert_eq!(outcome.injection_points, points, "{outcome:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The membership sweep: crash the primary at every I/O primitive and
/// partition the joiner / the removed member during a journaled
/// reconfiguration. Debug builds run a smaller workload (the release
/// CI job runs the big one and asserts the ≥200-point floor); every
/// outcome field is pinned at both sizes.
#[test]
fn membership_sweep_holds_every_invariant() {
    let records = if cfg!(debug_assertions) { 6 } else { 45 };
    let dir = tmp("membership-sweep");
    let outcome = membership_sweep(&dir, 0xA11u64, records).expect("membership invariants");
    let floor = if cfg!(debug_assertions) { 60 } else { 200 };
    assert!(
        outcome.injection_points >= floor,
        "membership sweep too small: {} points (floor {floor})",
        outcome.injection_points
    );
    assert!(outcome.primary_crashes > 0, "no mid-reconfig crash");
    assert!(outcome.partitions > 0, "no joiner/removed partition");
    assert!(outcome.promotions > 0, "no learner promotion observed");
    assert!(outcome.removals > 0, "no journaled removal completed");
    assert!(outcome.elections > 0, "no election during reconfiguration");
    assert!(outcome.fenced_refusals > 0, "dual-primary probe never ran");
    assert!(outcome.stale_acks_fenced > 0, "stale-group probe never ran");
    assert!(
        outcome.resumed_reconfigs > 0,
        "no in-flight reconfiguration survived a failover"
    );
    let expected = if cfg!(debug_assertions) {
        MembershipSweepOutcome {
            injection_points: 60,
            primary_crashes: 31,
            partitions: 28,
            promotions: 29,
            removals: 29,
            elections: 23,
            fenced_refusals: 1,
            stale_acks_fenced: 29,
            resumed_reconfigs: 5,
            unpromotable: 10,
            unreplicated_commits: 0,
            records: 6,
        }
    } else {
        MembershipSweepOutcome {
            injection_points: 303,
            primary_crashes: 116,
            partitions: 186,
            promotions: 187,
            removals: 187,
            elections: 108,
            fenced_refusals: 1,
            stale_acks_fenced: 187,
            resumed_reconfigs: 7,
            unpromotable: 10,
            unreplicated_commits: 0,
            records: 45,
        }
    };
    assert_eq!(outcome, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// A joiner that crashes mid-snapshot resumes from its last fsynced
/// chunk, not from zero: the spill file survives the crash, the
/// reopened follower reports how many chunks of the same image it
/// already holds, and a fresh pump ships only the remainder.
#[test]
fn joiner_crash_mid_snapshot_resumes_from_last_chunk() {
    let dir = tmp("snapresume");
    let workload = generate(17, 10);
    let records = ops(&workload);
    let primary_dir = dir.join("primary");
    // Tiny segments: the workload seals several, so the checkpoint
    // prunes the WAL below LSN 1 and the joiner can only bootstrap
    // via the snapshot path.
    let small_segments = Options {
        segment_bytes: 256,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    };
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        small_segments,
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(2);
    for r in &records {
        commit.commit(r.clone()).unwrap();
    }
    commit.checkpoint().expect("checkpoint");
    let oldest = commit.with_store(|s| s.oldest_lsn()).expect("oldest");
    assert!(
        oldest > 1,
        "sealed segments must have pruned, oldest={oldest}"
    );
    let head = commit.wal_position();
    let mut image = Vec::new();
    mvolap_core::persist::write_tmd(&commit.with_store(|s| s.schema().clone()), &mut image)
        .unwrap();
    let total = (image.len() as u64).div_ceil(64);
    assert!(total >= 3, "image too small to interrupt ({total} chunks)");

    // Tiny chunks and a tight in-flight window: one packing round
    // ships only a prefix of the image.
    let cfg = PumpConfig {
        max_batch_frames: 2,
        max_inflight_frames: 4,
        max_inflight_bytes: 128,
        snap_chunk_bytes: 64,
        idle_wait_ms: 1,
        retry_wait_ms: 30,
        time: TimeSource::manual(0),
    };
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let joiner_dir = dir.join("joiner");
    let follower = Arc::new(Mutex::new(Follower::create(
        "joiner",
        joiner_dir.clone(),
        opts(),
        Io::plain(),
    )));
    let mut pump = MemberPump::new(
        shared.clone(),
        "joiner",
        follower.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );
    assert!(
        matches!(pump.step(), PumpStep::Progress { .. }),
        "first round ships the image prefix"
    );
    // The envelope packed above delivers on the NEXT step — the
    // window is request/reply pipelined — so take one more turn to
    // land a chunk prefix in the joiner's durable spill.
    assert!(
        matches!(pump.step(), PumpStep::Progress { .. }),
        "second round delivers the prefix to the member"
    );

    // Crash: the pump dies with its member; only the disk survives.
    drop(pump);
    drop(follower);

    let reopened = Follower::open("joiner", joiner_dir, opts(), Io::plain()).expect("reopen");
    let received = reopened.snap_resume(head, total, image.len() as u64);
    assert!(
        received > 0 && received < total,
        "expected a partial assembly to survive the crash, got {received}/{total}"
    );

    // A fresh pump resumes the transfer mid-image and finishes it.
    let follower = Arc::new(Mutex::new(reopened));
    let mut pump = MemberPump::new(
        shared,
        "joiner",
        follower.clone(),
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    drive_to_idle(&mut pump);
    let f = follower.lock().unwrap();
    assert_eq!(f.next_lsn(), head, "joiner caught up to the head");
    let st = tracker.status("joiner").unwrap();
    assert_eq!(st.snapshots, 1, "exactly one completed snapshot bootstrap");
    assert_eq!(
        commit.quorum_lsn(),
        head,
        "the caught-up joiner's acks formed the quorum"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Live membership on the served group: a join bootstraps the learner
/// through the pump's chunked snapshot and promotes it only at the
/// quorum watermark; overlapping and duplicate changes are typed
/// refusals; and removing the *freshest* member immediately re-routes
/// bounded reads to the next-freshest — no spurious `stale` refusal.
#[test]
fn live_join_and_leave_reconfigure_the_served_group() {
    let dir = tmp("livejoin");
    let workload = generate(13, 8);
    let records = ops(&workload);
    assert!(records.len() >= 5);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        // Tiny segments so the pre-join checkpoint genuinely prunes
        // the tail — the joiner must take the snapshot path.
        Options {
            segment_bytes: 128,
            policy: CheckpointPolicy::manual(),
            prune_on_checkpoint: true,
        },
        GroupConfig::default(),
        ServerOptions {
            quorum_timeout_ms: 2_000,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");
    cluster.spawn_pumps(PumpConfig {
        snap_chunk_bytes: 64,
        ..PumpConfig::default()
    });
    let mut client = cluster.client(NetConfig::default());
    for r in records.iter().take(3) {
        client.commit(r).expect("quorum commit");
    }
    // Prune the tail so the joiner must bootstrap via the pump's
    // chunked snapshot, not a frame replay from LSN 1.
    cluster.group().checkpoint().expect("checkpoint");
    let oldest = cluster
        .group()
        .with_store(|s| s.oldest_lsn())
        .expect("oldest");
    assert!(
        oldest > 1,
        "sealed segments must have pruned, oldest={oldest}"
    );

    // A duplicate add for an existing member id is a typed refusal.
    match cluster.join("m1", &loopback) {
        Err(ServerError::Commit(m)) => assert!(m.contains("already a member"), "{m}"),
        other => panic!("duplicate join accepted: {other:?}"),
    }

    // A joiner that cannot bind is refused before anything is
    // journaled: no change is left in flight.
    let taken = cluster.primary_addr().clone();
    match cluster.join("m3", &taken) {
        Err(ServerError::Transport(_)) => assert!(cluster.reconfig_pending().is_none()),
        other => panic!("join on a bound address accepted: {other:?}"),
    }

    let join_lsn = cluster.join("m3", &loopback).expect("join journaled");
    // A second change while this one is in flight is refused with the
    // typed in-flight error.
    match cluster.join("m4", &loopback) {
        Err(ServerError::Commit(m)) => {
            assert!(m.contains("reconfiguration is already in flight"), "{m}")
        }
        other => panic!("overlapping join accepted: {other:?}"),
    }
    let promoted = cluster
        .await_membership(std::time::Duration::from_secs(20))
        .expect("joiner catches up and is promoted");
    assert_eq!(promoted, "m3");
    assert!(
        cluster.membership().iter().any(|(n, l)| n == "m3" && !l),
        "m3 is a voter after catch-up"
    );
    let snap_bootstraps = cluster
        .pump_status()
        .iter()
        .find(|(n, _)| n == "m3")
        .map_or(0, |(_, st)| st.snapshots);
    assert!(
        snap_bootstraps >= 1,
        "the joiner bootstrapped via the pump-shipped snapshot"
    );
    assert!(
        cluster.group().quorum_lsn() > join_lsn,
        "the reconfig record itself is quorum-committed"
    );

    // Commit with the grown group, then drop the freshest member —
    // the read must re-route to the next-freshest immediately.
    let lsn = client
        .commit(&records[3])
        .expect("commit under 4-node group");
    let query = "SELECT sum(Amount) BY year IN MODE tcm";
    client.read_at(lsn, query).expect("bounded read pre-remove");
    cluster.leave("m3").expect("leave journaled");
    cluster
        .await_membership(std::time::Duration::from_secs(20))
        .expect("remove quorum-commits under the shrunk group");
    client
        .read_at(lsn, query)
        .expect("read re-routed to the next-freshest member, not refused");
    // The shrunk group still quorums: primary + m1 + m2, majority 2.
    client
        .commit(&records[4])
        .expect("commit under shrunk group");

    // Removing a non-member is a typed refusal.
    match cluster.leave("m3") {
        Err(ServerError::Commit(m)) => assert!(m.contains("not a member"), "{m}"),
        other => panic!("double leave accepted: {other:?}"),
    }
    cluster.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A joiner that has synced past its own reconfig record is still a
/// learner until that record commits. Its own ack counts toward the
/// record, so the primary, one old voter and the joiner (3 of 4) commit
/// it. Acks are fed by hand (no pumps), so the old voters can be held
/// below the record while the joiner runs ahead.
#[test]
fn joiner_is_promoted_only_after_its_reconfig_record_commits() {
    let dir = tmp("joinorder");
    let workload = generate(13, 8);
    let records = ops(&workload);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        group_cfg(),
        ServerOptions::default(),
        NetConfig::default(),
    )
    .expect("cluster starts");
    let group = cluster.group();
    let before = group.commit(records[0].clone()).expect("journaled");
    for voter in ["m1", "m2"] {
        group.member_synced(voter, before + 1);
    }
    assert!(group.quorum_lsn() > before);

    let join_lsn = cluster.join("m3", &loopback).expect("join journaled");
    // The joiner has every record; the old voters have not acked the
    // reconfig record, so it is not yet committed.
    group.member_synced("m3", join_lsn + 1);
    assert!(group.quorum_lsn() <= join_lsn);
    assert_eq!(cluster.settle_membership(), None);
    assert!(cluster.membership().iter().any(|(n, l)| n == "m3" && *l));

    // One old voter's ack with the joiner's is a majority of the grown
    // group.
    group.member_synced("m1", join_lsn + 1);
    assert!(group.quorum_lsn() > join_lsn);
    assert_eq!(cluster.settle_membership().as_deref(), Some("m3"));
    assert!(cluster.membership().iter().any(|(n, l)| n == "m3" && !l));
    cluster.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A served join while one old voter is down: the joiner's ack counts
/// toward its own add record, so m2 and m3 commit it without m1, m3 is
/// promoted, and the down voter can then be removed. Acks are fed by
/// hand (no pumps); m1 never acks.
#[test]
fn served_join_with_an_old_voter_down_promotes_and_then_removes_it() {
    let dir = tmp("joindown");
    let workload = generate(13, 8);
    let records = ops(&workload);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        group_cfg(),
        ServerOptions::default(),
        NetConfig::default(),
    )
    .expect("cluster starts");
    let group = cluster.group();
    let before = group.commit(records[0].clone()).expect("journaled");
    group.member_synced("m2", before + 1);
    assert!(group.quorum_lsn() > before, "primary and m2 are 2 of 3");

    let join_lsn = cluster.join("m3", &loopback).expect("join journaled");
    for member in ["m2", "m3"] {
        group.member_synced(member, join_lsn + 1);
    }
    assert!(group.quorum_lsn() > join_lsn, "3 of 4 commit the add");
    assert_eq!(cluster.settle_membership().as_deref(), Some("m3"));
    assert!(cluster.membership().iter().any(|(n, l)| n == "m3" && !l));

    let leave_lsn = cluster.leave("m1").expect("the down voter can be removed");
    for member in ["m2", "m3"] {
        group.member_synced(member, leave_lsn + 1);
    }
    assert_eq!(cluster.settle_membership().as_deref(), Some("m1"));
    assert_eq!(quorum_figure(&group), "2/3");
    cluster.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The pump's divergence gate: when a pump takes its cursor from a
/// member whose log forks from the primary's, it ships `Diverged` and
/// not one frame; the member refuses, stickily, and acks nothing past
/// the fork. The refusal is terminal for the pump: it ships no further
/// envelope, however long it runs.
#[test]
fn pump_ships_diverged_to_a_forked_member_which_acks_nothing() {
    let dir = tmp("pumpfork");
    let workload = generate(21, 10);
    let records = ops(&workload);
    let group = |name: &str| {
        let seed = workload.seed_schema.clone();
        let store = DurableTmd::create_with(&dir.join(name), seed, opts(), Io::plain());
        GroupCommit::new(store.unwrap(), group_cfg())
    };
    // History A: six records. History B: the first four, then a
    // different fifth.
    let (a, b) = (group("a"), group("b"));
    for r in &records[..6] {
        a.commit(r.clone()).unwrap();
    }
    for r in &records[..4] {
        b.commit(r.clone()).unwrap();
    }
    b.commit(WalRecord::Create {
        dim: workload.org,
        name: "Dept-fork".to_string(),
        level: Some("Department".to_string()),
        at: mvolap_temporal::Instant::ym(2030, 1),
        parents: vec![mvolap_core::MemberVersionId(0)],
    })
    .unwrap();
    let fork = b.wal_position() - 1;
    let time = TimeSource::manual(0);
    let cfg = PumpConfig {
        retry_wait_ms: 10,
        time: time.clone(),
        ..PumpConfig::default()
    };
    let member = Arc::new(Mutex::new(Follower::create(
        "m1",
        dir.join("m1"),
        opts(),
        Io::plain(),
    )));
    let tracker = PumpTracker::new();
    let pump = |g: &GroupCommit, from: &str| {
        let shared = PumpShared::new(g.clone());
        let (cfg, tracker) = (cfg.clone(), tracker.clone());
        MemberPump::new(shared, "m1", member.clone(), &dir.join(from), cfg, tracker)
    };
    // The member follows history B through the fork.
    drive_to_idle(&mut pump(&b, "b"));
    assert_eq!(member.lock().unwrap().next_lsn(), fork + 1);
    let shipped_from_b = tracker.status("m1").unwrap().shipped_frames;

    // A's pump checks the member's position before shipping a frame.
    let mut from_a = pump(&a, "a");
    assert_eq!(
        from_a.step(),
        PumpStep::Progress {
            shipped: 0,
            acked: 0
        }
    );
    assert!(matches!(
        from_a.step(),
        PumpStep::Stalled { crash: false, .. }
    ));
    match member.lock().unwrap().refusal_error() {
        Some(ReplicaError::Diverged { lsn, .. }) => assert_eq!(lsn, fork),
        other => panic!("expected Diverged, got {other:?}"),
    }
    let envelopes = tracker.status("m1").unwrap().requests;
    for _ in 0..3 {
        time.advance(10);
        assert_eq!(from_a.step(), PumpStep::Diverged { lsn: fork });
    }
    assert_eq!(
        member.lock().unwrap().next_lsn(),
        fork + 1,
        "nothing applied"
    );
    let st = tracker.status("m1").unwrap();
    assert_eq!(st.requests, envelopes, "no envelope after the refusal");
    assert_eq!(st.state, PumpState::Diverged { lsn: fork });
    assert_eq!(st.shipped_frames, shipped_from_b, "A shipped no frame");
    assert!(
        a.member_positions().is_empty(),
        "the forked member acked nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The model promotes a joiner only once its reconfig record commits,
/// by the rule the served group settles by: with both old voters cut
/// off, the joiner syncs past its own record while the quorum
/// watermark stays below it (the primary and the joiner are 2 of 4),
/// and it stays a learner until the voters heal and commit the record.
#[test]
fn model_promotes_a_joiner_only_after_its_reconfig_record_commits() {
    let dir = tmp("model-joinorder");
    let workload = generate(13, 6);
    let link = Link::new();
    let mut set = ClusterSet::bootstrap(
        &dir,
        workload.seed_schema.clone(),
        opts(),
        group_cfg(),
        ClusterConfig::default(),
        link.clone(),
        Io::plain(),
    )
    .expect("bootstrap");
    set.add_member("m1", Io::plain());
    set.add_member("m2", Io::plain());
    for r in ops(&workload).into_iter().take(2) {
        set.commit_quorum(r).expect("quorum commit");
    }
    let promoted = |events: &[ClusterEvent]| {
        (events.iter()).any(|e| matches!(e, ClusterEvent::MemberPromoted { node } if node == "m3"))
    };

    link.cut(&["m1", "m2"], 0, u64::MAX);
    let join = set
        .reconfig_add("m3", "m3", Io::plain())
        .expect("join journaled");
    let events = set.run_ticks(8);
    assert!(
        set.member_synced("m3") > join,
        "the joiner ran past its record"
    );
    let watermark = set.primary().map(GroupCommit::quorum_lsn);
    assert!(watermark <= Some(join), "the record is not yet committed");
    assert!(set.is_learner("m3") && !promoted(&events), "{events:?}");

    link.cut(&[], 0, 0);
    let events = set.run_ticks(8);
    let watermark = set.primary().map(GroupCommit::quorum_lsn);
    assert!(
        watermark > Some(join),
        "the healed voters commit the record"
    );
    assert!(!set.is_learner("m3") && promoted(&events), "{events:?}");
    assert_eq!(set.group_size(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (bounded parking): a pump thread parked on
/// `wait_synced_past` under a `ManualClock` — its member effectively
/// vanished, nothing will ever advance the commit — must still
/// observe `PumpThread::stop` promptly, because every park is bounded
/// by the retry deadline rather than the idle interval.
#[test]
fn pump_thread_stop_interrupts_parked_wait() {
    let dir = tmp("parkstop");
    let workload = generate(19, 4);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    for r in ops(&workload).into_iter().take(2) {
        commit.commit(r).unwrap();
    }
    let follower = Arc::new(Mutex::new(Follower::create(
        "ghost",
        dir.join("ghost"),
        opts(),
        Io::plain(),
    )));
    // A pathological idle interval: without the retry-deadline bound
    // the park would sleep this long and shutdown would hang with it.
    let cfg = PumpConfig {
        idle_wait_ms: 600_000,
        retry_wait_ms: 10,
        ..PumpConfig::default()
    };
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let pump = MemberPump::new(
        shared,
        "ghost",
        follower,
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    let mut thread = pump.spawn();
    // Let the engine catch the member up and park idle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if tracker
            .status("ghost")
            .is_some_and(|st| st.state == PumpState::Idle)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump never went idle: {:?}",
            tracker.status("ghost")
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let t0 = std::time::Instant::now();
    thread.stop();
    thread.join();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "stop() took {:?} — the park is not bounded",
        t0.elapsed()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (status honesty): a pump halted by `stop()` must report
/// the typed `Stopped` state in the tracker — not linger as `Idle`,
/// which would read as a healthy caught-up member in `\status` output
/// long after the shipping thread is gone.
#[test]
fn stopped_pump_reports_stopped_not_idle() {
    let dir = tmp("stopstate");
    let workload = generate(23, 4);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    for r in ops(&workload).into_iter().take(2) {
        commit.commit(r).unwrap();
    }
    let follower = Arc::new(Mutex::new(Follower::create(
        "ghost",
        dir.join("ghost"),
        opts(),
        Io::plain(),
    )));
    let shared = PumpShared::new(commit.clone());
    let tracker = PumpTracker::new();
    let pump = MemberPump::new(
        shared,
        "ghost",
        follower,
        &primary_dir,
        PumpConfig::default(),
        tracker.clone(),
    );
    let mut thread = pump.spawn();
    // Let it catch the member up and go idle, so the regression is
    // exactly Idle -> stop -> must read Stopped.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if tracker
            .status("ghost")
            .is_some_and(|st| st.state == PumpState::Idle)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump never went idle: {:?}",
            tracker.status("ghost")
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    thread.stop();
    thread.join();
    let status = tracker.status("ghost").expect("tracker keeps the member");
    assert_eq!(
        status.state,
        PumpState::Stopped,
        "a halted pump must not masquerade as Idle"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Session spread across the fleet: with shipping threads keeping the
/// members at the quorum watermark, a plain `query` against the
/// primary is forwarded to a member read server — visible in the
/// pool's `forwarded` counter — and the forwarded rendering is
/// bit-identical to what the primary itself produces for the same
/// query. Commits meanwhile never leave the primary.
#[test]
fn fleet_spread_sessions_forward_queries_bit_identically() {
    let dir = tmp("spread");
    let workload = generate(11, 5);
    let records = ops(&workload);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        GroupConfig::default(),
        ServerOptions {
            // Generous quorum window: this test runs alongside the
            // whole suite and a slow shipping round must not read as
            // an Unreplicated refusal.
            quorum_timeout_ms: 30_000,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");
    cluster.spawn_pumps(PumpConfig::default());

    let mut client = cluster.client(NetConfig::default());
    let mut head = 0;
    for r in records.iter().take(3) {
        head = client.commit(r).expect("quorum commit");
    }
    // Quorum needs one member; spreading wants a *specific* (pinned)
    // member. Wait until both members acked the head so the routing
    // decision below is deterministic.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let positions = cluster.group().member_positions();
        let caught_up = ["m1", "m2"].iter().all(|m| {
            positions
                .iter()
                .any(|(n, p)| n == m && p.saturating_sub(1) >= head)
        });
        if caught_up {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "members never caught up: {positions:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    const Q: &str = "SELECT sum(Amount) BY year IN MODE tcm";
    let served = client.query(Q).expect("query served");
    assert_eq!(
        served,
        client.query(Q).expect("repeat query served"),
        "spread routing must be stable across a session's requests"
    );

    // The primary's own rendering of the same query, straight off the
    // group-committed store — spreading must not change a byte. (All
    // quorum-acked commits are applied on the forwarding target, and
    // nothing commits concurrently here, so the states coincide.)
    let local = cluster.group().with_store(|s| {
        let svs = s.schema().structure_versions();
        let exec = mvolap_core::ExecContext::new(2);
        let memo = mvolap_core::QueryMemo::new();
        mvolap_query::run_with_versions_par(s.schema(), &svs, Q, &exec, &memo)
            .unwrap()
            .render("result")
            .unwrap()
    });
    assert!(
        served.contains(local.trim_end()) || served.trim_end() == local.trim_end(),
        "forwarded rendering diverged from the primary's:\n--- served\n{served}\n--- local\n{local}"
    );

    let stats = cluster.primary_stats();
    assert!(
        stats.forwarded >= 1,
        "queries must spread across the fleet: {stats:?}"
    );
    assert!(stats.served >= 5, "commits + queries counted: {stats:?}");
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}
