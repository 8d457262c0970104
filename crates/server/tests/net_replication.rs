//! Networked replication over real sockets on loopback, through the
//! session server's port: follower catch-up, snapshot bootstrap, the
//! unix-socket variant, manual-clock time-based checkpoints, and hellos
//! answered only from fsynced frames while a commit's fsync is parked.
//! (A whole supervised group over `TcpTransport`, and the fault sweep
//! over loopback TCP, live in `mvolap-cluster`'s tests.)
//!
//! Every test is named `net_*` so CI can run exactly this surface with
//! `cargo test -p mvolap-server net_`.

use std::path::{Path, PathBuf};

use mvolap_core::case_study;
use mvolap_core::persist::write_tmd;
use mvolap_core::Tmd;
use mvolap_durable::{
    CheckpointPolicy, DurableError, DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options,
    TimeSource, WalRecord,
};
use mvolap_replica::{
    sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError, ReplicaMsg, SyncRound,
};
use mvolap_server::{ServerError, ServerOptions, SessionClient, SessionServer};
use mvolap_temporal::Instant;

const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_net_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options {
        segment_bytes: 512,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

fn client_cfg() -> NetConfig {
    NetConfig {
        connect_timeout_ms: 2_000,
        read_timeout_ms: 2_000,
        write_timeout_ms: 2_000,
        reconnect_attempts: 1,
        backoff_start_ms: 1,
    }
}

fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).unwrap();
    buf
}

fn answer(tmd: &Tmd) -> String {
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

fn facts(coord: mvolap_core::MemberVersionId, month: u32, v: f64) -> WalRecord {
    WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![coord],
            at: Instant::ym(2003, month),
            values: vec![v],
        }],
    }
}

/// A session server over a fresh store seeded with the case study, at
/// epoch 0, with a second handle on its group commit.
fn spawn_server(bind: &NetAddr, dir: &Path) -> (SessionServer, GroupCommit, case_study::CaseStudy) {
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(dir, cs.tmd.clone(), opts(), Io::plain()).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let server = SessionServer::spawn(bind, group.clone(), ServerOptions::default()).unwrap();
    (server, group, cs)
}

/// Syncs `f` against the server until it holds the whole log (or
/// panics after a bounded number of rounds).
fn sync_until_caught_up(client: &mut NetClient, f: &mut Follower) -> SyncRound {
    for _ in 0..64 {
        let round = sync_follower(client, f).expect("sync round");
        if round.caught_up() {
            return round;
        }
    }
    panic!("follower failed to catch up over the network");
}

/// A follower syncs over TCP to a byte-identical store; after
/// promotion it answers the reference query identically, a fence probe
/// deposes the old server at the protocol layer, and the deposed
/// primary refuses commits — through its own handle and over the wire.
#[test]
fn net_follower_syncs_over_tcp_then_promotion_fences_old_server() {
    let base = tmp("tcp_promote");
    let (server, group, cs) = spawn_server(&NetAddr::Tcp("127.0.0.1:0".into()), &base.join("p"));
    for m in 1..=5 {
        group
            .commit(facts(cs.brian, m, f64::from(m) * 10.0))
            .unwrap();
    }

    let mut client = NetClient::connect(server.addr().clone(), client_cfg());
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let round = sync_until_caught_up(&mut client, &mut f);

    assert_eq!(round.next_lsn, group.wal_position());
    let expect_bytes = group.with_store(|s| serialise(s.schema()));
    let expect_answer = group.with_store(|s| answer(s.schema()));
    assert_eq!(serialise(f.schema().unwrap()), expect_bytes);
    // The logs themselves are byte-identical frame by frame.
    assert_eq!(
        group.with_store(|s| s.tail(1).unwrap()),
        f.store().unwrap().tail(1).unwrap()
    );
    assert_eq!(
        server.follower_acks(),
        vec![("f1".to_string(), round.next_lsn)],
        "the ack travelled over the wire"
    );

    // Promote: the follower's store becomes a primary at epoch 1 and
    // answers the reference query byte-identically to the deposed one.
    let promoted = GroupCommit::new(f.into_primary_store().unwrap(), GroupConfig::default());
    promoted.adopt_epoch(1);
    assert_eq!(promoted.with_store(|s| serialise(s.schema())), expect_bytes);
    assert_eq!(promoted.with_store(|s| answer(s.schema())), expect_answer);

    // Fence the old server at the protocol layer: a newer-epoch fence
    // request deposes it on the spot.
    let reply = client.request(&ReplicaMsg::Fence { epoch: 1 }).unwrap();
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 1 }]);
    assert!(group.is_fenced());
    match group.commit(facts(cs.brian, 6, 1.0)) {
        Err(DurableError::Fenced { epoch }) => assert_eq!(epoch, 1),
        other => panic!("expected Fenced, got {other:?}"),
    }
    let mut session = SessionClient::connect(server.addr().clone(), client_cfg());
    match session.commit(&facts(cs.brian, 7, 1.0)) {
        Err(ServerError::Commit(m)) => assert!(m.contains("fenced at epoch 1"), "{m}"),
        other => panic!("expected a fenced commit refusal, got {other:?}"),
    }
    // And over the wire the deposed server serves nothing but fence.
    let mut f2 = Follower::create("f2", base.join("f2"), opts(), Io::plain());
    match sync_follower(&mut client, &mut f2) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 1),
        other => panic!("expected Fenced over the wire, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A follower joining after the server pruned its log is bootstrapped
/// from a checkpoint snapshot over the socket, at the right LSN.
#[test]
fn net_late_joiner_bootstraps_from_snapshot_over_tcp() {
    let base = tmp("tcp_snapshot");
    let (server, group, cs) = spawn_server(&NetAddr::Tcp("127.0.0.1:0".into()), &base.join("p"));
    for m in 1..=10 {
        group.commit(facts(cs.brian, m, 1.0)).unwrap();
    }
    group.checkpoint().unwrap();
    let oldest = group.with_store(|s| s.oldest_lsn().unwrap());
    assert!(oldest > 1, "512-byte segments must have pruned");

    let mut client = NetClient::connect(server.addr().clone(), client_cfg());
    let mut f = Follower::create("late", base.join("late"), opts(), Io::plain());
    sync_until_caught_up(&mut client, &mut f);

    assert_eq!(f.next_lsn(), group.wal_position());
    assert_eq!(
        serialise(f.schema().unwrap()),
        group.with_store(|s| serialise(s.schema()))
    );
    assert!(
        f.store().unwrap().oldest_lsn().unwrap() >= oldest,
        "the follower was served the snapshot path, not a replay from LSN 1 \
         (its oldest: {}, primary's: {oldest})",
        f.store().unwrap().oldest_lsn().unwrap()
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The same server and client code runs over a unix socket: only the
/// address differs.
#[cfg(unix)]
#[test]
fn net_unix_socket_serves_the_same_protocol() {
    let base = tmp("unix");
    let sock = base.join("replica.sock");
    let addr = NetAddr::parse(&format!("unix:{}", sock.display())).unwrap();
    let (server, group, cs) = spawn_server(&addr, &base.join("p"));
    assert_eq!(server.addr(), &addr);
    for m in 1..=3 {
        group.commit(facts(cs.bill, m, 7.0)).unwrap();
    }
    let mut client = NetClient::connect(addr, client_cfg());
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    sync_until_caught_up(&mut client, &mut f);
    assert_eq!(
        serialise(f.schema().unwrap()),
        group.with_store(|s| serialise(s.schema()))
    );
    std::fs::remove_dir_all(&base).ok();
}

/// `CheckpointPolicy::max_tail_age_ms` + a manual [`TimeSource`]: the
/// store ages its tail by the source it was given, so the listening
/// server's real-clock loop — [`GroupCommit::maybe_checkpoint`] —
/// checkpoints the primary once the tail sits long enough.
#[test]
fn net_manual_clock_drives_time_based_checkpoints() {
    let base = tmp("clock_ckpt");
    let cs = case_study::case_study();
    let clock = TimeSource::manual(0);
    let mut store = DurableTmd::create_with(
        &base,
        cs.tmd.clone(),
        Options {
            segment_bytes: 2048,
            policy: CheckpointPolicy::max_tail_age(1_000),
            prune_on_checkpoint: true,
        },
        Io::plain(),
    )
    .unwrap();
    store.set_time_source(clock.clone());
    let p = GroupCommit::new(store, GroupConfig::default());

    p.commit(facts(cs.brian, 1, 1.0)).unwrap();
    assert!(p.maybe_checkpoint().unwrap().is_none(), "tail too young");
    clock.advance(999);
    assert!(p.maybe_checkpoint().unwrap().is_none(), "one ms short");
    clock.advance(1);
    let id = p.maybe_checkpoint().unwrap().expect("tail aged out");
    assert_eq!(id.next_lsn, p.wal_position());
    assert!(p.maybe_checkpoint().unwrap().is_none(), "tail now empty");

    // A fenced node's store is frozen: no more checkpoint driving.
    p.commit(facts(cs.brian, 2, 2.0)).unwrap();
    clock.advance(5_000);
    p.fence(1);
    assert!(p.maybe_checkpoint().unwrap().is_none(), "fenced: frozen");
    std::fs::remove_dir_all(&base).ok();
}

/// Answering followers beside concurrent group commit: with a commit's
/// fsync parked at the gate (its frame written, not yet durable), a
/// hello ships nothing at or past the synced head — the heartbeat
/// names the synced head, not the log's end. Once the fsync lands the
/// frame ships. No sleeps: the gate says when the sync is in flight.
#[test]
fn net_hello_during_a_parked_fsync_ships_only_synced_frames() {
    let base = tmp("parked_sync");
    let cs = case_study::case_study();
    let io = Io::plain();
    let probe = io.share();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), io).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let server = SessionServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        group.clone(),
        ServerOptions::default(),
    )
    .unwrap();
    group.commit(facts(cs.brian, 1, 1.0)).unwrap();
    let synced = group.synced_lsn();

    let gate = probe.gate_next_sync();
    let committer = {
        let group = group.clone();
        std::thread::spawn(move || group.commit(facts(cs.brian, 2, 2.0)))
    };
    gate.wait_parked();
    assert_eq!(group.synced_lsn(), synced, "the fsync is still parked");
    assert_eq!(group.wal_position(), synced + 1, "its frame is written");

    let mut client = NetClient::connect(server.addr().clone(), client_cfg());
    let hello = |next_lsn| ReplicaMsg::Hello {
        node: "f".into(),
        epoch: 0,
        next_lsn,
        last_crc: 0,
    };
    match client.request(&hello(1)).unwrap().as_slice() {
        [ReplicaMsg::Heartbeat { next_lsn, .. }, ReplicaMsg::Frames { frames, .. }] => {
            assert_eq!(*next_lsn, synced, "the head is the synced head");
            let lsns: Vec<u64> = frames.iter().map(|f| f.lsn).collect();
            assert_eq!(lsns, (1..synced).collect::<Vec<_>>());
        }
        other => panic!("expected heartbeat + frames, got {other:?}"),
    }
    assert_eq!(
        client.request(&hello(synced)).unwrap(),
        vec![ReplicaMsg::Heartbeat {
            epoch: 0,
            next_lsn: synced
        }],
        "a follower at the synced head is shipped nothing"
    );

    gate.release();
    assert_eq!(committer.join().unwrap().unwrap(), synced);
    match client.request(&hello(synced)).unwrap().as_slice() {
        [ReplicaMsg::Heartbeat { next_lsn, .. }, ReplicaMsg::Frames { frames, .. }] => {
            assert_eq!(*next_lsn, synced + 1);
            assert_eq!(frames.iter().map(|f| f.lsn).collect::<Vec<_>>(), [synced]);
        }
        other => panic!("expected the now-synced frame, got {other:?}"),
    }
    drop(server);
    std::fs::remove_dir_all(&base).ok();
}
