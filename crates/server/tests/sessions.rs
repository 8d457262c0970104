//! Session-server integration tests: the acceptance gates of the
//! serving subsystem.
//!
//! - **Serializability / bit-identity.** M concurrent clients
//!   interleaving commits and queries leave the store in a state
//!   bit-identical to replaying the same records sequentially in LSN
//!   order (snapshot bytes + result-table digests) — swept across pool
//!   sizes 1, 2 and the host's CPU count.
//! - **Pool admission.** Queue overflow under a busy pool refuses with
//!   a typed `Busy` from the poll loop without blocking the worker;
//!   a parked session dropping releases its slot (RAII permit).
//! - **Group commit over the wire.** 8 concurrent committers share a
//!   single fsync under a manual timeline — strictly fewer fsyncs than
//!   commits.
//! - **Admission control.** The `max_sessions + max_queued + 1`st
//!   session is refused with a typed `Busy`, not an unbounded queue.
//! - **Mid-query disconnect.** A client vanishing after sending a
//!   request neither hangs nor poisons the server.
//! - **Read routing.** A stale follower refuses a bounded read with a
//!   typed `TooStale`; after catch-up it serves bytes identical to the
//!   primary.
//! - **Statements.** Every `SHOW` answers over the wire, from the
//!   primary and from a follower, with the bytes `render_answer` gives
//!   on the same schema; `SHOW STATUS` is answered by the server that
//!   receives it, never forwarded.
//! - **Remote evolution.** An evolution statement sent as a `query`
//!   commits on the primary as a `commit` would (same LSN, same
//!   refusal when fenced) and replays on a follower; a `read` refuses
//!   it, and a fleet primary never forwards it.

use std::path::PathBuf;

use mvolap_core::case_study::case_study;
use mvolap_core::persist::write_tmd;
use mvolap_durable::{
    DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, TimeSource, WalRecord,
};
use mvolap_replica::{Follower, NetAddr, NetConfig, NetStream, ReplicaMsg, TailSource, WalTailer};
use mvolap_server::{
    proto, FleetMember, Request, ServerError, ServerOptions, SessionClient, SessionServer,
};
use mvolap_storage::persist::table_digest;
use mvolap_temporal::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_srv_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_addr() -> NetAddr {
    NetAddr::parse("127.0.0.1:0").unwrap()
}

fn snapshot(tmd: &mvolap_core::Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).unwrap();
    buf
}

const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2003 IN MODE tcm";

/// M clients interleaving commits and queries are serializable: the
/// final state equals a sequential replay of the journaled records in
/// LSN order, and every rendered query matches the replayed store.
/// Swept across pool sizes — multiplexing sessions over 1, 2 or
/// `host_cpus` workers must not change a single byte.
#[test]
fn concurrent_sessions_are_bit_identical_to_a_sequential_replay() {
    let host_cpus = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut sweep = vec![1, 2, host_cpus];
    sweep.sort_unstable();
    sweep.dedup();
    for workers in sweep {
        bit_identity_at(workers);
    }
}

/// `workers: 0` is not a mode: the pool is clamped to one worker.
#[test]
fn zero_workers_is_served_by_one() {
    let dir = tmp("zero_workers");
    let store = DurableTmd::create(&dir, case_study().tmd).unwrap();
    let opts = ServerOptions {
        workers: 0,
        ..ServerOptions::default()
    };
    let group = GroupCommit::new(store, GroupConfig::default());
    let server = SessionServer::spawn(&local_addr(), group, opts).unwrap();
    SessionClient::connect(server.addr().clone(), NetConfig::default())
        .ping()
        .unwrap();
    let stats = server.pool_stats();
    assert_eq!((stats.workers, stats.memo.len()), (1, 1));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

fn bit_identity_at(workers: usize) {
    let dir = tmp(&format!("bitident_w{workers}"));
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let opts = ServerOptions {
        workers,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group, opts).unwrap();

    // Each client writes to its own leaf member (disjoint group-by
    // cells) and runs the shared query between commits.
    let leaves = [cs.brian, cs.smith, cs.bill, cs.paul];
    let handles: Vec<_> = leaves
        .iter()
        .enumerate()
        .map(|(c, &leaf)| {
            let addr = server.addr().clone();
            std::thread::spawn(move || {
                let mut client = SessionClient::connect(addr, NetConfig::default());
                for k in 0..5u32 {
                    let record = WalRecord::FactBatch {
                        rows: vec![FactRow {
                            coords: vec![leaf],
                            at: Instant::ym(2003, 1 + (k % 12)),
                            values: vec![(c as f64 + 1.0) * 10.0 + f64::from(k)],
                        }],
                    };
                    client.commit(&record).unwrap();
                    client.query(QUERY).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Sequential replay of the journal into a fresh store.
    let replay_dir = tmp(&format!("bitident_replay_w{workers}"));
    let mut replayed = DurableTmd::create(&replay_dir, cs.tmd.clone()).unwrap();
    let frames = server.group().with_store(|s| s.tail(1).unwrap());
    assert_eq!(
        frames.len(),
        1 + leaves.len() * 5,
        "snapshot seed + 20 commits"
    );
    // Frame 1 is the schema-seed record written by `create`; skip it —
    // the replay store journals its own.
    for frame in &frames[1..] {
        let record = WalRecord::decode(&frame.payload).unwrap();
        replayed.apply(record).unwrap();
    }

    let served = server.group().with_store(|s| snapshot(s.schema()));
    assert_eq!(
        served,
        snapshot(replayed.schema()),
        "state must be bit-identical"
    );

    // Query bit-identity: the served rendering and digest equal the
    // sequential store's.
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let over_wire = client.query(QUERY).unwrap();
    let local = mvolap_query::run(replayed.schema(), QUERY).unwrap();
    assert_eq!(over_wire, local.render("result").unwrap());
    let served_digest = server.group().with_store(|s| {
        let rs = mvolap_query::run(s.schema(), QUERY).unwrap();
        table_digest(&rs.to_storage_table("result").unwrap())
    });
    assert_eq!(
        served_digest,
        table_digest(&local.to_storage_table("result").unwrap())
    );

    // The pool actually carried the load: every request went through
    // the workers, and the sharded memo absorbed the repeated lookups.
    let stats = server.pool_stats();
    assert_eq!(stats.workers, workers);
    assert!(
        stats.served >= 4 * 5 * 2,
        "20 commits + 20 queries must be counted, got {}",
        stats.served
    );
    assert_eq!(stats.memo.len(), workers);
    let memo_total = stats.memo.iter().fold(0u64, |acc, m| {
        acc + m.routes.hits + m.routes.misses + m.ancestors.hits + m.ancestors.misses
    });
    assert!(memo_total > 0, "queries must exercise the sharded memo");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replay_dir).ok();
}

/// 8 concurrent committers, one manual-clock hold window: strictly
/// fewer fsyncs than commits (here exactly one shared sync), and every
/// commit acknowledged durable.
#[test]
fn concurrent_commits_share_a_sync_over_the_wire() {
    let dir = tmp("groupwire");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    let time = TimeSource::manual(0);
    let group = GroupCommit::new(
        store,
        GroupConfig {
            hold_ms: 60,
            time: time.clone(),
        },
    );
    let base_lsn = group.wal_position();
    let fsyncs_before = group.fsyncs();
    // Every committer parks inside the manual-clock hold window at
    // once, each occupying a worker — the pool must be at least as
    // wide as the committers or the window could never fill.
    let opts = ServerOptions {
        workers: 8,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group.clone(), opts).unwrap();

    const COMMITTERS: u64 = 8;
    let handles: Vec<_> = (0..COMMITTERS)
        .map(|c| {
            let addr = server.addr().clone();
            let leaf = cs.brian;
            std::thread::spawn(move || {
                let mut client = SessionClient::connect(addr, NetConfig::default());
                client
                    .commit(&WalRecord::FactBatch {
                        rows: vec![FactRow {
                            coords: vec![leaf],
                            at: Instant::ym(2003, 1 + (c % 12) as u32),
                            values: vec![c as f64],
                        }],
                    })
                    .unwrap()
            })
        })
        .collect();

    // Let every committer append into the held batch, then close the
    // window: one leader, one fsync, eight acknowledgements.
    while group.wal_position() < base_lsn + COMMITTERS {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    time.advance(10_000);

    let mut lsns: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    lsns.sort_unstable();
    let expect: Vec<u64> = (base_lsn..base_lsn + COMMITTERS).collect();
    assert_eq!(lsns, expect, "dense LSNs, no gaps, no duplicates");
    let spent = group.fsyncs() - fsyncs_before;
    assert!(
        spent < COMMITTERS,
        "group commit must share fsyncs: {spent} fsyncs for {COMMITTERS} commits"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The session past `max_sessions + max_queued` is refused with a
/// typed `Busy` carrying the gate's occupancy.
#[test]
fn admission_overflow_is_a_typed_busy_refusal() {
    let dir = tmp("busy");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let opts = ServerOptions {
        max_sessions: 1,
        max_queued: 0,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group, opts).unwrap();

    let mut first = SessionClient::connect(server.addr().clone(), NetConfig::default());
    first.ping().unwrap(); // occupies the only slot for its lifetime

    let mut second = SessionClient::connect(server.addr().clone(), NetConfig::default());
    match second.ping() {
        Err(ServerError::Busy { active, queued }) => {
            assert_eq!((active, queued), (1, 0));
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // The admitted session keeps working; a slot freed by disconnect
    // is reusable.
    first.ping().unwrap();
    drop(first);
    let mut third = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match third.ping() {
            Ok(()) => break,
            Err(ServerError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Queue overflow under the pooled loop: with the only worker parked
/// inside a commit's hold window, a second session's request finds
/// every queue slot taken and is refused with a typed `Busy` straight
/// from the poll loop — the refused session stays connected (it is
/// parked again, not dropped) and is served normally once the worker
/// frees up. No worker ever blocks on the overflow.
#[test]
fn queue_overflow_is_refused_typed_without_blocking_a_worker() {
    let dir = tmp("overflow");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd.clone()).unwrap();
    let time = TimeSource::manual(0);
    let group = GroupCommit::new(
        store,
        GroupConfig {
            hold_ms: 60,
            time: time.clone(),
        },
    );
    let base_lsn = group.wal_position();
    let opts = ServerOptions {
        workers: 1,
        max_queued: 0,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group.clone(), opts).unwrap();

    // Session A: a commit that parks in the hold window, pinning the
    // only worker until the manual clock advances.
    let committer = {
        let addr = server.addr().clone();
        let leaf = cs.brian;
        std::thread::spawn(move || {
            let mut client = SessionClient::connect(addr, NetConfig::default());
            client
                .commit(&WalRecord::FactBatch {
                    rows: vec![FactRow {
                        coords: vec![leaf],
                        at: Instant::ym(2003, 3),
                        values: vec![7.0],
                    }],
                })
                .unwrap()
        })
    };
    while group.wal_position() < base_lsn + 1 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Session B: admitted (session slots are plentiful), but its
    // request overflows the zero-length worker queue.
    let mut second = SessionClient::connect(server.addr().clone(), NetConfig::default());
    match second.ping() {
        Err(ServerError::Busy { active, queued }) => {
            assert_eq!(queued, 0, "nothing can wait behind max_queued: 0");
            assert!(active >= 2, "both sessions hold slots, got {active}");
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert!(
        server.pool_stats().refused >= 1,
        "the refusal must be counted"
    );

    // Free the worker; the refused session keeps its connection and is
    // served on retry.
    time.advance(10_000);
    committer.join().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match second.ping() {
            Ok(()) => break,
            Err(ServerError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("refused session must recover: {e}"),
        }
    }
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A parked session dropping its connection releases its admission
/// slot (the RAII permit travels with the parked connection), and the
/// pool gauges see the park and the release.
#[test]
fn parked_session_drop_releases_its_slot() {
    let dir = tmp("parked_drop");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let opts = ServerOptions {
        workers: 2,
        max_sessions: 1,
        max_queued: 0,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group, opts).unwrap();

    let mut first = SessionClient::connect(server.addr().clone(), NetConfig::default());
    first.ping().unwrap(); // round-trip: admitted and parked again
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let stats = server.pool_stats();
        if stats.active == 1 && stats.parked == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "session never parked: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The parked session vanishes; its permit must free the only slot.
    drop(first);
    let mut second = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match second.ping() {
            Ok(()) => break,
            Err(ServerError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("slot never released by the dropped park: {e}"),
        }
    }
    assert_eq!(server.pool_stats().active, 1, "only the new session");
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that sends a request and vanishes mid-exchange must not
/// hang a worker, leak its session slot or poison shared state.
#[test]
fn mid_query_disconnect_leaves_the_server_serving() {
    let dir = tmp("disconnect");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let opts = ServerOptions {
        max_sessions: 2,
        max_queued: 0,
        ..ServerOptions::default()
    };
    let server = SessionServer::spawn(&local_addr(), group, opts).unwrap();
    let NetAddr::Tcp(raw_addr) = server.addr().clone() else {
        panic!("tcp test");
    };

    for _ in 0..3 {
        // Raw connection: send a valid query frame, never read the
        // reply, slam the connection shut.
        let tcp = std::net::TcpStream::connect(&raw_addr).unwrap();
        let mut stream = NetStream::Tcp(tcp);
        mvolap_replica::write_frame(
            &mut stream,
            &proto::encode_request(&Request::Query(QUERY.to_string())),
        )
        .unwrap();
        drop(stream);
    }
    // Half a frame, then gone.
    {
        use std::io::Write as _;
        let mut tcp = std::net::TcpStream::connect(&raw_addr).unwrap();
        tcp.write_all(&[0x01, 0x02, 0x03]).unwrap();
        drop(tcp);
    }

    // The server still admits (slots were all returned), queries and
    // commits.
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match client.ping() {
            Ok(()) => break,
            Err(ServerError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("server wedged after disconnects: {e}"),
        }
    }
    client.query(QUERY).unwrap();
    let lsn = client
        .commit(&WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.brian],
                at: Instant::ym(2003, 6),
                values: vec![1.0],
            }],
        })
        .unwrap();
    assert!(lsn > 0);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Read routing: a follower behind the reader's staleness bound
/// refuses with a typed `TooStale`; once the log's tail is shipped to
/// it, it serves bytes identical to the primary.
#[test]
fn stale_follower_reads_are_refused_then_served_after_catch_up() {
    let dir = tmp("routing_primary");
    let fdir = tmp("routing_follower");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let follower = Follower::create("reader", fdir.clone(), Options::default(), Io::plain());
    let server = SessionServer::spawn_with_follower(
        &local_addr(),
        group,
        follower,
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());

    let lsn = client
        .commit(&WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.paul],
                at: Instant::ym(2003, 2),
                values: vec![99.0],
            }],
        })
        .unwrap();

    // The follower has applied nothing yet: refused, with the bound
    // and its actual position in the typed error.
    match client.read_at(lsn, QUERY) {
        Err(ServerError::TooStale {
            required, applied, ..
        }) => {
            assert_eq!(required, lsn);
            assert_eq!(applied, 0);
        }
        other => panic!("expected TooStale, got {other:?}"),
    }

    // Ship the tail the way a member pump does: fetch from the
    // primary's log, deliver to the follower's handle.
    let handle = server.follower_handle().expect("follower attached");
    {
        let mut f = handle.lock().unwrap();
        let TailSource::Frames(frames) = WalTailer::new(&dir)
            .fetch_budget(f.next_lsn(), u64::MAX, 64, usize::MAX)
            .unwrap()
        else {
            panic!("nothing is pruned: the tail ships as frames");
        };
        let epoch = f.epoch();
        f.handle(ReplicaMsg::Frames { epoch, frames }).unwrap();
    }
    let applied = server.follower_applied();
    assert!(applied >= lsn, "follower applied through {applied}");

    let from_follower = client.read_at(lsn, QUERY).unwrap();
    let from_primary = client.query(QUERY).unwrap();
    assert_eq!(
        from_follower, from_primary,
        "replica read must be bit-identical"
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// One session alternates `read` (the follower's schema) and `query`
/// (the primary's) through the same memo shard while the two schemas
/// differ — the primary revised Jones's split after the follower caught
/// up, and both keep receiving facts. Every reply must equal the answer
/// rendered on its own schema with a fresh memo: routes and presented
/// tables of one instance are never served for the other.
#[test]
fn interleaved_follower_reads_and_primary_queries_never_share_cache_entries() {
    let dir = tmp("interleave_primary");
    let fdir = tmp("interleave_follower");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let follower = Follower::create("reader", fdir.clone(), Options::default(), Io::plain());
    let server = SessionServer::spawn_with_follower(
        &local_addr(),
        group,
        follower,
        ServerOptions::default(),
    )
    .unwrap();
    let handle = server.follower_handle().expect("follower attached");
    let ship = || {
        let mut f = handle.lock().unwrap();
        let TailSource::Frames(frames) = WalTailer::new(&dir)
            .fetch_budget(f.next_lsn(), u64::MAX, 64, usize::MAX)
            .unwrap()
        else {
            panic!("nothing is pruned: the tail ships as frames");
        };
        let epoch = f.epoch();
        f.handle(ReplicaMsg::Frames { epoch, frames }).unwrap();
    };
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let fact = |leaf, month, value| WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![leaf],
            at: Instant::ym(2002, month),
            values: vec![value],
        }],
    };
    client.commit(&fact(cs.jones, 3, 12.5)).unwrap();
    ship();
    client
        .commit(&WalRecord::Confidence {
            dim: cs.org,
            from: cs.jones,
            to: cs.bill,
            forward: vec![mvolap_core::MeasureMapping::approx_scale(0.25)],
            backward: vec![mvolap_core::MeasureMapping::EXACT_IDENTITY],
        })
        .unwrap();

    const ALL_MODES: &str =
        "SELECT sum(Amount) BY year, Org.Department FOR 2001..2003 IN ALL MODES";
    let exec = mvolap_core::ExecContext::new(ServerOptions::default().exec_threads);
    let fresh = |tmd: &mvolap_core::Tmd| {
        mvolap_query::render_answer(tmd, ALL_MODES, &exec, &mvolap_core::QueryMemo::new()).unwrap()
    };
    // Rounds 0–1: the follower stays behind the revision while the
    // primary's facts grow. Rounds 2–3: the follower is shipped every
    // commit — the same structure and facts in another instance.
    for round in 0..4u32 {
        if round >= 2 {
            ship();
        }
        for read_first in [true, false] {
            let expected_read = fresh(handle.lock().unwrap().schema().unwrap());
            let expected_query = server.group().with_store(|s| fresh(s.schema()));
            if round == 0 {
                assert_ne!(expected_read, expected_query, "the two schemas differ");
            }
            let (read, query) = if read_first {
                let read = client.read_at(0, ALL_MODES).unwrap();
                (read, client.query(ALL_MODES).unwrap())
            } else {
                let query = client.query(ALL_MODES).unwrap();
                (client.read_at(0, ALL_MODES).unwrap(), query)
            };
            assert_eq!(read, expected_read, "round {round}: follower read");
            assert_eq!(query, expected_query, "round {round}: primary query");
        }
        client
            .commit(&fact(cs.jones, 4 + round, 0.1 + f64::from(round)))
            .unwrap();
    }
    let memo = server.pool_stats().memo;
    assert!(
        memo.iter().any(|m| m.presentations.hits > 0),
        "the session's repeated answers must come from presented tables"
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// Every `SHOW` statement travels in `query`/`read` text: the primary
/// and a caught-up follower answer it with the bytes `render_answer`
/// gives on their schema, the follower under the `read` staleness rule.
/// `SHOW STATUS` describes the server; an unknown target is a typed
/// query error with its position.
#[test]
fn show_statements_over_the_wire_match_render_answer() {
    let dir = tmp("show_primary");
    let fdir = tmp("show_follower");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let follower = Follower::create("reader", fdir.clone(), Options::default(), Io::plain());
    let server = SessionServer::spawn_with_follower(
        &local_addr(),
        group,
        follower,
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    let lsn = client
        .commit(&WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.paul],
                at: Instant::ym(2003, 2),
                values: vec![99.0],
            }],
        })
        .unwrap();
    let statements = [
        "SHOW VERSIONS".to_string(),
        "show dimensions".to_string(),
        "SHOW MEASURES;".to_string(),
        "SHOW LOG".to_string(),
        "SHOW DOT Org".to_string(),
        format!("SHOW QUALITY {QUERY}"),
        format!("SHOW GRID {QUERY}"),
    ];
    assert!(
        matches!(
            client.read_at(lsn, "SHOW LOG"),
            Err(ServerError::TooStale { .. })
        ),
        "a statement waits for its staleness bound like a query"
    );
    let handle = server.follower_handle().expect("follower attached");
    {
        let mut f = handle.lock().unwrap();
        let TailSource::Frames(frames) = WalTailer::new(&dir)
            .fetch_budget(f.next_lsn(), u64::MAX, 64, usize::MAX)
            .unwrap()
        else {
            panic!("nothing is pruned: the tail ships as frames");
        };
        let epoch = f.epoch();
        f.handle(ReplicaMsg::Frames { epoch, frames }).unwrap();
    }
    let exec = mvolap_core::ExecContext::new(ServerOptions::default().exec_threads);
    let render = |tmd: &mvolap_core::Tmd, text: &str| {
        mvolap_query::render_answer(tmd, text, &exec, &mvolap_core::QueryMemo::new()).unwrap()
    };
    for text in &statements {
        let on_primary = server.group().with_store(|s| render(s.schema(), text));
        let on_follower = render(handle.lock().unwrap().schema().unwrap(), text);
        assert!(on_primary.len() > 10, "{text}: {on_primary}");
        assert_eq!(
            client.query(text).unwrap(),
            on_primary,
            "{text} from the primary"
        );
        assert_eq!(
            client.read_at(lsn, text).unwrap(),
            on_follower,
            "{text} from the follower"
        );
        assert_eq!(
            on_follower, on_primary,
            "{text}: the caught-up follower agrees"
        );
    }

    for status in [
        client.query("SHOW STATUS"),
        client.read_at(lsn, "show status"),
    ] {
        let status = status.unwrap();
        assert!(status.starts_with("  pool: workers=4 "), "{status}");
        assert_eq!(status.matches("  memo shard ").count(), 4, "{status}");
    }
    match client.query("SHOW BOGUS") {
        Err(ServerError::Query(msg)) => assert!(msg.contains("found `BOGUS` at byte 5"), "{msg}"),
        other => panic!("expected a typed query error, got {other:?}"),
    }

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A fleet primary forwards statements to its members like queries,
/// but answers `SHOW STATUS` itself: its own pool, and the forward
/// counter does not move.
#[test]
fn show_status_on_a_fleet_primary_is_answered_locally() {
    let dir = tmp("status_fleet");
    let store = DurableTmd::create(&dir, case_study().tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let member =
        SessionServer::spawn(&local_addr(), group.clone(), ServerOptions::default()).unwrap();
    // The member serves the primary's own store: it has everything.
    group.member_synced("m1", group.wal_position());
    let fleet = vec![FleetMember {
        name: "m1".to_string(),
        addr: member.addr().clone(),
    }];
    let primary = SessionServer::spawn_with_fleet(
        &local_addr(),
        group,
        fleet,
        NetConfig::default(),
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = SessionClient::connect(primary.addr().clone(), NetConfig::default());

    let versions = client.query("SHOW VERSIONS").unwrap();
    assert_eq!(
        primary.pool_stats().forwarded,
        1,
        "a statement is forwarded"
    );
    assert_eq!(member.pool_stats().served, 1, "and the member answered it");
    let status = client.query("SHOW STATUS").unwrap();
    assert_eq!(
        primary.pool_stats().forwarded,
        1,
        "SHOW STATUS is not forwarded"
    );
    assert_eq!(member.pool_stats().served, 1, "the member never saw it");
    assert!(status.contains(" forwarded=1\n"), "{status}");
    assert!(!versions.is_empty());

    drop(primary);
    drop(member);
    std::fs::remove_dir_all(&dir).ok();
}

const SPLIT: &str = "SPLIT Org 'Dpt.Smith' INTO 'Dpt.S1' 0.3, 'Dpt.S2' 0.7 UNDER 'R&D' AT 01/2004";

/// An evolution statement sent as a `query` commits on the primary at
/// the LSN a `commit` would get, and a follower fed the log's tail
/// replays it to the primary's bytes. A `read` refuses it, and nothing
/// is journaled.
#[test]
fn a_split_statement_commits_remotely_and_replays_on_a_follower() {
    let dir = tmp("evolve_primary");
    let fdir = tmp("evolve_follower");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let follower = Follower::create("reader", fdir.clone(), Options::default(), Io::plain());
    let server = SessionServer::spawn_with_follower(
        &local_addr(),
        group.clone(),
        follower,
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());

    match client.read_at(0, SPLIT) {
        Err(ServerError::Query(e)) => {
            assert_eq!(e, "SPLIT changes the schema, so a read cannot run it");
        }
        other => panic!("a read must refuse an evolution, got {other:?}"),
    }
    let next = group.wal_position();
    assert_eq!(
        client.query(SPLIT).unwrap(),
        format!("split `Dpt.Smith` into `Dpt.S1`, `Dpt.S2`: journaled at LSN {next}\n")
    );
    let fact = WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![cs.paul],
            at: Instant::ym(2004, 2),
            values: vec![5.0],
        }],
    };
    assert_eq!(
        client.commit(&fact).unwrap(),
        next + 1,
        "the next commit follows"
    );

    let handle = server.follower_handle().expect("follower attached");
    {
        let mut f = handle.lock().unwrap();
        let TailSource::Frames(frames) = WalTailer::new(&dir)
            .fetch_budget(f.next_lsn(), u64::MAX, 64, usize::MAX)
            .unwrap()
        else {
            panic!("nothing is pruned: the tail ships as frames");
        };
        let epoch = f.epoch();
        f.handle(ReplicaMsg::Frames { epoch, frames }).unwrap();
        let primary = group.with_store(|s| snapshot(s.schema()));
        assert_eq!(snapshot(f.schema().unwrap()), primary, "replayed split");
    }
    assert_eq!(
        client.read_at(next + 1, "SHOW LOG").unwrap(),
        client.query("SHOW LOG").unwrap()
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fdir).ok();
}

/// A fenced primary refuses an evolution statement exactly as it
/// refuses a `commit`; a bad name is a query error, before any commit.
#[test]
fn a_fenced_primary_refuses_a_statement_as_it_refuses_a_commit() {
    let dir = tmp("evolve_fenced");
    let cs = case_study();
    let store = DurableTmd::create(&dir, cs.tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let server =
        SessionServer::spawn(&local_addr(), group.clone(), ServerOptions::default()).unwrap();
    let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    match client.query("DELETE Org 'Dpt.Nobody' AT 01/2004") {
        Err(ServerError::Query(e)) => {
            assert_eq!(e, "unknown member `Dpt.Nobody` in dimension `Org`");
        }
        other => panic!("expected a query error, got {other:?}"),
    }

    group.fence(group.epoch() + 1);
    let head = group.wal_position();
    let committed = client.commit(&WalRecord::Delete {
        dim: cs.org,
        id: cs.smith,
        at: Instant::ym(2004, 1),
    });
    let Err(ServerError::Commit(refusal)) = committed else {
        panic!("a fenced primary must refuse a commit, got {committed:?}");
    };
    // The same typed refusal is the same `err commit` frame.
    match client.query(SPLIT) {
        Err(ServerError::Commit(e)) => assert_eq!(e, refusal),
        other => panic!("expected the commit refusal, got {other:?}"),
    }
    assert_eq!(group.wal_position(), head, "nothing journaled");

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// A fleet primary commits an evolution statement itself: the
/// forward count does not move and the member never sees it.
#[test]
fn a_fleet_primary_never_forwards_an_evolution() {
    let dir = tmp("evolve_fleet");
    let store = DurableTmd::create(&dir, case_study().tmd).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    let member =
        SessionServer::spawn(&local_addr(), group.clone(), ServerOptions::default()).unwrap();
    group.member_synced("m1", group.wal_position());
    let fleet = vec![FleetMember {
        name: "m1".to_string(),
        addr: member.addr().clone(),
    }];
    let primary = SessionServer::spawn_with_fleet(
        &local_addr(),
        group.clone(),
        fleet,
        NetConfig::default(),
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = SessionClient::connect(primary.addr().clone(), NetConfig::default());
    let next = group.wal_position();
    let reclassify = "RECLASSIFY Org 'Dpt.Brian' FROM 'R&D' TO 'Sales' AT 01/2004";
    assert_eq!(
        client.query(reclassify).unwrap(),
        format!("reclassified `Dpt.Brian` to `Sales`: journaled at LSN {next}\n")
    );
    assert_eq!(primary.pool_stats().forwarded, 0, "not forwarded");
    assert_eq!(member.pool_stats().served, 0, "the member never saw it");

    drop(primary);
    drop(member);
    std::fs::remove_dir_all(&dir).ok();
}
