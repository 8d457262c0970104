//! Networked replication walkthrough: a primary's session server on
//! real TCP loopback, a follower syncing through the same port,
//! promotion, and a fenced-commit probe against the deposed server.
//!
//! Every frame crosses a socket: the primary sits behind a
//! [`SessionServer`], which answers the follower protocol beside its
//! queries; the follower pulls hello → heartbeat/frames → ack round
//! trips through a [`NetClient`] ([`sync_follower`]). Epoch fencing
//! lives on the primary's group commit: a single `fence` request at a
//! newer epoch deposes it, and every session then refuses commits.
//!
//! ```text
//! cargo run --example net_replication
//! ```
//!
//! CI runs this binary as the networked-failover acceptance check: it
//! exits non-zero unless the promoted follower answers the paper's Q1
//! byte-identically to the primary it replaced and the deposed server
//! refuses a commit over the wire.

use mvolap::core::case_study;
use mvolap::durable::{DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap::prelude::*;
use mvolap::replica::{
    sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError, ReplicaMsg,
};
use mvolap::server::{ServerError, ServerOptions, SessionClient, SessionServer};

const Q1: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2004 IN MODE tcm";

fn main() {
    let base = std::env::temp_dir().join(format!("mvolap_net_replication_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("temp dir");

    // 1. A primary on the paper's case study, its session server on
    //    loopback TCP. Port 0 lets the OS pick; the server reports the
    //    bound address.
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(
        &base.join("primary"),
        cs.tmd,
        Options::default(),
        Io::plain(),
    )
    .expect("create primary store");
    let mut server = SessionServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        GroupCommit::new(store, GroupConfig::default()),
        ServerOptions::default(),
    )
    .expect("bind loopback server");
    let addr = server.addr().clone();
    println!("primary serving on {addr} from {}", base.display());

    // 2. Evolve and load through a session while the store is served.
    let mut session = SessionClient::connect(addr.clone(), NetConfig::default());
    session
        .commit(&WalRecord::Create {
            dim: cs.org,
            name: "Dpt.NanoTech".into(),
            level: Some("Department".into()),
            at: Instant::ym(2004, 1),
            parents: vec![cs.rnd],
        })
        .expect("create member");
    session
        .commit(&WalRecord::FactBatch {
            rows: vec![
                FactRow {
                    coords: vec![cs.bill],
                    at: Instant::ym(2003, 5),
                    values: vec![55.0],
                },
                FactRow {
                    coords: vec![cs.paul],
                    at: Instant::ym(2003, 5),
                    values: vec![80.0],
                },
            ],
        })
        .expect("fact batch");

    // 3. A follower syncs through the same port: hello → heartbeat +
    //    frames → ack, one CRC frame per request and reply, until its
    //    log is a byte-identical copy of the primary's.
    let mut follower = Follower::create("f1", base.join("f1"), Options::default(), Io::plain());
    let mut client = NetClient::connect(addr.clone(), NetConfig::default());
    loop {
        let round = sync_follower(&mut client, &mut follower).expect("sync round");
        if round.caught_up() {
            break;
        }
    }
    println!(
        "  follower caught up at LSN {} (server acks: {:?})",
        follower.next_lsn(),
        server.follower_acks(),
    );

    let before = session.query(Q1).expect("query on the primary");
    println!("\nQ1 on the primary:\n{before}");

    // 4. Fail over: the follower's store becomes a primary at epoch 1,
    //    and one fence request at the new epoch deposes the old server
    //    — no shared memory, just the socket.
    let promoted = GroupCommit::new(
        follower.into_primary_store().expect("promote follower"),
        GroupConfig::default(),
    );
    promoted.adopt_epoch(1);
    let reply = client
        .request(&ReplicaMsg::Fence { epoch: 1 })
        .expect("fence rpc");
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 1 }]);
    println!(
        "f1 promoted to epoch {}; old server fenced over the wire",
        promoted.epoch()
    );

    // 5. The promoted follower answers Q1 byte-identically.
    let after = promoted.with_store(|s| {
        mvolap::query::render_answer(
            s.schema(),
            Q1,
            &mvolap::core::ExecContext::new(ServerOptions::default().exec_threads),
            &mvolap::core::QueryMemo::new(),
        )
        .expect("query on the promoted follower")
    });
    println!("\nQ1 on the promoted follower:\n{after}");
    assert_eq!(
        after, before,
        "failover must preserve every acknowledged answer"
    );

    // 6. Fenced-commit probe: the deposed server refuses a commit over
    //    the wire, and a freshly syncing follower gets the typed fence.
    let probe = session.commit(&WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![cs.smith],
            at: Instant::ym(2003, 7),
            values: vec![999.0],
        }],
    });
    match probe {
        Err(ServerError::Commit(reason)) if reason.contains("fenced at epoch 1") => {
            println!("deposed server is fenced: split-brain commit refused ({reason})")
        }
        other => panic!("expected a fenced commit refusal, got {other:?}"),
    }
    let mut late = Follower::create("f2", base.join("f2"), Options::default(), Io::plain());
    match sync_follower(&mut client, &mut late) {
        Err(ReplicaError::Fenced { epoch }) => {
            println!("late follower refused by the fenced server (epoch {epoch})")
        }
        other => panic!("expected Fenced over the wire, got {other:?}"),
    }

    server.stop();
    println!("\nnetworked failover complete: promoted follower serves the same answers over TCP.");
    std::fs::remove_dir_all(&base).ok();
}
