//! Session-server walkthrough: the warehouse served to concurrent
//! clients over loopback TCP, group commit coalescing their fsyncs,
//! and read routing failing over to a follower once it has caught up.
//!
//! Three scenes:
//!
//! 1. **Serve.** A [`SessionServer`] binds a loopback port over the
//!    paper's case study, with a local [`Follower`] attached for read
//!    routing. The server runs its default worker pool: a poll loop
//!    parks the eight sessions nonblocking and four workers serve
//!    their ready requests — idle sessions cost a file descriptor,
//!    not a thread.
//! 2. **Concurrent clients.** Eight sessions commit fact batches and
//!    run the paper's Q1 at the same time; the group-commit journal
//!    counters show the sharing — never more than one fsync per commit,
//!    fewer whenever commits arrive while another's fsync is in flight
//!    or within the 1 ms pace between syncs — and the pool counters
//!    show every request flowing through the fixed worker set with the
//!    sharded query memo absorbing the repeated lookups. A repeated Q1
//!    is then served from the kept presented fact table, and a commit
//!    between two identical queries extends that table rather than
//!    rebuilding it.
//! 3. **Follower reads.** A `read` request carries an explicit
//!    staleness bound: while the follower is behind it is refused with
//!    the typed `TooStale` error, and once a member pump has shipped
//!    it the log's tail the same request is served from the follower
//!    byte-identically to the primary's answer.
//!
//! ```text
//! cargo run --example serving
//! ```
//!
//! CI runs this binary as the serving acceptance check: it exits
//! non-zero unless the concurrent commits are all journaled, group
//! commit spends no more fsyncs than commits, the presented table is
//! hit and extended as above, and the follower read matches the
//! primary's answer byte-for-byte.

use mvolap::cluster::{MemberPump, PumpConfig, PumpShared, PumpStep, PumpTracker};
use mvolap::core::{case_study, MemoStats};
use mvolap::durable::{DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap::prelude::*;
use mvolap::replica::{Follower, NetAddr, NetConfig};
use mvolap::server::{ServerError, ServerOptions, SessionClient, SessionServer};

const Q1: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2004 IN MODE tcm";

const SESSIONS: usize = 8;
const COMMITS_PER_SESSION: usize = 4;

fn main() {
    let base = std::env::temp_dir().join(format!("mvolap_serving_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("temp dir");

    // 1. Serve the case study with an attached read follower.
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(
        &base.join("primary"),
        cs.tmd,
        Options::default(),
        Io::plain(),
    )
    .expect("create store");
    let group = GroupCommit::new(store, GroupConfig::default());
    let follower = Follower::create(
        "reader",
        base.join("reader"),
        Options::default(),
        Io::plain(),
    );
    let mut server = SessionServer::spawn_with_follower(
        &NetAddr::parse("127.0.0.1:0").expect("addr"),
        group,
        follower,
        ServerOptions::default(),
    )
    .expect("bind server");
    let addr = server.addr().clone();
    let group = server.group();
    println!("serving on {addr} from {}", base.display());

    // 2. Concurrent sessions: every thread connects, commits facts to
    //    its own case-study leaf and interleaves Q1 reads. A commit
    //    that arrives while another's fsync is in flight rides the
    //    next fsync, due 1 ms after that one, together with everything
    //    else that arrived.
    let leaves = [cs.brian, cs.smith, cs.bill, cs.paul];
    let fsyncs_before = group.fsyncs();
    let lsn_before = group.wal_position();
    let workers: Vec<_> = (0..SESSIONS)
        .map(|w| {
            let addr = addr.clone();
            let leaf = leaves[w % leaves.len()];
            std::thread::spawn(move || {
                let mut client = SessionClient::connect(addr, NetConfig::default());
                for i in 0..COMMITS_PER_SESSION {
                    client
                        .commit(&WalRecord::FactBatch {
                            rows: vec![FactRow {
                                coords: vec![leaf],
                                at: Instant::ym(2003, 1 + ((w + i) % 12) as u32),
                                values: vec![(w * 10 + i) as f64],
                            }],
                        })
                        .expect("commit");
                    client.query(Q1).expect("query");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("session thread");
    }
    let commits = group.wal_position() - lsn_before;
    let fsyncs = group.fsyncs() - fsyncs_before;
    println!(
        "\n{SESSIONS} sessions journaled {commits} commits with {fsyncs} fsyncs \
         ({:.2} fsyncs/commit; shared by everything that arrived between two paced syncs)",
        fsyncs as f64 / commits as f64
    );
    assert_eq!(
        commits,
        (SESSIONS * COMMITS_PER_SESSION) as u64,
        "every acknowledged commit must be journaled"
    );
    assert!(
        fsyncs <= commits,
        "group commit must never spend more fsyncs than commits"
    );

    // The pool carried all of it: 8 sessions multiplexed over 4 worker
    // threads, every request counted, the sharded memo warm.
    let expected = (SESSIONS * COMMITS_PER_SESSION * 2) as u64;
    let stats = server.pool_stats();
    println!(
        "pool: {} workers served {} requests ({} refused), memo shards: {}",
        stats.workers,
        stats.served,
        stats.refused,
        stats.memo.len()
    );
    assert!(
        stats.served >= expected,
        "every commit and query goes through the pool: {} < {expected}",
        stats.served
    );
    let memo_hits: u64 = stats
        .memo
        .iter()
        .map(|m| m.routes.hits + m.ancestors.hits)
        .sum();
    assert!(memo_hits > 0, "repeated Q1 must hit the sharded memo");

    // The presented fact table (the MultiVersion tier) is kept across
    // queries: a repeated Q1 touches no fact row, and a commit between
    // two identical queries extends the table over the appended row
    // instead of presenting every fact again.
    let memo_total = || {
        server
            .pool_stats()
            .memo
            .into_iter()
            .fold(MemoStats::default(), |acc, m| acc + m)
    };
    let mut client = SessionClient::connect(addr.clone(), NetConfig::default());
    client.query(Q1).expect("query");
    let before = memo_total();
    client.query(Q1).expect("query");
    let repeated = memo_total();
    assert!(
        repeated.presentations.hits > before.presentations.hits,
        "repeated Q1 must hit the presented table"
    );
    client
        .commit(&WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.smith],
                at: Instant::ym(2003, 6),
                values: vec![1.5],
            }],
        })
        .expect("commit");
    client.query(Q1).expect("query");
    let appended = memo_total();
    assert_eq!(
        (appended.extended, appended.presentations.misses),
        (repeated.extended + 1, repeated.presentations.misses),
        "a commit between two identical queries must extend the presented table, not rebuild it"
    );
    println!(
        "presented tables: {} hits, {} extended over appended facts, {} built",
        appended.presentations.hits, appended.extended, appended.presentations.misses
    );

    // 3. Read routing with an explicit staleness bound. The follower
    //    has applied nothing yet, so a read demanding the latest commit
    //    is refused with the typed error...
    let latest = group.wal_position() - 1;
    match client.read_at(latest, Q1) {
        Err(ServerError::TooStale {
            required, applied, ..
        }) => {
            println!("\nfollower read refused: requires LSN {required}, applied {applied}")
        }
        other => panic!("expected TooStale, got {other:?}"),
    }

    // ...until a member pump — the served fleet's shipper, stepped by
    // hand here instead of running on its thread — catches it up, after
    // which the same bounded read is served from the follower,
    // byte-identical to the primary's answer.
    let mut pump = MemberPump::new(
        PumpShared::new(group.clone()),
        "reader",
        server.follower_handle().expect("follower attached"),
        &base.join("primary"),
        PumpConfig::default(),
        PumpTracker::new(),
    );
    loop {
        match pump.step() {
            PumpStep::Idle => break,
            PumpStep::Progress { .. } | PumpStep::Blocked { .. } => {}
            other => panic!("pump derailed: {other:?}"),
        }
    }
    println!("follower pumped to LSN {}", server.follower_applied());
    let from_follower = client.read_at(latest, Q1).expect("follower read");
    let from_primary = client.query(Q1).expect("primary read");
    assert_eq!(
        from_follower, from_primary,
        "follower reads must match the primary byte-for-byte"
    );
    println!("\nQ1 served from the follower (LSN bound {latest}):");
    for line in from_follower.lines() {
        println!("  {line}");
    }

    drop(client);
    server.stop();
    println!(
        "\nserving complete: every commit covered by an fsync, follower answered within its bound."
    );
    std::fs::remove_dir_all(&base).ok();
}
