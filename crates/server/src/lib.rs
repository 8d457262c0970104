//! # mvolap-server — concurrent session server
//!
//! Serves the temporal multidimensional warehouse to many clients at
//! once over the replication stack's transport (TCP or unix sockets,
//! CRC-framed messages):
//!
//! - **Pooled sessions.** A fixed pool of `workers` threads
//!   multiplexes every connection ([`pool`]): one poll loop parks idle
//!   sessions nonblocking and hands ready, fully-framed requests —
//!   speaking the typed request/reply grammar in [`proto`]: `query`,
//!   `read`, `commit`, `ping` — to the workers over a bounded queue.
//!   An idle session costs a file descriptor, not a thread, so
//!   hundreds of mostly-idle clients are held by a handful of threads.
//!   The query memo is sharded by session affinity
//!   ([`mvolap_core::ShardedMemo`]) so workers serving different
//!   sessions stop contending on one cache's locks.
//! - **Admission control.** At most `max_sessions` sessions hold a
//!   slot and at most `max_queued` requests wait for a worker; the
//!   next client gets a typed [`ServerError::Busy`] refusal instead of
//!   an unbounded queue. [`SessionServer::pool_stats`] snapshots the
//!   occupancy (active / queued / parked, served / refused /
//!   forwarded, per-shard memo hits); a session reads the same
//!   counters, the quorum and each follower's lag with the statement
//!   `SHOW STATUS`, which the receiving server answers itself.
//! - **Group commit.** Writes go through
//!   [`mvolap_durable::GroupCommit`]: concurrent committers append
//!   unsynced and share a single fsync per batch, so N sessions
//!   committing together cost ~1 flush, not N — without weakening the
//!   durability contract (a reply arrives only after the covering
//!   sync).
//! - **Read routing.** `read` requests carry an explicit staleness
//!   bound (`min_lsn`); a server with an attached
//!   [`mvolap_replica::Follower`] serves them from the replica when it
//!   is fresh enough and refuses with a typed
//!   [`ServerError::TooStale`] when it is behind — the client chooses
//!   between retrying on the primary or relaxing its bound. A server
//!   fronting a replication group routes across the remote fleet
//!   instead ([`SessionServer::spawn_with_fleet`]): the bound is
//!   checked against each member's quorum-acked position and the read
//!   is forwarded to the freshest member that satisfies it; the
//!   refusal then names the member consulted. Plain `query` sessions
//!   are spread too: each session is pinned to a member (hash of the
//!   session id) and its queries forwarded there — or to the freshest
//!   qualifying member — whenever the member has acked the quorum
//!   watermark, falling back to the primary otherwise. Commits always
//!   stay on the primary.
//! - **Quorum commit.** When the group-commit layer has a replication
//!   quorum configured, a `commit` is acknowledged only after a
//!   majority of members acked it; on timeout the session gets a typed
//!   [`ServerError::Unreplicated`] (the record is locally durable but
//!   not majority-committed).
//! - **Followers on the same port.** A frame whose first token is a
//!   replication message kind (`hello`, `ack`, `fence`, …) speaks the
//!   follower protocol instead ([`mvolap_replica::answer_follower`]):
//!   hellos are answered from fsynced frames only, acks are recorded
//!   per follower ([`SessionServer::follower_acks`]), and a request
//!   proving a newer epoch fences the group — every clone of the
//!   [`mvolap_durable::GroupCommit`] then refuses commits. One
//!   listener per node; [`mvolap_replica::sync_follower`] is the
//!   client.
//!
//! ```no_run
//! use mvolap_durable::{DurableTmd, GroupCommit, GroupConfig};
//! use mvolap_replica::{NetAddr, NetConfig};
//! use mvolap_server::{ServerOptions, SessionClient, SessionServer};
//!
//! let cs = mvolap_core::case_study::case_study();
//! let store = DurableTmd::create(std::path::Path::new("warehouse"), cs.tmd).unwrap();
//! let group = GroupCommit::new(store, GroupConfig::default());
//! let server = SessionServer::spawn(
//!     &NetAddr::parse("127.0.0.1:0").unwrap(),
//!     group,
//!     ServerOptions::default(),
//! )
//! .unwrap();
//!
//! let mut client = SessionClient::connect(server.addr().clone(), NetConfig::default());
//! let table = client
//!     .query("SELECT sum(Amount) BY year, Org.Division FOR 2001..2002 IN MODE tcm")
//!     .unwrap();
//! println!("{table}");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::SessionClient;
pub use pool::PoolStats;
pub use proto::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request, ServerError,
};
pub use server::{quorum_figure, FleetMember, ServerOptions, SessionServer};
