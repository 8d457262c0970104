//! The session server: admission gate, a fixed worker pool
//! multiplexing nonblocking sessions, request dispatch through the
//! group-committed store, read routing — to an optional local
//! follower or across a remote fleet of members — and the primary's
//! side of the follower protocol, on the same port.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use mvolap_core::{ExecContext, ShardedMemo};
use mvolap_durable::{majority, DurableError, GroupCommit, WalRecord};
use mvolap_query::{parse_statement, render_statement, Evolve, QueryError, Statement};
use mvolap_replica::{
    answer_follower, is_follower_request, stop_listener, Follower, NetAddr, NetConfig, NetListener,
    WalTailer,
};

use crate::client::SessionClient;
use crate::pool::{self, JobQueue, PoolCounters, PoolStats};
use crate::proto::{self, Reply, Request, ServerError};

/// A group's commit quorum as `needed/voters` (`2/3`): a strict
/// majority of its voting size at the head of the log.
#[must_use]
pub fn quorum_figure(commit: &GroupCommit) -> String {
    let size = commit.quorum_size();
    format!("{}/{size}", majority(size))
}

/// Tuning for [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Pool worker threads multiplexing the connected sessions (at
    /// least one: `0` is served as `1`).
    pub workers: usize,
    /// Sessions held concurrently (each parked session costs a file
    /// descriptor, not a thread); the `max_sessions + 1`st is refused.
    pub max_sessions: usize,
    /// Requests allowed to wait for a free worker beyond one in flight
    /// per worker; one more is refused with a typed
    /// [`ServerError::Busy`].
    pub max_queued: usize,
    /// Per-connection socket write timeout.
    pub write_timeout_ms: u64,
    /// Worker threads per query execution (morsel parallelism).
    pub exec_threads: usize,
    /// How long a `commit` waits for the replication quorum before the
    /// session gets a typed [`ServerError::Unreplicated`]. Only
    /// consulted when the group has a quorum configured
    /// ([`GroupCommit::quorum_size`] `> 1`).
    pub quorum_timeout_ms: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
            max_sessions: 256,
            max_queued: 64,
            write_timeout_ms: 10_000,
            exec_threads: 2,
            quorum_timeout_ms: 2_000,
        }
    }
}

/// One remote member a fleet-routing server can forward reads to: the
/// session address of the server fronting that member's replica.
#[derive(Debug, Clone)]
pub struct FleetMember {
    /// The member's name as known to the group-commit quorum tracker
    /// (its acked positions are looked up under this name).
    pub name: String,
    /// Session-server address serving reads from the member's replica.
    pub addr: NetAddr,
}

/// Read routing across a remote fleet: per-member staleness bounds
/// derived from the quorum acks the primary already collects. The
/// member list is shared and mutable so a live membership change
/// re-routes reads immediately — a removed member stops being
/// consulted the moment it leaves, a promoted joiner starts serving.
pub(crate) struct FleetRouting {
    members: Arc<Mutex<Vec<FleetMember>>>,
    net: NetConfig,
}

/// Locks a mutex, ignoring std's panic-poisoning: a server must keep
/// serving other sessions after one worker panics.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded admission: at most `max_sessions` hold a slot at once;
/// everyone else is refused immediately.
#[derive(Debug)]
pub(crate) struct Gate {
    active: Mutex<usize>,
    max_sessions: usize,
}

impl Gate {
    fn new(max_sessions: usize) -> Gate {
        Gate {
            active: Mutex::new(0),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Nonblocking admission for the poll loop: a free slot or an
    /// immediate typed `Busy` carrying the pool's occupancy (`queued`
    /// reports requests waiting for a worker, passed in by the caller —
    /// sessions never wait on admission).
    pub(crate) fn try_admit(
        self: &Arc<Gate>,
        queued_now: usize,
    ) -> Result<GatePermit, ServerError> {
        let mut active = lock(&self.active);
        if *active >= self.max_sessions {
            return Err(ServerError::Busy {
                active: *active,
                queued: queued_now,
            });
        }
        *active += 1;
        Ok(GatePermit {
            gate: Arc::clone(self),
        })
    }

    /// Sessions currently holding a slot.
    pub(crate) fn active(&self) -> usize {
        *lock(&self.active)
    }
}

/// RAII session slot: dropping it (normal end, disconnect, panic
/// unwind) frees the slot.
pub(crate) struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut active = lock(&self.gate.active);
        *active = active.saturating_sub(1);
    }
}

/// Everything a request handler needs, shared across sessions and
/// workers.
pub(crate) struct SessionCtx {
    pub(crate) commit: GroupCommit,
    pub(crate) follower: Option<Arc<Mutex<Follower>>>,
    pub(crate) fleet: Option<FleetRouting>,
    pub(crate) gate: Arc<Gate>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) exec: ExecContext,
    pub(crate) memo: ShardedMemo,
    pub(crate) workers: usize,
    pub(crate) queue: JobQueue,
    pub(crate) counters: PoolCounters,
    pub(crate) quorum_timeout_ms: u64,
    /// The primary's log, as followers are served from it.
    pub(crate) tailer: WalTailer,
    /// Each follower's acked position, clamped at the synced head.
    pub(crate) follower_acks: Mutex<BTreeMap<String, u64>>,
}

impl SessionCtx {
    fn pool_stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            active: self.gate.active(),
            queued: self.queue.waiting(),
            parked: self.counters.parked.load(Ordering::Relaxed),
            served: self.counters.served.load(Ordering::Relaxed),
            refused: self.counters.refused.load(Ordering::Relaxed),
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            memo: self.memo.shard_stats(),
        }
    }

    /// What `SHOW STATUS` answers: one pool line, one line per memo
    /// shard, the quorum when one is configured, and each follower's
    /// acked LSN and lag behind the synced head.
    fn status(&self) -> String {
        use std::fmt::Write as _;
        let p = self.pool_stats();
        let mut out = format!(
            "  pool: workers={} active={} queued={} parked={} served={} refused={} forwarded={}\n",
            p.workers, p.active, p.queued, p.parked, p.served, p.refused, p.forwarded
        );
        for (i, m) in p.memo.iter().enumerate() {
            let (r, a, t) = (&m.routes, &m.ancestors, &m.presentations);
            let _ = writeln!(
                out,
                "  memo shard {i}: routes {}/{} hits/misses, ancestors {}/{}, \
                 presentations {}/{} (+{} extended)",
                r.hits, r.misses, a.hits, a.misses, t.hits, t.misses, m.extended
            );
        }
        if self.commit.quorum_size() > 1 {
            let _ = writeln!(out, "  quorum: {}", quorum_figure(&self.commit));
        }
        let head = self.commit.synced_lsn();
        for (name, acked) in lock(&self.follower_acks).iter() {
            let lag = head.saturating_sub(*acked);
            let _ = writeln!(out, "  follower {name}: acked LSN {acked}, lag {lag}");
        }
        out
    }
}

/// A concurrent session server over a group-committed store.
///
/// A single poll loop owns every connection: idle sessions are parked
/// nonblocking and a fixed pool of `workers` threads serves ready,
/// fully-framed requests from a bounded queue — see [`crate::pool`].
/// `spawn` binds a [`NetAddr`], and [`SessionServer::stop`] (also run
/// on drop) stops accepting, joins the loop and flushes the
/// group-commit batch so everything acknowledged — and everything
/// applied — is on disk.
///
/// The same port answers followers: a frame whose first token is a
/// replication message kind (`hello`, `ack`, `fence`, …) is answered
/// by [`mvolap_replica::answer_follower`] from the group's fsynced
/// log, under the group's own epoch and fence — so
/// [`mvolap_replica::sync_follower`] follows a session server
/// directly, and a newer-epoch request fences the group for every
/// session at once.
pub struct SessionServer {
    addr: NetAddr,
    commit: GroupCommit,
    follower: Option<Arc<Mutex<Follower>>>,
    fleet: Option<Arc<Mutex<Vec<FleetMember>>>>,
    ctx: Arc<SessionCtx>,
    pool: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl SessionServer {
    /// Binds `bind` and serves sessions against `commit`'s store.
    ///
    /// # Errors
    ///
    /// [`ServerError::Transport`] when the address cannot be bound.
    pub fn spawn(
        bind: &NetAddr,
        commit: GroupCommit,
        opts: ServerOptions,
    ) -> Result<SessionServer, ServerError> {
        SessionServer::start(bind, commit, None, None, opts)
    }

    /// Like [`SessionServer::spawn`], with a local read follower:
    /// `read` requests are routed to it when it satisfies the staleness
    /// bound. The follower only advances as a shipper — a member pump,
    /// or a test fetching from the log itself — delivers to
    /// [`SessionServer::follower_handle`].
    ///
    /// # Errors
    ///
    /// [`ServerError::Transport`] when the address cannot be bound.
    pub fn spawn_with_follower(
        bind: &NetAddr,
        commit: GroupCommit,
        follower: Follower,
        opts: ServerOptions,
    ) -> Result<SessionServer, ServerError> {
        SessionServer::start(
            bind,
            commit,
            Some(Arc::new(Mutex::new(follower))),
            None,
            opts,
        )
    }

    /// Like [`SessionServer::spawn`], with fleet routing. Sessions —
    /// not just explicit `read min_lsn` requests — are spread across
    /// the replica fleet: a `query` is forwarded to the session's
    /// pinned member when that member's quorum-acked position reaches
    /// the quorum watermark (the freshest qualifying member otherwise),
    /// and falls back to the primary when nobody qualifies or the
    /// forward fails. Commits always stay on the primary. Explicit
    /// `read` requests keep their caller-chosen staleness bound and are
    /// forwarded to the freshest member satisfying it, refusing with a
    /// typed [`ServerError::TooStale`] that names the freshest member
    /// consulted. Member positions come from the acks the group-commit
    /// layer already collects, so routing costs no extra round-trips.
    ///
    /// # Errors
    ///
    /// [`ServerError::Transport`] when the address cannot be bound.
    pub fn spawn_with_fleet(
        bind: &NetAddr,
        commit: GroupCommit,
        fleet: Vec<FleetMember>,
        net: NetConfig,
        opts: ServerOptions,
    ) -> Result<SessionServer, ServerError> {
        SessionServer::start(
            bind,
            commit,
            None,
            Some(FleetRouting {
                members: Arc::new(Mutex::new(fleet)),
                net,
            }),
            opts,
        )
    }

    fn start(
        bind: &NetAddr,
        commit: GroupCommit,
        follower: Option<Arc<Mutex<Follower>>>,
        fleet: Option<FleetRouting>,
        opts: ServerOptions,
    ) -> Result<SessionServer, ServerError> {
        let listener = NetListener::bind(bind)
            .map_err(|e| ServerError::Transport(mvolap_replica::ReplicaError::from_io(&e)))?;
        let addr = listener.local_addr().clone();
        let shutdown = Arc::new(AtomicBool::new(false));
        let fleet_handle = fleet.as_ref().map(|f| Arc::clone(&f.members));
        let workers = opts.workers.max(1);
        let tailer = WalTailer::new(commit.with_store(|s| s.dir().to_path_buf()));
        let ctx = Arc::new(SessionCtx {
            commit: commit.clone(),
            follower: follower.clone(),
            fleet,
            gate: Arc::new(Gate::new(opts.max_sessions)),
            shutdown: Arc::clone(&shutdown),
            exec: ExecContext::new(opts.exec_threads.max(1)),
            memo: ShardedMemo::new(workers),
            workers,
            queue: JobQueue::new(workers, opts.max_queued),
            counters: PoolCounters::default(),
            quorum_timeout_ms: opts.quorum_timeout_ms,
            tailer,
            follower_acks: Mutex::new(BTreeMap::new()),
        });
        let (back, returned) = mpsc::channel();
        let pool = (0..workers)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                let back = back.clone();
                std::thread::spawn(move || pool::worker_loop(&ctx, &back))
            })
            .collect();
        let poll_ctx = Arc::clone(&ctx);
        let write_ms = opts.write_timeout_ms;
        let accept = std::thread::spawn(move || {
            pool::poll_loop(&listener, &poll_ctx, &returned, write_ms);
        });
        Ok(SessionServer {
            addr,
            commit,
            follower,
            fleet: fleet_handle,
            ctx,
            pool,
            shutdown,
            accept: Some(accept),
        })
    }

    /// Adds (or re-addresses) a fleet member on a live fleet-routing
    /// server: `read` requests start considering it immediately.
    /// Returns `false` on a server spawned without a fleet.
    pub fn add_fleet_member(&self, member: FleetMember) -> bool {
        let Some(fleet) = &self.fleet else {
            return false;
        };
        let mut members = lock(fleet);
        if let Some(m) = members.iter_mut().find(|m| m.name == member.name) {
            m.addr = member.addr;
        } else {
            members.push(member);
        }
        true
    }

    /// Drops a fleet member from read routing: the next `read` no
    /// longer consults it, even when it was the freshest. Returns
    /// whether the member was present.
    pub fn remove_fleet_member(&self, name: &str) -> bool {
        let Some(fleet) = &self.fleet else {
            return false;
        };
        let mut members = lock(fleet);
        let before = members.len();
        members.retain(|m| m.name != name);
        members.len() != before
    }

    /// The bound address (with the OS-chosen port for `addr:0` binds).
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    /// A clone of the group-commit handle — for assertions (fsync
    /// counts, WAL position, digests) and out-of-band writes.
    pub fn group(&self) -> GroupCommit {
        self.commit.clone()
    }

    /// A point-in-time snapshot of the pool counters: occupancy
    /// (active / queued / parked), lifetime served / refused /
    /// forwarded totals and per-shard memo counters (routes, roll-ups,
    /// presented tables).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.ctx.pool_stats()
    }

    /// Every follower that acked over this port, with its acked
    /// position (next-LSN convention, never past the synced head) —
    /// the operator's view of who follows and how far behind.
    #[must_use]
    pub fn follower_acks(&self) -> Vec<(String, u64)> {
        lock(&self.ctx.follower_acks)
            .iter()
            .map(|(n, &p)| (n.clone(), p))
            .collect()
    }

    /// The attached read follower, shared for out-of-band shipping —
    /// this is the handle an async pump engine delivers envelopes to.
    /// `None` on servers spawned without a follower.
    #[must_use]
    pub fn follower_handle(&self) -> Option<Arc<Mutex<Follower>>> {
        self.follower.clone()
    }

    /// Highest LSN the attached follower has applied (0 when none is
    /// attached or the follower is empty).
    pub fn follower_applied(&self) -> u64 {
        self.follower
            .as_ref()
            .map(|f| lock(f).next_lsn().saturating_sub(1))
            .unwrap_or(0)
    }

    /// Stops accepting, joins the poll loop and the worker pool
    /// (requests already queued still get their reply; parked sessions
    /// are told `err shutdown`) and flushes the group-commit batch.
    /// Idempotent.
    pub fn stop(&mut self) {
        if self.accept.is_some() {
            stop_listener(&self.shutdown, &mut self.accept);
            self.ctx.queue.wake_all();
            for worker in self.pool.drain(..) {
                worker.join().ok();
            }
            self.commit.flush().ok();
        }
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Answers one request frame for `session`: follower-protocol frames
/// from the group's log, everything else as a session request.
pub(crate) fn handle_frame(ctx: &SessionCtx, session: u64, payload: &[u8]) -> Vec<u8> {
    if is_follower_request(payload) {
        return answer_follower(&ctx.commit, &ctx.tailer, &ctx.follower_acks, payload);
    }
    proto::encode_reply(&handle_request(ctx, session, payload))
}

/// Decodes and executes one request for `session` (the id picks the
/// memo shard and the fleet pin; it is server-assigned and stable for
/// the connection's lifetime).
fn handle_request(ctx: &SessionCtx, session: u64, payload: &[u8]) -> Reply {
    let req = match proto::decode_request(payload) {
        Ok(req) => req,
        Err(e) => return Reply::Err(e),
    };
    match req {
        Request::Ping => Reply::Result("pong".to_string()),
        Request::Query(text) => answer(ctx, session, None, &text),
        Request::Read { min_lsn, text } => answer(ctx, session, Some(min_lsn), &text),
        Request::Commit(record) => commit(ctx, record).map_or_else(Reply::Err, Reply::Lsn),
    }
}

/// Commits one record: once a majority acked it when a replication
/// quorum is configured, by plain local group commit otherwise. Commits
/// never leave the primary, whatever the fleet routing does with reads.
fn commit(ctx: &SessionCtx, record: WalRecord) -> Result<u64, ServerError> {
    let res = if ctx.commit.quorum_size() > 1 {
        ctx.commit.commit_replicated(record, ctx.quorum_timeout_ms)
    } else {
        ctx.commit.commit(record)
    };
    res.map_err(|e| match e {
        DurableError::Unreplicated { lsn, acked } => ServerError::Unreplicated { lsn, acked },
        e => ServerError::Commit(e.to_string()),
    })
}

/// Runs an evolution statement: its names resolve against the
/// primary's schema under the store lock, then its record commits as a
/// `commit` request's does.
fn evolve(ctx: &SessionCtx, e: &Evolve) -> Reply {
    match ctx.commit.with_store(|s| e.resolve(s.schema())) {
        Ok(record) => match commit(ctx, record) {
            Ok(lsn) => Reply::Result(format!("{}: journaled at LSN {lsn}\n", e.describe())),
            Err(err) => Reply::Err(err),
        },
        Err(err) => Reply::Err(ServerError::Query(err.to_string())),
    }
}

/// Answers a `query` (`min_lsn` `None`) or a `read` statement. The
/// text is parsed once, here; `SHOW STATUS` describes this server, so
/// it is answered here and never routed, and so is an evolution, which
/// a `query` commits and a `read` refuses. A fleet primary forwards
/// everything else by its text. Sessions spread across the fleet: the
/// bound is the quorum watermark (everything a quorum-acked commit was
/// acknowledged for — so a session that just committed reads its own
/// write from any qualifying member), the session's pinned member
/// serves when it qualifies, and the primary when nobody does.
fn answer(ctx: &SessionCtx, session: u64, min_lsn: Option<u64>, text: &str) -> Reply {
    let statement = match parse_statement(text) {
        Ok(Statement::Status) => return Reply::Result(ctx.status()),
        Ok(Statement::Evolve(e)) if min_lsn.is_none() => return evolve(ctx, &e),
        Ok(Statement::Evolve(e)) => return answer_reply(Err(QueryError::NotARead(e.op.keyword))),
        Ok(statement) => statement,
        Err(e) => return answer_reply(Err(e)),
    };
    match (&ctx.fleet, min_lsn) {
        (Some(fleet), None) => {
            let watermark = ctx.commit.quorum_lsn().saturating_sub(1);
            fleet_route(ctx, fleet, session, text, &statement, watermark, true)
        }
        (Some(fleet), Some(bound)) => {
            fleet_route(ctx, fleet, session, text, &statement, bound, false)
        }
        (None, Some(bound)) => follower_read(ctx, session, bound, &statement),
        (None, None) => primary_query(ctx, session, &statement),
    }
}

/// Runs a statement on the primary under the store's shared read lock,
/// so concurrent sessions execute in parallel and only commits
/// serialise.
fn primary_query(ctx: &SessionCtx, session: u64, statement: &Statement) -> Reply {
    let memo = ctx.memo.for_session(session);
    answer_reply(
        ctx.commit
            .with_store(|s| render_statement(s.schema(), statement, &ctx.exec, memo)),
    )
}

/// A rendered answer as the session's reply.
fn answer_reply(answer: Result<String, QueryError>) -> Reply {
    match answer {
        Ok(out) => Reply::Result(out),
        Err(e) => Reply::Err(ServerError::Query(e.to_string())),
    }
}

/// Routes one request across the fleet: a `pinned` session's query
/// to the member its id selects (reduced modulo the fleet) when that
/// member's quorum-acked position covers `bound`, else to the freshest
/// member, ties broken on the name so routing is deterministic.
/// Positions come from the acks the group-commit layer already
/// collects — a member that acked LSN `n` has fsynced **and applied**
/// through `n`, so the forwarded `read` of `text` renders the same
/// bytes the primary would there and no extra probe is needed. When
/// nobody covers the bound (a typed `TooStale` naming the freshest
/// member consulted) or the forward fails — the member restarted,
/// refused after a membership race, timed out — a pinned query is
/// answered from the primary and an explicit `read` gets the error.
fn fleet_route(
    ctx: &SessionCtx,
    fleet: &FleetRouting,
    session: u64,
    text: &str,
    statement: &Statement,
    bound: u64,
    pinned: bool,
) -> Reply {
    let positions = ctx.commit.member_positions();
    // The tracker speaks next-LSN ("synced everything below");
    // subtract one to get the highest LSN the member has applied.
    let acked_of = |name: &str| {
        positions
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, p)| p.saturating_sub(1))
    };
    // Snapshot the member list: membership can change under a live
    // server, and the forwarding round-trip below must not hold the
    // list lock.
    let members: Vec<FleetMember> = lock(&fleet.members).clone();
    let Some(freshest) = members
        .iter()
        .max_by_key(|&m| (acked_of(&m.name), m.name.as_str()))
    else {
        // An empty fleet: the primary serves, as without a follower.
        return primary_query(ctx, session, statement);
    };
    let target = Some(&members[(session % members.len() as u64) as usize])
        .filter(|m| pinned && acked_of(&m.name) >= bound)
        .unwrap_or(freshest);
    let applied = acked_of(&target.name);
    let forwarded = if applied < bound {
        Err(ServerError::TooStale {
            required: bound,
            applied,
            member: Some(target.name.clone()),
        })
    } else {
        SessionClient::connect(target.addr.clone(), fleet.net.clone()).read_at(bound, text)
    };
    match forwarded {
        Ok(out) => {
            ctx.counters.forwarded.fetch_add(1, Ordering::Relaxed);
            Reply::Result(out)
        }
        Err(_) if pinned => primary_query(ctx, session, statement),
        Err(e) => Reply::Err(e),
    }
}

/// Routes a `read` to the attached local follower; refuses with a
/// typed `TooStale` when it does not satisfy the staleness bound.
/// Without a follower, the primary serves it (a primary is never
/// stale).
fn follower_read(ctx: &SessionCtx, session: u64, min_lsn: u64, statement: &Statement) -> Reply {
    let Some(follower) = &ctx.follower else {
        return primary_query(ctx, session, statement);
    };
    let f = lock(follower);
    let applied = f.next_lsn().saturating_sub(1);
    let tmd = f.schema().filter(|_| applied >= min_lsn);
    // An empty follower has nothing applied yet, whatever the bound.
    let Some(tmd) = tmd else {
        return Reply::Err(ServerError::TooStale {
            required: min_lsn,
            applied,
            member: None,
        });
    };
    answer_reply(render_statement(
        tmd,
        statement,
        &ctx.exec,
        ctx.memo.for_session(session),
    ))
}
