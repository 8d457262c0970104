//! Standing the served warehouse up with the shipped defaults, and
//! driving it over loopback sockets through `SessionClient`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mvolap_cluster::{LocalCluster, MemberPumpStatus, PumpConfig};
use mvolap_core::Tmd;
use mvolap_durable::{DurableTmd, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap_replica::{NetAddr, NetConfig};
use mvolap_server::{PoolStats, ServerOptions, SessionClient, SessionServer};

use crate::workloads::{
    FactStream, Inputs, Kind, QueryOrder, Workload, COMMIT_WARMUP, MAINTAINER_RATE,
    MAINTAINER_WARMUP,
};

fn loopback() -> NetAddr {
    NetAddr::parse("127.0.0.1:0").expect("loopback address")
}

enum Node {
    Single(SessionServer),
    Cluster(Box<LocalCluster>),
}

/// The system under test: one primary session server over a fresh
/// durable store, or a three-node quorum group, on loopback sockets.
/// Every option is the shipped default — a changed default is a changed
/// program and must show in the numbers.
pub struct Service {
    node: Node,
    pub primary_dir: PathBuf,
    pub member_dirs: Vec<PathBuf>,
    /// Seconds creating the store(s) and spawning the server(s).
    pub create_s: f64,
}

impl Service {
    pub fn start(w: &Workload, tmd: Tmd, dir: &Path) -> Result<Service, String> {
        let started = Instant::now();
        let primary_dir = dir.join("primary");
        let (node, member_dirs) = if w.kind == Kind::CommitQuorum {
            let members = ["m1", "m2"];
            let binds: Vec<_> = members
                .iter()
                .map(|m| (m.to_string(), loopback()))
                .collect();
            let mut cluster = LocalCluster::start(
                dir,
                tmd,
                &loopback(),
                &binds,
                Options::default(),
                GroupConfig::default(),
                ServerOptions::default(),
                NetConfig::default(),
            )
            .map_err(|e| format!("cluster start: {e}"))?;
            cluster.spawn_pumps(PumpConfig::default());
            let dirs = members.iter().map(|m| dir.join(m)).collect();
            (Node::Cluster(Box::new(cluster)), dirs)
        } else {
            let store = DurableTmd::create_with(&primary_dir, tmd, Options::default(), Io::plain())
                .map_err(|e| format!("store create: {e}"))?;
            let group = GroupCommit::new(store, GroupConfig::default());
            let server = SessionServer::spawn(&loopback(), group, ServerOptions::default())
                .map_err(|e| format!("server spawn: {e}"))?;
            (Node::Single(server), Vec::new())
        };
        Ok(Service {
            node,
            primary_dir,
            member_dirs,
            create_s: started.elapsed().as_secs_f64(),
        })
    }

    pub fn connect(&self) -> SessionClient {
        let addr = match &self.node {
            Node::Single(s) => s.addr().clone(),
            Node::Cluster(c) => c.primary_addr().clone(),
        };
        SessionClient::connect(addr, NetConfig::default())
    }

    pub fn group(&self) -> GroupCommit {
        match &self.node {
            Node::Single(s) => s.group(),
            Node::Cluster(c) => c.group(),
        }
    }

    pub fn pool_stats(&self) -> PoolStats {
        match &self.node {
            Node::Single(s) => s.pool_stats(),
            Node::Cluster(c) => c.primary_stats(),
        }
    }

    pub fn pump_status(&self) -> Vec<(String, MemberPumpStatus)> {
        match &self.node {
            Node::Single(_) => Vec::new(),
            Node::Cluster(c) => c.pump_status(),
        }
    }

    /// Waits until every member has synced the primary's whole log.
    pub fn await_members(&self, timeout: Duration) -> bool {
        let group = self.group();
        let deadline = Instant::now() + timeout;
        loop {
            let head = group.wal_position();
            let behind = group.member_positions().iter().any(|(_, p)| *p < head);
            if !behind && group.member_positions().len() == self.member_dirs.len() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            group.wait_synced_past(head, Duration::from_millis(5));
        }
    }

    /// Stops every server and pump thread and releases the stores.
    pub fn stop(self) {
        match self.node {
            Node::Single(mut s) => s.stop(),
            Node::Cluster(mut c) => c.stop(),
        }
    }
}

/// What one connection does during the timed run.
enum Role {
    /// Closed loop over the query mix; `expected` holds the reference
    /// rendering of each template when the data does not change.
    Reader {
        order: QueryOrder,
        expected: Option<Arc<Vec<String>>>,
    },
    /// Closed loop of single-row fact batches.
    Committer { facts: FactStream },
    /// Open loop through the maintainer's script.
    Maintainer { next: usize },
}

pub struct Client {
    session: SessionClient,
    role: Role,
}

/// Facts a client got acknowledged: how many rows and their summed
/// amount.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acked {
    pub rows: usize,
    pub sum: f64,
}

impl std::ops::AddAssign for Acked {
    fn add_assign(&mut self, other: Acked) {
        self.rows += other.rows;
        self.sum += other.sum;
    }
}

/// What one client measured.
#[derive(Default)]
pub struct ClientRun {
    /// Round-trip of every request answered correctly, milliseconds. In
    /// the open loop, measured from the time the request was due.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub acked: Acked,
    /// Open loop only: how long after its due time each request left.
    pub lateness_ms: Vec<f64>,
    pub first_error: Option<String>,
}

impl ClientRun {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// A served warehouse with its connected, warmed-up clients.
pub struct Ready {
    pub service: Service,
    pub clients: Vec<Client>,
    /// Facts acknowledged during warm-up.
    pub warm_acked: Acked,
}

/// Creates the store(s), spawns the server(s), connects the clients
/// and warms them up — the part of set-up that follows generating the
/// inputs.
pub fn set_up(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    expected: Option<&Arc<Vec<String>>>,
    dir: &Path,
) -> Result<Ready, String> {
    let service = Service::start(w, inputs.tmd.clone(), dir)?;
    let reader = |client: usize| Role::Reader {
        order: QueryOrder::new(seed, client, inputs.queries.len()),
        expected: expected.cloned(),
    };
    let committer = |client: usize| Role::Committer {
        facts: FactStream::new(seed, client, &inputs.leaves, inputs.fact_year),
    };
    let roles = match w.kind {
        Kind::Query => vec![reader(0), reader(1)],
        Kind::Mixed => vec![Role::Maintainer { next: 0 }, reader(1)],
        Kind::CommitLocal => vec![committer(0), committer(1)],
        Kind::CommitQuorum => vec![committer(0)],
    };
    let mut clients: Vec<Client> = roles
        .into_iter()
        .map(|role| Client {
            session: service.connect(),
            role,
        })
        .collect();
    let mut warm_acked = Acked::default();
    for client in &mut clients {
        warm_acked += client.warm_up(inputs)?;
    }
    Ok(Ready {
        service,
        clients,
        warm_acked,
    })
}

/// Records the maintainer sends in `seconds` at its fixed rate.
pub fn maintainer_quota(seconds: f64) -> usize {
    (seconds * MAINTAINER_RATE as f64).ceil() as usize
}

/// The facts a record adds once acknowledged.
pub fn fact_amount(record: &WalRecord) -> Acked {
    match record {
        WalRecord::FactBatch { rows } => Acked {
            rows: rows.len(),
            sum: rows.iter().flat_map(|r| &r.values).sum(),
        },
        _ => Acked::default(),
    }
}

impl Client {
    /// Lets caches fill and lazy set-up finish: every template once for
    /// a reader (its session's memo shard is warm afterwards), a few
    /// commits for a writer.
    fn warm_up(&mut self, inputs: &Inputs) -> Result<Acked, String> {
        let mut acked = Acked::default();
        self.session
            .ping()
            .map_err(|e| format!("warm-up ping: {e}"))?;
        match &mut self.role {
            Role::Reader { expected, .. } => {
                for (i, q) in inputs.queries.iter().enumerate() {
                    let out = self
                        .session
                        .query(q)
                        .map_err(|e| format!("warm-up query {i}: {e}"))?;
                    if expected.as_ref().is_some_and(|x| x[i] != out) {
                        return Err(format!("warm-up query {i}: reply differs from reference"));
                    }
                }
            }
            Role::Committer { facts } => {
                for _ in 0..COMMIT_WARMUP {
                    let record = facts.next_record();
                    self.session
                        .commit(&record)
                        .map_err(|e| format!("warm-up commit: {e}"))?;
                    acked += fact_amount(&record);
                }
            }
            Role::Maintainer { next } => {
                for record in &inputs.script[..MAINTAINER_WARMUP.min(inputs.script.len())] {
                    self.session
                        .commit(record)
                        .map_err(|e| format!("warm-up script commit: {e}"))?;
                    acked += fact_amount(record);
                    *next += 1;
                }
            }
        }
        Ok(acked)
    }

    /// The timed loop. Readers and committers run whole iterations
    /// until `seconds` have passed (a reader always finishes its cycle
    /// of the mix, so the share of each template is the same in every
    /// run); the maintainer sends the next `seconds` worth of its
    /// script on schedule.
    fn run(&mut self, inputs: &Inputs, seconds: f64) -> ClientRun {
        let mut run = ClientRun::default();
        let started = Instant::now();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match &mut self.role {
            Role::Reader { order, expected } => {
                while started.elapsed().as_secs_f64() < seconds {
                    for &t in order.next_cycle() {
                        let sent = Instant::now();
                        let reply = self.session.query(&inputs.queries[t]);
                        let took = sent.elapsed();
                        run.attempted += 1;
                        match reply {
                            Ok(out) if expected.as_ref().is_none_or(|x| x[t] == out) => {
                                run.latency_ms.push(ms(took));
                            }
                            Ok(_) => run.fail(format!("query {t}: reply differs from reference")),
                            Err(e) => run.fail(format!("query {t}: {e}")),
                        }
                    }
                }
            }
            Role::Committer { facts } => {
                while started.elapsed().as_secs_f64() < seconds {
                    let record = facts.next_record();
                    let sent = Instant::now();
                    let reply = self.session.commit(&record);
                    let took = sent.elapsed();
                    run.attempted += 1;
                    match reply {
                        Ok(_) => {
                            run.latency_ms.push(ms(took));
                            run.acked += fact_amount(&record);
                        }
                        Err(e) => run.fail(format!("commit: {e}")),
                    }
                }
            }
            Role::Maintainer { next } => {
                let period = Duration::from_secs_f64(1.0 / MAINTAINER_RATE as f64);
                let end = (*next + maintainer_quota(seconds)).min(inputs.script.len());
                for (i, record) in inputs.script[*next..end].iter().enumerate() {
                    let due = started + period * i as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    run.lateness_ms.push(ms(due.elapsed()));
                    let reply = self.session.commit(record);
                    run.attempted += 1;
                    match reply {
                        Ok(_) => {
                            run.latency_ms.push(ms(due.elapsed()));
                            run.acked += fact_amount(record);
                        }
                        Err(e) => run.fail(format!("script commit {}: {e}", *next + i)),
                    }
                }
                *next = end;
            }
        }
        run.wall_s = started.elapsed().as_secs_f64();
        run
    }

    pub fn is_maintainer(&self) -> bool {
        matches!(self.role, Role::Maintainer { .. })
    }

    /// Median round-trip of `n` pings, microseconds: the wire and the
    /// server's poll-loop hand-off with no work behind them.
    pub fn ping_us(&mut self, n: usize) -> Result<f64, String> {
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let sent = Instant::now();
            self.session.ping().map_err(|e| format!("ping: {e}"))?;
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::stats::median(&mut samples))
    }
}

/// Gauges sampled while the clients run.
#[derive(Default)]
pub struct Sampled {
    pub queued: Vec<f64>,
    pub member_lag_lsn: Vec<f64>,
}

/// Runs every client for `seconds` on its own thread, all released
/// together; with `sample` the calling thread reads the server's queue
/// depth and the members' lag every 20 ms meanwhile.
pub fn run_clients(
    ready: &mut Ready,
    inputs: &Inputs,
    seconds: f64,
    sample: bool,
) -> (Vec<ClientRun>, Sampled) {
    let service = &ready.service;
    let start = Barrier::new(ready.clients.len() + 1);
    let running = AtomicUsize::new(ready.clients.len());
    let mut sampled = Sampled::default();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter_mut()
            .map(|client| {
                let (start, running) = (&start, &running);
                scope.spawn(move || {
                    start.wait();
                    let run = client.run(inputs, seconds);
                    running.fetch_sub(1, Ordering::SeqCst);
                    run
                })
            })
            .collect();
        start.wait();
        if sample {
            let group = service.group();
            while running.load(Ordering::SeqCst) > 0 {
                sampled.queued.push(service.pool_stats().queued as f64);
                let head = group.wal_position();
                if let Some(min) = group.member_positions().iter().map(|(_, p)| *p).min() {
                    sampled.member_lag_lsn.push(head.saturating_sub(min) as f64);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (runs, sampled)
}
