//! `mvolap` — interactive OLAP front end (the fourth tier of the §5.1
//! architecture, replacing the prototype's ProClarity client).
//!
//! ```text
//! mvolap                        # REPL over the paper's case study
//! mvolap --two-measures         # case study with Turnover + Profit
//! mvolap --workload 42          # seeded synthetic evolving workload
//! mvolap --load FILE            # a schema saved with \save FILE
//! mvolap --store DIR            # durable store: WAL + checkpoints in DIR
//! mvolap --store DIR --listen ADDR   # session server: queries + commits
//! mvolap --store DIR --follow ADDR   # tail a --listen server as a follower
//! mvolap --store DIR --listen ADDR --cluster SPEC
//!                                    # quorum group: primary + members
//! mvolap --connect ADDR              # client REPL against --listen
//! mvolap --connect ADDR -c QUERY     # one-shot remote query
//! mvolap -c "SELECT sum(Amount) BY year, Org.Division IN MODE tcm"
//! ```
//!
//! `ADDR` is `host:port` or `unix:/path/to.sock`. `--listen` runs the
//! *session* server (`mvolap-server`): many concurrent clients,
//! group-committed writes, bounded admission — and, on the same port,
//! the follower protocol (hello/ack/fence over CRC-framed sockets). It
//! runs a real-clock loop that takes policy-gated checkpoints
//! ([`CheckpointPolicy::max_tail_age_ms`], 30 s), and `\status` prints
//! the pool and each follower's acked LSN and lag. `--connect` is its
//! line-oriented client — every line is a query, answered with the
//! same rendering the local REPL prints. `--follow` syncs a follower
//! store continuously, acking under the store directory's name, and
//! exits non-zero the moment it is fenced or diverged. Both stop
//! cleanly on `quit` or EOF on stdin.
//!
//! `--cluster SPEC` (with `--listen` and a fresh `--store`) starts a
//! quorum-replicated group instead: `SPEC` is a comma-separated list of
//! `name=ADDR` members (e.g. `m1=127.0.0.1:0,m2=127.0.0.1:0`), each
//! getting its own replica store under `DIR/<name>` and its own read
//! server. Commits through the primary are acknowledged only once a
//! majority of the group synced them, and bounded `read`s are routed to
//! the freshest member that satisfies the staleness bound.
//!
//! Inside the REPL, lines are queries (see `mvolap-query` for the
//! grammar) or backslash commands — `\h` lists them. With `--store`,
//! evolution commands (`\create`, `\rename`, `\delete`) are journaled
//! through the write-ahead log and `\save` (no argument) takes a
//! checkpoint; reopening the same directory recovers the schema.

use std::io::{BufRead, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mvolap::cluster::{LocalCluster, PumpConfig};
use mvolap::core::case_study::{case_study, case_study_two_measures};
use mvolap::core::{ConfidenceWeights, DimensionId, ExecContext, MemberVersionId, QueryMemo, Tmd};
use mvolap::durable::{
    CheckpointPolicy, DurableError, DurableTmd, GroupCommit, GroupConfig, Io, Options, WalRecord,
};
use mvolap::query::{compare_modes, parse, render_answer, run_with_versions};
use mvolap::replica::{sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError};
use mvolap::server::{ServerOptions, SessionClient, SessionServer};
use mvolap::temporal::Instant;
use mvolap::workload::{generate, WorkloadConfig};

/// Where the schema lives: plain memory, or a durable WAL+checkpoint
/// store whose every evolution is journaled.
enum Backing {
    Memory(Box<Tmd>),
    Durable(Box<DurableTmd>),
}

struct Session {
    backing: Backing,
}

impl Session {
    fn tmd(&self) -> &Tmd {
        match &self.backing {
            Backing::Memory(tmd) => tmd,
            Backing::Durable(store) => store.schema(),
        }
    }

    /// Runs one evolution record through the backing: journaled
    /// (validate → WAL append + fsync → apply) on a durable store,
    /// applied directly in memory.
    fn evolve(&mut self, record: WalRecord) -> Result<String, String> {
        match &mut self.backing {
            Backing::Memory(tmd) => record
                .apply(tmd)
                .map(|()| "applied (in-memory; use --store DIR to journal)".to_string())
                .map_err(|e| e.to_string()),
            Backing::Durable(store) => store
                .apply(record)
                .map(|lsn| format!("journaled at LSN {lsn}"))
                .map_err(|e| e.to_string()),
        }
    }
}

const USAGE: &str = "usage: mvolap [--two-measures | --workload SEED | --load FILE] \
     [--store DIR] [--listen ADDR | --follow ADDR] \
     [--cluster SPEC] [--workers N] [--connect ADDR] [-c QUERY]\n\
     ADDR is host:port or unix:/path/to.sock; listen/follow need \
     --store DIR; --connect and --follow talk to a --listen server; \
     --cluster name=ADDR,... with --listen starts a quorum group; \
     --workers N sizes the session pool (N >= 1)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut schema: Option<Tmd> = None;
    let mut one_shot: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut follow_addr: Option<String> = None;
    let mut listen_addr: Option<String> = None;
    let mut connect_addr: Option<String> = None;
    let mut cluster_spec: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--two-measures" => schema = Some(case_study_two_measures().tmd),
            "--workload" => {
                i += 1;
                let seed: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--workload requires a numeric seed"));
                let w = generate(&WorkloadConfig::small(seed))
                    .unwrap_or_else(|e| die(&format!("workload generation failed: {e}")));
                schema = Some(w.tmd);
            }
            "--load" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| die("--load requires a file path"));
                let tmd = mvolap::core::persist::load_tmd(std::path::Path::new(path))
                    .unwrap_or_else(|e| die(&format!("load failed: {e}")));
                schema = Some(tmd);
            }
            "--store" => {
                i += 1;
                store_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--store requires a directory")),
                );
            }
            "-c" => {
                i += 1;
                one_shot = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("-c requires a query string")),
                );
            }
            "--follow" => {
                i += 1;
                follow_addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--follow requires an address")),
                );
            }
            "--listen" => {
                i += 1;
                listen_addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--listen requires an address")),
                );
            }
            "--connect" => {
                i += 1;
                connect_addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--connect requires an address")),
                );
            }
            "--cluster" => {
                i += 1;
                cluster_spec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--cluster requires name=ADDR[,name=ADDR...]")),
                );
            }
            "--workers" => {
                i += 1;
                workers = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| {
                            die(&format!("--workers requires a number >= 1\n{USAGE}"))
                        }),
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }

    if [&follow_addr, &listen_addr, &connect_addr]
        .iter()
        .filter(|a| a.is_some())
        .count()
        > 1
    {
        die("--follow, --listen and --connect are mutually exclusive");
    }
    if let Some(addr) = follow_addr {
        let dir = store_dir.unwrap_or_else(|| die("--follow requires --store DIR"));
        let addr = NetAddr::parse(&addr).unwrap_or_else(|e| die(&format!("bad address: {e}")));
        follow(&addr, &dir);
    }
    if let Some(spec) = cluster_spec {
        let dir = store_dir.unwrap_or_else(|| die("--cluster requires --store DIR"));
        let addr = listen_addr.unwrap_or_else(|| die("--cluster requires --listen ADDR"));
        let addr = NetAddr::parse(&addr).unwrap_or_else(|e| die(&format!("bad address: {e}")));
        cluster(&addr, &dir, &spec, schema, workers);
    }
    if let Some(addr) = listen_addr {
        let dir = store_dir.unwrap_or_else(|| die("--listen requires --store DIR"));
        let addr = NetAddr::parse(&addr).unwrap_or_else(|e| die(&format!("bad address: {e}")));
        listen(&addr, &dir, schema, workers);
    }
    if let Some(addr) = connect_addr {
        let addr = NetAddr::parse(&addr).unwrap_or_else(|e| die(&format!("bad address: {e}")));
        connect(&addr, one_shot);
    }

    // An existing store wins over --load/--workload (those only seed a
    // *new* store); the journal, not the flags, is the durable truth.
    let backing = match store_dir {
        Some(dir) => {
            let path = std::path::PathBuf::from(&dir);
            match DurableTmd::open(&path) {
                Ok(store) => Backing::Durable(Box::new(store)),
                Err(DurableError::NoStore) => {
                    let seed = schema.unwrap_or_else(|| case_study().tmd);
                    let store = DurableTmd::create(&path, seed)
                        .unwrap_or_else(|e| die(&format!("cannot create store: {e}")));
                    Backing::Durable(Box::new(store))
                }
                Err(e) => die(&format!("cannot open store at {dir}: {e}")),
            }
        }
        None => Backing::Memory(Box::new(schema.unwrap_or_else(|| case_study().tmd))),
    };
    let mut session = Session { backing };

    if let Some(query) = one_shot {
        execute(&session, &query);
        return;
    }

    match &session.backing {
        Backing::Memory(_) => println!(
            "mvolap — multiversion OLAP shell over schema `{}` \
             ({} dimensions, {} facts). \\h for help, \\q to quit.",
            session.tmd().name(),
            session.tmd().dimensions().len(),
            session.tmd().facts().len()
        ),
        Backing::Durable(store) => println!(
            "mvolap — multiversion OLAP shell over durable store `{}` \
             (schema `{}`, next LSN {}). \\h for help, \\q to quit.",
            store.dir().display(),
            store.schema().name(),
            store.wal_position()
        ),
    }
    let stdin = std::io::stdin();
    loop {
        print!("mvolap> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => die(&format!("stdin error: {e}")),
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            if !command(&mut session, cmd) {
                break;
            }
        } else {
            execute(&session, line);
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("mvolap: {msg}");
    std::process::exit(1)
}

/// Tails a `--listen` server's store into the follower at `dir`,
/// printing progress, until stdin closes (clean exit) or the server
/// fences or refuses the follower as diverged (exit 1 — the operator
/// must intervene). The follower acks under its directory's name, so
/// the server's `\status` tells followers apart.
fn follow(addr: &NetAddr, dir: &str) -> ! {
    let path = std::path::Path::new(dir);
    let name = path
        .file_name()
        .map_or_else(|| dir.to_string(), |n| n.to_string_lossy().into_owned());
    let mut f = Follower::open(name, path, Options::default(), Io::plain())
        .unwrap_or_else(|e| die(&format!("cannot open follower store at {dir}: {e}")));
    let mut client = NetClient::connect(addr.clone(), NetConfig::default());
    println!("mvolap — following {addr} into store `{dir}`. `quit` or EOF stops.");
    std::io::stdout().flush().ok();

    // Watch stdin off-thread so the sync loop keeps its own cadence.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            loop {
                let mut line = String::new();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if line.trim() == "quit" => break,
                    Ok(_) => {}
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    let mut announced = false;
    while !stop.load(Ordering::SeqCst) {
        match sync_follower(&mut client, &mut f) {
            Ok(round) => {
                if round.caught_up() && !announced {
                    println!("caught up at LSN {}", f.next_lsn());
                    std::io::stdout().flush().ok();
                    announced = true;
                } else if !round.caught_up() {
                    announced = false;
                }
            }
            Err(e @ (ReplicaError::Fenced { .. } | ReplicaError::Diverged { .. })) => {
                die(&format!("follower refused: {e}"))
            }
            Err(e) => {
                eprintln!("sync error (will retry): {e}");
                announced = false;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
    println!("mvolap: follower of {addr} stopped at LSN {}", f.next_lsn());
    std::process::exit(0)
}

/// Renders a pool-stats snapshot the way both serving REPLs print it
/// under `\status`: one occupancy line, then one line per memo shard.
fn print_pool(stats: &mvolap::server::PoolStats) {
    println!(
        "  pool: workers={} active={} queued={} parked={} served={} refused={} forwarded={}",
        stats.workers,
        stats.active,
        stats.queued,
        stats.parked,
        stats.served,
        stats.refused,
        stats.forwarded
    );
    for (i, m) in stats.memo.iter().enumerate() {
        println!(
            "  memo shard {i}: routes {}/{} hits/misses, ancestors {}/{}, \
             presentations {}/{} (+{} extended)",
            m.routes.hits,
            m.routes.misses,
            m.ancestors.hits,
            m.ancestors.misses,
            m.presentations.hits,
            m.presentations.misses,
            m.extended
        );
    }
}

/// Session-server options with the shell's `--workers N` applied.
fn server_opts(workers: Option<usize>) -> ServerOptions {
    let mut opts = ServerOptions::default();
    if let Some(w) = workers {
        opts.workers = w;
    }
    opts
}

/// How long a listening primary lets the WAL tail age before the
/// real-clock loop takes a checkpoint.
const LISTEN_TAIL_AGE_MS: u64 = 30_000;

/// `--listen`: the concurrent session server — a fixed worker pool
/// multiplexing nonblocking sessions (`--workers N`) that also answers
/// followers on the same port. Writes group-commit (one shared fsync
/// per batch); queries run under a shared read lock; a real-clock loop
/// drives the store's tail-age checkpoint policy.
fn listen(addr: &NetAddr, dir: &str, schema: Option<Tmd>, workers: Option<usize>) -> ! {
    let path = std::path::PathBuf::from(dir);
    let opts = Options {
        policy: CheckpointPolicy {
            max_tail_age_ms: LISTEN_TAIL_AGE_MS,
            ..CheckpointPolicy::default()
        },
        ..Options::default()
    };
    let store = match DurableTmd::open_with(&path, opts.clone(), Io::plain()) {
        Ok(store) => store,
        Err(DurableError::NoStore) => {
            let seed = schema.unwrap_or_else(|| case_study().tmd);
            DurableTmd::create_with(&path, seed, opts, Io::plain())
                .unwrap_or_else(|e| die(&format!("cannot create store: {e}")))
        }
        Err(e) => die(&format!("cannot open store at {dir}: {e}")),
    };
    let next_lsn = store.wal_position();
    let group = GroupCommit::new(store, GroupConfig::default());
    let mut server = SessionServer::spawn(addr, group.clone(), server_opts(workers))
        .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
    println!(
        "mvolap — session server for store `{dir}` on {} (next LSN {next_lsn}). \
         \\status shows the pool and followers; `\\q`, `quit` or EOF stops.",
        server.addr()
    );
    std::io::stdout().flush().ok();

    // Real-clock loop: the policy decides, the clock only paces it. A
    // fenced primary's store is frozen, so the check is a no-op then.
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let stop = Arc::clone(&stop);
        let group = group.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(250));
                match group.maybe_checkpoint() {
                    Ok(Some(id)) => println!(
                        "checkpoint at generation {}, next LSN {}",
                        id.generation, id.next_lsn
                    ),
                    Ok(None) => {}
                    Err(e) => eprintln!("checkpoint error: {e}"),
                }
            }
        })
    };

    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line == "quit" || line == "\\q" {
            break;
        }
        if line == "\\status" {
            print_pool(&server.pool_stats());
            let head = group.synced_lsn();
            for (name, acked) in server.follower_acks() {
                println!(
                    "  follower {name}: acked LSN {acked}, lag {}",
                    head.saturating_sub(acked)
                );
            }
            std::io::stdout().flush().ok();
        } else if !line.is_empty() {
            println!("commands: \\status, \\q (or `quit`)");
            std::io::stdout().flush().ok();
        }
    }
    stop.store(true, Ordering::SeqCst);
    ticker.join().ok();
    server.stop();
    println!("mvolap: session server on {addr} stopped");
    std::process::exit(0)
}

/// `--cluster`: a quorum-replicated serving group on one machine. The
/// primary session server listens on `addr`; every `name=ADDR` in
/// `spec` gets a replica store under `DIR/<name>` and a read server on
/// its own address. Per-member shipping threads tail the WAL and ship
/// batched frame envelopes continuously — no manual pump loop — so
/// commits clear the majority quorum in one shipping round-trip and
/// bounded reads route to the freshest member.
fn cluster(
    addr: &NetAddr,
    dir: &str,
    spec: &str,
    schema: Option<Tmd>,
    workers: Option<usize>,
) -> ! {
    let mut members = Vec::new();
    for part in spec.split(',') {
        let Some((name, maddr)) = part.split_once('=') else {
            die(&format!("bad --cluster entry `{part}` (want name=ADDR)"));
        };
        let maddr =
            NetAddr::parse(maddr).unwrap_or_else(|e| die(&format!("bad address `{maddr}`: {e}")));
        members.push((name.to_string(), maddr));
    }
    if members.is_empty() {
        die("--cluster needs at least one name=ADDR member");
    }
    let seed = schema.unwrap_or_else(|| case_study().tmd);
    let mut group = LocalCluster::start(
        std::path::Path::new(dir),
        seed,
        addr,
        &members,
        Options::default(),
        GroupConfig::default(),
        server_opts(workers),
        NetConfig::default(),
    )
    .unwrap_or_else(|e| die(&format!("cannot start cluster under {dir}: {e}")));
    group.spawn_pumps(PumpConfig::default());
    println!(
        "mvolap — quorum group under `{dir}`: primary on {} ({} members, quorum {}/{}, \
         async replication). \\join NAME=ADDR, \\leave NAME, \\status; `\\q`, \
         `quit` or EOF stops.",
        group.primary_addr(),
        members.len(),
        members.len() / 2 + 1,
        members.len() + 1,
    );
    for (name, maddr) in group.member_addrs() {
        println!("  member {name} reads on {maddr}");
    }
    std::io::stdout().flush().ok();

    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if matches!(line.trim(), "quit" | "\\q") => break,
            Ok(_) => {}
        }
        let line = line.trim().to_string();
        if let Some(rest) = line.strip_prefix("\\join ") {
            let Some((name, maddr)) = rest.trim().split_once('=') else {
                println!("usage: \\join NAME=ADDR");
                continue;
            };
            let maddr = match NetAddr::parse(maddr) {
                Ok(a) => a,
                Err(e) => {
                    println!("bad address `{maddr}`: {e}");
                    continue;
                }
            };
            match group.join(name, &maddr) {
                Ok(lsn) => {
                    println!("joining `{name}` (reconfig journaled at LSN {lsn}); catching up…");
                    match group.await_membership(std::time::Duration::from_secs(30)) {
                        Ok(n) => println!("member `{n}` caught up and was promoted to voter"),
                        Err(e) => println!("join stalled: {e}"),
                    }
                }
                Err(e) => println!("join refused: {e}"),
            }
        } else if let Some(rest) = line.strip_prefix("\\leave ") {
            let name = rest.trim();
            match group.leave(name) {
                Ok(lsn) => {
                    println!("removing `{name}` (reconfig journaled at LSN {lsn})…");
                    match group.await_membership(std::time::Duration::from_secs(30)) {
                        Ok(n) => println!("member `{n}` removed; reads re-routed"),
                        Err(e) => println!("remove stalled: {e}"),
                    }
                }
                Err(e) => println!("leave refused: {e}"),
            }
        } else if line == "\\status" {
            for (name, learner) in group.membership() {
                let role = if learner { "learner" } else { "voter" };
                println!("  {name}: {role}");
            }
            for (name, st) in group.pump_status() {
                println!(
                    "  pump {name}: {:?} acked={} requests={} snapshots={} stalls={}",
                    st.state, st.acked_lsn, st.requests, st.snapshots, st.stalls
                );
            }
            print_pool(&group.primary_stats());
        } else if !line.is_empty() {
            println!("commands: \\join NAME=ADDR, \\leave NAME, \\status, \\q (or `quit`)");
        }
        std::io::stdout().flush().ok();
    }
    group.stop();
    println!("mvolap: cluster on {addr} stopped");
    std::process::exit(0)
}

/// `--connect`: line-oriented client for a `--listen` server. Every
/// line is a query; the reply is rendered exactly as the local REPL
/// would print it.
fn connect(addr: &NetAddr, one_shot: Option<String>) -> ! {
    let mut client = SessionClient::connect(addr.clone(), NetConfig::default());
    if let Some(query) = one_shot {
        match client.query(&query) {
            Ok(out) => print!("{out}"),
            Err(e) => die(&format!("remote query failed: {e}")),
        }
        std::process::exit(0)
    }
    if let Err(e) = client.ping() {
        die(&format!("cannot reach {addr}: {e}"));
    }
    println!("mvolap — connected to session server on {addr}. \\q quits.");
    let stdin = std::io::stdin();
    loop {
        print!("mvolap> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\q" || line == "quit" {
            break;
        }
        match client.query(line) {
            Ok(out) => print!("{out}"),
            Err(e) => println!("error: {e}"),
        }
        std::io::stdout().flush().ok();
    }
    println!("mvolap: disconnected from {addr}");
    std::process::exit(0)
}

/// Executes a backslash command; returns false to quit.
fn command(session: &mut Session, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next().unwrap_or("") {
        "q" | "quit" => return false,
        "h" | "help" => {
            println!(
                "\\svs            structure versions\n\
                 \\dims           dimensions and levels\n\
                 \\measures       measures and aggregators\n\
                 \\dot DIM        GraphViz DOT of a dimension\n\
                 \\log            evolution log\n\
                 \\quality QUERY  quality factor of QUERY per mode\n\
                 \\grid QUERY     result as a pivot grid (time × members)\n\
                 \\create DIM NAME LEVEL PARENT YYYY-MM   insert a member (journaled with --store)\n\
                 \\rename DIM MEMBER NEW_NAME YYYY-MM     transform a member (journaled with --store)\n\
                 \\delete DIM MEMBER YYYY-MM              exclude a member (journaled with --store)\n\
                 \\save           checkpoint the durable store (--store only)\n\
                 \\save FILE      persist the schema snapshot (reload with --load)\n\
                 \\export DIR     export the MultiVersion warehouse tables\n\
                 \\q              quit\n\
                 anything else executes as a query \
                 (SELECT … BY … [WHERE …] [FOR …] IN MODE … | IN ALL MODES)"
            );
        }
        "svs" => {
            for sv in session.tmd().structure_versions() {
                println!("{}", sv.label());
            }
        }
        "dims" => {
            for d in session.tmd().dimensions() {
                let levels = mvolap::core::levels::all_level_names(d);
                println!(
                    "{}: {} member versions, levels: {}",
                    d.name(),
                    d.versions().len(),
                    levels.join(" > ")
                );
            }
        }
        "measures" => {
            for m in session.tmd().measures() {
                println!("{} ({})", m.name, m.aggregator.name());
            }
        }
        "dot" => match parts.next() {
            Some(name) => match session.tmd().dimension_by_name(name) {
                Ok(dim) => {
                    let d = session.tmd().dimension(dim).expect("id just resolved");
                    println!("{}", d.to_dot(session.tmd().granularity()));
                }
                Err(e) => println!("error: {e}"),
            },
            None => println!("usage: \\dot DIMENSION"),
        },
        "log" => {
            let entries = session.tmd().evolution_log().entries();
            if entries.is_empty() {
                println!("(no evolutions recorded)");
            }
            for e in entries {
                println!("{} [{}] {}", e.at, e.operator, e.description);
            }
        }
        "quality" => {
            let rest: Vec<&str> = parts.collect();
            quality(session, &rest.join(" "));
        }
        "grid" => {
            let rest: Vec<&str> = parts.collect();
            let svs = session.tmd().structure_versions();
            match run_with_versions(session.tmd(), &svs, &rest.join(" ")) {
                Ok(rs) => print!("{}", rs.render_grid(0)),
                Err(e) => println!("error: {e}"),
            }
        }
        "create" => {
            let args: Vec<&str> = parts.collect();
            let [dim, name, level, parent, at] = args[..] else {
                println!("usage: \\create DIM NAME LEVEL PARENT YYYY-MM");
                return true;
            };
            let record = parse_ym(at).and_then(|at| {
                let dim = resolve_dim(session.tmd(), dim)?;
                let parent = resolve_member(session.tmd(), dim, parent, at)?;
                Ok(WalRecord::Create {
                    dim,
                    name: name.to_string(),
                    level: Some(level.to_string()),
                    at,
                    parents: vec![parent],
                })
            });
            match record.and_then(|r| session.evolve(r)) {
                Ok(msg) => println!("created `{name}`: {msg}"),
                Err(e) => println!("error: {e}"),
            }
        }
        "rename" => {
            let args: Vec<&str> = parts.collect();
            let [dim, member, new_name, at] = args[..] else {
                println!("usage: \\rename DIM MEMBER NEW_NAME YYYY-MM");
                return true;
            };
            let record = parse_ym(at).and_then(|at| {
                let dim = resolve_dim(session.tmd(), dim)?;
                let id = resolve_member(session.tmd(), dim, member, at)?;
                Ok(WalRecord::Transform {
                    dim,
                    id,
                    new_name: new_name.to_string(),
                    new_attributes: std::collections::BTreeMap::new(),
                    at,
                })
            });
            match record.and_then(|r| session.evolve(r)) {
                Ok(msg) => println!("renamed `{member}` to `{new_name}`: {msg}"),
                Err(e) => println!("error: {e}"),
            }
        }
        "delete" => {
            let args: Vec<&str> = parts.collect();
            let [dim, member, at] = args[..] else {
                println!("usage: \\delete DIM MEMBER YYYY-MM");
                return true;
            };
            let record = parse_ym(at).and_then(|at| {
                let dim = resolve_dim(session.tmd(), dim)?;
                let id = resolve_member(session.tmd(), dim, member, at)?;
                Ok(WalRecord::Delete { dim, id, at })
            });
            match record.and_then(|r| session.evolve(r)) {
                Ok(msg) => println!("deleted `{member}`: {msg}"),
                Err(e) => println!("error: {e}"),
            }
        }
        "save" => match parts.next() {
            Some(path) => {
                match mvolap::core::persist::save_tmd(session.tmd(), std::path::Path::new(path)) {
                    Ok(()) => println!("saved to {path}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            None => match &mut session.backing {
                Backing::Durable(store) => match store.checkpoint() {
                    Ok(id) => println!(
                        "checkpoint at generation {}, next LSN {}",
                        id.generation, id.next_lsn
                    ),
                    Err(e) => println!("error: {e}"),
                },
                Backing::Memory(_) => {
                    println!("usage: \\save FILE (checkpointing needs --store DIR)")
                }
            },
        },
        "export" => match parts.next() {
            Some(dir) => {
                let result = mvolap::core::logical::build_multiversion_warehouse(session.tmd())
                    .map_err(|e| e.to_string())
                    .and_then(|wh| {
                        mvolap::storage::persist::save_catalog(&wh, std::path::Path::new(dir))
                            .map_err(|e| e.to_string())
                            .map(|()| wh.len())
                    });
                match result {
                    Ok(n) => println!("exported {n} tables to {dir}/"),
                    Err(e) => println!("error: {e}"),
                }
            }
            None => println!("usage: \\export DIR"),
        },
        other => println!("unknown command \\{other} (\\h for help)"),
    }
    true
}

/// Parses a `YYYY-MM` instant literal.
fn parse_ym(s: &str) -> Result<Instant, String> {
    let (y, m) = s
        .split_once('-')
        .ok_or_else(|| format!("`{s}` is not a YYYY-MM instant"))?;
    let year: i32 = y.parse().map_err(|_| format!("bad year in `{s}`"))?;
    let month: u32 = m.parse().map_err(|_| format!("bad month in `{s}`"))?;
    if !(1..=12).contains(&month) {
        return Err(format!("month out of range in `{s}`"));
    }
    Ok(Instant::ym(year, month))
}

fn resolve_dim(tmd: &Tmd, name: &str) -> Result<DimensionId, String> {
    tmd.dimension_by_name(name).map_err(|e| e.to_string())
}

/// Resolves a member alive at `at` (or just before it, so evolutions
/// taking effect *at* the instant still find their target).
fn resolve_member(
    tmd: &Tmd,
    dim: DimensionId,
    name: &str,
    at: Instant,
) -> Result<MemberVersionId, String> {
    let d = tmd.dimension(dim).map_err(|e| e.to_string())?;
    d.version_named_at(name, at)
        .or_else(|_| d.version_named_at(name, at.pred()))
        .map(|v| v.id)
        .map_err(|e| e.to_string())
}

/// Prints the per-mode quality factor of a query.
fn quality(session: &Session, query: &str) {
    let svs = session.tmd().structure_versions();
    let planned = parse(query).and_then(|ast| mvolap::query::plan(session.tmd(), &svs, &ast));
    match planned {
        Ok(q) => match compare_modes(
            session.tmd(),
            &svs,
            &q,
            &ConfidenceWeights::DEFAULT,
            &ExecContext::sequential(),
            &QueryMemo::new(),
        ) {
            Ok(scores) => {
                for s in scores {
                    println!(
                        "{:<6} Q = {:.3}  ({} rows, {} unmapped)",
                        s.result.mode.label(),
                        s.quality,
                        s.result.rows.len(),
                        s.result.unmapped_rows
                    );
                }
            }
            Err(e) => println!("error: {e}"),
        },
        Err(e) => println!("error: {e}"),
    }
}

/// Executes one query line.
fn execute(session: &Session, query: &str) {
    let exec = ExecContext::sequential();
    match render_answer(session.tmd(), query, &exec, &QueryMemo::new()) {
        Ok(text) => print!("{text}"),
        Err(e) => println!("error: {e}"),
    }
}
