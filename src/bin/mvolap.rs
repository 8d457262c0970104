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
//! mvolap --store DIR --listen ADDR --cluster m1=ADDR,m2=ADDR
//!                                    # quorum group: primary + members
//! mvolap --connect ADDR              # client REPL against --listen
//! mvolap [--connect ADDR] -c LINE    # run one line, then exit
//! ```
//!
//! `ADDR` is `host:port` or `unix:/path/to.sock`. Every mode but
//! `--follow` reads lines through one loop and one verb table
//! ([`VERBS`]; `\h` prints it). A line that is not a backslash verb is
//! a statement of `mvolap-query` (a query or a `SHOW`) for one of two
//! backends: the schema in this process, or a session server over the
//! wire (`--connect`, and the `--listen`/`--cluster` consoles, which
//! are sessions of their own server). The metadata verbs `\svs`,
//! `\dims`, `\measures`, `\log`, `\dot`, `\quality`, `\grid` and
//! `\status` are aliases of `SHOW` statements, so both backends answer
//! them. The evolution verbs (`\create`, `\rename`, `\delete`) and the
//! file verbs (`\save`, `\export`) run on the local backend only;
//! `\join` and `\leave` on a `--cluster` console only.

use std::io::Write;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use mvolap::cluster::{LocalCluster, PumpConfig};
use mvolap::core::case_study::{case_study, case_study_two_measures};
use mvolap::core::{DimensionId, ExecContext, MemberVersionId, QueryMemo, Tmd};
use mvolap::durable::{CheckpointId, DurableError, DurableTmd, GroupCommit};
use mvolap::durable::{GroupConfig, Io, Options, WalRecord};
use mvolap::query::render_answer;
use mvolap::replica::{sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError};
use mvolap::server::{quorum_figure, ServerOptions, SessionClient, SessionServer};
use mvolap::temporal::Instant;

/// The local backend: the schema in this process, in plain memory or
/// in a durable WAL+checkpoint store whose every evolution is journaled.
enum Session {
    Memory(Box<Tmd>),
    Durable(Box<DurableTmd>),
}

impl Session {
    fn tmd(&self) -> &Tmd {
        match self {
            Session::Memory(tmd) => tmd,
            Session::Durable(store) => store.schema(),
        }
    }

    /// Runs one evolution record: journaled (validate → WAL append +
    /// fsync → apply) on a durable store, applied directly in memory.
    fn evolve(&mut self, record: WalRecord) -> Result<String, String> {
        match self {
            Session::Memory(tmd) => record
                .apply(tmd)
                .map(|()| "applied (in-memory; use --store DIR to journal)".to_string())
                .map_err(|e| e.to_string()),
            Session::Durable(store) => store
                .apply(record)
                .map(|lsn| format!("journaled at LSN {lsn}"))
                .map_err(|e| e.to_string()),
        }
    }
}

/// Where statements go.
enum Backend {
    Local(Session),
    Remote(SessionClient),
}

impl Backend {
    fn answer(&mut self, text: &str) -> Result<String, String> {
        match self {
            Backend::Local(s) => {
                render_answer(s.tmd(), text, &ExecContext::sequential(), &QueryMemo::new())
                    .map_err(|e| e.to_string())
            }
            Backend::Remote(client) => client.query(text).map_err(|e| e.to_string()),
        }
    }
}

/// The server a console runs beside its loop.
enum Console {
    /// `--listen`: the session server.
    Listen(SessionServer),
    /// `--cluster`: the quorum group.
    Cluster(Box<LocalCluster>),
}

struct Shell {
    backend: Backend,
    console: Option<Console>,
}

/// How a line went; `-c` exits non-zero on `Failed`.
enum Step {
    Done,
    Failed,
    Quit,
}

/// What a verb does.
enum Action {
    Quit,
    Help,
    /// Runs this statement with the verb's arguments appended.
    Show(&'static str),
    /// Runs on the local backend only.
    Local(fn(&mut Session, &[&str]) -> Result<String, String>),
    /// Changes a `--cluster` console's membership (`true`: join).
    Member(bool),
}

/// A verb: its usage (name, then arguments; `QUERY` takes the rest of
/// the line, `[X]` is optional), its help and its action.
struct Verb(&'static str, &'static str, Action);

/// Every backslash verb of every mode.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb("svs", "structure versions", Action::Show("SHOW VERSIONS")),
    Verb("dims", "dimensions and levels", Action::Show("SHOW DIMENSIONS")),
    Verb("measures", "measures and aggregators", Action::Show("SHOW MEASURES")),
    Verb("dot DIMENSION", "GraphViz DOT of a dimension", Action::Show("SHOW DOT")),
    Verb("log", "evolution log", Action::Show("SHOW LOG")),
    Verb("quality QUERY", "quality factor of QUERY per mode", Action::Show("SHOW QUALITY")),
    Verb("grid QUERY", "result as a pivot grid (time × members)", Action::Show("SHOW GRID")),
    Verb("status", "a server's pool, memo, quorum and followers", Action::Show("SHOW STATUS")),
    Verb("create DIM NAME LEVEL PARENT YYYY-MM", "insert a member", Action::Local(create)),
    Verb("rename DIM MEMBER NEW_NAME YYYY-MM", "transform a member", Action::Local(rename)),
    Verb("delete DIM MEMBER YYYY-MM", "exclude a member", Action::Local(delete)),
    Verb("save [FILE]", "save the schema, or checkpoint --store", Action::Local(save)),
    Verb("export DIR", "export the MultiVersion warehouse tables", Action::Local(export)),
    Verb("join NAME=ADDR", "add a member to the group", Action::Member(true)),
    Verb("leave NAME", "remove a member from the group", Action::Member(false)),
    Verb("h", "this help", Action::Help),
    Verb("q", "quit (also `quit` or EOF)", Action::Quit),
];

impl Verb {
    fn takes(&self, args: &[&str]) -> bool {
        match self.0.split_once(' ').map_or("", |(_, a)| a) {
            "QUERY" => !args.is_empty(),
            a if a.starts_with('[') => args.len() <= 1,
            a => args.len() == a.split_whitespace().count(),
        }
    }

    /// Where the verb runs, when not on every backend.
    fn scope(&self) -> Option<&'static str> {
        match self.2 {
            Action::Local(_) => Some("the local backend"),
            Action::Member(_) => Some("a --cluster console"),
            _ => None,
        }
    }
}

impl Shell {
    /// Runs one line, a backslash verb or a statement, printing to `out`.
    fn run(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<Step> {
        let Some(cmd) = line.strip_prefix('\\') else {
            return match line {
                "" => Ok(Step::Done),
                "quit" => Ok(Step::Quit),
                _ => report(self.backend.answer(line), out),
            };
        };
        let (word, rest) = cmd.split_once(char::is_whitespace).unwrap_or((cmd, ""));
        let word = match word {
            "help" => "h",
            "quit" => "q",
            w => w,
        };
        let Some(verb) = VERBS.iter().find(|v| v.0.split(' ').next() == Some(word)) else {
            writeln!(out, "unknown command \\{word} (\\h for help)")?;
            return Ok(Step::Failed);
        };
        let (rest, args) = (rest.trim(), rest.split_whitespace().collect::<Vec<_>>());
        if !verb.takes(&args) {
            writeln!(out, "usage: \\{}", verb.0)?;
            return Ok(Step::Failed);
        }
        match (&verb.2, &mut self.backend, &mut self.console) {
            (Action::Quit, ..) => Ok(Step::Quit),
            (Action::Help, ..) => {
                for v in VERBS {
                    let scope = v.scope().map(|s| format!(" (on {s} only)"));
                    writeln!(out, "\\{:<37} {}{}", v.0, v.1, scope.unwrap_or_default())?;
                }
                writeln!(out, "anything else runs as a statement: SELECT … | SHOW …")?;
                Ok(Step::Done)
            }
            (Action::Show(statement), backend, console) => {
                if let (Some(Console::Cluster(group)), "status") = (console, word) {
                    membership(group, out)?;
                }
                report(backend.answer(&format!("{statement} {rest}")), out)
            }
            (Action::Local(f), Backend::Local(session), _) => report(f(session, &args), out),
            (Action::Member(join), _, Some(Console::Cluster(group))) => {
                reconfigure(group, *join, rest, out)
            }
            _ => {
                let scope = verb.scope().unwrap_or_default();
                report(Err(format!("\\{word} runs on {scope} only")), out)
            }
        }
    }

    /// Reads and runs lines until a quit verb, `quit` or EOF. The two
    /// backends greet and prompt; a console greeted as it started.
    fn repl(&mut self) {
        let banner = match &mut self.backend {
            _ if self.console.is_some() => None,
            Backend::Local(Session::Memory(tmd)) => Some(format!(
                "mvolap — multiversion OLAP shell over schema `{}` \
                 ({} dimensions, {} facts). \\h for help, \\q to quit.",
                tmd.name(),
                tmd.dimensions().len(),
                tmd.facts().len()
            )),
            Backend::Local(Session::Durable(store)) => Some(format!(
                "mvolap — multiversion OLAP shell over durable store `{}` \
                 (schema `{}`, next LSN {}). \\h for help, \\q to quit.",
                store.dir().display(),
                store.schema().name(),
                store.wal_position()
            )),
            Backend::Remote(client) => match client.ping() {
                Ok(()) => Some(format!(
                    "mvolap — connected to session server on {}. \\q quits.",
                    client.addr()
                )),
                Err(e) => die(&format!("cannot reach {}: {e}", client.addr())),
            },
        };
        if banner.is_some_and(|b| !say(b)) {
            return;
        }
        let prompt = self.console.as_ref().map_or("mvolap> ", |_| "");
        let (mut out, lines) = (std::io::stdout(), stdin_lines());
        loop {
            if write!(out, "{prompt}").and_then(|()| out.flush()).is_err() {
                break;
            }
            let line = loop {
                match lines.recv_timeout(Duration::from_millis(250)) {
                    Err(RecvTimeoutError::Timeout) => self.tick(),
                    line => break line,
                }
            };
            let Ok(line) = line else { break };
            if matches!(self.run(line.trim(), &mut out), Ok(Step::Quit) | Err(_)) {
                break;
            }
        }
    }

    /// Between lines, a `--listen` console paces the store's tail-age
    /// checkpoint policy on the real clock: the policy decides, the
    /// clock only paces it (a fenced primary's store is frozen, so the
    /// check is a no-op then).
    fn tick(&self) {
        if let Some(Console::Listen(server)) = &self.console {
            match server.group().maybe_checkpoint() {
                Ok(Some(id)) => {
                    // A closed stdout ends the loop at its next write.
                    say(checkpointed(&id));
                }
                Ok(None) => {}
                Err(e) => eprintln!("checkpoint error: {e}"),
            }
        }
    }

    /// Prints a console's banner; a closed stdout stops the console's
    /// server (by dropping the shell) and exits cleanly.
    fn greet(self, banner: String) -> Shell {
        if !say(banner) {
            drop(self);
            std::process::exit(0);
        }
        self
    }

    /// The goodbye of an interactive run.
    fn goodbye(&self) -> Option<String> {
        Some(match (&self.console, &self.backend) {
            (Some(Console::Listen(server)), _) => {
                format!("mvolap: session server on {} stopped", server.addr())
            }
            (Some(Console::Cluster(group)), _) => {
                format!("mvolap: cluster on {} stopped", group.primary_addr())
            }
            (None, Backend::Remote(client)) => {
                format!("mvolap: disconnected from {}", client.addr())
            }
            (None, Backend::Local(_)) => return None,
        })
    }
}

/// Stdin's lines, read off-thread so a loop can wait for the next one
/// with a timeout. The reader is not joined: a blocking read of stdin
/// cannot be cancelled, and the thread ends at EOF or with the process.
fn stdin_lines() -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = std::io::stdin().lines().map_while(Result::ok);
        lines.try_for_each(|line| tx.send(line)).ok();
    });
    rx
}

/// Writes one line to stdout and flushes it. `false` once stdout is
/// closed: the caller stops, where `println!` would panic.
fn say(line: impl std::fmt::Display) -> bool {
    let mut out = std::io::stdout();
    writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
}

/// Writes an answer, or its error as `error: …`.
fn report(answer: Result<String, String>, out: &mut dyn Write) -> std::io::Result<Step> {
    match answer {
        Ok(text) => out.write_all(text.as_bytes()).map(|()| Step::Done),
        Err(e) => writeln!(out, "error: {e}").map(|()| Step::Failed),
    }
}

const USAGE: &str = "usage: mvolap [--two-measures | --workload SEED | --load FILE] \
     [--store DIR] [--listen ADDR | --follow ADDR] \
     [--cluster SPEC] [--workers N] [--connect ADDR] [-c LINE]\n\
     ADDR is host:port or unix:/path/to.sock; listen/follow need \
     --store DIR; --connect and --follow talk to a --listen server; \
     --cluster name=ADDR,... with --listen starts a quorum group; \
     --workers N sizes the session pool (N >= 1)";

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut schema, mut one_shot, mut store, mut opts) =
        (None, None, None, ServerOptions::default());
    let (mut follow_addr, mut listen_addr, mut connect_addr, mut spec) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} requires {what}")))
        };
        match flag.as_str() {
            "--two-measures" => schema = Some(case_study_two_measures().tmd),
            "--workload" => {
                let seed = value("a numeric seed").parse().ok();
                let seed = seed.unwrap_or_else(|| die("--workload requires a numeric seed"));
                let w = mvolap::workload::generate(&mvolap::workload::WorkloadConfig::small(seed))
                    .unwrap_or_else(|e| die(&format!("workload generation failed: {e}")));
                schema = Some(w.tmd);
            }
            "--load" => {
                let tmd = mvolap::core::persist::load_tmd(Path::new(&value("a file path")))
                    .unwrap_or_else(|e| die(&format!("load failed: {e}")));
                schema = Some(tmd);
            }
            "--store" => store = Some(value("a directory")),
            "-c" => one_shot = Some(value("a query string")),
            "--follow" => follow_addr = Some(value("an address")),
            "--listen" => listen_addr = Some(value("an address")),
            "--connect" => connect_addr = Some(value("an address")),
            "--cluster" => spec = Some(value("name=ADDR[,name=ADDR...]")),
            "--workers" => {
                let bad = format!("a number >= 1\n{USAGE}");
                let n = value(&bad).parse().ok().filter(|&n: &usize| n >= 1);
                opts.workers = n.unwrap_or_else(|| die(&format!("--workers requires {bad}")));
            }
            "--help" | "-h" => {
                say(USAGE);
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }

    let modes = [&follow_addr, &listen_addr, &connect_addr];
    if modes.iter().filter(|a| a.is_some()).count() > 1 {
        die("--follow, --listen and --connect are mutually exclusive");
    }
    let dir = |mode: &str| {
        let missing = || die(&format!("{mode} requires --store DIR"));
        store.clone().unwrap_or_else(missing)
    };
    if let Some(addr) = &follow_addr {
        follow(&net_addr(addr), &dir("--follow"));
    }
    let mut shell = match (spec, listen_addr, connect_addr) {
        (Some(spec), listen, _) => {
            let dir = dir("--cluster");
            let addr = listen.unwrap_or_else(|| die("--cluster requires --listen ADDR"));
            cluster(&net_addr(&addr), &dir, &spec, schema, opts)
        }
        (None, Some(addr), _) => listen(&net_addr(&addr), &dir("--listen"), schema, opts),
        (None, None, Some(addr)) => Shell {
            backend: Backend::Remote(SessionClient::connect(
                net_addr(&addr),
                NetConfig::default(),
            )),
            console: None,
        },
        // An existing store wins over --load/--workload (those only
        // seed a *new* store); the journal, not the flags, is the
        // durable truth.
        (None, None, None) => Shell {
            backend: Backend::Local(match store {
                Some(dir) => {
                    Session::Durable(Box::new(open_store(&dir, schema, Options::default())))
                }
                None => Session::Memory(Box::new(schema.unwrap_or_else(|| case_study().tmd))),
            }),
            console: None,
        },
    };

    // Dropping the shell stops a console's server.
    if let Some(line) = one_shot {
        let step = shell.run(&line, &mut std::io::stdout());
        drop(shell);
        std::process::exit(i32::from(!matches!(step, Ok(Step::Done | Step::Quit))));
    }
    shell.repl();
    let goodbye = shell.goodbye();
    drop(shell);
    if let Some(line) = goodbye {
        say(line);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("mvolap: {msg}");
    std::process::exit(1)
}

fn net_addr(addr: &str) -> NetAddr {
    NetAddr::parse(addr).unwrap_or_else(|e| die(&format!("bad address `{addr}`: {e}")))
}

/// Opens the store at `dir`, or creates it seeded with `schema` (the
/// case study by default).
fn open_store(dir: &str, schema: Option<Tmd>, opts: Options) -> DurableTmd {
    let path = Path::new(dir);
    match DurableTmd::open_with(path, opts.clone(), Io::plain()) {
        Ok(store) => store,
        Err(DurableError::NoStore) => {
            let seed = schema.unwrap_or_else(|| case_study().tmd);
            DurableTmd::create_with(path, seed, opts, Io::plain())
                .unwrap_or_else(|e| die(&format!("cannot create store: {e}")))
        }
        Err(e) => die(&format!("cannot open store at {dir}: {e}")),
    }
}

/// Tails a `--listen` server's store into the follower at `dir` until
/// `quit` or EOF on stdin (exit 0), or until the server fences it or
/// refuses it as diverged (exit 1).
fn follow(addr: &NetAddr, dir: &str) -> ! {
    let path = Path::new(dir);
    let name = path
        .file_name()
        .map_or_else(|| dir.to_string(), |n| n.to_string_lossy().into_owned());
    let mut f = Follower::open(name, path, Options::default(), Io::plain())
        .unwrap_or_else(|e| die(&format!("cannot open follower store at {dir}: {e}")));
    let mut client = NetClient::connect(addr.clone(), NetConfig::default());
    let mut open = say(format!(
        "mvolap — following {addr} into store `{dir}`. `quit` or EOF stops."
    ));

    let (lines, mut announced) = (stdin_lines(), false);
    while open {
        match sync_follower(&mut client, &mut f) {
            Ok(round) => {
                if round.caught_up() && !announced {
                    open = say(format!("caught up at LSN {}", f.next_lsn()));
                }
                announced = round.caught_up();
            }
            Err(e @ (ReplicaError::Fenced { .. } | ReplicaError::Diverged { .. })) => {
                die(&format!("follower refused: {e}"))
            }
            Err(e) => {
                eprintln!("sync error (will retry): {e}");
                announced = false;
            }
        }
        match lines.recv_timeout(Duration::from_millis(500)) {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    say(format!(
        "mvolap: follower of {addr} stopped at LSN {}",
        f.next_lsn()
    ));
    std::process::exit(0)
}

/// `--listen`: the session server over the store at `dir`, which
/// checkpoints once a committed tail is 30 s old. The console is a
/// session of its own server.
fn listen(addr: &NetAddr, dir: &str, schema: Option<Tmd>, opts: ServerOptions) -> Shell {
    let mut store_opts = Options::default();
    store_opts.policy.max_tail_age_ms = 30_000;
    let store = open_store(dir, schema, store_opts);
    let next_lsn = store.wal_position();
    let group = GroupCommit::new(store, GroupConfig::default());
    let server = SessionServer::spawn(addr, group, opts)
        .unwrap_or_else(|e| die(&format!("cannot listen on {addr}: {e}")));
    let banner = format!(
        "mvolap — session server for store `{dir}` on {} (next LSN {next_lsn}). \
         \\status shows the pool and followers; `\\q`, `quit` or EOF stops.",
        server.addr()
    );
    let client = SessionClient::connect(server.addr().clone(), NetConfig::default());
    Shell {
        backend: Backend::Remote(client),
        console: Some(Console::Listen(server)),
    }
    .greet(banner)
}

/// `--cluster`: a quorum group on one machine, the primary on `addr`
/// and a replica store and read server per `name=ADDR` of `spec`, with
/// a shipping thread per member. The console is a session of the
/// primary.
fn cluster(addr: &NetAddr, dir: &str, spec: &str, seed: Option<Tmd>, opts: ServerOptions) -> Shell {
    let members: Vec<(String, NetAddr)> = spec
        .split(',')
        .map(|part| match part.split_once('=') {
            Some((name, maddr)) => (name.to_string(), net_addr(maddr)),
            None => die(&format!("bad --cluster entry `{part}` (want name=ADDR)")),
        })
        .collect();
    let net = NetConfig::default();
    let mut group = LocalCluster::start(
        Path::new(dir),
        seed.unwrap_or_else(|| case_study().tmd),
        addr,
        &members,
        Options::default(),
        GroupConfig::default(),
        opts,
        net.clone(),
    )
    .unwrap_or_else(|e| die(&format!("cannot start cluster under {dir}: {e}")));
    group.spawn_pumps(PumpConfig::default());
    let mut banner = format!(
        "mvolap — quorum group under `{dir}`: primary on {} ({} members, quorum {}, \
         async replication). \\join NAME=ADDR, \\leave NAME, \\status; `\\q`, \
         `quit` or EOF stops.",
        group.primary_addr(),
        members.len(),
        quorum_figure(&group.group()),
    );
    for (name, maddr) in group.member_addrs() {
        banner += &format!("\n  member {name} reads on {maddr}");
    }
    Shell {
        backend: Backend::Remote(group.client(net)),
        console: Some(Console::Cluster(Box::new(group))),
    }
    .greet(banner)
}

/// A `--cluster` console's own `\status` lines: each member's role and
/// each pump's state.
fn membership(group: &LocalCluster, out: &mut dyn Write) -> std::io::Result<()> {
    for (name, learner) in group.membership() {
        let role = if learner { "learner" } else { "voter" };
        writeln!(out, "  {name}: {role}")?;
    }
    for (name, st) in group.pump_status() {
        writeln!(
            out,
            "  pump {name}: {:?} acked={} requests={} snapshots={} stalls={}",
            st.state, st.acked_lsn, st.requests, st.snapshots, st.stalls
        )?;
    }
    Ok(())
}

/// `\join NAME=ADDR` and `\leave NAME`: journal the reconfiguration,
/// then wait for the group to settle it.
fn reconfigure(
    group: &mut LocalCluster,
    join: bool,
    arg: &str,
    out: &mut dyn Write,
) -> std::io::Result<Step> {
    let journaled = if join {
        let Some((name, maddr)) = arg.split_once('=') else {
            return writeln!(out, "usage: \\join NAME=ADDR").map(|()| Step::Failed);
        };
        let maddr = match NetAddr::parse(maddr) {
            Ok(maddr) => maddr,
            Err(e) => return writeln!(out, "bad address `{maddr}`: {e}").map(|()| Step::Failed),
        };
        let joining =
            |lsn| format!("joining `{name}` (reconfig journaled at LSN {lsn}); catching up…");
        group
            .join(name, &maddr)
            .map(joining)
            .map_err(|e| format!("join refused: {e}"))
    } else {
        let removing = |lsn| format!("removing `{arg}` (reconfig journaled at LSN {lsn})…");
        group
            .leave(arg)
            .map(removing)
            .map_err(|e| format!("leave refused: {e}"))
    };
    match journaled {
        Ok(msg) => writeln!(out, "{msg}")?,
        Err(e) => return writeln!(out, "{e}").map(|()| Step::Failed),
    }
    out.flush()?;
    match (group.await_membership(Duration::from_secs(30)), join) {
        (Ok(name), true) => writeln!(out, "member `{name}` caught up and was promoted to voter")?,
        (Ok(name), false) => writeln!(out, "member `{name}` removed; reads re-routed")?,
        (Err(e), true) => writeln!(out, "join stalled: {e}")?,
        (Err(e), false) => writeln!(out, "remove stalled: {e}")?,
    }
    Ok(Step::Done)
}

fn create(s: &mut Session, a: &[&str]) -> Result<String, String> {
    let (dim, parent, at) = member_at(s.tmd(), a[0], a[3], a[4])?;
    let (name, level, parents) = (a[1].to_string(), Some(a[2].to_string()), vec![parent]);
    let msg = s.evolve(WalRecord::Create {
        dim,
        name,
        level,
        at,
        parents,
    })?;
    Ok(format!("created `{}`: {msg}\n", a[1]))
}

fn rename(s: &mut Session, a: &[&str]) -> Result<String, String> {
    let (dim, id, at) = member_at(s.tmd(), a[0], a[1], a[3])?;
    let (new_name, new_attributes) = (a[2].to_string(), Default::default());
    let msg = s.evolve(WalRecord::Transform {
        dim,
        id,
        new_name,
        new_attributes,
        at,
    })?;
    Ok(format!("renamed `{}` to `{}`: {msg}\n", a[1], a[2]))
}

fn delete(s: &mut Session, a: &[&str]) -> Result<String, String> {
    let (dim, id, at) = member_at(s.tmd(), a[0], a[1], a[2])?;
    let msg = s.evolve(WalRecord::Delete { dim, id, at })?;
    Ok(format!("deleted `{}`: {msg}\n", a[1]))
}

fn save(s: &mut Session, a: &[&str]) -> Result<String, String> {
    match (a.first(), s) {
        (Some(path), s) => mvolap::core::persist::save_tmd(s.tmd(), Path::new(path))
            .map(|()| format!("saved to {path}\n"))
            .map_err(|e| e.to_string()),
        (None, Session::Durable(store)) => store
            .checkpoint()
            .map(|id| format!("{}\n", checkpointed(&id)))
            .map_err(|e| e.to_string()),
        (None, Session::Memory(_)) => {
            Ok("usage: \\save FILE (checkpointing needs --store DIR)\n".to_string())
        }
    }
}

fn export(s: &mut Session, a: &[&str]) -> Result<String, String> {
    let wh = mvolap::core::logical::build_multiversion_warehouse(s.tmd());
    let wh = wh.map_err(|e| e.to_string())?;
    mvolap::storage::persist::save_catalog(&wh, Path::new(a[0])).map_err(|e| e.to_string())?;
    Ok(format!("exported {} tables to {}/\n", wh.len(), a[0]))
}

fn checkpointed(id: &CheckpointId) -> String {
    let (generation, lsn) = (id.generation, id.next_lsn);
    format!("checkpoint at generation {generation}, next LSN {lsn}")
}

/// Resolves the `YYYY-MM` instant `at`, then a dimension and the member
/// of it valid at `at` (or just before it, so evolutions taking effect
/// *at* the instant still find their target).
fn member_at(
    tmd: &Tmd,
    dim: &str,
    name: &str,
    at: &str,
) -> Result<(DimensionId, MemberVersionId, Instant), String> {
    let (y, m) = at
        .split_once('-')
        .ok_or_else(|| format!("`{at}` is not a YYYY-MM instant"))?;
    let year: i32 = y.parse().map_err(|_| format!("bad year in `{at}`"))?;
    let month: u32 = m.parse().map_err(|_| format!("bad month in `{at}`"))?;
    if !(1..=12).contains(&month) {
        return Err(format!("month out of range in `{at}`"));
    }
    let at = Instant::ym(year, month);
    let dim = tmd.dimension_by_name(dim).map_err(|e| e.to_string())?;
    let id = mvolap::etl::load::resolve(tmd, dim, name, at).map_err(|e| e.to_string())?;
    Ok((dim, id, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, line: &str) -> String {
        let mut out = Vec::new();
        shell.run(line, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn every_metadata_alias_renders_its_statement() {
        let tmd = case_study().tmd;
        let labels: String = (tmd.structure_versions().iter())
            .map(|sv| format!("{}\n", sv.label()))
            .collect();
        let mut shell = Shell {
            backend: Backend::Local(Session::Memory(Box::new(tmd))),
            console: None,
        };
        let q = "SELECT sum(Amount) BY year, Org.Department FOR 2001..2003 IN MODE VERSION 2";
        for verb in VERBS {
            let Action::Show(statement) = verb.2 else {
                continue;
            };
            let (name, arg) = match verb.0.split_once(' ') {
                Some((name, "QUERY")) => (name, q),
                Some((name, _)) => (name, "Org"),
                None => (verb.0, ""),
            };
            let alias = run(&mut shell, &format!("\\{name} {arg}"));
            assert!(alias.len() > 10, "\\{name}: {alias}");
            assert_eq!(
                alias,
                run(&mut shell, &format!("{statement} {arg}")),
                "\\{name}"
            );
        }
        // The bytes these verbs printed before they were statements.
        assert_eq!(run(&mut shell, "\\svs"), labels);
        assert_eq!(run(&mut shell, "\\measures"), "Amount (sum)\n");
        let no_server = "error: SHOW STATUS is answered by a session server\n";
        assert_eq!(run(&mut shell, "\\status"), no_server);
    }

    #[test]
    fn local_and_console_verbs_refuse_on_the_remote_backend() {
        let addr = NetAddr::parse("127.0.0.1:9").unwrap();
        let mut shell = Shell {
            backend: Backend::Remote(SessionClient::connect(addr, NetConfig::default())),
            console: None,
        };
        for (line, scope) in [
            (
                "\\create Org Dpt.X Department R&D 2004-01",
                "the local backend",
            ),
            ("\\save", "the local backend"),
            ("\\export out", "the local backend"),
            ("\\leave m1", "a --cluster console"),
        ] {
            let verb = line.split(' ').next().unwrap();
            assert_eq!(
                run(&mut shell, line),
                format!("error: {verb} runs on {scope} only\n")
            );
        }
    }
}
