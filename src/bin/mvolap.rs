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
//! them. So are the evolution verbs `\create`, `\rename` and
//! `\delete`, of the `CREATE`, `RENAME` and `DELETE` statements: every
//! backend runs Table 11's operators, journaled on a store or a server.
//! The file verbs (`\save`, `\export`) run on the local backend only;
//! `\join` and `\leave` on a `--cluster` console only.

use std::io::Write;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use mvolap::cluster::{LocalCluster, PumpConfig};
use mvolap::core::case_study::{case_study, case_study_two_measures};
use mvolap::core::{ExecContext, QueryMemo, Tmd};
use mvolap::durable::{CheckpointId, DurableError, DurableTmd, GroupCommit};
use mvolap::durable::{GroupConfig, Io, Options};
use mvolap::query::{parse_statement, render_statement, Evolve, Statement, OPERATORS};
use mvolap::replica::{sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError};
use mvolap::server::{quorum_figure, ServerOptions, SessionClient, SessionServer};

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

    /// Runs an evolution statement: its names resolve against the
    /// schema, then its record is journaled (validate → WAL append +
    /// fsync → apply) on a durable store, or applied in memory.
    fn evolve(&mut self, e: &Evolve) -> Result<String, String> {
        let record = e.resolve(self.tmd()).map_err(|e| e.to_string())?;
        let done = match self {
            Session::Memory(tmd) => record
                .apply(tmd)
                .map(|()| "applied (in-memory; use --store DIR to journal)".to_string())
                .map_err(|e| e.to_string()),
            Session::Durable(store) => store
                .apply(record)
                .map(|lsn| format!("journaled at LSN {lsn}"))
                .map_err(|e| e.to_string()),
        };
        Ok(format!("{}: {}\n", e.describe(), done?))
    }
}

/// Where statements go.
enum Backend {
    Local(Session),
    Remote(SessionClient),
}

impl Backend {
    /// Runs a statement: locally an evolution resolves against the
    /// schema and runs through [`Session::evolve`], and everything else
    /// renders; a server does both on its side.
    fn answer(&mut self, text: &str) -> Result<String, String> {
        let s = match self {
            Backend::Local(s) => s,
            Backend::Remote(client) => return client.query(text).map_err(|e| e.to_string()),
        };
        match parse_statement(text).map_err(|e| e.to_string())? {
            Statement::Evolve(e) => s.evolve(&e),
            st => render_statement(s.tmd(), &st, &ExecContext::sequential(), &QueryMemo::new())
                .map_err(|e| e.to_string()),
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
    /// Runs this statement: its `{}`s filled with the verb's arguments
    /// (see [`fill`]), or with them appended when it has none.
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
    Verb("create DIM NAME LEVEL PARENT YYYY-MM", "insert a member", Action::Show("CREATE {} {} LEVEL {} UNDER {} AT {}")),
    Verb("rename DIM MEMBER NEW_NAME YYYY-MM", "transform a member", Action::Show("RENAME {} {} TO {} AT {}")),
    Verb("delete DIM MEMBER YYYY-MM", "exclude a member", Action::Show("DELETE {} {} AT {}")),
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
                let ops: Vec<&str> = OPERATORS.iter().map(|op| op.keyword).collect();
                let ops = ops.join(" | ");
                writeln!(
                    out,
                    "anything else runs as a statement: SELECT … | SHOW … | {ops} …"
                )?;
                Ok(Step::Done)
            }
            (Action::Show(statement), backend, console) => {
                if let (Some(Console::Cluster(group)), "status") = (console, word) {
                    membership(group, out)?;
                }
                let text = if statement.contains("{}") {
                    fill(statement, verb.0, &args)
                } else {
                    format!("{statement} {rest}")
                };
                report(backend.answer(&text), out)
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

/// A verb's statement with its `{}`s filled by the arguments in
/// order, each written as the statement reads the usage word it stands
/// for: a dimension or level as is, `YYYY-MM` as `MM/YYYY`, and
/// anything else as a quoted member name.
fn fill(statement: &str, usage: &str, args: &[&str]) -> String {
    let mut pieces = statement.split("{}");
    let mut text = pieces.next().unwrap_or_default().to_owned();
    for ((word, arg), piece) in usage.split(' ').skip(1).zip(args).zip(pieces) {
        match (word, arg.split_once('-')) {
            ("DIM" | "LEVEL", _) | ("YYYY-MM", None) => text += arg,
            ("YYYY-MM", Some((year, month))) => text += &format!("{month}/{year}"),
            _ => text += &format!("'{}'", arg.replace('\'', "''")),
        }
        text += piece;
    }
    text
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
            if statement.contains("{}") {
                continue;
            }
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

    /// Each evolution verb prints what its statement prints, with its
    /// arguments in the order they always took.
    #[test]
    fn every_evolution_alias_runs_its_statement() {
        let shell = || Shell {
            backend: Backend::Local(Session::Memory(Box::new(case_study().tmd))),
            console: None,
        };
        let applied = ": applied (in-memory; use --store DIR to journal)\n";
        for (alias, statement, answer) in [
            (
                "\\create Org Dpt.O'Neil Department R&D 2004-01",
                "CREATE Org 'Dpt.O''Neil' LEVEL Department UNDER 'R&D' AT 01/2004",
                "created `Dpt.O'Neil`",
            ),
            (
                "\\rename Org Dpt.Smith Dpt.Smyth 2004-01",
                "RENAME Org 'Dpt.Smith' TO 'Dpt.Smyth' AT 1/2004",
                "renamed `Dpt.Smith` to `Dpt.Smyth`",
            ),
            (
                "\\delete Org Dpt.Bill 2004-01",
                "delete Org 'Dpt.Bill' at 01/2004;",
                "deleted `Dpt.Bill`",
            ),
        ] {
            let (mut by_alias, mut by_statement) = (shell(), shell());
            assert_eq!(run(&mut by_alias, alias), format!("{answer}{applied}"));
            assert_eq!(
                run(&mut by_statement, statement),
                format!("{answer}{applied}")
            );
            assert_eq!(
                run(&mut by_alias, "SHOW LOG"),
                run(&mut by_statement, "SHOW LOG")
            );
        }
    }

    /// One statement of each of the ten operator kinds runs on the
    /// in-memory, `--store` and `--connect` backends, to the same
    /// evolution log; a store and a server journal at the same LSNs.
    #[test]
    fn every_operator_runs_on_every_backend() {
        const STATEMENTS: [&str; 10] = [
            "CREATE Org 'Dpt.New' LEVEL Department UNDER 'Sales' AT 01/2004",
            "RENAME Org 'Dpt.New' TO 'Dpt.Newer' WITH site = 'Lyon' AT 02/2004",
            "MERGE Org 'Dpt.Bill' 0.5, 'Dpt.Paul' INTO 'Dpt.BP' UNDER 'Sales' AT 01/2004",
            "SPLIT Org 'Dpt.Smith' INTO 'Dpt.S1' 0.3, 'Dpt.S2' 0.7 UNDER 'R&D' AT 01/2004",
            "RECLASSIFY Org 'Dpt.Brian' FROM 'R&D' TO 'Sales' AT 01/2004",
            "ASSOCIATE Org 'Dpt.S1' TO 'Dpt.Newer' FORWARD 's0.5@am' BACKWARD 'u@uk' AT 03/2004",
            "CONFIDENCE Org 'Dpt.Jones' TO 'Dpt.Bill' FORWARD 's0.45@am' BACKWARD 'id@em' AT 01/2003",
            "INCREASE Org 'Dpt.Brian' TO 'Dpt.Brian+' BY 2 UNDER 'Sales' AT 06/2004",
            "DECREASE Org 'Dpt.S1' TO 'Dpt.S1-' KEEP 0.5 UNDER 'R&D' AT 06/2004",
            "DELETE Org 'Dpt.S2' AT 06/2004",
        ];
        let dir = std::env::temp_dir().join(format!("mvolap-shell-ops-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = |name: &str| {
            let store = DurableTmd::create_with(
                &dir.join(name),
                case_study().tmd,
                Options::default(),
                Io::plain(),
            );
            store.unwrap()
        };
        let group = GroupCommit::new(store("server"), GroupConfig::default());
        let addr = NetAddr::parse("127.0.0.1:0").unwrap();
        let server = SessionServer::spawn(&addr, group, ServerOptions::default()).unwrap();
        let client = SessionClient::connect(server.addr().clone(), NetConfig::default());
        let mut shells = [
            Backend::Local(Session::Memory(Box::new(case_study().tmd))),
            Backend::Local(Session::Durable(Box::new(store("local")))),
            Backend::Remote(client),
        ]
        .map(|backend| Shell {
            backend,
            console: None,
        });
        let mut answers: [Vec<String>; 3] = Default::default();
        for statement in STATEMENTS {
            for (shell, answers) in shells.iter_mut().zip(&mut answers) {
                let answer = run(shell, statement);
                assert!(!answer.starts_with("error"), "{statement}: {answer}");
                answers.push(answer);
            }
        }
        assert!(answers[0]
            .iter()
            .all(|a| a.ends_with(": applied (in-memory; use --store DIR to journal)\n")));
        assert_eq!(answers[1], answers[2], "a store and a server journal alike");
        assert_eq!(answers[1][9], "deleted `Dpt.S2`: journaled at LSN 11\n");
        let logs = shells.each_mut().map(|shell| run(shell, "SHOW LOG"));
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        drop(shells);
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The evolution verbs run on a session server as on a store: the
    /// server resolves the names and journals the record.
    #[test]
    fn evolution_verbs_run_on_the_remote_backend() {
        let dir = std::env::temp_dir().join(format!("mvolap-shell-remote-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store =
            DurableTmd::create_with(&dir, case_study().tmd, Options::default(), Io::plain());
        let group = GroupCommit::new(store.unwrap(), GroupConfig::default());
        let addr = NetAddr::parse("127.0.0.1:0").unwrap();
        let server = SessionServer::spawn(&addr, group, ServerOptions::default()).unwrap();
        let mut shell = Shell {
            backend: Backend::Remote(SessionClient::connect(
                server.addr().clone(),
                NetConfig::default(),
            )),
            console: None,
        };
        assert_eq!(
            run(&mut shell, "\\create Org Dpt.X Department R&D 2004-01"),
            "created `Dpt.X`: journaled at LSN 2\n"
        );
        assert_eq!(
            run(&mut shell, "\\delete Org Dpt.Nobody 2004-01"),
            "error: query failed: unknown member `Dpt.Nobody` in dimension `Org`\n"
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}
