//! Server soak: 64 concurrent sessions — most idle, a few hot —
//! against a real `mvolap --listen` process for a bounded wall-clock
//! window, asserting zero protocol errors and a clean shutdown on
//! `\q`.
//!
//! This is the smoke test for the pooled session server's reason to
//! exist: 64 held sessions are 64 parked file descriptors polled by
//! one loop and served by a handful of workers, not 64 server threads.
//! The soak holds every session open for the whole window — the idle
//! ones ping once in a while, the hot ones hammer queries and commits
//! — and then checks that
//!
//! * every request got a well-formed reply (`Busy` refusals are
//!   admission working as designed and are counted, not failed;
//!   anything else — protocol errors, transport drops, shutdown races
//!   — fails the soak),
//! * a `\q` line on the server's stdin stops it cleanly (exit status
//!   zero, goodbye line printed).
//!
//! ```text
//! cargo run --release --example server_soak
//! MVOLAP_SOAK_SECS=30 MVOLAP_BIN=target/release/mvolap \
//!     cargo run --release --example server_soak
//! ```
//!
//! `MVOLAP_SOAK_SECS` bounds the window (default 10; CI uses 30).
//! `MVOLAP_BIN` points at the shell binary (default
//! `target/release/mvolap`, falling back to `target/debug/mvolap`).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvolap::replica::{NetAddr, NetConfig};
use mvolap::server::{ServerError, SessionClient};

const SESSIONS: usize = 64;
const HOT_SESSIONS: usize = 4;
const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2003 IN MODE tcm";

fn bin_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("MVOLAP_BIN") {
        return p.into();
    }
    let release = std::path::Path::new("target/release/mvolap");
    if release.exists() {
        return release.to_path_buf();
    }
    std::path::Path::new("target/debug/mvolap").to_path_buf()
}

/// Reads the server banner and extracts the bound address (printed
/// between " on " and " (next LSN" — the port is OS-chosen).
fn server_addr(child: &mut Child) -> (NetAddr, impl BufRead) {
    let stdout = child.stdout.take().expect("server stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("server banner");
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(" (").next())
        .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"));
    (NetAddr::parse(addr.trim()).expect("banner addr"), reader)
}

fn main() {
    let secs: u64 = std::env::var("MVOLAP_SOAK_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let store = std::env::temp_dir().join(format!("mvolap_soak_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();

    let bin = bin_path();
    let mut server = Command::new(&bin)
        .args(["--store", store.to_str().expect("utf8 tmp path")])
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
    let (addr, mut server_out) = server_addr(&mut server);
    println!(
        "soaking {SESSIONS} sessions ({HOT_SESSIONS} hot) against {addr} for {secs}s \
         [{}]",
        bin.display()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let requests = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let deadline = Instant::now() + Duration::from_secs(secs);

    let sessions: Vec<_> = (0..SESSIONS)
        .map(|s| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let requests = Arc::clone(&requests);
            let busy = Arc::clone(&busy);
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut client = SessionClient::connect(addr, NetConfig::default());
                let hot = s < HOT_SESSIONS;
                while !stop.load(Ordering::SeqCst) {
                    // Hot sessions hammer queries; idle ones ping every
                    // couple of seconds and otherwise just hold their
                    // parked connection open.
                    let res = if hot {
                        client.query(QUERY).map(|_| ())
                    } else {
                        client.ping()
                    };
                    requests.fetch_add(1, Ordering::Relaxed);
                    match res {
                        Ok(()) => {}
                        Err(ServerError::Busy { .. }) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("session {s}: {e}");
                        }
                    }
                    if !hot {
                        // Idle between pings, in slices that stay
                        // responsive to the stop flag.
                        for _ in 0..20 {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                }
            })
        })
        .collect();

    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
    }
    stop.store(true, Ordering::SeqCst);
    for s in sessions {
        s.join().expect("session thread");
    }

    // Clean shutdown on `\q`: goodbye line, exit status zero.
    server
        .stdin
        .as_mut()
        .expect("server stdin piped")
        .write_all(b"\\q\n")
        .expect("write \\q");
    let status = server.wait().expect("server exit status");
    let mut goodbye = String::new();
    server_out.read_line(&mut goodbye).ok();

    let total = requests.load(Ordering::Relaxed);
    let refused = busy.load(Ordering::Relaxed);
    let failed = errors.load(Ordering::Relaxed);
    println!(
        "soak: {total} requests, {refused} busy refusals, {failed} protocol errors; \
         server said {goodbye:?} and exited {status}"
    );
    assert!(
        status.success(),
        "server must exit cleanly on \\q: {status}"
    );
    assert!(
        goodbye.contains("stopped"),
        "server must say goodbye, got {goodbye:?}"
    );
    assert_eq!(failed, 0, "a soak must be protocol-error free");
    assert!(
        total >= SESSIONS as u64,
        "every session must get at least one reply, got {total}"
    );
    std::fs::remove_dir_all(&store).ok();
    println!("server soak complete: {SESSIONS} held sessions, zero protocol errors, clean \\q.");
}
