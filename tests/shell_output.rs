//! The shell binary's own output: a reader that goes away ends it
//! cleanly.

use std::io::Write;
use std::process::{Command, Stdio};

/// With its stdout closed before it writes anything (as in
/// `printf '%s\n' '\h' '\q' | mvolap | true`), the shell stops at its
/// first write and exits 0, where a `println!` would panic on the broken
/// pipe.
#[test]
fn a_closed_stdout_stops_the_shell_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvolap"))
        .stdin(Stdio::piped())
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns the shell");
    // The shell may have stopped already, closing its stdin.
    let stdin = child.stdin.take().expect("piped stdin");
    let _ = { stdin }.write_all(b"\\h\n\\q\n");
    let out = child.wait_with_output().expect("waits for the shell");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
