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

/// Runs one line through `mvolap [--store DIR] -c LINE` and returns its
/// stdout.
fn one_shot(store: Option<&std::path::Path>, line: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mvolap"));
    if let Some(dir) = store {
        cmd.arg("--store").arg(dir);
    }
    let out = cmd.arg("-c").arg(line).output().expect("runs the shell");
    String::from_utf8(out.stdout).expect("utf-8")
}

/// The evolution verbs, aliases of their statements, print the bytes
/// they printed as verbs of their own, in memory and on a store.
#[test]
fn evolution_verbs_keep_their_bytes_on_both_local_backends() {
    let applied = "applied (in-memory; use --store DIR to journal)";
    for (line, answer) in [
        (
            "\\create Org Dpt.NanoTech Department R&D 2004-01",
            format!("created `Dpt.NanoTech`: {applied}\n"),
        ),
        (
            "\\rename Org Dpt.Smith Dpt.Smyth 2004-01",
            format!("renamed `Dpt.Smith` to `Dpt.Smyth`: {applied}\n"),
        ),
        (
            "\\delete Org Dpt.Bill 2004-01",
            format!("deleted `Dpt.Bill`: {applied}\n"),
        ),
        (
            "\\rename Org Dpt.Jones Dpt.Jones2 2004-01",
            "error: unknown member `Dpt.Jones` in dimension `Org`\n".to_string(),
        ),
    ] {
        assert_eq!(one_shot(None, line), answer, "{line}");
    }
    let dir = std::env::temp_dir().join(format!("mvolap-shell-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for (line, answer) in [
        (
            "\\create Org Dpt.NanoTech Department R&D 2004-01",
            "created `Dpt.NanoTech`: journaled at LSN 2\n",
        ),
        (
            "\\rename Org Dpt.NanoTech Dpt.Nano 2005-01",
            "renamed `Dpt.NanoTech` to `Dpt.Nano`: journaled at LSN 3\n",
        ),
        (
            "\\delete Org Dpt.Nano 2006-01",
            "deleted `Dpt.Nano`: journaled at LSN 4\n",
        ),
    ] {
        assert_eq!(one_shot(Some(&dir), line), answer, "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
