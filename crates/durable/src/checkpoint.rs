//! Checkpoints: atomic schema snapshots keyed to a WAL position.
//!
//! A checkpoint lives in `<store>/checkpoint/` as
//! `ckpt-g{generation:016}-l{lsn:016}.tmd` — the `core::persist` text
//! snapshot of the [`Tmd`], named after the schema's
//! [`Tmd::generation`] and the LSN **after** the last record the
//! snapshot covers. Recovery loads the newest parseable checkpoint and
//! replays WAL records with `lsn >= next_lsn` on top of it.
//!
//! Writes are crash-atomic: serialise into `*.tmp`, fsync, rename onto
//! the final name, fsync the directory. A crash at any point leaves
//! either the old set of checkpoints or the old set plus the complete
//! new one — never a half-written file under a valid name. Stale `.tmp`
//! droppings are removed on the next checkpoint.

use std::path::{Path, PathBuf};

use mvolap_core::persist::{read_tmd, write_tmd};
use mvolap_core::Tmd;

use crate::error::DurableError;
use crate::io::Io;

const PREFIX: &str = "ckpt-g";

/// A checkpoint's identity: schema generation + WAL resume position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointId {
    /// `Tmd::generation` of the snapshotted schema.
    pub generation: u64,
    /// First LSN **not** covered by the snapshot (replay resumes here).
    pub next_lsn: u64,
}

fn file_name(id: CheckpointId) -> String {
    format!("{PREFIX}{:016}-l{:016}.tmd", id.generation, id.next_lsn)
}

fn parse_name(name: &str) -> Option<CheckpointId> {
    let rest = name.strip_prefix(PREFIX)?.strip_suffix(".tmd")?;
    let (g, l) = rest.split_once("-l")?;
    if g.len() != 16 || l.len() != 16 {
        return None;
    }
    Some(CheckpointId {
        generation: g.parse().ok()?,
        next_lsn: l.parse().ok()?,
    })
}

fn ckpt_dir(dir: &Path) -> PathBuf {
    dir.join("checkpoint")
}

/// Atomically writes a checkpoint of `tmd` covering the WAL up to (not
/// including) `next_lsn`.
///
/// # Errors
///
/// I/O (or injected-fault) failures; on failure no valid checkpoint name
/// is ever left pointing at partial data.
pub fn write(
    tmd: &Tmd,
    dir: &Path,
    next_lsn: u64,
    io: &mut Io,
) -> Result<CheckpointId, DurableError> {
    let cdir = ckpt_dir(dir);
    let created = !cdir.is_dir();
    if created {
        io.create_dir(&cdir)?;
    }
    let id = CheckpointId {
        generation: tmd.generation(),
        next_lsn,
    };
    let finals = cdir.join(file_name(id));
    let tmp = cdir.join(format!("{}.tmp", file_name(id)));
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf)?;
    let f = io.create(&tmp)?;
    let res = io
        .write(&f, &buf)
        .and_then(|()| io.sync(&f))
        .and_then(|()| {
            drop(f);
            io.rename(&tmp, &finals)
        })
        .and_then(|()| io.sync_dir(&cdir))
        .and_then(|()| {
            // A first checkpoint also created `checkpoint/` itself; the
            // entry must be durable in the store directory *before*
            // pruning may remove WAL segments the snapshot covers, or a
            // crash could lose the checkpoint while the prune survives.
            if created {
                io.sync_dir(dir)
            } else {
                Ok(())
            }
        });
    if let Err(e) = res {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    Ok(id)
}

/// Finds and loads the newest valid checkpoint under `dir`, skipping
/// unparseable files (a corrupt checkpoint falls back to the previous
/// one). Removes stale `.tmp` droppings along the way. Returns `None`
/// when no usable checkpoint exists.
///
/// # Errors
///
/// Only directory-listing I/O failures; corrupt checkpoint *contents*
/// are skipped, not fatal.
pub fn load_latest(dir: &Path) -> Result<Option<(CheckpointId, Tmd)>, DurableError> {
    let cdir = ckpt_dir(dir);
    if !cdir.is_dir() {
        return Ok(None);
    }
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(&cdir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            std::fs::remove_file(entry.path()).ok();
            continue;
        }
        if let Some(id) = parse_name(&name) {
            ids.push(id);
        }
    }
    // Newest first: highest covered LSN, generation as tie-break.
    ids.sort_by_key(|id| (id.next_lsn, id.generation));
    for id in ids.into_iter().rev() {
        let path = cdir.join(file_name(id));
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        // The generation in the name is a monotonic marker, not a
        // validation key: `write_tmd` reconstructs through the
        // construction API, so a re-read schema counts its own
        // generations. Parseability is the validity test.
        if let Ok(tmd) = read_tmd(&mut bytes.as_slice()) {
            return Ok(Some((id, tmd)));
        }
    }
    Ok(None)
}

/// Removes every checkpoint older than `keep` (by resume LSN). The
/// newest is never removed.
pub fn prune(dir: &Path, keep: CheckpointId, io: &mut Io) -> Result<usize, DurableError> {
    let cdir = ckpt_dir(dir);
    if !cdir.is_dir() {
        return Ok(0);
    }
    let mut removed = 0;
    for entry in std::fs::read_dir(&cdir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(id) = parse_name(&name.to_string_lossy()) {
            if id != keep && id.next_lsn <= keep.next_lsn {
                io.remove_file(&entry.path())?;
                removed += 1;
            }
        }
    }
    if removed > 0 {
        io.sync_dir(&cdir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_core::case_study;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvolap_ckpt_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_latest_roundtrip() {
        let dir = tmp("roundtrip");
        let mut io = Io::plain();
        let tmd = case_study::case_study().tmd;
        let id = write(&tmd, &dir, 17, &mut io).unwrap();
        assert_eq!(id.next_lsn, 17);
        assert_eq!(id.generation, tmd.generation());
        let (got, loaded) = load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(got, id);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_tmd(&tmd, &mut a).unwrap();
        write_tmd(&loaded, &mut b).unwrap();
        assert_eq!(a, b, "loaded checkpoint must serialise identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_wins_and_corrupt_falls_back() {
        let dir = tmp("fallback");
        let mut io = Io::plain();
        let tmd = case_study::case_study().tmd;
        let old = write(&tmd, &dir, 5, &mut io).unwrap();
        let new = write(&tmd, &dir, 9, &mut io).unwrap();
        let (got, _) = load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(got, new);
        // Corrupt the newest: loader must fall back to the older one.
        let newest = ckpt_dir(&dir).join(file_name(new));
        std::fs::write(&newest, b"mvolap-tmd v1\ngarbage from the future\n").unwrap();
        let (got, _) = load_latest(&dir).unwrap().expect("fallback checkpoint");
        assert_eq!(got, old);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tmp_droppings_are_ignored_and_cleaned() {
        let dir = tmp("droppings");
        let mut io = Io::plain();
        let tmd = case_study::case_study().tmd;
        let id = write(&tmd, &dir, 3, &mut io).unwrap();
        let stale = ckpt_dir(&dir).join("ckpt-g0000000000000099-l0000000000000099.tmd.tmp");
        std::fs::write(&stale, b"half a snapshot").unwrap();
        let (got, _) = load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(got, id);
        assert!(!stale.exists(), "stale .tmp must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp("prune");
        let mut io = Io::plain();
        let tmd = case_study::case_study().tmd;
        write(&tmd, &dir, 2, &mut io).unwrap();
        write(&tmd, &dir, 4, &mut io).unwrap();
        let newest = write(&tmd, &dir, 8, &mut io).unwrap();
        let removed = prune(&dir, newest, &mut io).unwrap();
        assert_eq!(removed, 2);
        let (got, _) = load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(got, newest);
        std::fs::remove_dir_all(&dir).ok();
    }
}
