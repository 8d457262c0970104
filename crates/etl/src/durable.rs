//! Journaled SCD maintainers: the crash-safety contract the
//! multiversion store gets from `DurableTmd`, applied to the Kimball
//! baselines so the SCD-vs-evolution comparison can price durability
//! and recovery too.
//!
//! Each snapshot load is serialised, appended to a write-ahead log and
//! fsynced **before** it touches the dimension table; [`DurableScd::open`]
//! replays the journal through the same `load` path, so a crashed
//! loader recovers to exactly the prefix of acknowledged snapshots.
//! The journal reuses `mvolap-durable`'s segmented WAL (CRC-framed
//! records, torn-tail repair), which also makes the fsync counter
//! available for the bench comparison.

use std::path::Path;

use mvolap_durable::{DurableError, Io, Wal};
use mvolap_storage::StorageError;
use mvolap_temporal::Instant;

use crate::scd::{Scd1Dimension, Scd2Dimension, Scd3Dimension};
use crate::snapshot::{Snapshot, SnapshotRow};

/// WAL segment size for snapshot journals — snapshots are small, so a
/// modest segment keeps rotation exercised without hurting the bench.
const SEGMENT_BYTES: u64 = 1 << 20;

/// Everything a journaled SCD load can raise.
#[derive(Debug)]
pub enum ScdDurableError {
    /// The journal failed (I/O, corruption, torn frame).
    Journal(DurableError),
    /// The dimension table refused the snapshot (schema violation).
    Table(StorageError),
}

impl std::fmt::Display for ScdDurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScdDurableError::Journal(e) => write!(f, "scd journal: {e}"),
            ScdDurableError::Table(e) => write!(f, "scd table: {e}"),
        }
    }
}

impl std::error::Error for ScdDurableError {}

impl From<DurableError> for ScdDurableError {
    fn from(e: DurableError) -> Self {
        ScdDurableError::Journal(e)
    }
}

impl From<StorageError> for ScdDurableError {
    fn from(e: StorageError) -> Self {
        ScdDurableError::Table(e)
    }
}

/// A snapshot-loadable SCD maintainer (Type 1, 2 or 3), abstracted so
/// one journal implementation covers all three baselines.
pub trait ScdMaintainer: Sized {
    /// Builds an empty maintainer for a dimension named `name`.
    ///
    /// # Errors
    ///
    /// [`StorageError`] when the backing schema cannot be created.
    fn empty(name: &str) -> Result<Self, StorageError>;

    /// Ingests one snapshot (the maintainer's `load`).
    ///
    /// # Errors
    ///
    /// [`StorageError`] on a schema violation.
    fn ingest(&mut self, snapshot: &Snapshot) -> Result<(), StorageError>;
}

impl ScdMaintainer for Scd1Dimension {
    fn empty(name: &str) -> Result<Self, StorageError> {
        Scd1Dimension::new(name)
    }
    fn ingest(&mut self, snapshot: &Snapshot) -> Result<(), StorageError> {
        self.load(snapshot)
    }
}

impl ScdMaintainer for Scd2Dimension {
    fn empty(name: &str) -> Result<Self, StorageError> {
        Scd2Dimension::new(name)
    }
    fn ingest(&mut self, snapshot: &Snapshot) -> Result<(), StorageError> {
        self.load(snapshot)
    }
}

impl ScdMaintainer for Scd3Dimension {
    fn empty(name: &str) -> Result<Self, StorageError> {
        Scd3Dimension::new(name)
    }
    fn ingest(&mut self, snapshot: &Snapshot) -> Result<(), StorageError> {
        self.load(snapshot)
    }
}

/// A journaled SCD maintainer: WAL-append + fsync per snapshot load,
/// replay on open.
pub struct DurableScd<D> {
    dim: D,
    wal: Wal,
    io: Io,
}

impl<D: ScdMaintainer> DurableScd<D> {
    /// Creates a fresh journaled maintainer under `dir`.
    ///
    /// # Errors
    ///
    /// Journal I/O failures; table-schema failures.
    pub fn create(dir: &Path, name: &str) -> Result<DurableScd<D>, ScdDurableError> {
        DurableScd::create_with(dir, name, Io::plain())
    }

    /// As [`DurableScd::create`], with an instrumented [`Io`] (fault
    /// injection, fsync counting).
    ///
    /// # Errors
    ///
    /// As [`DurableScd::create`].
    pub fn create_with(
        dir: &Path,
        name: &str,
        mut io: Io,
    ) -> Result<DurableScd<D>, ScdDurableError> {
        let wal = Wal::create(dir, SEGMENT_BYTES, &mut io)?;
        Ok(DurableScd {
            dim: D::empty(name)?,
            wal,
            io,
        })
    }

    /// Reopens a journaled maintainer, replaying every surviving
    /// snapshot record through the normal load path.
    ///
    /// # Errors
    ///
    /// Journal damage beyond torn-tail repair; replay failures.
    pub fn open(dir: &Path, name: &str) -> Result<DurableScd<D>, ScdDurableError> {
        let mut io = Io::plain();
        let opened = Wal::open(dir, SEGMENT_BYTES, &mut io)?;
        let mut dim = D::empty(name)?;
        for record in &opened.records {
            dim.ingest(&decode_snapshot(&record.payload)?)?;
        }
        Ok(DurableScd {
            dim,
            wal: opened.wal,
            io,
        })
    }

    /// Journals `snapshot` (append + fsync), then applies it to the
    /// table. The load is acknowledged only once it is durable.
    ///
    /// # Errors
    ///
    /// Journal I/O failures (nothing applied); table failures (the
    /// record is journaled — replay will retry it, mirroring
    /// `DurableTmd`'s validate-first contract for records that fail
    /// only transiently).
    pub fn load(&mut self, snapshot: &Snapshot) -> Result<(), ScdDurableError> {
        self.wal.append(&encode_snapshot(snapshot), &mut self.io)?;
        self.dim.ingest(snapshot)?;
        Ok(())
    }

    /// The recovered/maintained dimension.
    pub fn dim(&self) -> &D {
        &self.dim
    }

    /// Snapshots journaled so far (the WAL's next LSN minus one).
    pub fn journaled(&self) -> u64 {
        self.wal.next_lsn().saturating_sub(1)
    }

    /// File fsyncs performed by the journal — one per acknowledged
    /// load.
    pub fn io_fsyncs(&self) -> u64 {
        self.io.fsyncs()
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        None => buf.push(0),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bad(msg: &str) -> ScdDurableError {
        ScdDurableError::Journal(DurableError::Corrupt {
            message: format!("scd snapshot record: {msg}"),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ScdDurableError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| Self::bad("truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, ScdDurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ScdDurableError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| Self::bad("non-UTF-8 string"))
    }

    fn opt(&mut self) -> Result<Option<String>, ScdDurableError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(Self::bad("bad option tag")),
        }
    }
}

fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    let ym = snapshot.period.to_ym();
    buf.extend_from_slice(&ym.year.to_le_bytes());
    buf.extend_from_slice(&ym.month.to_le_bytes());
    buf.extend_from_slice(&(snapshot.rows.len() as u32).to_le_bytes());
    for row in snapshot.rows.values() {
        put_str(&mut buf, &row.member);
        put_opt(&mut buf, row.parent.as_deref());
        put_opt(&mut buf, row.level.as_deref());
        buf.extend_from_slice(&(row.attributes.len() as u32).to_le_bytes());
        for (k, v) in &row.attributes {
            put_str(&mut buf, k);
            put_str(&mut buf, v);
        }
    }
    buf
}

fn decode_snapshot(payload: &[u8]) -> Result<Snapshot, ScdDurableError> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let year = i32::from_le_bytes(r.take(4)?.try_into().unwrap());
    let month = r.u32()?;
    let period =
        Instant::from_ym(year, month).map_err(|e| Reader::bad(&format!("bad period: {e}")))?;
    let nrows = r.u32()?;
    let mut rows = Vec::with_capacity(nrows as usize);
    for _ in 0..nrows {
        let member = r.str()?;
        let parent = r.opt()?;
        let level = r.opt()?;
        let mut row = SnapshotRow::new(member, parent.as_deref());
        if let Some(level) = level {
            row = row.at_level(level);
        }
        let nattrs = r.u32()?;
        for _ in 0..nattrs {
            let k = r.str()?;
            let v = r.str()?;
            row.attributes.insert(k, v);
        }
        rows.push(row);
    }
    if r.pos != payload.len() {
        return Err(Reader::bad("trailing bytes"));
    }
    Ok(Snapshot::new(period, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<Snapshot> {
        (0..4)
            .map(|y| {
                let rows = (0..2)
                    .map(|d| SnapshotRow::new(format!("Div{d}"), None).at_level("Division"))
                    .chain((0..6).map(|m| {
                        SnapshotRow::new(format!("Dept{m}"), Some(&format!("Div{}", (m + y) % 2)))
                            .at_level("Department")
                    }));
                Snapshot::new(Instant::ym(2001 + y, 1), rows)
            })
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mvolap_scdj_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_encoding_round_trips() {
        for s in stream() {
            let enc = encode_snapshot(&s);
            let dec = decode_snapshot(&enc).unwrap();
            assert_eq!(dec.period, s.period);
            assert_eq!(dec.rows, s.rows);
        }
    }

    #[test]
    fn journaled_scd2_recovers_to_the_loaded_state() {
        let dir = tmp("scd2");
        let stream = stream();
        let mut d: DurableScd<Scd2Dimension> = DurableScd::create(&dir, "org").unwrap();
        let base = d.io_fsyncs(); // segment-header sync from create
        for s in &stream {
            d.load(s).unwrap();
        }
        assert_eq!(d.journaled(), stream.len() as u64);
        assert_eq!(
            d.io_fsyncs() - base,
            stream.len() as u64,
            "one fsync per load"
        );
        let direct = d.dim().table().clone();
        drop(d);

        let reopened: DurableScd<Scd2Dimension> = DurableScd::open(&dir, "org").unwrap();
        assert_eq!(
            mvolap_storage::persist::table_digest(reopened.dim().table()),
            mvolap_storage::persist::table_digest(&direct),
            "replayed table must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_three_baselines_replay_through_the_same_journal_shape() {
        let stream = stream();
        let d1 = tmp("scd1");
        let d3 = tmp("scd3");
        let mut s1: DurableScd<Scd1Dimension> = DurableScd::create(&d1, "org").unwrap();
        let mut s3: DurableScd<Scd3Dimension> = DurableScd::create(&d3, "org").unwrap();
        for s in &stream {
            s1.load(s).unwrap();
            s3.load(s).unwrap();
        }
        drop(s1);
        drop(s3);
        let r1: DurableScd<Scd1Dimension> = DurableScd::open(&d1, "org").unwrap();
        let r3: DurableScd<Scd3Dimension> = DurableScd::open(&d3, "org").unwrap();
        assert_eq!(r1.journaled(), stream.len() as u64);
        // Type 1 overwrote history: the final parent is the last
        // snapshot's. Type 3 keeps previous alongside current.
        assert_eq!(
            r1.dim().parent_of("Dept1"),
            Some(format!("Div{}", (1 + 3) % 2))
        );
        assert!(r3.dim().parents_of("Dept1").is_some());
        std::fs::remove_dir_all(&d1).ok();
        std::fs::remove_dir_all(&d3).ok();
    }
}
