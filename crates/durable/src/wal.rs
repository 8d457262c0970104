//! Segment-based write-ahead log.
//!
//! The log lives in `<store>/wal/` as numbered segments
//! `00000001.wal`, `00000002.wal`, … Each segment starts with a 20-byte
//! header — the magic `MVOLAP-WAL1\0` followed by the u64 LE LSN of the
//! segment's first record — and continues with checksummed frames (see
//! [`crate::frame`]), one logical record per frame. LSNs are assigned
//! sequentially from 1.
//!
//! Durability protocol:
//!
//! * `append` writes one frame and fsyncs before reporting the record
//!   committed.
//! * Rotation (`segment_bytes` exceeded) fsyncs the old segment, writes
//!   the new segment's header, fsyncs it, then fsyncs the directory so
//!   the new file's name is durable.
//! * On open, only the **last** segment may end in garbage (a torn
//!   append): the tail is truncated back to the last valid frame.
//!   Damage anywhere else — a mid-log CRC failure, a missing segment
//!   number, a bad header in a non-final segment — is reported as
//!   [`DurableError::Corrupt`] rather than silently dropped.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checksum::crc32;
use crate::error::DurableError;
use crate::frame;
use crate::io::Io;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 12] = b"MVOLAP-WAL1\0";

/// Size of the segment header: magic + base LSN.
pub const SEGMENT_HEADER: usize = SEGMENT_MAGIC.len() + 8;

/// A frame read back from the log: the payload plus its CRC-32, so a
/// follower can verify transport integrity and a promoted primary can
/// detect divergence by comparing checksums at equal LSNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailFrame {
    /// The frame's log sequence number.
    pub lsn: u64,
    /// CRC-32 of the payload (the same checksum the on-disk frame
    /// carries).
    pub crc: u32,
    /// The raw frame payload.
    pub payload: Vec<u8>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:08}.wal"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".wal")?;
    if stem.len() != 8 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

fn encode_header(base_lsn: u64) -> [u8; SEGMENT_HEADER] {
    let mut h = [0u8; SEGMENT_HEADER];
    h[..SEGMENT_MAGIC.len()].copy_from_slice(SEGMENT_MAGIC);
    h[SEGMENT_MAGIC.len()..].copy_from_slice(&base_lsn.to_le_bytes());
    h
}

fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return None;
    }
    Some(u64::from_le_bytes(
        bytes[SEGMENT_MAGIC.len()..SEGMENT_HEADER]
            .try_into()
            .expect("8 bytes"),
    ))
}

/// The write-ahead log: an append handle plus segment bookkeeping.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// Sequence number of the active (last) segment.
    active_seq: u64,
    /// Open handle on the active segment, shared with any [`WalSync`]
    /// captured from it.
    active: Arc<File>,
    /// Bytes currently in the active segment (header included).
    active_len: u64,
    /// LSN the next appended record will receive.
    next_lsn: u64,
    /// Rotation threshold.
    segment_bytes: u64,
}

/// A captured `(segment handle, next LSN)` pair: running it fsyncs
/// that segment, after which every record below [`WalSync::next_lsn`]
/// is durable (rotation fsynced the segments before it). It owns its
/// handles, so it runs with no lock on the log.
#[derive(Debug)]
pub struct WalSync {
    file: Arc<File>,
    io: Io,
    next_lsn: u64,
}

impl WalSync {
    /// The LSN the log would have assigned next when this was captured.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Performs the fsync — one counted, injectable [`Io::sync`].
    ///
    /// # Errors
    ///
    /// I/O (or injected-fault) failures; the caller must poison the
    /// store, whose in-memory state may now be ahead of the disk.
    pub fn run(mut self) -> Result<u64, DurableError> {
        self.io.sync(&self.file)?;
        Ok(self.next_lsn)
    }
}

/// Everything `Wal::open` recovers from disk.
#[derive(Debug)]
pub struct WalOpen {
    /// The log, positioned for appending.
    pub wal: Wal,
    /// All records that survived, in LSN order.
    pub records: Vec<TailFrame>,
    /// Whether a torn tail was truncated away during open.
    pub repaired: bool,
}

impl Wal {
    /// Creates a fresh, empty log under `dir` (the `wal/` directory is
    /// created if missing). First record will get LSN 1.
    pub fn create(dir: &Path, segment_bytes: u64, io: &mut Io) -> Result<Wal, DurableError> {
        Self::create_at(dir, 1, segment_bytes, io)
    }

    /// Creates a fresh, empty log whose first record will get LSN
    /// `base_lsn`. Replication followers bootstrapped from a checkpoint
    /// snapshot use this so their own log lines up LSN-for-LSN with the
    /// primary's.
    pub fn create_at(
        dir: &Path,
        base_lsn: u64,
        segment_bytes: u64,
        io: &mut Io,
    ) -> Result<Wal, DurableError> {
        let wal_dir = dir.join("wal");
        io.create_dir(&wal_dir)?;
        let active = io.create(&segment_path(&wal_dir, 1))?;
        io.write(&active, &encode_header(base_lsn))?;
        io.sync(&active)?;
        io.sync_dir(&wal_dir)?;
        // The `wal/` entry itself must be durable in the store
        // directory, or a crash could lose the whole log while later
        // siblings (e.g. a checkpoint) survive.
        io.sync_dir(dir)?;
        Ok(Wal {
            dir: wal_dir,
            active_seq: 1,
            active: Arc::new(active),
            active_len: SEGMENT_HEADER as u64,
            next_lsn: base_lsn,
            segment_bytes,
        })
    }

    /// Opens an existing log, scanning every segment, repairing a torn
    /// tail in the last one.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] for damage outside the repairable tail:
    /// gaps in segment numbering, bad headers or mid-log frame
    /// corruption, or LSN discontinuities between segments.
    /// [`DurableError::NoStore`] when `dir` has no `wal/` directory.
    pub fn open(dir: &Path, segment_bytes: u64, io: &mut Io) -> Result<WalOpen, DurableError> {
        let wal_dir = dir.join("wal");
        let last = *sorted_segments(&wal_dir)?.last().expect("non-empty");
        let oldest = oldest_base(&wal_dir)?;
        let mut cursor = TailCursor::default();
        let records = tail_from(dir, oldest, u64::MAX, usize::MAX, usize::MAX, &mut cursor)?;
        let end = cursor.next.expect("a read leaves its end behind");
        let mut repaired = false;
        if end.seq < last {
            // The scan stopped short of a final segment with a torn
            // header: a crash during rotation, zero durable records.
            io.remove_file(&segment_path(&wal_dir, last))?;
            io.sync_dir(&wal_dir)?;
            repaired = true;
        }
        let path = segment_path(&wal_dir, end.seq);
        if std::fs::metadata(&path)?.len() > end.offset {
            // Torn tail: truncate back to the last valid frame.
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            io.set_len(&f, end.offset)?;
            io.sync(&f)?;
            repaired = true;
        }
        let active = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(WalOpen {
            wal: Wal {
                dir: wal_dir,
                active_seq: end.seq,
                active: Arc::new(active),
                active_len: end.offset,
                next_lsn: end.lsn,
                segment_bytes,
            },
            records,
            repaired,
        })
    }

    /// LSN the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Appends one record payload, fsyncs, and returns its LSN.
    ///
    /// Rotates to a fresh segment first when the active one is full.
    ///
    /// # Errors
    ///
    /// I/O (or injected-fault) failures; the record is only durable when
    /// `Ok` is returned.
    pub fn append(&mut self, payload: &[u8], io: &mut Io) -> Result<u64, DurableError> {
        let lsn = self.append_unsynced(payload, io)?;
        self.sync(io)?;
        Ok(lsn)
    }

    /// Appends one record payload **without** fsyncing it, returning its
    /// LSN. The record is not durable until a later [`Wal::sync`];
    /// rotation still performs its own syncs, so records that land in a
    /// completed segment become durable when the segment is sealed.
    /// Group commit builds on this split: many appends, one sync.
    ///
    /// # Errors
    ///
    /// I/O (or injected-fault) failures.
    pub fn append_unsynced(&mut self, payload: &[u8], io: &mut Io) -> Result<u64, DurableError> {
        if self.active_len >= self.segment_bytes {
            self.rotate(io)?;
        }
        let framed = frame::encode(payload);
        io.write(&self.active, &framed)?;
        self.active_len += framed.len() as u64;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Fsyncs the active segment, making every record appended so far
    /// durable — the second half of [`Wal::append_unsynced`].
    ///
    /// # Errors
    ///
    /// I/O (or injected-fault) failures.
    pub fn sync(&mut self, io: &mut Io) -> Result<(), DurableError> {
        io.sync(&self.active)
    }

    /// Captures the fsync [`Wal::sync`] would perform now, to be run
    /// later with the log unlocked.
    pub fn capture_sync(&self, io: &Io) -> WalSync {
        WalSync {
            file: Arc::clone(&self.active),
            io: io.share(),
            next_lsn: self.next_lsn,
        }
    }

    fn rotate(&mut self, io: &mut Io) -> Result<(), DurableError> {
        io.sync(&self.active)?;
        let seq = self.active_seq + 1;
        let path = segment_path(&self.dir, seq);
        let f = io.create(&path)?;
        io.write(&f, &encode_header(self.next_lsn))?;
        io.sync(&f)?;
        io.sync_dir(&self.dir)?;
        self.active = Arc::new(f);
        self.active_seq = seq;
        self.active_len = SEGMENT_HEADER as u64;
        Ok(())
    }

    /// Removes whole segments whose records all have `lsn < upto`;
    /// called after a checkpoint to bound log growth. The active segment
    /// is never removed.
    ///
    /// # Errors
    ///
    /// I/O failures while unlinking.
    pub fn prune(&mut self, upto: u64, io: &mut Io) -> Result<usize, DurableError> {
        let mut removed = 0;
        // A segment's records all lie below its successor's base LSN;
        // the active segment has no successor and so always stays.
        for pair in sorted_segments(&self.dir)?.windows(2) {
            match Segment::first_frame(&self.dir, pair[1], None)? {
                Some((next, _)) if next.lsn <= upto => {
                    io.remove_file(&segment_path(&self.dir, pair[0]))?;
                    removed += 1;
                }
                _ => break,
            }
        }
        if removed > 0 {
            io.sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Base LSN of the oldest segment still on disk — the earliest
    /// position [`tail`] can serve.
    ///
    /// # Errors
    ///
    /// I/O failures while listing or reading segment headers.
    pub fn oldest_lsn(&self) -> Result<u64, DurableError> {
        oldest_base(&self.dir)
    }
}

/// Every durable frame with `lsn >= from_lsn` in the store at `dir`
/// (the directory that holds the `wal/` subdirectory), re-read from the
/// segment files. This is the replication tap: a follower at position
/// `from_lsn` gets exactly the frames it is missing, checksums
/// included.
///
/// # Errors
///
/// [`DurableError::Pruned`] when `from_lsn` predates the oldest segment
/// still on disk (the caller must re-bootstrap from a checkpoint),
/// [`DurableError::Corrupt`] when `from_lsn` lies beyond the durable
/// tail or the segment chain is damaged, [`DurableError::NoStore`] when
/// `dir` holds no log at all.
pub fn tail(dir: &Path, from_lsn: u64) -> Result<Vec<TailFrame>, DurableError> {
    let mut cold = TailCursor::default();
    tail_from(dir, from_lsn, u64::MAX, usize::MAX, usize::MAX, &mut cold)
}

/// Truncates the log of the store at `dir` (the directory holding the
/// `wal/` subdirectory) so that every record with `lsn >= from_lsn` is
/// gone: segments above the cut are unlinked, the segment containing
/// the cut is shortened to the last whole frame below it, and the
/// result is fsynced. Returns the number of records removed.
///
/// This is the **rejoin** primitive of quorum replication: a deposed
/// primary discards its un-quorum'd suffix back to the point where its
/// log agrees with the new primary's before it may serve again. The
/// store must be closed (no open [`Wal`] handle on the directory).
///
/// # Errors
///
/// [`DurableError::Pruned`] when `from_lsn` predates the oldest record
/// still on disk (the cut cannot be represented — the caller must
/// rebuild from a snapshot instead); [`DurableError::NoStore`] /
/// [`DurableError::Corrupt`] for a missing or damaged segment chain or
/// a cut past the head; I/O (or injected-fault) failures.
pub fn truncate_from(dir: &Path, from_lsn: u64, io: &mut Io) -> Result<u64, DurableError> {
    let wal_dir = dir.join("wal");
    let last = *sorted_segments(&wal_dir)?.last().expect("non-empty");
    // One read finds the frames to go and, in the cursor, where the
    // first of them starts. A cut that cannot be represented is refused
    // by it, before anything is unlinked.
    let mut cursor = TailCursor::default();
    let gone = tail_from(dir, from_lsn, u64::MAX, usize::MAX, usize::MAX, &mut cursor)?.len();
    let Some(cut) = cursor.first else {
        return Ok(0);
    };
    // Newest first: a crash part-way leaves a contiguous chain.
    for seq in (cut.seq + 1..=last).rev() {
        io.remove_file(&segment_path(&wal_dir, seq))?;
    }
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(segment_path(&wal_dir, cut.seq))?;
    io.set_len(&f, cut.offset)?;
    io.sync(&f)?;
    io.sync_dir(&wal_dir)?;
    Ok(gone as u64)
}

fn sorted_segments(wal_dir: &Path) -> Result<Vec<u64>, DurableError> {
    if !wal_dir.is_dir() {
        return Err(DurableError::NoStore);
    }
    let mut seqs = Vec::new();
    for entry in std::fs::read_dir(wal_dir)? {
        let entry = entry?;
        if let Some(seq) = parse_segment_name(&entry.file_name().to_string_lossy()) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    if seqs.is_empty() {
        return Err(DurableError::NoStore);
    }
    let first = seqs[0];
    for (i, &s) in seqs.iter().enumerate() {
        if s != first + i as u64 {
            return Err(DurableError::corrupt(format!(
                "segment numbering gap: expected {:08}.wal, found {s:08}.wal",
                first + i as u64
            )));
        }
    }
    Ok(seqs)
}

/// Base LSN of the oldest segment. A torn header on the only segment
/// means even the store's creation never committed: no store.
fn oldest_base(wal_dir: &Path) -> Result<u64, DurableError> {
    let oldest = sorted_segments(wal_dir)?[0];
    let first = Segment::first_frame(wal_dir, oldest, None)?;
    first.map(|(at, _)| at.lsn).ok_or(DurableError::NoStore)
}

/// Where a tail read started and where it stopped (see [`tail_from`]).
#[derive(Debug, Default)]
pub struct TailCursor {
    /// The first frame the last read returned.
    first: Option<Position>,
    /// One past the last frame it consumed.
    next: Option<Position>,
    bytes_read: u64,
}

impl TailCursor {
    /// Bytes of log (frames and the anchors checked before seeking)
    /// that reads through this cursor have walked over so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

/// A frame boundary inside a segment file.
#[derive(Debug, Clone, Copy)]
struct Position {
    seq: u64,
    /// LSN of the frame that starts (or will start) at `offset`.
    lsn: u64,
    offset: u64,
    /// The eight bytes at `anchor_at` when this was recorded: the
    /// header (length, CRC) of the frame ending at `offset`, or the
    /// segment's base LSN when `offset` is its first frame. A file cut
    /// back below `offset` and regrown differently fails the
    /// comparison, which is what makes the position safe to seek to.
    anchor_at: u64,
    anchor: [u8; 8],
}

/// A segment file being read.
struct Segment {
    reader: BufReader<File>,
    /// Bytes of the file this read trusts: its length when opened,
    /// refreshed once a successor segment proves it final.
    len: u64,
    sealed: bool,
}

impl Segment {
    fn open(wal_dir: &Path, seq: u64) -> std::io::Result<Segment> {
        let file = File::open(segment_path(wal_dir, seq))?;
        let len = file.metadata()?.len();
        Ok(Segment {
            reader: BufReader::new(file),
            len,
            sealed: false,
        })
    }

    /// Reopens the segment `p` points into, positioned at `p`; `None`
    /// when the files no longer bear `p` out.
    fn resume(wal_dir: &Path, p: Position) -> Option<Segment> {
        let mut seg = Segment::open(wal_dir, p.seq).ok()?;
        if seg.len < p.offset {
            return None;
        }
        let mut anchor = [0u8; 8];
        seg.reader.seek(SeekFrom::Start(p.anchor_at)).ok()?;
        seg.reader.read_exact(&mut anchor).ok()?;
        seg.reader
            .seek_relative(i64::try_from(p.offset - p.anchor_at - 8).ok()?)
            .ok()?;
        (anchor == p.anchor).then_some(seg)
    }

    /// Opens segment `seq` and reads its header: the position of its
    /// first frame. `None` for a torn header with no segment after it —
    /// the residue of a crashed rotation, nothing durable inside.
    fn first_frame(
        wal_dir: &Path,
        seq: u64,
        expect_lsn: Option<u64>,
    ) -> Result<Option<(Position, Segment)>, DurableError> {
        let mut seg = Segment::open(wal_dir, seq)?;
        let mut header = [0u8; SEGMENT_HEADER];
        if seg.len >= SEGMENT_HEADER as u64 {
            seg.reader.read_exact(&mut header)?;
        }
        // A short file leaves the buffer zeroed, which is no header.
        let Some(base) = decode_header(&header) else {
            if segment_path(wal_dir, seq + 1).exists() {
                return Err(DurableError::corrupt(format!(
                    "bad header in non-final segment {seq:08}.wal"
                )));
            }
            return Ok(None);
        };
        if let Some(expect) = expect_lsn.filter(|&expect| expect != base) {
            return Err(DurableError::corrupt(format!(
                "segment {seq:08}.wal starts at LSN {base}, expected {expect}"
            )));
        }
        let at = Position {
            seq,
            lsn: base,
            offset: SEGMENT_HEADER as u64,
            anchor_at: SEGMENT_MAGIC.len() as u64,
            anchor: base.to_le_bytes(),
        };
        Ok(Some((at, seg)))
    }

    /// Reads the header of the frame at `at` (where the reader stands):
    /// its raw bytes and payload length, when the whole frame lies
    /// within the trusted bytes.
    fn frame_header(&mut self, at: u64) -> std::io::Result<Option<([u8; 8], usize)>> {
        let avail = self.len.saturating_sub(at);
        if avail < frame::HEADER as u64 {
            return Ok(None);
        }
        let mut header = [0u8; frame::HEADER];
        self.reader.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let fits = len <= frame::MAX_PAYLOAD && (len as u64) <= avail - frame::HEADER as u64;
        Ok(fits.then_some((header, len)))
    }

    /// A successor exists, so this segment is final: trust its present
    /// length and stand at `at` again.
    fn seal(&mut self, at: u64) -> std::io::Result<()> {
        self.sealed = true;
        self.len = self.reader.get_ref().metadata()?.len();
        self.reader.seek(SeekFrom::Start(at))?;
        Ok(())
    }
}

/// The one scan of the log. Returns the frames from `from_lsn` on,
/// stopping before LSN `below`, after `max_frames` frames, or before
/// the frame that would push the payload total past `max_bytes` (one
/// frame always moves). `cursor` remembers where the read started and
/// stopped: a later read at or past either point seeks there and costs
/// what it returns, however long the log. A cursor the files no longer
/// bear out (pruned or cut back under it), or one past `from_lsn`, is
/// dropped, and the log is walked — every frame on the way checked —
/// from its oldest segment.
///
/// # Errors
///
/// As [`tail`]. A read that stops early does not visit, and so does not
/// vouch for, the segments beyond its last frame.
pub fn tail_from(
    dir: &Path,
    from_lsn: u64,
    below: u64,
    max_frames: usize,
    max_bytes: usize,
    cursor: &mut TailCursor,
) -> Result<Vec<TailFrame>, DurableError> {
    let wal_dir = &dir.join("wal");
    let future = |end: u64| {
        DurableError::corrupt(format!(
            "tail requested from future LSN {from_lsn} (log ends before {end})"
        ))
    };
    let resumed = [cursor.next.take(), cursor.first.take()]
        .into_iter()
        .flatten()
        .filter(|p| p.lsn <= from_lsn)
        .max_by_key(|p| p.lsn)
        .and_then(|p| Some((p, Segment::resume(wal_dir, p)?)));
    let (mut pos, mut seg) = match resumed {
        Some(at) => {
            cursor.bytes_read += 8;
            at
        }
        None => {
            let oldest = sorted_segments(wal_dir)?[0];
            let (at, seg) =
                Segment::first_frame(wal_dir, oldest, None)?.ok_or(DurableError::NoStore)?;
            if from_lsn < at.lsn {
                return Err(DurableError::Pruned {
                    oldest_available: at.lsn,
                });
            }
            (at, seg)
        }
    };

    let mut frames = Vec::new();
    let mut first = None;
    let mut bytes = 0usize;
    loop {
        let wanted = pos.lsn >= from_lsn;
        if wanted && (frames.len() >= max_frames || pos.lsn >= below) {
            break;
        }
        if let Some((header, len)) = seg.frame_header(pos.offset)? {
            if wanted && !frames.is_empty() && bytes.saturating_add(len) > max_bytes {
                break;
            }
            let mut payload = vec![0u8; len];
            seg.reader.read_exact(&mut payload)?;
            let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
            if crc32(&payload) == crc {
                cursor.bytes_read += (frame::HEADER + len) as u64;
                if wanted {
                    first.get_or_insert(pos);
                    bytes += len;
                    frames.push(TailFrame {
                        lsn: pos.lsn,
                        crc,
                        payload,
                    });
                }
                pos = Position {
                    seq: pos.seq,
                    lsn: pos.lsn + 1,
                    offset: pos.offset + (frame::HEADER + len) as u64,
                    anchor_at: pos.offset,
                    anchor: header,
                };
                continue;
            }
        }
        // No whole valid frame at `pos`. In the last segment that is
        // the log's tail (perhaps an append still in flight); in a
        // sealed one it must be the segment's exact end.
        if !seg.sealed {
            if !segment_path(wal_dir, pos.seq + 1).exists() {
                break;
            }
            seg.seal(pos.offset)?;
            continue;
        }
        if pos.offset != seg.len {
            return Err(DurableError::corrupt(format!(
                "corrupt frame mid-log in segment {:08}.wal",
                pos.seq
            )));
        }
        match Segment::first_frame(wal_dir, pos.seq + 1, Some(pos.lsn))? {
            Some(at) => (pos, seg) = at,
            None => break,
        }
    }
    if pos.lsn < from_lsn {
        return Err(future(pos.lsn));
    }
    cursor.first = first;
    cursor.next = Some(pos);
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mvolap_wal_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 1 << 20, &mut io).unwrap();
        assert_eq!(wal.append(b"alpha", &mut io).unwrap(), 1);
        assert_eq!(wal.append(b"beta", &mut io).unwrap(), 2);
        drop(wal);
        let opened = Wal::open(&dir, 1 << 20, &mut io).unwrap();
        assert!(!opened.repaired);
        assert_eq!(opened.wal.next_lsn(), 3);
        let got: Vec<_> = opened
            .records
            .iter()
            .map(|r| (r.lsn, r.payload.clone()))
            .collect();
        assert_eq!(got, vec![(1, b"alpha".to_vec()), (2, b"beta".to_vec())]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spans_segments_and_lsns_stay_sequential() {
        let dir = tmp("rotate");
        let mut io = Io::plain();
        // Tiny threshold: every record rotates.
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..10u64 {
            let lsn = wal
                .append(format!("record-{i:04}").as_bytes(), &mut io)
                .unwrap();
            assert_eq!(lsn, i + 1);
        }
        drop(wal);
        let segs = std::fs::read_dir(dir.join("wal")).unwrap().count();
        assert!(segs > 1, "expected rotation, got {segs} segment(s)");
        let opened = Wal::open(&dir, 64, &mut io).unwrap();
        assert_eq!(opened.records.len(), 10);
        for (i, r) in opened.records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64 + 1);
        }
        assert_eq!(opened.wal.next_lsn(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp("torn");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 1 << 20, &mut io).unwrap();
        wal.append(b"keep me", &mut io).unwrap();
        wal.append(b"whole", &mut io).unwrap();
        drop(wal);
        // Simulate a torn third append: half a frame at the tail.
        let path = dir.join("wal").join("00000001.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = frame::encode(b"torn record");
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let opened = Wal::open(&dir, 1 << 20, &mut io).unwrap();
        assert!(opened.repaired);
        assert_eq!(opened.records.len(), 2);
        assert_eq!(opened.wal.next_lsn(), 3);
        // The file itself must have been repaired on disk.
        let fixed = std::fs::read(&path).unwrap();
        assert_eq!(frame::scan(&fixed[SEGMENT_HEADER..]).payloads.len(), 2);
        assert!(!frame::scan(&fixed[SEGMENT_HEADER..]).torn);

        // And a subsequent append continues cleanly.
        let mut wal = opened.wal;
        assert_eq!(wal.append(b"after repair", &mut io).unwrap(), 3);
        let reopened = Wal::open(&dir, 1 << 20, &mut io).unwrap();
        assert_eq!(reopened.records.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let dir = tmp("midlog");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..6u64 {
            wal.append(format!("record-{i}").as_bytes(), &mut io)
                .unwrap();
        }
        drop(wal);
        // Flip a byte inside the FIRST segment's frame area.
        let path = dir.join("wal").join("00000001.wal");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = SEGMENT_HEADER + frame::HEADER + 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&dir, 64, &mut io) {
            Err(DurableError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_segment_is_fatal() {
        let dir = tmp("gap");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..8u64 {
            wal.append(format!("record-{i}").as_bytes(), &mut io)
                .unwrap();
        }
        drop(wal);
        let segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(segs.len() >= 3, "need >=3 segments, got {}", segs.len());
        // Remove a middle segment.
        let mut names: Vec<_> = segs.clone();
        names.sort();
        std::fs::remove_file(&names[1]).unwrap();
        match Wal::open(&dir, 64, &mut io) {
            Err(DurableError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_from_cuts_the_suffix_across_segments() {
        let dir = tmp("truncate");
        let mut io = Io::plain();
        // Tiny threshold: records spread over several segments.
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..9u64 {
            wal.append(format!("record-{i}").as_bytes(), &mut io)
                .unwrap();
        }
        drop(wal);

        // Cut at 4: records 4..=9 go, later segments are unlinked and
        // the one holding the cut is shortened in place.
        assert_eq!(truncate_from(&dir, 4, &mut io).unwrap(), 6);
        let opened = Wal::open(&dir, 64, &mut io).unwrap();
        assert!(!opened.repaired);
        assert_eq!(opened.wal.next_lsn(), 4);
        let got: Vec<_> = opened.records.iter().map(|r| r.lsn).collect();
        assert_eq!(got, vec![1, 2, 3]);

        // Appends continue from the cut.
        let mut wal = opened.wal;
        assert_eq!(wal.append(b"regrown", &mut io).unwrap(), 4);
        drop(wal);

        // A cut at the head removes nothing; one past it names records
        // that never existed.
        assert_eq!(truncate_from(&dir, 5, &mut io).unwrap(), 0);
        assert!(matches!(
            truncate_from(&dir, 99, &mut io),
            Err(DurableError::Corrupt { .. })
        ));

        // Cutting everything back to LSN 1 leaves a bare first segment.
        assert_eq!(truncate_from(&dir, 1, &mut io).unwrap(), 4);
        let opened = Wal::open(&dir, 64, &mut io).unwrap();
        assert_eq!(opened.wal.next_lsn(), 1);
        assert!(opened.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_from_refuses_cuts_below_the_oldest_record() {
        let dir = tmp("truncate_pruned");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..9u64 {
            wal.append(format!("record-{i}").as_bytes(), &mut io)
                .unwrap();
        }
        wal.prune(wal.next_lsn(), &mut io).unwrap();
        let oldest = wal.oldest_lsn().unwrap();
        assert!(oldest > 1);
        drop(wal);
        match truncate_from(&dir, 1, &mut io) {
            Err(DurableError::Pruned { oldest_available }) => {
                assert_eq!(oldest_available, oldest)
            }
            other => panic!("expected Pruned, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The reference the cursor reads are checked against: every
    /// segment read whole and scanned from the oldest one, the way the
    /// tap worked before it kept a cursor.
    fn full_scan(wal_dir: &Path, from_lsn: u64) -> Result<Vec<TailFrame>, DurableError> {
        let seqs = sorted_segments(wal_dir)?;
        let mut frames = Vec::new();
        let mut next_lsn = 0u64;
        for (i, &seq) in seqs.iter().enumerate() {
            let is_last = i == seqs.len() - 1;
            let bytes = std::fs::read(segment_path(wal_dir, seq))?;
            let Some(base) = decode_header(&bytes) else {
                assert!(is_last, "bad header in non-final segment {seq:08}.wal");
                break;
            };
            if i == 0 && from_lsn < base {
                return Err(DurableError::Pruned {
                    oldest_available: base,
                });
            }
            assert!(i == 0 || base == next_lsn, "segment chain broken at {seq}");
            let scan = frame::scan(&bytes[SEGMENT_HEADER..]);
            assert!(is_last || !scan.torn, "torn frame mid-log in {seq:08}.wal");
            next_lsn = base + scan.payloads.len() as u64;
            for (k, payload) in scan.payloads.into_iter().enumerate() {
                let lsn = base + k as u64;
                if lsn >= from_lsn {
                    frames.push(TailFrame {
                        lsn,
                        crc: crc32(&payload),
                        payload,
                    });
                }
            }
        }
        if from_lsn > next_lsn {
            return Err(DurableError::corrupt(format!(
                "tail requested from future LSN {from_lsn} (log ends before {next_lsn})"
            )));
        }
        Ok(frames)
    }

    /// `full_scan` cut down to the bounds of a [`tail_from`] call.
    fn bounded(
        all: Vec<TailFrame>,
        below: u64,
        max_frames: usize,
        max_bytes: usize,
    ) -> Vec<TailFrame> {
        let mut bytes = 0usize;
        let mut out = Vec::new();
        for f in all {
            let over = !out.is_empty() && bytes + f.payload.len() > max_bytes;
            if f.lsn >= below || out.len() >= max_frames || over {
                break;
            }
            bytes += f.payload.len();
            out.push(f);
        }
        out
    }

    #[test]
    fn cursor_reads_equal_the_full_scan_under_appends_prunes_and_truncation() {
        mvolap_prng::check(12, 0x7A11, |rng| {
            let dir = tmp(&format!("cursor_prop_{}", rng.next_u64()));
            let mut io = Io::plain();
            // Small segments: a few records each, so reads cross them.
            let mut wal = Some(Wal::create(&dir, 256, &mut io).unwrap());
            let wal_dir = dir.join("wal");
            let mut cursor = TailCursor::default();
            let (mut reads, mut errors) = (0, 0);
            for _ in 0..120 {
                let log = wal.as_mut().expect("reopened after every cut");
                let (oldest, head) = (log.oldest_lsn().unwrap(), log.next_lsn());
                match rng.usize_below(10) {
                    0..=2 => {
                        for _ in 0..rng.usize_in(1, 6) {
                            let payload: Vec<u8> = (0..rng.usize_below(90))
                                .map(|_| rng.next_u64() as u8)
                                .collect();
                            log.append(&payload, &mut io).unwrap();
                        }
                    }
                    3 => {
                        // What a checkpoint does to the log behind it.
                        let upto = rng.u64_below(head + 1);
                        log.prune(upto, &mut io).unwrap();
                    }
                    4 => {
                        // A rejoin cut: the files shrink under the
                        // cursor and regrow with different frames.
                        let cut = oldest + rng.u64_below(head - oldest + 1);
                        drop(wal.take());
                        truncate_from(&dir, cut, &mut io).unwrap();
                        wal = Some(Wal::open(&dir, 256, &mut io).unwrap().wal);
                    }
                    _ => {
                        let from = match rng.usize_below(8) {
                            0 => oldest.saturating_sub(1 + rng.u64_below(3)),
                            1 => head + 1 + rng.u64_below(3),
                            _ => oldest + rng.u64_below(head - oldest + 1),
                        };
                        let below = *rng.choose(&[u64::MAX, head, from + 3, from]).unwrap();
                        let max_frames = *rng.choose(&[usize::MAX, 64, 7, 1, 0]).unwrap();
                        let max_bytes = *rng.choose(&[usize::MAX, 200, 1]).unwrap();
                        let want = full_scan(&wal_dir, from)
                            .map(|all| bounded(all, below, max_frames, max_bytes));
                        let got = tail_from(&dir, from, below, max_frames, max_bytes, &mut cursor);
                        reads += 1;
                        match (got, want) {
                            (Ok(got), Ok(want)) => assert_eq!(got, want, "read from {from}"),
                            (Err(got), Err(want)) => {
                                errors += 1;
                                assert_eq!(got.to_string(), want.to_string());
                            }
                            (got, want) => panic!("from {from}: got {got:?}, want {want:?}"),
                        }
                    }
                }
            }
            assert!(reads > 20 && errors > 0, "{reads} reads, {errors} refused");
            std::fs::remove_dir_all(&dir).ok();
        });
    }

    #[test]
    fn a_read_at_the_head_of_a_long_log_touches_only_what_it_returns() {
        let dir = tmp("cursor_cost");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 1 << 30, &mut io).unwrap();
        let record = [0x5Au8; 56];
        for _ in 0..10_000 {
            wal.append_unsynced(&record, &mut io).unwrap();
        }
        let log_bytes = 10_000 * (frame::HEADER + record.len()) as u64;

        // A pump's pattern: batches of 64, each continuing the last.
        // The whole log is walked once, not once per batch.
        let mut cursor = TailCursor::default();
        let mut next = 1;
        while next < wal.next_lsn() {
            let batch = tail_from(&dir, next, u64::MAX, 64, usize::MAX, &mut cursor).unwrap();
            next = batch.last().expect("below the head").lsn + 1;
        }
        assert!(
            cursor.bytes_read() < log_bytes + log_bytes / 8,
            "{} bytes read to ship a {log_bytes}-byte log",
            cursor.bytes_read()
        );

        // One more commit, one more fetch: the frame and the cursor's
        // anchor, however long the log behind them.
        let lsn = wal.append_unsynced(&record, &mut io).unwrap();
        let before = cursor.bytes_read();
        let got = tail_from(&dir, lsn, u64::MAX, 64, usize::MAX, &mut cursor).unwrap();
        assert_eq!(got.len(), 1);
        let touched = cursor.bytes_read() - before;
        assert!(
            touched <= 4 * record.len() as u64,
            "{touched} bytes for one frame"
        );

        // The same read without a cursor walks everything.
        let mut cold = TailCursor::default();
        tail_from(&dir, lsn, u64::MAX, 64, usize::MAX, &mut cold).unwrap();
        assert!(cold.bytes_read() >= log_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_removes_only_fully_covered_inactive_segments() {
        let dir = tmp("prune");
        let mut io = Io::plain();
        let mut wal = Wal::create(&dir, 64, &mut io).unwrap();
        for i in 0..9u64 {
            wal.append(format!("record-{i}").as_bytes(), &mut io)
                .unwrap();
        }
        let removed = wal.prune(wal.next_lsn(), &mut io).unwrap();
        assert!(removed > 0);
        drop(wal);
        let opened = Wal::open(&dir, 64, &mut io).unwrap();
        // Remaining records are a suffix ending at LSN 9.
        assert_eq!(opened.records.last().unwrap().lsn, 9);
        assert_eq!(opened.wal.next_lsn(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
