//! A replication follower: replays the primary's WAL frames through
//! the same validated apply path the primary committed them with, into
//! its own WAL + checkpoint store.
//!
//! Because WAL record encoding is canonical (decode ∘ encode is the
//! identity), a follower journaling the records it decodes produces a
//! log *byte-identical* to the primary's at every LSN — which is what
//! makes frame-CRC comparison a sound divergence test in both
//! directions.

use std::path::{Path, PathBuf};

use mvolap_core::token::TokenReader;
use mvolap_core::Tmd;
use mvolap_durable::checksum::crc32;
use mvolap_durable::{DurableError, DurableTmd, Io, Options, TailFrame, WalRecord};

use crate::error::ReplicaError;
use crate::record::ReplicaMsg;
use crate::tailer::WalTailer;

/// Why a follower refuses further replay. Sticky: once set, every
/// subsequent frame batch is refused until the follower is rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Refusal {
    /// Frame CRCs disagree at `lsn` — the histories forked.
    Diverged {
        lsn: u64,
        expected_crc: u32,
        got_crc: u32,
    },
    /// A frame decoded but its record does not apply to our state —
    /// the histories are semantically incompatible.
    Invalid { lsn: u64, reason: String },
}

impl Refusal {
    fn to_error(&self) -> ReplicaError {
        match self {
            Refusal::Diverged {
                lsn,
                expected_crc,
                got_crc,
            } => ReplicaError::Diverged {
                lsn: *lsn,
                expected_crc: *expected_crc,
                got_crc: *got_crc,
            },
            Refusal::Invalid { lsn, reason } => ReplicaError::Protocol(format!(
                "frame {lsn} does not apply to follower state: {reason}"
            )),
        }
    }
}

/// An in-progress chunked snapshot transfer: the image identity
/// (`next_lsn`, `total`, `total_bytes`) plus the contiguous prefix of
/// chunks received so far. Mirrored to a spill file in the follower's
/// directory so a crashed joiner resumes from its last durable chunk
/// instead of restarting the transfer.
#[derive(Debug)]
struct SnapAssembly {
    next_lsn: u64,
    total: u64,
    total_bytes: u64,
    received: u64,
    bytes: Vec<u8>,
}

/// Spill file name (inside the follower directory) for a partial
/// chunked snapshot.
const SNAP_SPILL: &str = "snap-partial";
const SNAP_MAGIC: &str = "mvolap-snap v1";

/// A follower node. Owns (or will own, once bootstrapped) a
/// [`DurableTmd`] under its own directory; applies [`ReplicaMsg`]s and
/// produces the replies the protocol calls for.
#[derive(Debug)]
pub struct Follower {
    name: String,
    dir: PathBuf,
    opts: Options,
    /// `None` until the first bootstrap frame or snapshot arrives.
    store: Option<DurableTmd>,
    /// I/O layer held for the store once it materialises.
    io: Option<Io>,
    /// CRC of the last frame journaled via replication; 0 = unknown.
    last_crc: u32,
    epoch: u64,
    refusal: Option<Refusal>,
    /// The vote this member has cast: `(epoch, candidate)`. At most
    /// one candidate per epoch — the guarantee elections build on.
    voted: Option<(u64, String)>,
    /// Chunked snapshot transfer in progress, if any.
    snap: Option<SnapAssembly>,
    /// Reads our own log back for duplicate checks; its cursor makes a
    /// re-delivered batch cost its own length, not the log's.
    tailer: WalTailer,
}

impl Follower {
    /// A fresh, empty follower that will bootstrap from the primary.
    /// `io` is the I/O layer its store will use (fault injection
    /// enters here).
    pub fn create(
        name: impl Into<String>,
        dir: impl Into<PathBuf>,
        opts: Options,
        io: Io,
    ) -> Follower {
        let dir = dir.into();
        Follower {
            name: name.into(),
            tailer: WalTailer::new(&dir),
            dir,
            opts,
            store: None,
            io: Some(io),
            last_crc: 0,
            epoch: 0,
            refusal: None,
            voted: None,
            snap: None,
        }
    }

    /// Reopens a follower after a crash: recovers its store and
    /// re-derives its replication position from its own log. A
    /// directory with nothing recoverable (crash before anything was
    /// durable) yields an empty follower that re-bootstraps.
    ///
    /// The epoch restarts at 0 and is re-learnt from the first message
    /// of the current primary — the supervisor routes messages, so a
    /// restarted follower only ever hears from the live primary.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Durable`] on I/O failure or corruption.
    pub fn open(
        name: impl Into<String>,
        dir: impl Into<PathBuf>,
        opts: Options,
        io: Io,
    ) -> Result<Follower, ReplicaError> {
        let name = name.into();
        let dir = dir.into();
        let mut follower = match DurableTmd::open_with(&dir, opts.clone(), io) {
            Ok(store) => {
                let oldest = store.oldest_lsn()?;
                let last_crc = store.tail(oldest)?.last().map_or(0, |f| f.crc);
                Follower {
                    name,
                    tailer: WalTailer::new(&dir),
                    dir,
                    opts,
                    store: Some(store),
                    io: None,
                    last_crc,
                    epoch: 0,
                    refusal: None,
                    voted: None,
                    snap: None,
                }
            }
            Err(DurableError::NoStore) => Follower::create(name, dir, opts, Io::plain()),
            Err(e) => return Err(e.into()),
        };
        // A crashed joiner resumes its chunked snapshot from the spill
        // file — unless the store already covers the image.
        follower.snap =
            Self::spill_load(&follower.dir).filter(|a| a.next_lsn > follower.next_lsn());
        Ok(follower)
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Epoch this follower believes is current.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The first LSN this follower is missing (1 when empty).
    pub fn next_lsn(&self) -> u64 {
        self.store.as_ref().map_or(1, DurableTmd::wal_position)
    }

    /// The replicated schema, once bootstrapped.
    pub fn schema(&self) -> Option<&Tmd> {
        self.store.as_ref().map(DurableTmd::schema)
    }

    /// I/O primitives performed by this follower's store so far.
    pub fn io_ops(&self) -> u64 {
        self.store.as_ref().map_or(0, DurableTmd::io_ops)
    }

    /// Whether this follower has refused replay (diverged or invalid).
    pub fn is_refusing(&self) -> bool {
        self.refusal.is_some()
    }

    /// The sticky refusal, as the error it raises.
    pub fn refusal_error(&self) -> Option<ReplicaError> {
        self.refusal.as_ref().map(Refusal::to_error)
    }

    /// The position announcement this follower sends each round.
    pub fn hello(&self) -> ReplicaMsg {
        ReplicaMsg::Hello {
            node: self.name.clone(),
            epoch: self.epoch,
            next_lsn: self.next_lsn(),
            last_crc: self.last_crc,
        }
    }

    fn ack(&self) -> ReplicaMsg {
        ReplicaMsg::Ack {
            node: self.name.clone(),
            epoch: self.epoch,
            next_lsn: self.next_lsn(),
        }
    }

    /// The quorum-flavoured ack: both replication positions in one
    /// envelope. A follower fsyncs every record it applies, so its
    /// synced and applied positions coincide; the grammar still
    /// carries both because the primary consumes them differently
    /// (read routing vs. the quorum watermark).
    pub fn quorum_ack(&self) -> ReplicaMsg {
        ReplicaMsg::QuorumAck {
            node: self.name.clone(),
            epoch: self.epoch,
            applied_lsn: self.next_lsn(),
            synced_lsn: self.next_lsn(),
        }
    }

    /// Checks the message's epoch: stale senders are refused, newer
    /// epochs adopted.
    fn check_epoch(&mut self, epoch: u64) -> Result<(), ReplicaError> {
        if epoch < self.epoch {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Handles one protocol message, returning the reply to send (if
    /// any).
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] for messages from a stale epoch;
    /// [`ReplicaError::Diverged`] / [`ReplicaError::Protocol`] when
    /// replay is refused; I/O-class [`ReplicaError::Durable`] when the
    /// follower's own store crashes.
    pub fn handle(&mut self, msg: ReplicaMsg) -> Result<Option<ReplicaMsg>, ReplicaError> {
        match msg {
            ReplicaMsg::Heartbeat { epoch, .. } => {
                self.check_epoch(epoch)?;
                Ok(Some(self.ack()))
            }
            ReplicaMsg::Frames { epoch, frames } => {
                self.check_epoch(epoch)?;
                if let Some(r) = &self.refusal {
                    return Err(r.to_error());
                }
                self.apply_frames(&frames)?;
                Ok(Some(self.ack()))
            }
            ReplicaMsg::Snapshot {
                epoch,
                next_lsn,
                snapshot,
            } => {
                self.check_epoch(epoch)?;
                if let Some(r) = &self.refusal {
                    return Err(r.to_error());
                }
                self.install_snapshot(next_lsn, &snapshot)?;
                Ok(Some(self.ack()))
            }
            ReplicaMsg::SnapChunk {
                epoch,
                next_lsn,
                seq,
                total,
                total_bytes,
                chunk,
            } => {
                self.check_epoch(epoch)?;
                if let Some(r) = &self.refusal {
                    return Err(r.to_error());
                }
                self.apply_snap_chunk(next_lsn, seq, total, total_bytes, &chunk)?;
                Ok(Some(self.ack()))
            }
            ReplicaMsg::Reconfig { epoch, .. } => {
                // Membership changes are decided by the quorum layer;
                // a member just learns the epoch and acknowledges. A
                // stale-epoch reconfiguration is fenced like any other
                // stale write.
                self.check_epoch(epoch)?;
                Ok(Some(self.ack()))
            }
            ReplicaMsg::Promote { node, epoch } => {
                if node == self.name {
                    self.check_epoch(epoch)?;
                }
                Ok(None)
            }
            ReplicaMsg::Fence { epoch } => {
                // Followers hold no write authority to fence; just
                // learn the new epoch.
                self.check_epoch(epoch)?;
                Ok(None)
            }
            ReplicaMsg::Diverged {
                lsn,
                expected_crc,
                got_crc,
                ..
            } => {
                let r = Refusal::Diverged {
                    lsn,
                    expected_crc,
                    got_crc,
                };
                let err = r.to_error();
                self.refusal = Some(r);
                Err(err)
            }
            ReplicaMsg::VoteRequest {
                candidate,
                epoch,
                synced_lsn,
            } => {
                let grant = self.consider_vote(&candidate, epoch, synced_lsn)?;
                Ok(Some(grant))
            }
            other @ (ReplicaMsg::Hello { .. }
            | ReplicaMsg::Ack { .. }
            | ReplicaMsg::QuorumAck { .. }
            | ReplicaMsg::VoteGrant { .. }) => Err(ReplicaError::Protocol(format!(
                "follower received {}",
                other.kind()
            ))),
        }
    }

    /// Election rules, from the voter's side: a refusing member never
    /// votes, a vote request must open a *new* epoch, each epoch gets
    /// at most one candidate (re-granting the same one is idempotent,
    /// a second candidate is a typed violation), and the candidate's
    /// durably-synced position must rank at least as high as the
    /// voter's own, ties broken by node name — so every voter ranks
    /// candidates identically and the election is deterministic.
    /// Granting adopts the new epoch, fencing the old primary from
    /// this member's point of view.
    fn consider_vote(
        &mut self,
        candidate: &str,
        epoch: u64,
        synced_lsn: u64,
    ) -> Result<ReplicaMsg, ReplicaError> {
        if let Some(r) = &self.refusal {
            return Err(r.to_error());
        }
        // The split-vote guard outranks the epoch fence: a second
        // candidate in an epoch already voted must surface as the
        // explicit conflict, not a generic stale-epoch refusal.
        if let Some((e, prior)) = &self.voted {
            if *e >= epoch && prior != candidate {
                return Err(ReplicaError::Protocol(format!(
                    "already voted for `{prior}` in epoch {e}; \
                     refusing `{candidate}` in epoch {epoch}"
                )));
            }
        }
        let repeat = self
            .voted
            .as_ref()
            .is_some_and(|(e, c)| *e == epoch && c == candidate);
        if !repeat && epoch <= self.epoch {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        let mine = self.next_lsn();
        if (synced_lsn, candidate) < (mine, self.name.as_str()) {
            return Err(ReplicaError::Protocol(format!(
                "vote refused: candidate `{candidate}` at LSN {synced_lsn} ranks \
                 below `{}` at {mine}",
                self.name
            )));
        }
        self.voted = Some((epoch, candidate.to_string()));
        self.epoch = epoch;
        Ok(ReplicaMsg::VoteGrant {
            node: self.name.clone(),
            epoch,
            candidate: candidate.to_string(),
            synced_lsn: mine,
        })
    }

    /// Applies a contiguous batch. Duplicates (frames below our
    /// position) are cross-checked by CRC and skipped; a gap is a
    /// protocol violation; everything else journals through the
    /// validated apply path.
    fn apply_frames(&mut self, frames: &[TailFrame]) -> Result<(), ReplicaError> {
        for f in frames {
            let pos = self.next_lsn();
            if f.lsn < pos {
                self.check_duplicate(f)?;
                continue;
            }
            if f.lsn > pos {
                return Err(ReplicaError::Protocol(format!(
                    "frame gap: at LSN {pos}, got frame {}",
                    f.lsn
                )));
            }
            if crc32(&f.payload) != f.crc {
                return Err(ReplicaError::Protocol(format!(
                    "frame {} checksum mismatch in transit",
                    f.lsn
                )));
            }
            let record = WalRecord::decode(&f.payload)?;
            match record {
                WalRecord::Bootstrap { ref snapshot } => {
                    if self.store.is_some() || f.lsn != 1 {
                        return Err(ReplicaError::Protocol(format!(
                            "unexpected bootstrap frame at LSN {} (position {pos})",
                            f.lsn
                        )));
                    }
                    let tmd = mvolap_core::persist::read_tmd(&mut snapshot.as_slice())
                        .map_err(DurableError::from)?;
                    self.wipe()?;
                    let io = self.take_io();
                    let store = DurableTmd::create_with(&self.dir, tmd, self.opts.clone(), io)?;
                    // The store re-encoded the bootstrap itself; the
                    // canonical encoding must reproduce the primary's
                    // frame exactly or the CRC chain is broken from
                    // LSN 1.
                    let own = store.tail(1)?;
                    let own_crc = own.first().map_or(0, |fr| fr.crc);
                    if own_crc != f.crc {
                        return Err(ReplicaError::protocol(
                            "bootstrap snapshot round-trip drift: local frame CRC \
                             differs from primary's",
                        ));
                    }
                    self.store = Some(store);
                }
                record => {
                    let Some(store) = self.store.as_mut() else {
                        return Err(ReplicaError::Protocol(format!(
                            "frame {} ({}) before bootstrap",
                            f.lsn,
                            record.kind()
                        )));
                    };
                    match store.apply(record) {
                        Ok(lsn) => debug_assert_eq!(lsn, f.lsn),
                        Err(e) if e.is_io_class() => return Err(e.into()),
                        Err(e) => {
                            let r = Refusal::Invalid {
                                lsn: f.lsn,
                                reason: e.to_string(),
                            };
                            let err = r.to_error();
                            self.refusal = Some(r);
                            return Err(err);
                        }
                    }
                }
            }
            self.last_crc = f.crc;
        }
        Ok(())
    }

    /// A frame we already hold: its CRC must match ours, else the
    /// histories forked behind our back.
    fn check_duplicate(&mut self, f: &TailFrame) -> Result<(), ReplicaError> {
        match self.tailer.crc_at(f.lsn)? {
            Some(crc) if crc != f.crc => {
                let r = Refusal::Diverged {
                    lsn: f.lsn,
                    expected_crc: f.crc,
                    got_crc: crc,
                };
                let err = r.to_error();
                self.refusal = Some(r);
                Err(err)
            }
            _ => Ok(()), // Matches, or pruned locally (unverifiable).
        }
    }

    /// One chunk of a chunked snapshot transfer. Chunks must arrive in
    /// sequence; duplicates below the received count are idempotent, a
    /// gap or a chunk from a different image mid-assembly is a typed
    /// protocol violation, and a byte count that disagrees with the
    /// declared total (a lying chunk count) refuses and drops the
    /// assembly. The final chunk installs the image.
    fn apply_snap_chunk(
        &mut self,
        next_lsn: u64,
        seq: u64,
        total: u64,
        total_bytes: u64,
        chunk: &[u8],
    ) -> Result<(), ReplicaError> {
        if self.next_lsn() >= next_lsn {
            // Already at or past the image; nothing to assemble.
            self.drop_assembly()?;
            return Ok(());
        }
        let mismatched = self.snap.as_ref().is_some_and(|a| {
            (a.next_lsn, a.total, a.total_bytes) != (next_lsn, total, total_bytes)
        });
        if mismatched {
            if seq == 0 {
                // A fresh image supersedes the stale partial transfer.
                self.drop_assembly()?;
            } else {
                return Err(ReplicaError::Protocol(format!(
                    "snap chunk {seq} belongs to a different image than the assembly \
                     in progress"
                )));
            }
        }
        if self.snap.is_none() {
            if seq != 0 {
                return Err(ReplicaError::Protocol(format!(
                    "snap chunk {seq} without an assembly in progress; a resuming \
                     sender must start from the acknowledged chunk count"
                )));
            }
            let assembly = SnapAssembly {
                next_lsn,
                total,
                total_bytes,
                received: 0,
                bytes: Vec::new(),
            };
            self.spill_start(&assembly)?;
            self.snap = Some(assembly);
        }
        let a = self.snap.as_mut().expect("assembly exists past the guards");
        if seq < a.received {
            return Ok(()); // Duplicate of a chunk we hold: idempotent.
        }
        if seq > a.received {
            return Err(ReplicaError::Protocol(format!(
                "snap chunk gap: hold {} chunks, got chunk {seq}",
                a.received
            )));
        }
        if a.bytes.len() as u64 + chunk.len() as u64 > a.total_bytes {
            let declared = a.total_bytes;
            self.drop_assembly()?;
            return Err(ReplicaError::Protocol(format!(
                "snap chunks overflow the declared image of {declared} bytes"
            )));
        }
        Self::spill_append(&self.dir, chunk)?;
        a.bytes.extend_from_slice(chunk);
        a.received += 1;
        if a.received == a.total {
            if a.bytes.len() as u64 != a.total_bytes {
                let (got, declared) = (a.bytes.len(), a.total_bytes);
                self.drop_assembly()?;
                return Err(ReplicaError::Protocol(format!(
                    "snapshot assembly complete at {got} bytes but the sender \
                     declared {declared}: lying chunk count"
                )));
            }
            let a = self.snap.take().expect("assembly present");
            self.install_snapshot(a.next_lsn, &a.bytes)?;
            // `install_snapshot` wiped the directory (spill included);
            // make the no-op path equally clean.
            self.drop_assembly()?;
        }
        Ok(())
    }

    /// How many chunks of the image identified by (`next_lsn`,
    /// `total`, `total_bytes`) this follower already holds durably —
    /// the index a resuming sender should ship next. 0 when no
    /// matching assembly is in progress.
    pub fn snap_resume(&self, next_lsn: u64, total: u64, total_bytes: u64) -> u64 {
        self.snap
            .as_ref()
            .filter(|a| (a.next_lsn, a.total, a.total_bytes) == (next_lsn, total, total_bytes))
            .map_or(0, |a| a.received)
    }

    fn spill_path(&self) -> PathBuf {
        self.dir.join(SNAP_SPILL)
    }

    /// Starts (or restarts) the spill file for a new assembly: magic +
    /// image identity header, chunks appended after it.
    fn spill_start(&self, a: &SnapAssembly) -> Result<(), ReplicaError> {
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(
                self.spill_path(),
                format!(
                    "{SNAP_MAGIC} {} {} {}\n",
                    a.next_lsn, a.total, a.total_bytes
                ),
            )
        };
        write().map_err(|e| DurableError::from(e).into())
    }

    /// Appends one length-prefixed chunk to the spill file.
    fn spill_append(dir: &Path, chunk: &[u8]) -> Result<(), ReplicaError> {
        let write = || -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(SNAP_SPILL))?;
            f.write_all(&(chunk.len() as u64).to_le_bytes())?;
            f.write_all(chunk)?;
            f.sync_data()
        };
        write().map_err(|e| DurableError::from(e).into())
    }

    /// Loads a partial assembly from the spill file. Tolerant: a
    /// missing file, foreign magic or inconsistent header yields
    /// `None`; a torn trailing chunk is truncated away so resumption
    /// appends cleanly after the last complete chunk.
    fn spill_load(dir: &Path) -> Option<SnapAssembly> {
        let path = dir.join(SNAP_SPILL);
        let data = std::fs::read(&path).ok()?;
        let nl = data.iter().position(|&b| b == b'\n')?;
        let mut header = TokenReader::from_bytes(&data[..nl]).ok()?;
        if (header.token().ok()?, header.token().ok()?) != ("mvolap-snap", "v1") {
            return None;
        }
        let next_lsn: u64 = header.parse("lsn").ok()?;
        let total: u64 = header.parse("chunk total").ok()?;
        let total_bytes: u64 = header.parse("byte total").ok()?;
        if header.finish().is_err() || total == 0 {
            return None;
        }
        let mut bytes = Vec::new();
        let mut received = 0u64;
        let mut consumed = nl + 1;
        while data.len() - consumed >= 8 {
            let len = u64::from_le_bytes(data[consumed..consumed + 8].try_into().unwrap()) as usize;
            if data.len() - consumed - 8 < len {
                break; // Torn tail chunk: discard.
            }
            bytes.extend_from_slice(&data[consumed + 8..consumed + 8 + len]);
            consumed += 8 + len;
            received += 1;
        }
        if received == 0 || received > total || bytes.len() as u64 > total_bytes {
            return None;
        }
        if consumed < data.len() {
            // Cut the torn tail so the next append lands after the
            // last complete chunk.
            let f = std::fs::OpenOptions::new().write(true).open(&path).ok()?;
            f.set_len(consumed as u64).ok()?;
        }
        Some(SnapAssembly {
            next_lsn,
            total,
            total_bytes,
            received,
            bytes,
        })
    }

    /// Abandons any in-progress assembly and removes its spill file.
    fn drop_assembly(&mut self) -> Result<(), ReplicaError> {
        self.snap = None;
        match std::fs::remove_file(self.spill_path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(DurableError::from(e).into()),
        }
    }

    /// Wipes and re-creates the store from a checkpoint snapshot at
    /// `next_lsn` — the pruned-log bootstrap path.
    fn install_snapshot(&mut self, next_lsn: u64, snapshot: &[u8]) -> Result<(), ReplicaError> {
        if self.next_lsn() >= next_lsn {
            // Already at or past the snapshot; nothing to install.
            return Ok(());
        }
        let tmd = mvolap_core::persist::read_tmd(&mut &snapshot[..]).map_err(DurableError::from)?;
        let io = self.take_io();
        self.store = None;
        self.wipe()?;
        let store =
            DurableTmd::create_from_snapshot(&self.dir, tmd, next_lsn, self.opts.clone(), io)?;
        self.store = Some(store);
        self.last_crc = 0; // Our previous tail is gone; position is unverifiable.
        Ok(())
    }

    fn wipe(&mut self) -> Result<(), ReplicaError> {
        match std::fs::remove_dir_all(&self.dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(DurableError::from(e).into()),
        }
    }

    /// The I/O layer for (re)creating the store: recovered from the
    /// previous store if one existed, else the layer given at
    /// construction.
    fn take_io(&mut self) -> Io {
        if let Some(store) = self.store.take() {
            return store.into_io();
        }
        self.io.take().unwrap_or_default()
    }

    /// Consumes the follower for promotion, yielding its store.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Protocol`] when the follower never bootstrapped;
    /// the sticky refusal when it is refusing replay (a diverged or
    /// inconsistent follower must never take writes).
    pub fn into_primary_store(self) -> Result<DurableTmd, ReplicaError> {
        if let Some(r) = &self.refusal {
            return Err(r.to_error());
        }
        self.store.ok_or_else(|| {
            ReplicaError::protocol("follower holds no replicated state; cannot promote")
        })
    }

    /// Direct store access (read-only), for assertions and queries.
    pub fn store(&self) -> Option<&DurableTmd> {
        self.store.as_ref()
    }

    /// Checkpoints the follower's store, if it has one.
    ///
    /// # Errors
    ///
    /// As [`DurableTmd::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<(), ReplicaError> {
        if let Some(store) = self.store.as_mut() {
            store.checkpoint()?;
        }
        Ok(())
    }
}
