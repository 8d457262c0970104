//! Primary-side log tap: serves WAL frames (or a covering checkpoint
//! snapshot) to followers, and verifies follower positions against the
//! local log — the divergence gate.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mvolap_durable::wal::{self, TailCursor};
use mvolap_durable::{checkpoint, DurableError, TailFrame};

use crate::error::ReplicaError;
use crate::record::ReplicaMsg;

/// What a fetch produced: either log frames from the requested LSN, or
/// a full snapshot when that part of the log is already pruned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailSource {
    /// Contiguous frames starting at the requested LSN.
    Frames(Vec<TailFrame>),
    /// The requested LSNs are pruned; bootstrap from this snapshot and
    /// resume tailing at `next_lsn`.
    Snapshot {
        /// LSN to resume tailing from after installing the snapshot.
        next_lsn: u64,
        /// Serialised schema covering everything below `next_lsn`.
        snapshot: Vec<u8>,
    },
}

/// The primary's answer to one follower hello: the replies to send,
/// in order, and what they ship beyond the heartbeat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HelloAnswer {
    /// `Diverged` alone, or `Heartbeat` followed by at most one
    /// `Frames` or `Snapshot`.
    pub msgs: Vec<ReplicaMsg>,
    /// WAL frames shipped in `msgs`.
    pub frames: usize,
    /// Whether `msgs` carries a snapshot (the pruned-log path).
    pub snapshot: bool,
}

/// Reads a store's log directly from its directory. The store fsyncs
/// every append before reporting a commit, so reading behind a live
/// [`mvolap_durable::DurableTmd`] always observes committed frames.
///
/// The tailer remembers where its last read started and stopped (a
/// [`TailCursor`]), so a read that continues or overlaps the one
/// before seeks to its first frame and costs what it returns, however
/// long the log. Any other read walks the log and re-seeds the cursor.
#[derive(Debug)]
pub struct WalTailer {
    dir: PathBuf,
    cursor: Mutex<TailCursor>,
}

impl WalTailer {
    /// A tailer over the store directory `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> WalTailer {
        WalTailer {
            dir: dir.into(),
            cursor: Mutex::default(),
        }
    }

    fn cursor(&self) -> std::sync::MutexGuard<'_, TailCursor> {
        // A read empties the cursor and refills it only on success,
        // so a holder that panicked left it valid.
        self.cursor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The store directory this tailer reads.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames starting at `from_lsn`, bounded three ways — the batch
    /// shape the async pump ships: at most `max_frames` frames, at
    /// most `max_bytes` of cumulative payload (always at least one
    /// frame, so a single oversized record still moves), and nothing
    /// at or above `below`. The `below` bound is the primary's durable
    /// watermark: the log file is append-only and may be growing under
    /// a concurrent committer, so only frames already covered by an
    /// fsync are eligible to ship — a torn in-flight tail is never
    /// observed, and no member can ack a record the primary could
    /// still lose. Falls back to the covering checkpoint snapshot when
    /// the log below `from_lsn` is pruned.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Durable`] on log damage or I/O failure;
    /// [`ReplicaError::Protocol`] when the log is pruned but no
    /// covering checkpoint exists (a store invariant violation).
    pub fn fetch_budget(
        &self,
        from_lsn: u64,
        below: u64,
        max_frames: usize,
        max_bytes: usize,
    ) -> Result<TailSource, ReplicaError> {
        let read = wal::tail_from(
            &self.dir,
            from_lsn,
            below,
            max_frames,
            max_bytes,
            &mut self.cursor(),
        );
        match read {
            Ok(frames) => Ok(TailSource::Frames(frames)),
            Err(DurableError::Pruned { .. }) => {
                let Some((id, tmd)) = checkpoint::load_latest(&self.dir)? else {
                    return Err(ReplicaError::protocol(format!(
                        "log pruned below LSN {from_lsn} but no checkpoint covers it"
                    )));
                };
                let mut snapshot = Vec::new();
                mvolap_core::persist::write_tmd(&tmd, &mut snapshot).map_err(DurableError::from)?;
                Ok(TailSource::Snapshot {
                    next_lsn: id.next_lsn,
                    snapshot,
                })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Frame CRC at `lsn`, or `None` when that LSN is pruned.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Durable`] on damage or a request past the head.
    pub fn crc_at(&self, lsn: u64) -> Result<Option<u32>, ReplicaError> {
        let read = wal::tail_from(&self.dir, lsn, u64::MAX, 1, usize::MAX, &mut self.cursor());
        match read {
            Ok(frames) => Ok(frames.first().map(|f| f.crc)),
            Err(DurableError::Pruned { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// The divergence gate: checks a follower's claimed position
    /// (`next_lsn`, CRC of its frame at `next_lsn - 1`) against this
    /// log, given the primary's current head. `last_crc == 0` means
    /// the follower cannot name its last frame (fresh store, or its own
    /// tail is pruned) and the check is skipped; a position inside this
    /// log's pruned range is likewise unverifiable and accepted —
    /// subsequent frames still replay through full validation.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Diverged`] when the follower's history provably
    /// forks from this log: its frame CRC differs, or it claims frames
    /// past this head (`expected_crc` is 0 then — the primary has no
    /// frame there at all).
    pub fn verify_position(
        &self,
        next_lsn: u64,
        last_crc: u32,
        head: u64,
    ) -> Result<(), ReplicaError> {
        if next_lsn <= 1 {
            return Ok(()); // Fresh follower; nothing to contradict.
        }
        let lsn = next_lsn - 1;
        if next_lsn > head {
            return Err(ReplicaError::Diverged {
                lsn,
                expected_crc: 0,
                got_crc: last_crc,
            });
        }
        if last_crc == 0 {
            return Ok(());
        }
        match self.crc_at(lsn)? {
            Some(crc) if crc == last_crc => Ok(()),
            Some(crc) => Err(ReplicaError::Diverged {
                lsn,
                expected_crc: crc,
                got_crc: last_crc,
            }),
            None => Ok(()), // Pruned here; unverifiable, accepted.
        }
    }

    /// Answers a follower's hello (`next_lsn`, `last_crc`) from this
    /// log, for a primary at `epoch` whose head is `head`: the
    /// divergence gate first — a forked follower is told `Diverged`
    /// and nothing else — then a heartbeat carrying the head, then up
    /// to `max_frames` frames from `next_lsn` (or the covering
    /// snapshot) when the follower is behind. Nothing at or past
    /// `head` ships, so a primary that passes its durable watermark
    /// never ships a frame it could still lose. A failed tail read
    /// ships the heartbeat alone; the follower simply asks again.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Durable`] when the position check cannot read
    /// the log.
    pub fn answer_hello(
        &self,
        epoch: u64,
        head: u64,
        next_lsn: u64,
        last_crc: u32,
        max_frames: usize,
    ) -> Result<HelloAnswer, ReplicaError> {
        let mut answer = HelloAnswer::default();
        if let Err(e) = self.verify_position(next_lsn, last_crc, head) {
            let ReplicaError::Diverged {
                lsn,
                expected_crc,
                got_crc,
            } = e
            else {
                return Err(e);
            };
            answer.msgs.push(ReplicaMsg::Diverged {
                epoch,
                lsn,
                expected_crc,
                got_crc,
            });
            return Ok(answer);
        }
        answer.msgs.push(ReplicaMsg::Heartbeat {
            epoch,
            next_lsn: head,
        });
        if next_lsn < head {
            match self.fetch_budget(next_lsn, head, max_frames, usize::MAX) {
                Ok(TailSource::Frames(frames)) => {
                    answer.frames = frames.len();
                    answer.msgs.push(ReplicaMsg::Frames { epoch, frames });
                }
                Ok(TailSource::Snapshot { next_lsn, snapshot }) => {
                    answer.snapshot = true;
                    answer.msgs.push(ReplicaMsg::Snapshot {
                        epoch,
                        next_lsn,
                        snapshot,
                    });
                }
                Err(_) => {}
            }
        }
        Ok(answer)
    }
}
