//! Asynchronous replication pump: per-member shipping engines that
//! tail the primary's WAL, ship **batched** frame envelopes, collect
//! quorum acks and feed [`GroupCommit::member_synced`] continuously —
//! so `commit_replicated` waiters wake on the condvar the moment a
//! majority covers their LSN, instead of paying a caller's pump
//! interval.
//!
//! # Shape
//!
//! One [`MemberPump`] per member. Its engine is the synchronous
//! [`MemberPump::step`] — the injectable hook: deterministic tests
//! (and the fault sweeps' single-stepped world) call it directly
//! under a [`TimeSource::Manual`] timeline, while
//! [`MemberPump::spawn`] wraps the same engine in a dedicated thread
//! that parks on [`GroupCommit::wait_synced_past`] between commits.
//! Each step:
//!
//! 1. **Delivers** any in-flight envelopes whose member is free
//!    (`try_lock` — a busy member never blocks the pump) over the
//!    pump's [`Link`], applying frames, and reporting the member's
//!    quorum ack into the tracker. A lost crossing stalls the pump.
//! 2. **Ships** new work. When the pump takes its cursor from the
//!    member it first runs the divergence gate
//!    ([`WalTailer::verify_position`]): a member whose log forks from
//!    the primary's is shipped `Diverged` and nothing else, and its
//!    refusal is terminal ([`PumpState::Diverged`]): the pump ships
//!    nothing more until an election or a rebuild replaces it. Then it
//!    fetches fsynced frames from the primary's
//!    log ([`WalTailer::fetch_budget`] — never past the durable
//!    watermark, so a member cannot ack a record the primary could
//!    still lose; the tailer's cursor makes each fetch continue the
//!    last, so it costs what it returns, not the length of the log),
//!    packs them as multiple `frames` messages inside
//!    one `batch` wire envelope ([`encode_batch`] — many WAL frames
//!    per request/reply round-trip), and queues the envelope in the
//!    in-flight window.
//!
//! # Backpressure
//!
//! The in-flight window is bounded in frames **and** payload bytes
//! ([`PumpConfig::max_inflight_frames`] /
//! [`PumpConfig::max_inflight_bytes`]). A member that stops acking
//! caps the window: the pump reports [`PumpState::Blocked`] via its
//! [`PumpTracker`] and fetches nothing more — a slow member costs
//! bounded memory, never an unbounded queue. When the member heals,
//! delivery drains the window and shipping resumes.
//!
//! # Fencing
//!
//! Pumps serve exactly one primary epoch — the primary's
//! [`GroupCommit::epoch`], stamped on every envelope. Every step checks
//! the group's fence first ([`GroupCommit::fence`], called by the
//! election path deposing this primary): a fenced pump drops its
//! in-flight window and ships nothing further. The member side is
//! independently safe — a stale epoch in a delivered envelope is
//! refused by the member's own epoch check — but the pump stops at the
//! source. A pump can also *learn* it is deposed from the member: an
//! ack or refusal carrying a higher epoch fences the group itself, so
//! every pump of that primary stops and its sessions refuse commits,
//! not just the pump that heard. The new primary's pumps, built on its
//! own group at the higher epoch, take over shipping.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

use mvolap_durable::{GroupCommit, TimeSource};
use mvolap_replica::{
    decode_batch, encode_batch, Follower, NetClient, ReplicaError, ReplicaMsg, TailSource,
    TransportError, WalTailer,
};

/// Tuning for one member's shipping engine.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Frames per `frames` message inside a shipped envelope. One
    /// envelope may carry several such messages, up to the window.
    pub max_batch_frames: usize,
    /// In-flight window cap in frames: shipped-but-unacked frames
    /// never exceed this.
    pub max_inflight_frames: usize,
    /// In-flight window cap in cumulative payload bytes. A single
    /// frame larger than the cap still ships alone (progress
    /// guarantee).
    pub max_inflight_bytes: usize,
    /// Chunk size for pump-shipped snapshots: a pruned-tail bootstrap
    /// ships the covering checkpoint as `snap` chunks of at most this
    /// many bytes, windowed like frames and resumable after a
    /// disconnect from the member's last durable chunk.
    pub snap_chunk_bytes: usize,
    /// How long the pump thread parks waiting for new commits before
    /// re-checking its stop flag, in wall-clock milliseconds.
    pub idle_wait_ms: u64,
    /// Backoff after a stalled round (member store error), measured
    /// on `time`.
    pub retry_wait_ms: u64,
    /// Timeline for stall backoff. Manual makes every retry decision
    /// harness-driven — the deterministic-test hook.
    pub time: TimeSource,
}

impl Default for PumpConfig {
    fn default() -> PumpConfig {
        PumpConfig {
            max_batch_frames: 64,
            max_inflight_frames: 256,
            max_inflight_bytes: 1 << 20,
            snap_chunk_bytes: 64 << 10,
            idle_wait_ms: 25,
            retry_wait_ms: 50,
            time: TimeSource::System,
        }
    }
}

/// Where one member's pump is in its lifecycle — the typed state the
/// tracker exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PumpState {
    /// Caught up; nothing in flight, nothing to ship.
    Idle,
    /// Actively shipping or delivering.
    Shipping,
    /// The in-flight window is full (or the member is busy) — the
    /// backpressure state. Nothing more is fetched until acks drain.
    Blocked,
    /// The member errored; the pump dropped its window and retries
    /// after the configured backoff.
    Stalled {
        /// The member's error, verbatim.
        reason: String,
    },
    /// This pump's primary was deposed; the pump ships nothing and
    /// stays parked until stopped.
    Fenced {
        /// The epoch that fenced it.
        epoch: u64,
    },
    /// The member refused as diverged: its log forks from the
    /// primary's. The pump ships nothing and stays parked until a
    /// fresh pump replaces it.
    Diverged {
        /// The LSN the logs fork at.
        lsn: u64,
    },
    /// Shutdown observed.
    Stopped,
}

/// One member's counters and gauges, published through the tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberPumpStatus {
    /// Lifecycle state after the last step.
    pub state: PumpState,
    /// The member's last reported durably-synced position (next-LSN
    /// convention), as fed to [`GroupCommit::member_synced`].
    pub acked_lsn: u64,
    /// WAL frames shipped (queued onto the wire) so far.
    pub shipped_frames: u64,
    /// Wire envelopes shipped — each is one request.
    pub requests: u64,
    /// Ack envelopes received — each is one reply.
    pub replies: u64,
    /// Snapshot bootstraps shipped.
    pub snapshots: u64,
    /// Stalled rounds observed.
    pub stalls: u64,
    /// Frames currently in flight (shipped, unacked).
    pub inflight_frames: usize,
    /// Payload bytes currently in flight.
    pub inflight_bytes: usize,
}

impl Default for MemberPumpStatus {
    fn default() -> MemberPumpStatus {
        MemberPumpStatus {
            state: PumpState::Idle,
            acked_lsn: 0,
            shipped_frames: 0,
            requests: 0,
            replies: 0,
            snapshots: 0,
            stalls: 0,
            inflight_frames: 0,
            inflight_bytes: 0,
        }
    }
}

/// Shared, cloneable view of every member pump's state and counters.
#[derive(Debug, Clone, Default)]
pub struct PumpTracker {
    members: Arc<Mutex<BTreeMap<String, MemberPumpStatus>>>,
}

impl PumpTracker {
    /// A fresh tracker with no members.
    #[must_use]
    pub fn new() -> PumpTracker {
        PumpTracker::default()
    }

    /// One member's status, or `None` before its pump's first step.
    #[must_use]
    pub fn status(&self, member: &str) -> Option<MemberPumpStatus> {
        plock(&self.members).get(member).cloned()
    }

    /// Every member's status, in member order.
    #[must_use]
    pub fn all(&self) -> Vec<(String, MemberPumpStatus)> {
        plock(&self.members)
            .iter()
            .map(|(n, s)| (n.clone(), s.clone()))
            .collect()
    }

    fn update(&self, member: &str, f: impl FnOnce(&mut MemberPumpStatus)) {
        f(plock(&self.members).entry(member.to_string()).or_default());
    }
}

/// State shared by every pump serving one primary: the group-commit
/// handle (whose epoch envelopes are stamped with, and whose fence
/// every step checks first) and the stop flag.
#[derive(Debug)]
pub struct PumpShared {
    commit: GroupCommit,
    stop: AtomicBool,
}

impl PumpShared {
    /// Shared state for pumps of `commit`'s primary.
    #[must_use]
    pub fn new(commit: GroupCommit) -> Arc<PumpShared> {
        Arc::new(PumpShared {
            commit,
            stop: AtomicBool::new(false),
        })
    }

    /// The primary's group-commit handle.
    #[must_use]
    pub fn commit(&self) -> &GroupCommit {
        &self.commit
    }

    /// Asks every pump sharing this state to stop, waking parked
    /// threads. The threads exit on their next step; join them via
    /// [`PumpThread::join`].
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.commit.notify_waiters();
    }

    /// Whether [`PumpShared::request_stop`] was called.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// What one [`MemberPump::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PumpStep {
    /// Shutdown observed; a pump thread exits on this.
    Stopped,
    /// The primary is deposed (locally fenced, or the member reported
    /// a higher epoch); the in-flight window was dropped.
    Fenced {
        /// The fencing epoch.
        epoch: u64,
    },
    /// Frames moved: shipped onto the window and/or acked by the
    /// member.
    Progress {
        /// Frames newly shipped this step.
        shipped: usize,
        /// Frames newly acknowledged this step.
        acked: usize,
    },
    /// The window is at its cap (or the member is busy) and nothing
    /// could be delivered — the backpressure signal.
    Blocked {
        /// Frames currently in flight.
        inflight: usize,
    },
    /// The member errored or the link lost a crossing; window dropped,
    /// retry after backoff.
    Stalled {
        /// The error, verbatim.
        reason: String,
        /// The member's own store crashed (an I/O-class failure): it
        /// needs a restart before it can take frames again.
        crash: bool,
    },
    /// A stalled pump still inside its backoff window.
    Backoff,
    /// The member refused as diverged on an earlier step; nothing is
    /// shipped.
    Diverged {
        /// The LSN the logs fork at.
        lsn: u64,
    },
    /// Caught up: nothing in flight, nothing new to ship.
    Idle,
}

/// A shipped-but-unacked wire envelope in the in-flight window.
#[derive(Debug)]
struct Envelope {
    wire: Vec<u8>,
    frames: usize,
    bytes: usize,
}

/// Progress through a chunked snapshot transfer: the image identity
/// and the next chunk to ship. Dropped on stall or fence — resumption
/// re-derives the position from the member's own durable chunk count.
#[derive(Debug)]
struct SnapCursor {
    next_lsn: u64,
    total_bytes: u64,
    next_seq: u64,
}

/// The wire between a primary's pumps and their members. Each envelope
/// a pump ships, and each vote request an election sends, is one
/// *exchange* of two *crossings*: request bytes to the member, reply
/// bytes back. By default both cross in process. A cut loses every
/// crossing with the named members from a given crossing on, for a
/// bounded outage or for good — a lost request reaches nobody, a lost
/// reply is lost after the member acted on the request. A socket hop
/// sends each crossing through a real socket (a
/// [`mvolap_replica::FaultProxy`] that echoes it), so the proxy's
/// dropped and stalled connections become lost crossings too. Clones
/// share one crossing counter, by which a sweep enumerates its
/// injection points.
#[derive(Debug, Clone, Default)]
pub struct Link {
    state: Arc<Mutex<LinkState>>,
}

#[derive(Debug, Default)]
struct LinkState {
    crossings: u64,
    cut: Vec<String>,
    cut_after: u64,
    cut_left: u64,
    hop: Option<NetClient>,
}

impl Link {
    /// An in-process link that loses nothing.
    #[must_use]
    pub fn new() -> Link {
        Link::default()
    }

    /// A link whose every crossing goes through a socket to `hop`.
    #[must_use]
    pub fn via(hop: NetClient) -> Link {
        let link = Link::new();
        plock(&link.state).hop = Some(hop);
        link
    }

    /// Loses every crossing with `members` once `after` crossings have
    /// passed, for `len` of theirs (`u64::MAX`: for good). Replaces any
    /// earlier cut; an empty list heals the link.
    pub fn cut(&self, members: &[&str], after: u64, len: u64) {
        let mut st = plock(&self.state);
        st.cut = members.iter().map(|m| (*m).to_string()).collect();
        st.cut_after = after;
        st.cut_left = len;
    }

    /// Crossings attempted so far, lost ones included.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        plock(&self.state).crossings
    }

    /// One exchange with `member`: carries `request` to it, lets
    /// `answer` (the member's side) turn the bytes that arrived into a
    /// reply, and carries the reply back. A lost crossing is a
    /// transport error.
    pub(crate) fn exchange(
        &self,
        member: &str,
        request: Vec<u8>,
        answer: impl FnOnce(&[u8]) -> Result<Vec<u8>, ReplicaError>,
    ) -> Result<Vec<u8>, ReplicaError> {
        let arrived = self.cross(member, request)?;
        self.cross(member, answer(&arrived)?)
    }

    fn cross(&self, member: &str, bytes: Vec<u8>) -> Result<Vec<u8>, ReplicaError> {
        let mut st = plock(&self.state);
        st.crossings += 1;
        if st.crossings > st.cut_after && st.cut_left > 0 && st.cut.iter().any(|c| c == member) {
            st.cut_left -= 1;
            return Err(TransportError::Lost.into());
        }
        match st.hop.as_mut() {
            Some(hop) => hop.rpc(&bytes),
            None => Ok(bytes),
        }
    }
}

/// One member's shipping engine. [`MemberPump::step`] is synchronous
/// and deterministic given the [`TimeSource`]; [`MemberPump::spawn`]
/// runs it on a dedicated thread.
pub struct MemberPump {
    shared: Arc<PumpShared>,
    name: String,
    follower: Arc<Mutex<Follower>>,
    link: Link,
    tailer: WalTailer,
    cfg: PumpConfig,
    tracker: PumpTracker,
    inflight: VecDeque<Envelope>,
    inflight_frames: usize,
    inflight_bytes: usize,
    /// Next LSN to fetch for shipping; `None` means re-derive from
    /// the member (first step, or recovery after a stall dropped the
    /// window).
    cursor: Option<u64>,
    /// Chunked snapshot transfer in progress, if any.
    snap_cursor: Option<SnapCursor>,
    /// Timeline instant before which a stalled pump must not retry.
    retry_at: Option<u64>,
    /// The fork LSN, once the member refused as diverged.
    diverged: Option<u64>,
    /// Per-pump stop flag, in addition to the shared one — lets a
    /// single member's pump be halted (removal) without stopping the
    /// rest of the fleet.
    halt: Arc<AtomicBool>,
}

impl MemberPump {
    /// A pump shipping `primary_dir`'s log to `follower` on behalf of
    /// member `name` over an in-process [`Link`], publishing into
    /// `tracker`.
    #[must_use]
    pub fn new(
        shared: Arc<PumpShared>,
        name: impl Into<String>,
        follower: Arc<Mutex<Follower>>,
        primary_dir: &Path,
        cfg: PumpConfig,
        tracker: PumpTracker,
    ) -> MemberPump {
        MemberPump {
            shared,
            name: name.into(),
            follower,
            link: Link::new(),
            tailer: WalTailer::new(primary_dir),
            cfg,
            tracker,
            inflight: VecDeque::new(),
            inflight_frames: 0,
            inflight_bytes: 0,
            cursor: None,
            snap_cursor: None,
            retry_at: None,
            diverged: None,
            halt: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The same pump, shipping over `link`.
    #[must_use]
    pub fn over(mut self, link: Link) -> MemberPump {
        self.link = link;
        self
    }

    /// The member this pump serves.
    #[must_use]
    pub fn member(&self) -> &str {
        &self.name
    }

    /// One engine turn: deliver what the member will take, then ship
    /// what the window allows. This is the injectable step hook —
    /// deterministic harnesses call it directly; [`MemberPump::spawn`]
    /// loops it on a thread.
    pub fn step(&mut self) -> PumpStep {
        if self.shared.stop_requested() || self.halt.load(Ordering::SeqCst) {
            self.set_state(PumpState::Stopped);
            return PumpStep::Stopped;
        }
        // Epoch first, fence second: a fence raises its flag before the
        // epoch, so an epoch read here that is already the successor's
        // is always caught by the fence check.
        let epoch = self.shared.commit.epoch();
        if self.shared.commit.is_fenced() {
            return self.fenced(self.shared.commit.epoch());
        }
        if let Some(lsn) = self.diverged {
            return PumpStep::Diverged { lsn };
        }
        if let Some(at) = self.retry_at {
            if self.cfg.time.now_ms() < at {
                return PumpStep::Backoff;
            }
            self.retry_at = None;
        }

        // Phase 1 — deliver: drain in-flight envelopes over the link
        // while the member is free. try_lock: a member busy serving a
        // long read (or deliberately wedged in a test) never blocks
        // this thread; its envelopes simply stay queued, which is what
        // caps the window below.
        let follower = Arc::clone(&self.follower);
        let mut acked = 0usize;
        let mut busy = false;
        while let Some(env) = self.inflight.pop_front() {
            let mut f = match follower.try_lock() {
                Ok(f) => f,
                Err(TryLockError::WouldBlock) => {
                    self.inflight.push_front(env);
                    busy = true;
                    break;
                }
                Err(TryLockError::Poisoned(_)) => return self.stalled(&poisoned()),
            };
            let reply = self
                .link
                .exchange(&self.name, env.wire, |wire| answer(&mut f, wire));
            drop(f);
            match reply.and_then(|wire| quorum_ack(&wire)) {
                Ok((ack_epoch, synced_lsn)) => {
                    self.inflight_frames -= env.frames;
                    self.inflight_bytes -= env.bytes;
                    acked += env.frames;
                    self.acked(synced_lsn);
                    if ack_epoch > epoch {
                        return self.deposed(ack_epoch);
                    }
                }
                Err(ReplicaError::Fenced { epoch }) => return self.deposed(epoch),
                Err(e) => return self.stalled(&e),
            }
        }

        // Phase 2 — ship: pack every fsynced frame the window still
        // has room for into ONE wire envelope (`batch` of `frames`
        // messages), so a whole window moves per request/reply
        // round-trip. Shipping is bounded by the primary's durable
        // watermark — frames are eligible only once their fsync
        // completed, which both makes the concurrent file read safe
        // and keeps members from acking records the primary could
        // still lose.
        let head = self.shared.commit.synced_lsn();
        let mut msgs: Vec<ReplicaMsg> = Vec::new();
        let mut announce = false;
        if self.cursor.is_none() {
            // The cursor comes from the member's own position, through
            // the divergence gate: a member whose log forks from ours
            // is shipped `Diverged` and nothing else. One that passes
            // is shipped at least a heartbeat, so it learns the epoch
            // and acks its position to this primary.
            match follower.try_lock() {
                Ok(f) => {
                    let ReplicaMsg::Hello {
                        next_lsn, last_crc, ..
                    } = f.hello()
                    else {
                        unreachable!("hello() builds a Hello")
                    };
                    drop(f);
                    match self.tailer.verify_position(next_lsn, last_crc, head) {
                        Ok(()) => {
                            self.cursor = Some(next_lsn);
                            announce = true;
                        }
                        Err(ReplicaError::Diverged {
                            lsn,
                            expected_crc,
                            got_crc,
                        }) => msgs.push(ReplicaMsg::Diverged {
                            epoch,
                            lsn,
                            expected_crc,
                            got_crc,
                        }),
                        Err(e) => return self.stalled(&e),
                    }
                }
                Err(TryLockError::WouldBlock) => busy = true,
                Err(TryLockError::Poisoned(_)) => return self.stalled(&poisoned()),
            }
        }
        let mut env_frames = 0usize;
        let mut env_bytes = 0usize;
        let mut snap_done = false;
        if let Some(mut cur) = self.cursor {
            let mut snapshot = false;
            while cur < head && !snapshot {
                let queued_frames = self.inflight_frames + env_frames;
                let queued_bytes = self.inflight_bytes + env_bytes;
                let frame_room = self
                    .cfg
                    .max_batch_frames
                    .min(self.cfg.max_inflight_frames.saturating_sub(queued_frames));
                let byte_room = self.cfg.max_inflight_bytes.saturating_sub(queued_bytes);
                if frame_room == 0 || (byte_room == 0 && queued_frames > 0) {
                    break; // Window full — backpressure.
                }
                match self
                    .tailer
                    .fetch_budget(cur, head, frame_room, byte_room.max(1))
                {
                    Ok(TailSource::Frames(frames)) if frames.is_empty() => break,
                    Ok(TailSource::Frames(frames)) => {
                        env_frames += frames.len();
                        env_bytes += frames.iter().map(|f| f.payload.len()).sum::<usize>();
                        cur = frames.last().expect("non-empty").lsn + 1;
                        msgs.push(ReplicaMsg::Frames { epoch, frames });
                    }
                    Ok(TailSource::Snapshot {
                        next_lsn,
                        snapshot: image,
                    }) => {
                        // The member's cursor is below the pruned log:
                        // the covering checkpoint ships through the
                        // pump itself as resumable `snap` chunks,
                        // replacing any frame messages packed so far.
                        // The window caps how much of the image one
                        // envelope carries; an unfinished image keeps
                        // the cursor below the prune point so the next
                        // step picks up exactly where this one left
                        // off (or, after a disconnect, where the
                        // member's durable chunk count says to).
                        msgs.clear();
                        env_frames = 0;
                        env_bytes = 0;
                        let chunk_bytes = self.cfg.snap_chunk_bytes.max(1);
                        let total = (image.len().div_ceil(chunk_bytes) as u64).max(1);
                        let total_bytes = image.len() as u64;
                        let resume_from = match &self.snap_cursor {
                            Some(sc)
                                if (sc.next_lsn, sc.total_bytes) == (next_lsn, total_bytes) =>
                            {
                                sc.next_seq
                            }
                            _ => match follower.try_lock() {
                                Ok(f) => f.snap_resume(next_lsn, total, total_bytes),
                                Err(TryLockError::WouldBlock) => {
                                    busy = true;
                                    break;
                                }
                                Err(TryLockError::Poisoned(_)) => return self.stalled(&poisoned()),
                            },
                        };
                        let byte_room = self
                            .cfg
                            .max_inflight_bytes
                            .saturating_sub(self.inflight_bytes)
                            .max(chunk_bytes);
                        let mut seq = resume_from;
                        while seq < total && env_bytes < byte_room {
                            let start = usize::try_from(seq)
                                .unwrap_or(usize::MAX)
                                .saturating_mul(chunk_bytes);
                            let end = image.len().min(start.saturating_add(chunk_bytes));
                            let chunk = image[start.min(image.len())..end].to_vec();
                            env_bytes += chunk.len();
                            msgs.push(ReplicaMsg::SnapChunk {
                                epoch,
                                next_lsn,
                                seq,
                                total,
                                total_bytes,
                                chunk,
                            });
                            seq += 1;
                        }
                        if seq >= total {
                            // Final chunk shipped: the member installs
                            // and tails from `next_lsn`.
                            cur = next_lsn;
                            self.snap_cursor = None;
                            snap_done = true;
                        } else {
                            self.snap_cursor = Some(SnapCursor {
                                next_lsn,
                                total_bytes,
                                next_seq: seq,
                            });
                        }
                        snapshot = true;
                    }
                    Err(e) => return self.stalled(&e),
                }
            }
            self.cursor = Some(cur);
            if announce && msgs.is_empty() {
                msgs.push(ReplicaMsg::Heartbeat {
                    epoch,
                    next_lsn: head,
                });
            }
        }
        let shipping = !msgs.is_empty();
        if shipping {
            self.inflight.push_back(Envelope {
                wire: encode_batch(&msgs),
                frames: env_frames,
                bytes: env_bytes,
            });
            self.inflight_frames += env_frames;
            self.inflight_bytes += env_bytes;
            self.tracker.update(&self.name, |s| {
                s.requests += 1;
                s.shipped_frames += env_frames as u64;
                s.snapshots += u64::from(snap_done);
            });
        }

        self.publish_gauges();
        if shipping || acked > 0 {
            self.set_state(PumpState::Shipping);
            PumpStep::Progress {
                shipped: env_frames,
                acked,
            }
        } else if !self.inflight.is_empty() || busy {
            // Undelivered envelopes (member busy or window at cap):
            // the typed backpressure state.
            self.set_state(PumpState::Blocked);
            PumpStep::Blocked {
                inflight: self.inflight_frames,
            }
        } else {
            self.set_state(PumpState::Idle);
            PumpStep::Idle
        }
    }

    /// The LSN the pump would fetch next — the wait cursor for the
    /// thread loop's park.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor.unwrap_or(0)
    }

    /// Wraps the engine in a dedicated shipping thread: step, then
    /// park on [`GroupCommit::wait_synced_past`] when idle (woken by
    /// the next commit's fsync or by stop/fence), short real-time
    /// sleeps when blocked or stalled.
    #[must_use]
    pub fn spawn(mut self) -> PumpThread {
        let member = self.name.clone();
        let shared = self.shared.clone();
        let thread_shared = Arc::clone(&shared);
        let halt = Arc::clone(&self.halt);
        let idle = Duration::from_millis(self.cfg.idle_wait_ms.max(1));
        let retry = Duration::from_millis(self.cfg.retry_wait_ms.clamp(1, 25));
        // The idle park is bounded by the retry deadline as well as
        // the idle wait: a stop (shared or per-pump) that races past
        // the parked thread's flag check — e.g. the member vanished
        // during shutdown, so no further ack will ever notify — still
        // gets re-checked within one retry window, never an unbounded
        // park.
        let park = idle.min(retry);
        let handle = std::thread::Builder::new()
            .name(format!("pump-{member}"))
            .spawn(move || loop {
                match self.step() {
                    PumpStep::Stopped => break,
                    PumpStep::Progress { .. } => {}
                    PumpStep::Idle => {
                        // Park until the next commit's fsync pushes the
                        // durable watermark past our cursor (or stop /
                        // fence notifies).
                        let cur = self.cursor();
                        thread_shared.commit().wait_synced_past(cur, park);
                    }
                    PumpStep::Blocked { .. } => std::thread::sleep(Duration::from_millis(1)),
                    PumpStep::Stalled { .. } | PumpStep::Backoff => std::thread::sleep(retry),
                    PumpStep::Fenced { .. } | PumpStep::Diverged { .. } => {
                        // Fencing and divergence are permanent for this
                        // pump; stay parked until stopped.
                        std::thread::sleep(park);
                    }
                }
            })
            .expect("spawn pump thread");
        PumpThread {
            member,
            shared,
            halt,
            handle: Some(handle),
        }
    }

    fn acked(&mut self, synced_lsn: u64) {
        // Clamp at the primary's own head: a member cannot vouch for
        // records the primary never wrote.
        let head = self.shared.commit.wal_position();
        let synced = synced_lsn.min(head);
        self.shared.commit.member_synced(&self.name, synced);
        self.tracker.update(&self.name, |s| {
            s.replies += 1;
            s.acked_lsn = s.acked_lsn.max(synced);
        });
    }

    /// The member proved a newer primary exists: fence the whole group
    /// — every pump of this primary, and its sessions — not just this
    /// pump.
    fn deposed(&mut self, epoch: u64) -> PumpStep {
        self.shared.commit.fence(epoch);
        self.fenced(epoch)
    }

    fn fenced(&mut self, epoch: u64) -> PumpStep {
        self.drop_window();
        self.snap_cursor = None;
        self.set_state(PumpState::Fenced { epoch });
        self.publish_gauges();
        PumpStep::Fenced { epoch }
    }

    fn stalled(&mut self, e: &ReplicaError) -> PumpStep {
        self.drop_window();
        // The member's position is unknown after an error; re-derive
        // the cursor (and any snapshot transfer position — the member
        // keeps its received chunks durably) from its store on
        // recovery.
        self.cursor = None;
        self.snap_cursor = None;
        self.retry_at = Some(self.cfg.time.now_ms() + self.cfg.retry_wait_ms);
        let reason = e.to_string();
        self.tracker.update(&self.name, |s| s.stalls += 1);
        let state = match *e {
            // Terminal: the next steps ship nothing.
            ReplicaError::Diverged { lsn, .. } => {
                self.diverged = Some(lsn);
                PumpState::Diverged { lsn }
            }
            _ => PumpState::Stalled {
                reason: reason.clone(),
            },
        };
        self.set_state(state);
        self.publish_gauges();
        PumpStep::Stalled {
            reason,
            crash: e.is_crash(),
        }
    }

    fn drop_window(&mut self) {
        self.inflight.clear();
        self.inflight_frames = 0;
        self.inflight_bytes = 0;
    }

    fn set_state(&self, state: PumpState) {
        self.tracker.update(&self.name, |s| s.state = state);
    }

    fn publish_gauges(&self) {
        let (frames, bytes) = (self.inflight_frames, self.inflight_bytes);
        self.tracker.update(&self.name, |s| {
            s.inflight_frames = frames;
            s.inflight_bytes = bytes;
        });
    }
}

fn poisoned() -> ReplicaError {
    ReplicaError::Protocol("member mutex poisoned".to_string())
}

/// The member's side of one exchange: applies every message of the
/// envelope and replies with what they call for, plain acks folded into
/// one closing quorum ack. Both directions cross the real wire grammar,
/// so what a pump ships is exactly what a remote member would parse.
pub(crate) fn answer(f: &mut Follower, wire: &[u8]) -> Result<Vec<u8>, ReplicaError> {
    let mut replies = Vec::new();
    for msg in decode_batch(wire)? {
        match f.handle(msg)? {
            Some(ReplicaMsg::Ack { .. }) | None => {}
            Some(reply) => replies.push(reply),
        }
    }
    replies.push(f.quorum_ack());
    Ok(encode_batch(&replies))
}

/// The `(epoch, synced_lsn)` of the quorum ack closing a member's reply.
fn quorum_ack(wire: &[u8]) -> Result<(u64, u64), ReplicaError> {
    match decode_batch(wire)?.pop() {
        Some(ReplicaMsg::QuorumAck {
            epoch, synced_lsn, ..
        }) => Ok((epoch, synced_lsn)),
        other => Err(ReplicaError::Protocol(format!(
            "expected a quorum ack, got {other:?}"
        ))),
    }
}

/// Join handle for a spawned pump thread. Stop it individually via
/// [`PumpThread::stop`] (membership removal) or fleet-wide via
/// [`PumpShared::request_stop`], then join.
pub struct PumpThread {
    member: String,
    shared: Arc<PumpShared>,
    halt: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PumpThread {
    /// The member this thread ships to.
    #[must_use]
    pub fn member(&self) -> &str {
        &self.member
    }

    /// Halts this pump alone — the rest of the fleet keeps shipping.
    /// Wakes the thread if it is parked; the engine observes the flag
    /// on its next step. Join via [`PumpThread::join`].
    pub fn stop(&self) {
        self.halt.store(true, Ordering::SeqCst);
        self.shared.commit().notify_waiters();
    }

    /// Joins the thread (idempotent). Blocks until the engine
    /// observes a stop flag — call [`PumpThread::stop`] or
    /// [`PumpShared::request_stop`] first.
    pub fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

impl Drop for PumpThread {
    fn drop(&mut self) {
        self.join();
    }
}

pub(crate) fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
