//! `mvolap-replica` — WAL-shipping replication for the temporal
//! warehouse: followers, divergence detection and the follower
//! protocol a primary answers on its session port.
//!
//! The durability crate journals every evolution operator as a
//! CRC-framed, LSN-addressed WAL record; this crate ships those frames
//! to follower nodes:
//!
//! * **Tailing** ([`WalTailer`]). The primary serves its log from any
//!   LSN; positions already pruned by checkpointing are served as a
//!   covering checkpoint *snapshot* instead, and the follower
//!   re-bootstraps from it at the right LSN.
//! * **Replay through the validated path** ([`Follower`]). A follower
//!   journals the frames it receives into its own WAL + checkpoint
//!   store via the same validated apply path the primary committed
//!   them with. Record encoding is canonical, so the follower's log is
//!   *byte-identical* to the primary's at every LSN — frame-CRC
//!   comparison is therefore a sound divergence test in both
//!   directions.
//! * **Divergence refusal.** A follower whose log provably forks from
//!   the serving primary's (CRC mismatch at a shared LSN, or frames
//!   past the primary's head) is refused with a typed
//!   [`ReplicaError::Diverged`] — never patched, never silently
//!   rewound.
//! * **Networked transport** ([`net`]). The same protocol over real
//!   TCP or unix sockets: every request and reply is one CRC frame of
//!   canonical escaped-token text, with explicit connect/read/write
//!   timeouts and bounded reconnect. [`answer_follower`] is the
//!   primary's side — one hello/ack/fence frame answered from a
//!   `GroupCommit`, whose epoch and fence are the primary's only ones:
//!   a request proving a newer primary exists fences the group, and a
//!   fenced group refuses every commit with
//!   `mvolap_durable::DurableError::Fenced` ([`ReplicaError::Fenced`]
//!   here). [`sync_follower`] is the follower's side. A [`FaultProxy`]
//!   is a socket hop that drops or stalls connections, for sweeps.
//!
//! Supervision of a whole group — quorum commit, election, rejoin and
//! the fault sweeps that prove them — lives one crate up, in
//! `mvolap-cluster`: its pumps ship a [`WalTailer`]'s frames to
//! [`Follower`]s, in the served group and in the deterministic
//! `ClusterSet` model alike. Nothing here reads a clock: time-based
//! checkpoint policies read the store's `mvolap_durable::TimeSource`,
//! and the deployed follow loop paces itself with `std::thread::sleep`.

#![warn(missing_docs)]

pub mod error;
pub mod follower;
pub mod net;
pub mod record;
pub mod tailer;

pub use error::{ReplicaError, TransportError};
pub use follower::Follower;
pub use net::{
    answer_follower, decode_batch, encode_batch, is_follower_request, read_frame, stop_listener,
    sync_follower, write_frame, FaultProxy, FrameReader, NetAddr, NetClient, NetConfig,
    NetListener, NetStream, ProxyFault, SyncRound,
};
pub use record::ReplicaMsg;
pub use tailer::{HelloAnswer, TailSource, WalTailer};
