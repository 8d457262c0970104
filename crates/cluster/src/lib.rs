//! # mvolap-cluster — quorum-replicated commit and leader election
//!
//! Supervises a primary plus N members as one replication group with
//! majority-ack semantics on top of [`mvolap_replica`]:
//!
//! - **Quorum commit** ([`ClusterSet::commit_quorum`]): a commit is
//!   acknowledged only once it is fsynced locally *and* acked by a
//!   majority of the group (⌈(N+1)/2⌉ members, primary included). The
//!   `quorum_lsn` watermark is maintained by the group-commit layer
//!   ([`mvolap_durable::GroupCommit`]) and threaded up to sessions.
//! - **Deterministic election** ([`ClusterSet::elect`]): members vote
//!   for the candidate with the highest `(synced_lsn, member_id)`
//!   credential; the winner fences the deposed primary's
//!   [`mvolap_durable::GroupCommit`] by bumping the epoch (the primary
//!   is a named group commit: [`ClusterSet::primary`] returns the
//!   group, [`ClusterSet::primary_name`] the name). Because a majority acked every quorum commit and the
//!   winner outranks a majority, the winner's log contains every
//!   acknowledged record — the winner never truncates.
//! - **Truncation on rejoin** ([`ClusterSet::rejoin_member`]): a
//!   deposed primary walks its log backwards against the new
//!   primary's, cuts everything past the last CRC match (its
//!   un-quorum'd suffix), and only then re-enters the group.
//! - **Fault sweeps** ([`cluster_sweep`], [`cluster_sweep_net`],
//!   [`membership_sweep`]): kill the primary or a member at every I/O
//!   primitive, partition a member at every transport step, drop or
//!   stall the socket under the whole group, fork two histories —
//!   asserting that no quorum-acknowledged commit is ever lost, no
//!   two primaries accept writes in the same epoch, survivors
//!   reconverge byte-identically and every refusal is typed. All three
//!   drive one scripted run and check against the durable crate's
//!   replay of the script ([`mvolap_durable::fault::Prefixes`]).
//! - **Async pump** ([`MemberPump`]): per-member shipping engines
//!   that tail the primary's WAL and ship batched frame envelopes
//!   with a bounded in-flight window; [`MemberPump::spawn`] runs one
//!   on a dedicated thread per member of a served group
//!   ([`LocalCluster`]), while [`MemberPump::step`] stays a
//!   synchronous hook deterministic tests drive directly.
//!
//! [`ClusterSet`] is the deterministic *model* of the group: no
//! wall-clock, no threads — every protocol step happens inside
//! [`ClusterSet::tick`], which is what makes the exhaustive sweeps
//! possible. The *served* group ships through [`MemberPump`] threads
//! instead; both speak the same records to the same
//! [`mvolap_replica::Follower`].

#![warn(missing_docs)]

pub mod pump;
pub mod serve;
pub mod set;
pub mod sweep;

pub use pump::{
    MemberPump, MemberPumpStatus, PumpConfig, PumpShared, PumpState, PumpStep, PumpThread,
    PumpTracker,
};
pub use serve::LocalCluster;
pub use set::{
    ClusterConfig, ClusterEvent, ClusterSet, ClusterStats, PendingReconfig, RejoinOutcome,
};
pub use sweep::{
    cluster_sweep, cluster_sweep_net, membership_sweep, ClusterSweepOutcome, MembershipSweepOutcome,
};
