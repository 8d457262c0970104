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
//!   primitive, cut a member off at every link exchange, drop or
//!   stall the socket hop under the whole group, fork two histories —
//!   asserting that no quorum-acknowledged commit is ever lost, no
//!   two primaries accept writes in the same epoch, survivors
//!   reconverge byte-identically and every refusal is typed. All three
//!   drive one scripted run and check against the durable crate's
//!   replay of the script ([`mvolap_durable::fault::Prefixes`]).
//! - **Pump** ([`MemberPump`]): per-member shipping engines that tail
//!   the primary's WAL and ship batched frame envelopes over a
//!   [`Link`] with a bounded in-flight window, behind the divergence
//!   gate. [`MemberPump::spawn`] runs one on a dedicated thread per
//!   member of a served group ([`LocalCluster`]); [`MemberPump::step`]
//!   is the synchronous hook the model and the tests drive.
//!
//! There is one replication engine. [`ClusterSet`] is the
//! deterministic *model* of the group: no wall-clock, no threads — a
//! [`ClusterSet::tick`] is one [`MemberPump::step`] per live member,
//! which is what makes the exhaustive sweeps possible. The *served*
//! group runs the same pumps on threads. Both settle a membership
//! change by one rule, [`PendingReconfig::settle`].

#![warn(missing_docs)]

pub mod pump;
pub mod serve;
pub mod set;
pub mod sweep;

pub use pump::{
    Link, MemberPump, MemberPumpStatus, PumpConfig, PumpShared, PumpState, PumpStep, PumpThread,
    PumpTracker,
};
pub use serve::LocalCluster;
pub use set::{
    ClusterConfig, ClusterEvent, ClusterSet, ClusterStats, PendingReconfig, RejoinOutcome,
};
pub use sweep::{
    cluster_sweep, cluster_sweep_net, membership_sweep, ClusterSweepOutcome, MembershipSweepOutcome,
};
