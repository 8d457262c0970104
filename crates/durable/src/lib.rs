//! `mvolap-durable` — write-ahead log, checkpointing and crash recovery
//! for the temporal warehouse.
//!
//! The paper's evolution operators (§3.2) mutate the schema in memory;
//! this crate makes those mutations survive a crash. The design is the
//! classic WAL + checkpoint pair, specialised to the model:
//!
//! * **Logical log.** The WAL journals *operators*, not byte diffs: one
//!   [`WalRecord`] per evolution operation (insert, exclude, transform,
//!   merge, split, reclassify, associate, confidence change) plus fact
//!   batches. Replay goes through the same validated construction API
//!   as everything else, so a damaged log can never materialise a
//!   schema the model forbids — recovery refuses instead.
//! * **Checksummed frames, segmented files.** Records are
//!   length-prefixed CRC-32 frames ([`frame`]) in rotating segment
//!   files ([`wal`]); a torn tail is detected and truncated, damage
//!   anywhere else is an explicit [`DurableError::Corrupt`].
//! * **Atomic checkpoints.** A checkpoint ([`checkpoint`]) is the
//!   `core::persist` snapshot written temp-file + rename, named by
//!   schema generation and WAL position; recovery is newest checkpoint
//!   + log tail.
//! * **Journal before apply.** [`DurableTmd`] validates every operation
//!   (on a clone for evolutions, read-only for fact batches) *before*
//!   journaling it, so the log contains exactly the committed
//!   operations and replay is infallible on intact media.
//! * **Deterministic crash testing.** All durable I/O goes through one
//!   fault-injectable layer ([`io`]); [`fault::crash_sweep`] simulates
//!   a crash at *every* write/fsync/rename boundary of a seeded
//!   workload and proves prefix-consistent recovery at each one.

// `group`'s module doc names its private pacing constant; the name is
// the documentation, the link need not resolve.
#![allow(rustdoc::private_intra_doc_links)]

pub mod checkpoint;
pub mod checksum;
pub mod clock;
pub mod error;
pub mod fault;
pub mod frame;
pub mod group;
pub mod io;
pub mod record;
pub mod store;
pub mod wal;

pub use checkpoint::CheckpointId;
pub use clock::TimeSource;
pub use error::DurableError;
pub use fault::{crash_sweep, generate, group_crash_sweep, Step, SweepOutcome, Workload};
pub use group::{majority, GroupCommit, GroupConfig};
pub use io::{FaultPlan, Io};
pub use record::{FactRow, WalRecord};
pub use store::{CheckpointPolicy, DurableTmd, Options, ReconfigEntry};
pub use wal::{truncate_from, TailFrame, Wal};
