//! Errors of the durability subsystem.

use mvolap_core::persist::PersistError;
use mvolap_core::CoreError;

/// Errors raised by the WAL, checkpointing and recovery machinery.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A deterministic fault-injection crash point fired (testing only).
    Injected {
        /// The I/O primitive that was interrupted.
        op: &'static str,
    },
    /// The store hit an I/O or injected fault earlier and its in-memory
    /// state can no longer be trusted; reopen the directory to recover.
    Poisoned,
    /// On-disk state is corrupt beyond torn-tail repair.
    Corrupt {
        /// What was found, and where.
        message: String,
    },
    /// The directory holds no recoverable store (no checkpoint and no
    /// bootstrap record survived).
    NoStore,
    /// A tail was requested from an LSN that checkpointing has already
    /// pruned out of the log. The caller (typically a replication
    /// follower) must re-bootstrap from a checkpoint snapshot instead of
    /// replaying frames.
    Pruned {
        /// Base LSN of the oldest segment still on disk.
        oldest_available: u64,
    },
    /// A commit was journaled and fsynced locally but did not reach a
    /// replication quorum within its deadline. The record is durable on
    /// this node and may still replicate later; the caller must not
    /// treat it as majority-committed.
    Unreplicated {
        /// LSN of the locally durable record.
        lsn: u64,
        /// Nodes (including this one) known to have synced it.
        acked: usize,
    },
    /// A membership reconfiguration was requested while a previous one
    /// is still in flight (journaled but not yet completed). Membership
    /// changes are single-change: the pending add must promote (or the
    /// pending remove drain) before the next one is accepted.
    ReconfigInFlight {
        /// LSN of the pending reconfiguration record.
        lsn: u64,
        /// The member the pending reconfiguration concerns.
        member: String,
    },
    /// The primary was fenced at `epoch` — a newer primary exists — so
    /// this handle, and every clone of it, refuses writes.
    Fenced {
        /// The epoch the primary was fenced at.
        epoch: u64,
    },
    /// Checkpoint (de)serialisation failure.
    Persist(PersistError),
    /// Replaying a record violated the model — validated replay refused
    /// to construct an inconsistent schema.
    Core(CoreError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "i/o error: {e}"),
            DurableError::Injected { op } => write!(f, "injected crash during {op}"),
            DurableError::Poisoned => {
                write!(f, "store poisoned by an earlier fault; reopen to recover")
            }
            DurableError::Corrupt { message } => write!(f, "corrupt store: {message}"),
            DurableError::NoStore => write!(f, "directory holds no recoverable store"),
            DurableError::Pruned { oldest_available } => write!(
                f,
                "requested LSN precedes the log (oldest available: {oldest_available}); \
                 re-bootstrap from a checkpoint"
            ),
            DurableError::Unreplicated { lsn, acked } => write!(
                f,
                "commit {lsn} is locally durable but unreplicated: \
                 {acked} node(s) synced it, no quorum before the deadline"
            ),
            DurableError::ReconfigInFlight { lsn, member } => write!(
                f,
                "a reconfiguration is already in flight (member `{member}` \
                 since LSN {lsn}); one membership change at a time"
            ),
            DurableError::Fenced { epoch } => {
                write!(f, "fenced at epoch {epoch}: a newer primary exists")
            }
            DurableError::Persist(e) => write!(f, "checkpoint error: {e}"),
            DurableError::Core(e) => write!(f, "replay error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<PersistError> for DurableError {
    fn from(e: PersistError) -> Self {
        DurableError::Persist(e)
    }
}

impl From<CoreError> for DurableError {
    fn from(e: CoreError) -> Self {
        DurableError::Core(e)
    }
}

impl From<mvolap_core::token::TokenError> for DurableError {
    fn from(e: mvolap_core::token::TokenError) -> Self {
        DurableError::corrupt(format!("record: {e}"))
    }
}

impl DurableError {
    pub(crate) fn corrupt(message: impl Into<String>) -> Self {
        DurableError::Corrupt {
            message: message.into(),
        }
    }

    /// Whether the error came from the I/O layer (real or injected) —
    /// the class of failures after which the in-memory store must be
    /// considered out of sync with disk.
    pub fn is_io_class(&self) -> bool {
        matches!(
            self,
            DurableError::Io(_) | DurableError::Injected { .. } | DurableError::Poisoned
        )
    }
}
