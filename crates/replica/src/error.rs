//! Errors of the replication subsystem.

use mvolap_durable::DurableError;

/// A transport-level failure. Both variants are *transient*: a
/// supervisor retries the exchange on its next round, a socket client
/// over a fresh connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The message was lost in transit.
    Lost,
    /// The link refused the operation outright.
    Down,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Lost => write!(f, "message lost in transit"),
            TransportError::Down => write!(f, "link down"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Errors raised by tailing, replay, supervision and failover.
#[derive(Debug)]
pub enum ReplicaError {
    /// The durability layer failed underneath (I/O, corruption, …).
    Durable(DurableError),
    /// The transport failed; retryable.
    Transport(TransportError),
    /// The follower's log and the primary's log disagree at `lsn`: the
    /// checksums of the frames differ, so the two histories forked
    /// (classically: a failover promoted a follower that had not seen
    /// this record, and the new primary wrote a different one at the
    /// same position). Replay past this point is refused — the follower
    /// must be rebuilt, never patched.
    Diverged {
        /// The position where the histories fork.
        lsn: u64,
        /// Frame CRC the serving primary has at `lsn`.
        expected_crc: u32,
        /// Frame CRC the follower recorded at `lsn`.
        got_crc: u32,
    },
    /// The node was fenced at `epoch`: a newer primary exists and this
    /// handle must not accept writes.
    Fenced {
        /// The epoch the node was fenced at.
        epoch: u64,
    },
    /// The operation needs a live primary and there is none.
    NotPrimary,
    /// An election closed without a majority of the group granting the
    /// candidate their vote; the group stays primary-less rather than
    /// risk two histories.
    NoQuorum {
        /// The epoch the failed election proposed.
        epoch: u64,
        /// Votes collected, the candidate's own included.
        votes: usize,
        /// Votes a majority requires.
        required: usize,
    },
    /// No node of that name is registered.
    UnknownNode(String),
    /// The replication protocol was violated (malformed message, LSN
    /// gap, snapshot round-trip drift, …).
    Protocol(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Durable(e) => write!(f, "durable layer: {e}"),
            ReplicaError::Transport(e) => write!(f, "transport: {e}"),
            ReplicaError::Diverged {
                lsn,
                expected_crc,
                got_crc,
            } => write!(
                f,
                "diverged at LSN {lsn}: primary frame crc {expected_crc:#010x}, \
                 follower recorded {got_crc:#010x}; refusing replay"
            ),
            ReplicaError::Fenced { epoch } => {
                write!(f, "fenced at epoch {epoch}: a newer primary exists")
            }
            ReplicaError::NotPrimary => write!(f, "no live primary"),
            ReplicaError::NoQuorum {
                epoch,
                votes,
                required,
            } => write!(
                f,
                "election for epoch {epoch} failed: {votes} vote(s) of {required} required"
            ),
            ReplicaError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            ReplicaError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<DurableError> for ReplicaError {
    /// A fenced group commit is the replication-level refusal, so it
    /// surfaces as [`ReplicaError::Fenced`]; everything else wraps.
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Fenced { epoch } => ReplicaError::Fenced { epoch },
            e => ReplicaError::Durable(e),
        }
    }
}

impl From<mvolap_core::token::TokenError> for ReplicaError {
    fn from(e: mvolap_core::token::TokenError) -> Self {
        ReplicaError::Protocol(format!("message: {e}"))
    }
}

impl From<TransportError> for ReplicaError {
    fn from(e: TransportError) -> Self {
        ReplicaError::Transport(e)
    }
}

impl ReplicaError {
    /// Classifies an OS-level socket error as a transport failure:
    /// timeouts, would-blocks, a refused connection and a missing socket
    /// file mean the link is down (retry may succeed), anything else
    /// means the message was lost.
    #[must_use]
    pub fn from_io(e: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::ConnectionRefused
            | ErrorKind::NotFound => ReplicaError::Transport(TransportError::Down),
            _ => ReplicaError::Transport(TransportError::Lost),
        }
    }

    pub(crate) fn protocol(m: impl Into<String>) -> Self {
        ReplicaError::Protocol(m.into())
    }

    /// Whether the error is a transient transport failure worth
    /// retrying rather than escalating.
    pub fn is_transient(&self) -> bool {
        matches!(self, ReplicaError::Transport(_))
    }

    /// Whether the error means the underlying store crashed (real or
    /// injected I/O failure) — the node is down until restarted.
    pub fn is_crash(&self) -> bool {
        matches!(self, ReplicaError::Durable(e) if e.is_io_class())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    #[test]
    fn a_refused_or_missing_peer_is_a_link_down_and_transient() {
        for kind in [
            ErrorKind::ConnectionRefused,
            ErrorKind::NotFound,
            ErrorKind::TimedOut,
        ] {
            let e = ReplicaError::from_io(&Error::from(kind));
            assert!(
                matches!(e, ReplicaError::Transport(TransportError::Down)),
                "{kind:?}"
            );
            assert!(e.is_transient());
            assert_eq!(e.to_string(), "transport: link down");
        }
        let reset = ReplicaError::from_io(&Error::from(ErrorKind::ConnectionReset));
        assert!(matches!(
            reset,
            ReplicaError::Transport(TransportError::Lost)
        ));
        assert!(reset.is_transient());
    }
}
