//! The session client: a thin typed wrapper over the shared
//! reconnecting [`NetClient`] transport.

use mvolap_durable::WalRecord;
use mvolap_replica::{NetAddr, NetClient, NetConfig};

use crate::proto::{self, Reply, Request, ServerError};

/// A connected session. One request is in flight at a time; the
/// underlying transport reconnects with bounded backoff on transient
/// failures.
///
/// Retry caveat: a reconnect re-sends the request, so a `commit` whose
/// acknowledgement was lost may be journaled twice (at-least-once
/// semantics), and so may an evolution statement sent as a `query`.
/// Other queries and pings are idempotent.
pub struct SessionClient {
    net: NetClient,
}

impl SessionClient {
    /// Prepares a client for `addr`. The TCP/unix connection is
    /// established lazily on the first request.
    #[must_use]
    pub fn connect(addr: NetAddr, cfg: NetConfig) -> SessionClient {
        SessionClient {
            net: NetClient::connect(addr, cfg),
        }
    }

    /// The server address this client talks to.
    #[must_use]
    pub fn addr(&self) -> &NetAddr {
        self.net.addr()
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Reply, ServerError> {
        let reply = self
            .net
            .rpc(&proto::encode_request(req))
            .map_err(ServerError::Transport)?;
        proto::decode_reply(&reply)
    }

    /// Runs `text` on the primary and returns the rendered result —
    /// byte-identical to what the interactive shell would print.
    ///
    /// # Errors
    ///
    /// Typed [`ServerError`]s from the wire (`Busy`, `Query`,
    /// `Shutdown`, …) or [`ServerError::Transport`] locally.
    pub fn query(&mut self, text: &str) -> Result<String, ServerError> {
        self.answered(&Request::Query(text.to_string()), "query")
    }

    /// Runs a read-only query that a follower may serve, requiring
    /// every LSN up to and including `min_lsn` applied (`0` accepts any
    /// staleness).
    ///
    /// # Errors
    ///
    /// [`ServerError::TooStale`] when the follower is behind the bound;
    /// otherwise as for [`SessionClient::query`].
    pub fn read_at(&mut self, min_lsn: u64, text: &str) -> Result<String, ServerError> {
        let text = text.to_string();
        self.answered(&Request::Read { min_lsn, text }, "read")
    }

    /// Group-commits one journal record; returns its LSN once durable.
    ///
    /// # Errors
    ///
    /// [`ServerError::Commit`] when validation rejects the record or
    /// the store is poisoned; transport/typed errors as above.
    pub fn commit(&mut self, record: &WalRecord) -> Result<u64, ServerError> {
        match self.roundtrip(&Request::Commit(record.clone()))? {
            Reply::Lsn(lsn) => Ok(lsn),
            Reply::Err(e) => Err(e),
            Reply::Result(_) => Err(ServerError::Protocol("ok reply to a commit".to_string())),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// [`ServerError::Transport`] when the server is unreachable;
    /// [`ServerError::Busy`]/[`ServerError::Shutdown`] when refused.
    pub fn ping(&mut self) -> Result<(), ServerError> {
        self.answered(&Request::Ping, "ping").map(drop)
    }

    /// The text a request is answered with.
    fn answered(&mut self, req: &Request, what: &str) -> Result<String, ServerError> {
        match self.roundtrip(req)? {
            Reply::Result(out) => Ok(out),
            Reply::Err(e) => Err(e),
            Reply::Lsn(_) => Err(ServerError::Protocol(format!("lsn reply to a {what}"))),
        }
    }
}
