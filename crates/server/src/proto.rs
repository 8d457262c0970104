//! Session wire protocol: requests and replies, one CRC frame each.
//!
//! The grammar reuses the replication transport's building blocks — a
//! length-prefixed CRC-32 frame per message ([`mvolap_replica::read_frame`]
//! / [`mvolap_replica::write_frame`]) whose payload is a line of
//! [`mvolap_core::token`] tokens; `<esc(…)>` below is one token under
//! [`Escapes::Binary`].
//!
//! Requests:
//!
//! ```text
//! query  <esc(text)>              run a statement on the primary
//! read   <min_lsn> <esc(text)>    run a statement, follower-ok,
//!                                 requiring LSNs 1..=min_lsn applied
//! commit <esc(walrecord-bytes)>   group-commit one journal record
//! ping                            liveness probe
//! ```
//!
//! `text` is any statement of `mvolap-query`: a query or a `SHOW`
//! (`SHOW VERSIONS`, `SHOW LOG`, `SHOW QUALITY <query>`, …), so the
//! metadata tier needs no frame of its own. `read`s carry statements
//! under the same staleness rule as queries. `SHOW STATUS` is answered
//! by the server that receives it; a fleet primary never forwards it.
//!
//! Replies:
//!
//! ```text
//! ok <esc(payload)>               rendered answer / "pong"
//! lsn <u64>                       commit durable at this LSN
//! err busy <active> <queued>      admission refused (typed Busy)
//! err stale <required> <applied> [<esc(member)>]
//!                                 replica behind the staleness bound;
//!                                 the optional trailing token names
//!                                 the member consulted (omitted when
//!                                 unknown, e.g. a local follower)
//! err unreplicated <lsn> <acked>  commit fsynced locally but the
//!                                 quorum never acknowledged it
//! err query <esc(msg)>            query failed (parse/plan/exec)
//! err commit <esc(msg)>           commit rejected or store poisoned
//! err proto <esc(msg)>            malformed request
//! err shutdown                    server is stopping
//! ```

use std::fmt;

use mvolap_core::token::{Escapes, TokenError, TokenReader, TokenWriter};
use mvolap_durable::WalRecord;
use mvolap_replica::ReplicaError;

/// One client request, a single frame on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run `text` against the primary's current schema.
    Query(String),
    /// Run `text` read-only; a follower may serve it **iff** it has
    /// applied every LSN up to and including `min_lsn` (`0` accepts
    /// any staleness). A server without a follower serves it from the
    /// primary, which is never stale.
    Read {
        /// Highest LSN the reader requires to be applied.
        min_lsn: u64,
        /// The query text.
        text: String,
    },
    /// Journal one record through the group-commit path.
    Commit(WalRecord),
    /// Liveness probe; the server answers `ok pong`.
    Ping,
}

/// One server reply, a single frame on the wire.
#[derive(Debug, PartialEq)]
pub enum Reply {
    /// Rendered query result (or `pong`).
    Result(String),
    /// The commit is durable at this LSN.
    Lsn(u64),
    /// A typed refusal or failure.
    Err(ServerError),
}

/// Everything that can go wrong between a session client and server.
#[derive(Debug)]
pub enum ServerError {
    /// Admission control refused the session: `active` sessions are
    /// being served and `queued` more already wait.
    Busy {
        /// Sessions currently being served.
        active: usize,
        /// Sessions waiting for a slot.
        queued: usize,
    },
    /// A replica read was refused: the reader required LSNs through
    /// `required` applied, but the freshest replica consulted has only
    /// applied through `applied`.
    TooStale {
        /// The reader's staleness bound (highest LSN required).
        required: u64,
        /// Highest LSN the replica has applied.
        applied: u64,
        /// Name of the member consulted, when the server routed across
        /// a fleet (`None` for a local anonymous follower — and for
        /// replies from servers speaking the older three-token
        /// grammar).
        member: Option<String>,
    },
    /// The commit is fsynced on the primary but the replication quorum
    /// never acknowledged it within the commit timeout. The record may
    /// yet replicate — or be truncated away if the primary is deposed.
    Unreplicated {
        /// LSN the record occupies in the primary's journal.
        lsn: u64,
        /// Members (primary included) known to have synced it.
        acked: usize,
    },
    /// The query failed to parse, plan or execute.
    Query(String),
    /// The commit was rejected (validation) or failed (I/O; the store
    /// is then poisoned and later commits fail too).
    Commit(String),
    /// The peer violated the wire grammar.
    Protocol(String),
    /// Client-local transport failure (connect/read/write); never
    /// travels on the wire.
    Transport(ReplicaError),
    /// The server is shutting down.
    Shutdown,
}

impl PartialEq for ServerError {
    /// Field by field, through the derived `Debug`; `Transport` wraps a
    /// non-comparable error chain and compares by its rendered message.
    fn eq(&self, other: &ServerError) -> bool {
        match (self, other) {
            (ServerError::Transport(e), ServerError::Transport(e2)) => {
                e.to_string() == e2.to_string()
            }
            _ => format!("{self:?}") == format!("{other:?}"),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Busy { active, queued } => {
                write!(f, "server busy: {active} active sessions, {queued} queued")
            }
            ServerError::TooStale {
                required,
                applied,
                member,
            } => {
                let who = member.as_deref().unwrap_or("follower");
                write!(
                    f,
                    "replica too stale: reader requires LSN {required} applied, {who} is at {applied}"
                )
            }
            ServerError::Unreplicated { lsn, acked } => write!(
                f,
                "commit unreplicated: LSN {lsn} fsynced locally but only {acked} member(s) acked before the timeout"
            ),
            ServerError::Query(m) => write!(f, "query failed: {m}"),
            ServerError::Commit(m) => write!(f, "commit failed: {m}"),
            ServerError::Protocol(m) => write!(f, "protocol violation: {m}"),
            // A `ReplicaError` names its own layer.
            ServerError::Transport(e) => write!(f, "{e}"),
            ServerError::Shutdown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ReplicaError> for ServerError {
    fn from(e: ReplicaError) -> Self {
        ServerError::Transport(e)
    }
}

impl From<TokenError> for ServerError {
    fn from(e: TokenError) -> Self {
        ServerError::Protocol(format!("frame: {e}"))
    }
}

/// Serialises a request into a frame payload.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    match req {
        Request::Query(text) => w.raw("query").text(text),
        Request::Read { min_lsn, text } => w.raw("read").raw(min_lsn).text(text),
        Request::Commit(record) => w.raw("commit").bytes(&record.encode()),
        Request::Ping => w.raw("ping"),
    };
    w.finish()
}

/// Parses a frame payload into a request.
///
/// # Errors
///
/// [`ServerError::Protocol`] on any grammar violation — unknown verb,
/// wrong token count, bad escape, non-UTF-8 query text or an
/// undecodable journal record.
pub fn decode_request(payload: &[u8]) -> Result<Request, ServerError> {
    let mut r = TokenReader::from_bytes(payload)?;
    let req = match r.token()? {
        "query" => Request::Query(r.text()?),
        "read" => Request::Read {
            min_lsn: r.parse("lsn")?,
            text: r.text()?,
        },
        "commit" => Request::Commit(
            WalRecord::decode(&r.bytes()?)
                .map_err(|e| ServerError::Protocol(format!("commit record: {e}")))?,
        ),
        "ping" => Request::Ping,
        other => return Err(r.bad("request", other).into()),
    };
    r.finish()?;
    Ok(req)
}

/// Serialises a reply into a frame payload. [`ServerError::Transport`]
/// is client-local; encoding it degrades to `err proto`.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    match reply {
        Reply::Result(text) => w.raw("ok").text(text),
        Reply::Lsn(lsn) => w.raw("lsn").raw(lsn),
        Reply::Err(e) => match e {
            ServerError::Busy { active, queued } => {
                w.raw("err").raw("busy").raw(active).raw(queued)
            }
            ServerError::TooStale {
                required,
                applied,
                member,
            } => {
                w.raw("err").raw("stale").raw(required).raw(applied);
                // The member token is optional for wire compatibility
                // with pre-fleet servers: omitted when unknown.
                match member {
                    Some(m) => w.text(m),
                    None => &mut w,
                }
            }
            ServerError::Unreplicated { lsn, acked } => {
                w.raw("err").raw("unreplicated").raw(lsn).raw(acked)
            }
            ServerError::Query(m) => w.raw("err").raw("query").text(m),
            ServerError::Commit(m) => w.raw("err").raw("commit").text(m),
            ServerError::Protocol(m) => w.raw("err").raw("proto").text(m),
            ServerError::Transport(e) => w.raw("err").raw("proto").text(&e.to_string()),
            ServerError::Shutdown => w.raw("err").raw("shutdown"),
        },
    };
    w.finish()
}

/// Parses a frame payload into a reply.
///
/// # Errors
///
/// [`ServerError::Protocol`] when the payload violates the grammar.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ServerError> {
    let mut r = TokenReader::from_bytes(payload)?;
    let reply = match r.token()? {
        "ok" => Reply::Result(r.text()?),
        "lsn" => Reply::Lsn(r.parse("lsn")?),
        "err" => Reply::Err(match r.token()? {
            "busy" => ServerError::Busy {
                active: r.parse("session count")?,
                queued: r.parse("session count")?,
            },
            "stale" => ServerError::TooStale {
                required: r.parse("lsn")?,
                applied: r.parse("lsn")?,
                member: r.peek().is_some().then(|| r.text()).transpose()?,
            },
            "unreplicated" => ServerError::Unreplicated {
                lsn: r.parse("lsn")?,
                acked: r.parse("member count")?,
            },
            "query" => ServerError::Query(r.text()?),
            "commit" => ServerError::Commit(r.text()?),
            "proto" => ServerError::Protocol(r.text()?),
            "shutdown" => ServerError::Shutdown,
            other => return Err(r.bad("error kind", other).into()),
        }),
        other => return Err(r.bad("reply", other).into()),
    };
    r.finish()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvolap_durable::FactRow;
    use mvolap_temporal::Instant;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query("SELECT sum(Amount) BY year IN MODE tcm".to_string()),
            Request::Read {
                min_lsn: 42,
                text: "SELECT sum(Amount) BY year IN ALL MODES".to_string(),
            },
            Request::Commit(WalRecord::FactBatch {
                rows: vec![FactRow {
                    coords: vec![mvolap_core::MemberVersionId(3)],
                    at: Instant::ym(2003, 7),
                    values: vec![12.5],
                }],
            }),
            Request::Ping,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn a_transport_error_displays_its_cause_once() {
        let e = ServerError::from(ReplicaError::Transport(
            mvolap_replica::TransportError::Down,
        ));
        assert_eq!(e.to_string(), "transport: link down");
        let e = ServerError::from(ReplicaError::NotPrimary);
        assert_eq!(e.to_string(), "no live primary");
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Result("a table\nwith lines\t& bytes".to_string()),
            Reply::Result(String::new()),
            Reply::Lsn(7),
            Reply::Err(ServerError::Busy {
                active: 4,
                queued: 2,
            }),
            Reply::Err(ServerError::TooStale {
                required: 9,
                applied: 3,
                member: None,
            }),
            Reply::Err(ServerError::TooStale {
                required: 9,
                applied: 3,
                member: Some("m2".to_string()),
            }),
            Reply::Err(ServerError::Unreplicated { lsn: 14, acked: 1 }),
            Reply::Err(ServerError::Query("no such level".to_string())),
            Reply::Err(ServerError::Commit("store poisoned".to_string())),
            Reply::Err(ServerError::Protocol("bad frame".to_string())),
            Reply::Err(ServerError::Shutdown),
        ];
        for reply in replies {
            let bytes = encode_reply(&reply);
            assert_eq!(decode_reply(&bytes).unwrap(), reply);
        }
    }

    #[test]
    fn stale_member_token_is_backward_compatible() {
        // The three-token form emitted by pre-fleet servers decodes
        // with the member unknown.
        assert_eq!(
            decode_reply(b"err stale 9 3").unwrap(),
            Reply::Err(ServerError::TooStale {
                required: 9,
                applied: 3,
                member: None,
            })
        );
    }

    #[test]
    fn garbage_is_a_typed_protocol_error() {
        assert!(matches!(
            decode_request(b"drop tables"),
            Err(ServerError::Protocol(_))
        ));
        assert!(matches!(
            decode_request(&[0xFF, 0xFE]),
            Err(ServerError::Protocol(_))
        ));
        assert!(matches!(decode_reply(b"ok"), Err(ServerError::Protocol(_))));
    }
}
