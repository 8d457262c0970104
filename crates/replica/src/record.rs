//! Wire grammar of the replication protocol.
//!
//! Messages are space-separated ASCII tokens, mirroring the WAL record
//! grammar in `mvolap-durable`: human-readable, canonical (decode ∘
//! encode is the identity on valid input) and self-describing. Binary
//! payloads (WAL frame bodies, checkpoint snapshots) travel as one
//! token under a byte-level escape: printable ASCII stays literal,
//! space becomes `\s`, backslash `\\`, tab `\t`, newline `\n`, any
//! other byte `\xHH`, and the empty payload is `\0`.

use crate::error::ReplicaError;
use mvolap_durable::TailFrame;

/// Upper bound on list counts, guarding against corrupt headers
/// allocating unbounded memory.
const MAX_COUNT: u64 = 1 << 20;

/// A replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaMsg {
    /// Follower → primary: announce position. `next_lsn` is the LSN the
    /// follower wants next; `last_crc` is the frame CRC it recorded at
    /// `next_lsn - 1` (0 when it has no log yet). The primary checks
    /// `last_crc` against its own log before serving — the divergence
    /// gate.
    Hello {
        /// Follower node name.
        node: String,
        /// Epoch the follower believes is current.
        epoch: u64,
        /// First LSN the follower is missing.
        next_lsn: u64,
        /// CRC of the follower's frame at `next_lsn - 1`; 0 if none.
        last_crc: u32,
    },
    /// Primary → follower: liveness beacon carrying the log head.
    Heartbeat {
        /// Current primary epoch.
        epoch: u64,
        /// Primary's next LSN (log head).
        next_lsn: u64,
    },
    /// Primary → follower: a batch of contiguous WAL frames.
    Frames {
        /// Current primary epoch.
        epoch: u64,
        /// Contiguous frames, ascending LSN.
        frames: Vec<TailFrame>,
    },
    /// Primary → follower: full-state bootstrap when the requested LSNs
    /// are pruned. The snapshot is a `core::persist` image covering
    /// everything below `next_lsn`.
    Snapshot {
        /// Current primary epoch.
        epoch: u64,
        /// LSN the follower should resume tailing from.
        next_lsn: u64,
        /// Serialised schema snapshot.
        snapshot: Vec<u8>,
    },
    /// Primary → follower: one chunk of a checkpoint snapshot, shipped
    /// through the pump's batch envelope so a large image never
    /// monopolises the in-flight window. Chunks are sequential
    /// (`seq` in `0..total`); the follower reassembles, verifies the
    /// byte count and installs once all `total` chunks arrived.
    /// Resumable: a reconnecting pump asks the follower which chunk it
    /// got up to and resumes there.
    SnapChunk {
        /// Current primary epoch.
        epoch: u64,
        /// LSN the follower resumes tailing from once installed.
        next_lsn: u64,
        /// This chunk's index, `0..total`.
        seq: u64,
        /// Total number of chunks in the image.
        total: u64,
        /// Total byte length of the reassembled image.
        total_bytes: u64,
        /// The chunk's bytes.
        chunk: Vec<u8>,
    },
    /// Primary → member: a quorum-committed membership change notice.
    /// Carries the same fields as the journaled `Reconfig` WAL record;
    /// members learn group changes from it without replaying the log.
    Reconfig {
        /// Epoch the reconfiguration was issued under.
        epoch: u64,
        /// `true` = `member` joins, `false` = it leaves.
        add: bool,
        /// The member id joining or leaving.
        member: String,
        /// The member's read-server address (empty for removals).
        addr: String,
    },
    /// Follower → primary: durable up to (excluding) `next_lsn`.
    Ack {
        /// Follower node name.
        node: String,
        /// Epoch the follower is at.
        epoch: u64,
        /// Follower's next LSN after journaling.
        next_lsn: u64,
    },
    /// Supervisor → follower: become primary at `epoch`.
    Promote {
        /// Node being promoted.
        node: String,
        /// The new, strictly larger epoch.
        epoch: u64,
    },
    /// Supervisor → old primary: stop accepting writes; `epoch` is the
    /// new primary's epoch.
    Fence {
        /// Epoch of the new primary.
        epoch: u64,
    },
    /// Primary → follower: your position contradicts my log; refuse.
    Diverged {
        /// Current primary epoch.
        epoch: u64,
        /// LSN at which the histories fork.
        lsn: u64,
        /// Frame CRC the primary holds at `lsn`.
        expected_crc: u32,
        /// Frame CRC the follower reported at `lsn`.
        got_crc: u32,
    },
    /// Member → primary: quorum ack carrying both replication
    /// positions. `applied_lsn` feeds fleet read routing (how fresh
    /// the member's schema is); `synced_lsn` is the member's quorum
    /// credential (everything below it is fsynced on the member) and
    /// advances the primary's quorum watermark.
    QuorumAck {
        /// Member node name.
        node: String,
        /// Epoch the member is at.
        epoch: u64,
        /// First LSN not yet applied to the member's schema.
        applied_lsn: u64,
        /// First LSN not yet durably synced on the member.
        synced_lsn: u64,
    },
    /// Candidate (via the supervisor) → member: request a vote for
    /// `candidate` in the new `epoch`. `synced_lsn` is the candidate's
    /// durably-synced position — its election credential.
    VoteRequest {
        /// Node standing for election.
        candidate: String,
        /// The proposed new epoch, strictly above the voter's.
        epoch: u64,
        /// The candidate's durably-synced position.
        synced_lsn: u64,
    },
    /// Member → candidate: one vote for `candidate` in `epoch`,
    /// carrying the voter's own synced position so the winner can
    /// report the electorate's commit floor.
    VoteGrant {
        /// The voting member's name.
        node: String,
        /// Epoch the vote is valid for.
        epoch: u64,
        /// Candidate the vote is for.
        candidate: String,
        /// The voter's durably-synced position.
        synced_lsn: u64,
    },
}

impl ReplicaMsg {
    /// Short tag naming the variant, for logs and errors.
    pub fn kind(&self) -> &'static str {
        match self {
            ReplicaMsg::Hello { .. } => "hello",
            ReplicaMsg::Heartbeat { .. } => "heartbeat",
            ReplicaMsg::Frames { .. } => "frames",
            ReplicaMsg::Snapshot { .. } => "snapshot",
            ReplicaMsg::SnapChunk { .. } => "snap",
            ReplicaMsg::Reconfig { .. } => "reconfig",
            ReplicaMsg::Ack { .. } => "ack",
            ReplicaMsg::Promote { .. } => "promote",
            ReplicaMsg::Fence { .. } => "fence",
            ReplicaMsg::Diverged { .. } => "diverged",
            ReplicaMsg::QuorumAck { .. } => "qack",
            ReplicaMsg::VoteRequest { .. } => "votereq",
            ReplicaMsg::VoteGrant { .. } => "vote",
        }
    }

    /// Canonical wire encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            ReplicaMsg::Hello {
                node,
                epoch,
                next_lsn,
                last_crc,
            } => {
                e.tok("hello");
                e.bytes(node.as_bytes());
                e.u64(*epoch);
                e.u64(*next_lsn);
                e.u64(u64::from(*last_crc));
            }
            ReplicaMsg::Heartbeat { epoch, next_lsn } => {
                e.tok("heartbeat");
                e.u64(*epoch);
                e.u64(*next_lsn);
            }
            ReplicaMsg::Frames { epoch, frames } => {
                e.tok("frames");
                e.u64(*epoch);
                e.u64(frames.len() as u64);
                for f in frames {
                    e.u64(f.lsn);
                    e.u64(u64::from(f.crc));
                    e.bytes(&f.payload);
                }
            }
            ReplicaMsg::Snapshot {
                epoch,
                next_lsn,
                snapshot,
            } => {
                e.tok("snapshot");
                e.u64(*epoch);
                e.u64(*next_lsn);
                e.bytes(snapshot);
            }
            ReplicaMsg::SnapChunk {
                epoch,
                next_lsn,
                seq,
                total,
                total_bytes,
                chunk,
            } => {
                e.tok("snap");
                e.u64(*epoch);
                e.u64(*next_lsn);
                e.u64(*seq);
                e.u64(*total);
                e.u64(*total_bytes);
                e.bytes(chunk);
            }
            ReplicaMsg::Reconfig {
                epoch,
                add,
                member,
                addr,
            } => {
                e.tok("reconfig");
                e.u64(*epoch);
                e.tok(if *add { "add" } else { "remove" });
                e.bytes(member.as_bytes());
                e.bytes(addr.as_bytes());
            }
            ReplicaMsg::Ack {
                node,
                epoch,
                next_lsn,
            } => {
                e.tok("ack");
                e.bytes(node.as_bytes());
                e.u64(*epoch);
                e.u64(*next_lsn);
            }
            ReplicaMsg::Promote { node, epoch } => {
                e.tok("promote");
                e.bytes(node.as_bytes());
                e.u64(*epoch);
            }
            ReplicaMsg::Fence { epoch } => {
                e.tok("fence");
                e.u64(*epoch);
            }
            ReplicaMsg::Diverged {
                epoch,
                lsn,
                expected_crc,
                got_crc,
            } => {
                e.tok("diverged");
                e.u64(*epoch);
                e.u64(*lsn);
                e.u64(u64::from(*expected_crc));
                e.u64(u64::from(*got_crc));
            }
            ReplicaMsg::QuorumAck {
                node,
                epoch,
                applied_lsn,
                synced_lsn,
            } => {
                e.tok("qack");
                e.bytes(node.as_bytes());
                e.u64(*epoch);
                e.u64(*applied_lsn);
                e.u64(*synced_lsn);
            }
            ReplicaMsg::VoteRequest {
                candidate,
                epoch,
                synced_lsn,
            } => {
                e.tok("votereq");
                e.bytes(candidate.as_bytes());
                e.u64(*epoch);
                e.u64(*synced_lsn);
            }
            ReplicaMsg::VoteGrant {
                node,
                epoch,
                candidate,
                synced_lsn,
            } => {
                e.tok("vote");
                e.bytes(node.as_bytes());
                e.u64(*epoch);
                e.bytes(candidate.as_bytes());
                e.u64(*synced_lsn);
            }
        }
        e.out.into_bytes()
    }

    /// Decode a wire message; rejects trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<ReplicaMsg, ReplicaError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ReplicaError::protocol("message is not UTF-8"))?;
        let mut d = Dec::new(text);
        let kind = d.tok("message kind")?.to_string();
        let msg = match kind.as_str() {
            "hello" => ReplicaMsg::Hello {
                node: d.name("hello node")?,
                epoch: d.u64("hello epoch")?,
                next_lsn: d.u64("hello next_lsn")?,
                last_crc: d.u32("hello last_crc")?,
            },
            "heartbeat" => ReplicaMsg::Heartbeat {
                epoch: d.u64("heartbeat epoch")?,
                next_lsn: d.u64("heartbeat next_lsn")?,
            },
            "frames" => {
                let epoch = d.u64("frames epoch")?;
                let n = d.count("frames count")?;
                let mut frames = Vec::with_capacity(n);
                for i in 0..n {
                    let lsn = d.u64(&format!("frame {i} lsn"))?;
                    let crc = d.u32(&format!("frame {i} crc"))?;
                    let payload = d.bytes(&format!("frame {i} payload"))?;
                    frames.push(TailFrame { lsn, crc, payload });
                }
                ReplicaMsg::Frames { epoch, frames }
            }
            "snapshot" => ReplicaMsg::Snapshot {
                epoch: d.u64("snapshot epoch")?,
                next_lsn: d.u64("snapshot next_lsn")?,
                snapshot: d.bytes("snapshot body")?,
            },
            "snap" => {
                let epoch = d.u64("snap epoch")?;
                let next_lsn = d.u64("snap next_lsn")?;
                let seq = d.u64("snap seq")?;
                let total = d.u64("snap total")?;
                let total_bytes = d.u64("snap total_bytes")?;
                let chunk = d.bytes("snap chunk")?;
                // Structural sanity only; the follower enforces the
                // assembly rules (ordering, byte-count honesty).
                if total == 0 || seq >= total {
                    return Err(ReplicaError::Protocol(format!(
                        "snap chunk {seq} outside total {total}"
                    )));
                }
                if chunk.len() as u64 > total_bytes {
                    return Err(ReplicaError::Protocol(format!(
                        "snap chunk of {} bytes exceeds declared image of {total_bytes}",
                        chunk.len()
                    )));
                }
                ReplicaMsg::SnapChunk {
                    epoch,
                    next_lsn,
                    seq,
                    total,
                    total_bytes,
                    chunk,
                }
            }
            "reconfig" => {
                let epoch = d.u64("reconfig epoch")?;
                let add = match d.tok("reconfig direction")? {
                    "add" => true,
                    "remove" => false,
                    t => {
                        return Err(ReplicaError::Protocol(format!(
                            "reconfig direction: expected add|remove, got `{t}`"
                        )))
                    }
                };
                ReplicaMsg::Reconfig {
                    epoch,
                    add,
                    member: d.name("reconfig member")?,
                    addr: d.name("reconfig addr")?,
                }
            }
            "ack" => ReplicaMsg::Ack {
                node: d.name("ack node")?,
                epoch: d.u64("ack epoch")?,
                next_lsn: d.u64("ack next_lsn")?,
            },
            "promote" => ReplicaMsg::Promote {
                node: d.name("promote node")?,
                epoch: d.u64("promote epoch")?,
            },
            "fence" => ReplicaMsg::Fence {
                epoch: d.u64("fence epoch")?,
            },
            "diverged" => ReplicaMsg::Diverged {
                epoch: d.u64("diverged epoch")?,
                lsn: d.u64("diverged lsn")?,
                expected_crc: d.u32("diverged expected_crc")?,
                got_crc: d.u32("diverged got_crc")?,
            },
            "qack" => ReplicaMsg::QuorumAck {
                node: d.name("qack node")?,
                epoch: d.u64("qack epoch")?,
                applied_lsn: d.u64("qack applied_lsn")?,
                synced_lsn: d.u64("qack synced_lsn")?,
            },
            "votereq" => ReplicaMsg::VoteRequest {
                candidate: d.name("votereq candidate")?,
                epoch: d.u64("votereq epoch")?,
                synced_lsn: d.u64("votereq synced_lsn")?,
            },
            "vote" => ReplicaMsg::VoteGrant {
                node: d.name("vote node")?,
                epoch: d.u64("vote epoch")?,
                candidate: d.name("vote candidate")?,
                synced_lsn: d.u64("vote synced_lsn")?,
            },
            other => {
                return Err(ReplicaError::Protocol(format!(
                    "unknown message kind `{other}`"
                )))
            }
        };
        d.finish()?;
        Ok(msg)
    }
}

/// Escape arbitrary bytes into a single space-free ASCII token — the
/// wire grammar's token encoding, shared by the replication protocol
/// and the session server's request grammar.
pub fn esc_bytes(b: &[u8]) -> String {
    if b.is_empty() {
        return "\\0".to_string();
    }
    let mut out = String::with_capacity(b.len() + 8);
    for &c in b {
        match c {
            b'\\' => out.push_str("\\\\"),
            b' ' => out.push_str("\\s"),
            b'\t' => out.push_str("\\t"),
            b'\n' => out.push_str("\\n"),
            0x21..=0x7e => out.push(c as char),
            other => {
                out.push_str(&format!("\\x{other:02x}"));
            }
        }
    }
    out
}

/// Inverse of [`esc_bytes`]; `what` names the token in error messages.
///
/// # Errors
///
/// [`ReplicaError::Protocol`] on a malformed escape sequence.
pub fn unesc_bytes(tok: &str, what: &str) -> Result<Vec<u8>, ReplicaError> {
    if tok == "\\0" {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(tok.len());
    let mut chars = tok.bytes();
    while let Some(c) = chars.next() {
        if c != b'\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some(b'\\') => out.push(b'\\'),
            Some(b's') => out.push(b' '),
            Some(b't') => out.push(b'\t'),
            Some(b'n') => out.push(b'\n'),
            Some(b'x') => {
                let hi = chars.next();
                let lo = chars.next();
                let (Some(hi), Some(lo)) = (hi, lo) else {
                    return Err(ReplicaError::Protocol(format!(
                        "{what}: truncated \\x escape"
                    )));
                };
                let hex = |d: u8| -> Option<u8> {
                    match d {
                        b'0'..=b'9' => Some(d - b'0'),
                        b'a'..=b'f' => Some(d - b'a' + 10),
                        _ => None,
                    }
                };
                let (Some(hi), Some(lo)) = (hex(hi), hex(lo)) else {
                    return Err(ReplicaError::Protocol(format!(
                        "{what}: bad \\x escape digits"
                    )));
                };
                out.push(hi << 4 | lo);
            }
            other => {
                return Err(ReplicaError::Protocol(format!(
                    "{what}: bad escape {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

struct Enc {
    out: String,
}

impl Enc {
    fn new() -> Enc {
        Enc { out: String::new() }
    }

    fn sep(&mut self) {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
    }

    fn tok(&mut self, t: &str) {
        self.sep();
        self.out.push_str(t);
    }

    fn u64(&mut self, v: u64) {
        self.sep();
        self.out.push_str(&v.to_string());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.sep();
        self.out.push_str(&esc_bytes(b));
    }
}

struct Dec<'a> {
    toks: std::str::Split<'a, char>,
}

impl<'a> Dec<'a> {
    fn new(text: &'a str) -> Dec<'a> {
        Dec {
            toks: text.split(' '),
        }
    }

    fn tok(&mut self, what: &str) -> Result<&'a str, ReplicaError> {
        self.toks
            .next()
            .ok_or_else(|| ReplicaError::Protocol(format!("{what}: message truncated")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ReplicaError> {
        let t = self.tok(what)?;
        t.parse::<u64>()
            .map_err(|_| ReplicaError::Protocol(format!("{what}: bad integer `{t}`")))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ReplicaError> {
        let v = self.u64(what)?;
        u32::try_from(v)
            .map_err(|_| ReplicaError::Protocol(format!("{what}: value {v} exceeds u32")))
    }

    fn count(&mut self, what: &str) -> Result<usize, ReplicaError> {
        let v = self.u64(what)?;
        if v > MAX_COUNT {
            return Err(ReplicaError::Protocol(format!(
                "{what}: count {v} exceeds cap {MAX_COUNT}"
            )));
        }
        Ok(v as usize)
    }

    fn bytes(&mut self, what: &str) -> Result<Vec<u8>, ReplicaError> {
        let t = self.tok(what)?;
        unesc_bytes(t, what)
    }

    fn name(&mut self, what: &str) -> Result<String, ReplicaError> {
        let b = self.bytes(what)?;
        String::from_utf8(b)
            .map_err(|_| ReplicaError::Protocol(format!("{what}: node name is not UTF-8")))
    }

    fn finish(&mut self) -> Result<(), ReplicaError> {
        match self.toks.next() {
            None => Ok(()),
            Some(extra) => Err(ReplicaError::Protocol(format!(
                "trailing token `{extra}` after message"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &ReplicaMsg) {
        let wire = msg.encode();
        let back = ReplicaMsg::decode(&wire).expect("decode");
        assert_eq!(&back, msg);
        // Canonical: re-encoding the decoded message is byte-identical.
        assert_eq!(back.encode(), wire);
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(&ReplicaMsg::Hello {
            node: "f1".into(),
            epoch: 3,
            next_lsn: 42,
            last_crc: 0xDEAD_BEEF,
        });
        roundtrip(&ReplicaMsg::Heartbeat {
            epoch: 7,
            next_lsn: 1,
        });
        roundtrip(&ReplicaMsg::Ack {
            node: "follower-two".into(),
            epoch: 0,
            next_lsn: u64::MAX,
        });
        roundtrip(&ReplicaMsg::Promote {
            node: "f2".into(),
            epoch: 9,
        });
        roundtrip(&ReplicaMsg::Fence { epoch: 10 });
        roundtrip(&ReplicaMsg::Diverged {
            epoch: 2,
            lsn: 17,
            expected_crc: 1,
            got_crc: u32::MAX,
        });
        roundtrip(&ReplicaMsg::QuorumAck {
            node: "member-a".into(),
            epoch: 5,
            applied_lsn: 40,
            synced_lsn: 42,
        });
        roundtrip(&ReplicaMsg::VoteRequest {
            candidate: "member-b".into(),
            epoch: 6,
            synced_lsn: u64::MAX,
        });
        roundtrip(&ReplicaMsg::VoteGrant {
            node: "member-a".into(),
            epoch: 6,
            candidate: "member-b".into(),
            synced_lsn: 41,
        });
        roundtrip(&ReplicaMsg::Reconfig {
            epoch: 8,
            add: true,
            member: "m3".into(),
            addr: "127.0.0.1:9001".into(),
        });
        roundtrip(&ReplicaMsg::Reconfig {
            epoch: u64::MAX,
            add: false,
            member: "member with space".into(),
            addr: String::new(),
        });
    }

    #[test]
    fn snap_chunks_roundtrip_binary_body() {
        let body: Vec<u8> = (0..=255u8).collect();
        roundtrip(&ReplicaMsg::SnapChunk {
            epoch: 4,
            next_lsn: 99,
            seq: 2,
            total: 7,
            total_bytes: 1 << 20,
            chunk: body,
        });
        // Empty chunk (a zero-byte image ships as one empty chunk).
        roundtrip(&ReplicaMsg::SnapChunk {
            epoch: 1,
            next_lsn: 5,
            seq: 0,
            total: 1,
            total_bytes: 0,
            chunk: vec![],
        });
    }

    #[test]
    fn frames_roundtrip_with_awkward_payloads() {
        roundtrip(&ReplicaMsg::Frames {
            epoch: 1,
            frames: vec![
                TailFrame {
                    lsn: 2,
                    crc: 123,
                    payload: b"create Org D\\ept\\s1 member".to_vec(),
                },
                TailFrame {
                    lsn: 3,
                    crc: 456,
                    payload: vec![],
                },
                TailFrame {
                    lsn: 4,
                    crc: 789,
                    payload: vec![0x00, 0xff, b' ', b'\\', b'\t', b'\n', 0x7f],
                },
            ],
        });
    }

    /// Member names full of wire metacharacters (spaces, backslashes,
    /// tabs, newlines, non-ASCII) ride inside frame payloads: the
    /// escaped token encoding must hand back records that decode to
    /// the very operators that were journaled.
    #[test]
    fn frames_roundtrip_awkward_member_names() {
        use mvolap_durable::WalRecord;
        let records: Vec<WalRecord> = [
            "Dept with spaces",
            "back\\slash\\dept",
            "tab\tand\nnewline",
            "unicode—départ№7",
            " leading and trailing ",
        ]
        .into_iter()
        .map(|name| WalRecord::Create {
            dim: mvolap_core::DimensionId(0),
            name: name.into(),
            level: Some("Department".into()),
            at: mvolap_temporal::Instant::ym(2004, 1),
            parents: vec![mvolap_core::MemberVersionId(1)],
        })
        .collect();
        let msg = ReplicaMsg::Frames {
            epoch: 0,
            frames: records
                .iter()
                .zip(2u64..)
                .map(|(r, lsn)| TailFrame {
                    lsn,
                    crc: lsn as u32,
                    payload: r.encode(),
                })
                .collect(),
        };
        roundtrip(&msg);
        let ReplicaMsg::Frames { frames, .. } = ReplicaMsg::decode(&msg.encode()).unwrap() else {
            panic!("frames decode to frames");
        };
        let back: Vec<WalRecord> = frames
            .iter()
            .map(|f| WalRecord::decode(&f.payload).unwrap())
            .collect();
        assert_eq!(back, records);
    }

    #[test]
    fn snapshot_roundtrip_binary_body() {
        let body: Vec<u8> = (0..=255u8).collect();
        roundtrip(&ReplicaMsg::Snapshot {
            epoch: 4,
            next_lsn: 99,
            snapshot: body,
        });
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ReplicaMsg::decode(b"").is_err());
        assert!(ReplicaMsg::decode(b"warp 1 2").is_err());
        assert!(ReplicaMsg::decode(b"heartbeat 1").is_err());
        assert!(ReplicaMsg::decode(b"heartbeat 1 2 3").is_err());
        assert!(ReplicaMsg::decode(b"hello f1 1 2 notanint").is_err());
        // last_crc must fit in u32.
        assert!(ReplicaMsg::decode(b"hello f1 1 2 4294967296").is_err());
        // Frame count capped.
        assert!(ReplicaMsg::decode(b"frames 1 99999999").is_err());
        // Bad escapes in payloads.
        assert!(ReplicaMsg::decode(b"snapshot 1 2 \\q").is_err());
        assert!(ReplicaMsg::decode(b"snapshot 1 2 \\x4").is_err());
        assert!(ReplicaMsg::decode(b"snapshot 1 2 \\xzz").is_err());
        // Non-UTF-8 node name.
        assert!(ReplicaMsg::decode(b"ack \\xff 1 2").is_err());
        // Quorum envelope: truncated, overlong and malformed forms.
        assert!(ReplicaMsg::decode(b"qack m 1 2").is_err());
        assert!(ReplicaMsg::decode(b"qack m 1 2 3 4").is_err());
        assert!(ReplicaMsg::decode(b"votereq m 1").is_err());
        assert!(ReplicaMsg::decode(b"votereq m notanint 3").is_err());
        assert!(ReplicaMsg::decode(b"vote m 1 c").is_err());
        assert!(ReplicaMsg::decode(b"vote \\xff 1 c 3").is_err());
        // Snap chunks: truncated, seq outside total, zero total, chunk
        // longer than the declared image, trailing garbage.
        assert!(ReplicaMsg::decode(b"snap 1 2 0 1").is_err());
        assert!(ReplicaMsg::decode(b"snap 1 2 3 3 10 \\0").is_err());
        assert!(ReplicaMsg::decode(b"snap 1 2 0 0 10 \\0").is_err());
        assert!(ReplicaMsg::decode(b"snap 1 2 0 1 2 abc").is_err());
        assert!(ReplicaMsg::decode(b"snap 1 2 0 1 3 abc extra").is_err());
        // Reconfig: bad direction, truncation, trailing garbage.
        assert!(ReplicaMsg::decode(b"reconfig 1 sideways m \\0").is_err());
        assert!(ReplicaMsg::decode(b"reconfig 1 add m").is_err());
        assert!(ReplicaMsg::decode(b"reconfig 1 add m \\0 extra").is_err());
        assert!(ReplicaMsg::decode(b"reconfig notanint add m \\0").is_err());
    }
}
