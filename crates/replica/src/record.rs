//! Wire grammar of the replication protocol.
//!
//! Messages are space-separated ASCII tokens over
//! [`mvolap_core::token`], like the WAL record grammar in
//! `mvolap-durable`: human-readable, canonical (decode ∘ encode is the
//! identity on valid input) and self-describing. Names and binary
//! payloads (WAL frame bodies, checkpoint snapshots) travel as one
//! token each under [`Escapes::Binary`].

use crate::error::ReplicaError;
use mvolap_core::token::{Escapes, TokenReader, TokenWriter};
use mvolap_durable::TailFrame;

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
    /// Every variant's [`ReplicaMsg::kind`] — the leading token of its
    /// encoding. None is a session-protocol verb, so one listener can
    /// tell the two grammars apart by the first token alone.
    pub const KINDS: [&'static str; 13] = [
        "hello",
        "heartbeat",
        "frames",
        "snapshot",
        "snap",
        "reconfig",
        "ack",
        "promote",
        "fence",
        "diverged",
        "qack",
        "votereq",
        "vote",
    ];

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
        let mut e = TokenWriter::new(Escapes::Binary);
        e.raw(self.kind());
        match self {
            ReplicaMsg::Hello {
                node,
                epoch,
                next_lsn,
                last_crc,
            } => e.text(node).raw(epoch).raw(next_lsn).raw(last_crc),
            ReplicaMsg::Heartbeat { epoch, next_lsn } => e.raw(epoch).raw(next_lsn),
            ReplicaMsg::Frames { epoch, frames } => e.raw(epoch).list(frames, |e, f| {
                e.raw(f.lsn).raw(f.crc).bytes(&f.payload);
            }),
            ReplicaMsg::Snapshot {
                epoch,
                next_lsn,
                snapshot,
            } => e.raw(epoch).raw(next_lsn).bytes(snapshot),
            ReplicaMsg::SnapChunk {
                epoch,
                next_lsn,
                seq,
                total,
                total_bytes,
                chunk,
            } => {
                e.raw(epoch).raw(next_lsn).raw(seq).raw(total);
                e.raw(total_bytes).bytes(chunk)
            }
            ReplicaMsg::Reconfig {
                epoch,
                add,
                member,
                addr,
            } => {
                e.raw(epoch).raw(if *add { "add" } else { "remove" });
                e.text(member).text(addr)
            }
            ReplicaMsg::Ack {
                node,
                epoch,
                next_lsn,
            } => e.text(node).raw(epoch).raw(next_lsn),
            ReplicaMsg::Promote { node, epoch } => e.text(node).raw(epoch),
            ReplicaMsg::Fence { epoch } => e.raw(epoch),
            ReplicaMsg::Diverged {
                epoch,
                lsn,
                expected_crc,
                got_crc,
            } => e.raw(epoch).raw(lsn).raw(expected_crc).raw(got_crc),
            ReplicaMsg::QuorumAck {
                node,
                epoch,
                applied_lsn,
                synced_lsn,
            } => e.text(node).raw(epoch).raw(applied_lsn).raw(synced_lsn),
            ReplicaMsg::VoteRequest {
                candidate,
                epoch,
                synced_lsn,
            } => e.text(candidate).raw(epoch).raw(synced_lsn),
            ReplicaMsg::VoteGrant {
                node,
                epoch,
                candidate,
                synced_lsn,
            } => e.text(node).raw(epoch).text(candidate).raw(synced_lsn),
        };
        e.finish()
    }

    /// Decode a wire message; rejects trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<ReplicaMsg, ReplicaError> {
        let mut d = TokenReader::from_bytes(bytes)?;
        let msg = match d.token()? {
            "hello" => ReplicaMsg::Hello {
                node: d.text()?,
                epoch: d.parse("epoch")?,
                next_lsn: d.parse("lsn")?,
                last_crc: d.parse("crc")?,
            },
            "heartbeat" => ReplicaMsg::Heartbeat {
                epoch: d.parse("epoch")?,
                next_lsn: d.parse("lsn")?,
            },
            "frames" => ReplicaMsg::Frames {
                epoch: d.parse("epoch")?,
                frames: d.list(|d| {
                    Ok(TailFrame {
                        lsn: d.parse("lsn")?,
                        crc: d.parse("crc")?,
                        payload: d.bytes()?,
                    })
                })?,
            },
            "snapshot" => ReplicaMsg::Snapshot {
                epoch: d.parse("epoch")?,
                next_lsn: d.parse("lsn")?,
                snapshot: d.bytes()?,
            },
            "snap" => {
                let epoch = d.parse("epoch")?;
                let next_lsn = d.parse("lsn")?;
                let seq: u64 = d.parse("chunk index")?;
                let total: u64 = d.parse("chunk total")?;
                let total_bytes: u64 = d.parse("byte total")?;
                let chunk = d.bytes()?;
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
            "reconfig" => ReplicaMsg::Reconfig {
                epoch: d.parse("epoch")?,
                add: match d.token()? {
                    "add" => true,
                    "remove" => false,
                    t => return Err(d.bad("reconfig direction", t).into()),
                },
                member: d.text()?,
                addr: d.text()?,
            },
            "ack" => ReplicaMsg::Ack {
                node: d.text()?,
                epoch: d.parse("epoch")?,
                next_lsn: d.parse("lsn")?,
            },
            "promote" => ReplicaMsg::Promote {
                node: d.text()?,
                epoch: d.parse("epoch")?,
            },
            "fence" => ReplicaMsg::Fence {
                epoch: d.parse("epoch")?,
            },
            "diverged" => ReplicaMsg::Diverged {
                epoch: d.parse("epoch")?,
                lsn: d.parse("lsn")?,
                expected_crc: d.parse("crc")?,
                got_crc: d.parse("crc")?,
            },
            "qack" => ReplicaMsg::QuorumAck {
                node: d.text()?,
                epoch: d.parse("epoch")?,
                applied_lsn: d.parse("lsn")?,
                synced_lsn: d.parse("lsn")?,
            },
            "votereq" => ReplicaMsg::VoteRequest {
                candidate: d.text()?,
                epoch: d.parse("epoch")?,
                synced_lsn: d.parse("lsn")?,
            },
            "vote" => ReplicaMsg::VoteGrant {
                node: d.text()?,
                epoch: d.parse("epoch")?,
                candidate: d.text()?,
                synced_lsn: d.parse("lsn")?,
            },
            other => return Err(d.bad("message kind", other).into()),
        };
        d.finish()?;
        Ok(msg)
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
