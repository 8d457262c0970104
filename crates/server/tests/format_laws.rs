//! One driver, every text format: the snapshot image, WAL records,
//! replication messages, the `batch` envelope, session requests and
//! replies, and the membership sidecar all sit on `mvolap_core::token`,
//! so they owe the same three laws on seeded, hostile inputs:
//!
//! 1. `decode(encode(x)) == x`;
//! 2. arbitrary bytes never panic a decoder;
//! 3. a value truncated at any offset is a typed error or a well-formed
//!    shorter value — never a panic, never a hang.
//!
//! Plus the refusal the shared count rule buys: a count the payload
//! cannot hold is refused as such, before any item is read.

use std::fmt::Debug;

use mvolap_core::evolution::{self, MergeSource, SplitPart};
use mvolap_core::persist::{read_tmd, write_tmd};
use mvolap_core::token::{Escapes, TokenWriter};
use mvolap_core::{
    Confidence, DimensionId, MappingFunction, MappingRelationship, MeasureDef, MeasureMapping,
    MemberVersionId, MemberVersionSpec, TemporalDimension, Tmd,
};
use mvolap_durable::{CheckpointPolicy, DurableTmd, FactRow, Io, Options, TailFrame, WalRecord};
use mvolap_prng::{check, Rng};
use mvolap_replica::{decode_batch, encode_batch, ReplicaMsg};
use mvolap_server::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request, ServerError,
};
use mvolap_temporal::{Granularity, Instant, Interval};

// ---------------------------------------------------------- generators

/// Every character class an escape table can get wrong.
const FRAGMENTS: [&str; 20] = [
    "",
    "\\",
    " ",
    "\t",
    "\n",
    "\r",
    "=",
    "\0",
    "\\N",
    "\\0",
    "\\s",
    "\\x41",
    "-",
    "|",
    "@",
    ",",
    "\u{e9}",
    "\u{2116}",
    "Dpt.Jones",
    "a b",
];

fn text(rng: &mut Rng) -> String {
    (0..rng.usize_below(4))
        .map(|_| *rng.choose(&FRAGMENTS).unwrap())
        .collect()
}

/// Arbitrary bytes, biased towards the token grammar's own alphabet.
fn bytes(rng: &mut Rng) -> Vec<u8> {
    const BIASED: &[u8] = b" \\\\\\x0sntre019-.|@=\n\r\t\0\x7f\xc3\xa9\xff";
    (0..rng.usize_below(24))
        .map(|_| {
            if rng.bool() {
                *rng.choose(BIASED).unwrap()
            } else {
                rng.u64_below(256) as u8
            }
        })
        .collect()
}

fn float(rng: &mut Rng) -> f64 {
    const EDGES: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        0.1 + 0.2,
    ];
    if rng.bool() {
        *rng.choose(&EDGES).unwrap()
    } else {
        rng.f64_in(-1e6, 1e6)
    }
}

fn instant(rng: &mut Rng) -> Instant {
    match rng.usize_below(4) {
        0 => Instant::FOREVER,
        1 => Instant::DAWN,
        _ => Instant::at(rng.i64_in(-50, 30_000)),
    }
}

fn mapping(rng: &mut Rng) -> MeasureMapping {
    MeasureMapping {
        func: match rng.usize_below(4) {
            0 => MappingFunction::Identity,
            1 => MappingFunction::Unknown,
            2 => MappingFunction::Scale(float(rng)),
            _ => MappingFunction::Affine {
                a: float(rng),
                b: float(rng),
            },
        },
        confidence: *rng.choose(&Confidence::ALL).unwrap(),
    }
}

fn list<T>(rng: &mut Rng, item: impl Fn(&mut Rng) -> T) -> Vec<T> {
    (0..rng.usize_below(4)).map(|_| item(rng)).collect()
}

fn id(rng: &mut Rng) -> MemberVersionId {
    MemberVersionId(rng.u32_in(0, 40))
}

fn level(rng: &mut Rng) -> Option<String> {
    rng.bool().then(|| text(rng))
}

fn wal_record(rng: &mut Rng) -> WalRecord {
    let dim = DimensionId(rng.u32_in(0, 3));
    match rng.usize_below(13) {
        0 => WalRecord::Bootstrap {
            snapshot: bytes(rng),
        },
        1 => WalRecord::Create {
            dim,
            name: text(rng),
            level: level(rng),
            at: instant(rng),
            parents: list(rng, id),
        },
        2 => WalRecord::Delete {
            dim,
            id: id(rng),
            at: instant(rng),
        },
        3 => WalRecord::Transform {
            dim,
            id: id(rng),
            new_name: text(rng),
            new_attributes: list(rng, |rng| (text(rng), text(rng)))
                .into_iter()
                .collect(),
            at: instant(rng),
        },
        4 => WalRecord::Merge {
            dim,
            sources: list(rng, |rng| MergeSource {
                id: id(rng),
                forward: list(rng, mapping),
                backward: list(rng, mapping),
            }),
            new_name: text(rng),
            level: level(rng),
            at: instant(rng),
            parents: list(rng, id),
        },
        5 => WalRecord::Split {
            dim,
            source: id(rng),
            parts: list(rng, |rng| SplitPart {
                name: text(rng),
                forward: list(rng, mapping),
                backward: list(rng, mapping),
            }),
            at: instant(rng),
            parents: list(rng, id),
        },
        6 => WalRecord::Reclassify {
            dim,
            id: id(rng),
            at: instant(rng),
            old_parents: list(rng, id),
            new_parents: list(rng, id),
        },
        7 => WalRecord::Associate {
            dim,
            rel: MappingRelationship {
                from: id(rng),
                to: id(rng),
                forward: list(rng, mapping),
                backward: list(rng, mapping),
            },
        },
        8 => WalRecord::Confidence {
            dim,
            from: id(rng),
            to: id(rng),
            forward: list(rng, mapping),
            backward: list(rng, mapping),
        },
        9 => WalRecord::Increase {
            dim,
            id: id(rng),
            new_name: text(rng),
            factor: float(rng),
            at: instant(rng),
            parents: list(rng, id),
        },
        10 => WalRecord::Decrease {
            dim,
            id: id(rng),
            new_name: text(rng),
            kept: float(rng),
            at: instant(rng),
            parents: list(rng, id),
        },
        11 => WalRecord::FactBatch {
            rows: list(rng, |rng| FactRow {
                coords: list(rng, id),
                at: instant(rng),
                values: list(rng, float),
            }),
        },
        _ => WalRecord::Reconfig {
            epoch: rng.next_u64(),
            add: rng.bool(),
            member: text(rng),
            addr: text(rng),
        },
    }
}

fn replica_msg(rng: &mut Rng) -> ReplicaMsg {
    let (epoch, lsn) = (rng.next_u64(), rng.next_u64());
    let crc = rng.next_u64() as u32;
    match rng.usize_below(13) {
        0 => ReplicaMsg::Hello {
            node: text(rng),
            epoch,
            next_lsn: lsn,
            last_crc: crc,
        },
        1 => ReplicaMsg::Heartbeat {
            epoch,
            next_lsn: lsn,
        },
        2 => ReplicaMsg::Frames {
            epoch,
            frames: list(rng, |rng| TailFrame {
                lsn: rng.next_u64(),
                crc: rng.next_u64() as u32,
                payload: if rng.bool() {
                    wal_record(rng).encode()
                } else {
                    bytes(rng)
                },
            }),
        },
        3 => ReplicaMsg::Snapshot {
            epoch,
            next_lsn: lsn,
            snapshot: bytes(rng),
        },
        4 => {
            let chunk = bytes(rng);
            let total = rng.u64_below(9) + 1;
            ReplicaMsg::SnapChunk {
                epoch,
                next_lsn: lsn,
                seq: rng.u64_below(total),
                total,
                total_bytes: chunk.len() as u64 + rng.u64_below(100),
                chunk,
            }
        }
        5 => ReplicaMsg::Reconfig {
            epoch,
            add: rng.bool(),
            member: text(rng),
            addr: text(rng),
        },
        6 => ReplicaMsg::Ack {
            node: text(rng),
            epoch,
            next_lsn: lsn,
        },
        7 => ReplicaMsg::Promote {
            node: text(rng),
            epoch,
        },
        8 => ReplicaMsg::Fence { epoch },
        9 => ReplicaMsg::Diverged {
            epoch,
            lsn,
            expected_crc: crc,
            got_crc: !crc,
        },
        10 => ReplicaMsg::QuorumAck {
            node: text(rng),
            epoch,
            applied_lsn: lsn,
            synced_lsn: lsn / 2,
        },
        11 => ReplicaMsg::VoteRequest {
            candidate: text(rng),
            epoch,
            synced_lsn: lsn,
        },
        _ => ReplicaMsg::VoteGrant {
            node: text(rng),
            epoch,
            candidate: text(rng),
            synced_lsn: lsn,
        },
    }
}

fn request(rng: &mut Rng) -> Request {
    match rng.usize_below(4) {
        0 => Request::Query(text(rng)),
        1 => Request::Read {
            min_lsn: rng.next_u64(),
            text: text(rng),
        },
        2 => Request::Commit(wal_record(rng)),
        _ => Request::Ping,
    }
}

fn reply(rng: &mut Rng) -> Reply {
    let (a, b) = (rng.next_u64(), rng.next_u64());
    match rng.usize_below(10) {
        0 => Reply::Result(text(rng)),
        1 => Reply::Lsn(a),
        2 => Reply::Err(ServerError::Busy {
            active: a as usize,
            queued: b as usize,
        }),
        3 => Reply::Err(ServerError::TooStale {
            required: a,
            applied: b,
            member: level(rng),
        }),
        4 => Reply::Err(ServerError::Unreplicated {
            lsn: a,
            acked: b as usize,
        }),
        5 => Reply::Err(ServerError::Query(text(rng))),
        6 => Reply::Err(ServerError::Commit(text(rng))),
        7 => Reply::Err(ServerError::Protocol(text(rng))),
        _ => Reply::Err(ServerError::Shutdown),
    }
}

/// A small valid schema with hostile names everywhere a name can sit.
/// Names carry their index: dimensions and measures must be distinct.
/// The snapshot spells "no level" as `-`, so a level that *is* `-` is
/// the one string the format cannot carry; levels here avoid it.
fn schema(rng: &mut Rng) -> Tmd {
    let gran = *rng
        .choose(&[Granularity::Tick, Granularity::Month, Granularity::Year])
        .unwrap();
    let mut tmd = Tmd::new(text(rng), gran);
    let measures = rng.usize_in(1, 2);
    for m in 0..measures {
        tmd.add_measure(MeasureDef::summed(format!("{m}{}", text(rng))))
            .unwrap();
    }
    let since = Interval::since(Instant::at(10));
    let mut leaves = Vec::new();
    for d in 0..rng.usize_in(1, 2) {
        let dim = tmd
            .add_dimension(TemporalDimension::new(format!("{d}{}", text(rng))))
            .unwrap();
        let mut ids = Vec::new();
        for v in 0..rng.usize_in(2, 4) {
            let mut spec = MemberVersionSpec::named(format!("{v}{}", text(rng)));
            if let Some(level) = level(rng).filter(|l| l != "-") {
                spec = spec.at_level(level);
            }
            for (k, val) in list(rng, |rng| (text(rng), text(rng))) {
                spec = spec.with_attribute(k, val);
            }
            ids.push(tmd.add_version(dim, spec, since).unwrap());
        }
        let maps = |rng: &mut Rng| (0..measures).map(|_| mapping(rng)).collect();
        let rel = MappingRelationship {
            from: ids[0],
            to: ids[1],
            forward: maps(rng),
            backward: maps(rng),
        };
        tmd.add_mapping(dim, rel).unwrap();
        leaves.push(ids);
    }
    for _ in 0..rng.usize_below(4) {
        let coords: Vec<MemberVersionId> =
            leaves.iter().map(|ids| *rng.choose(ids).unwrap()).collect();
        let values: Vec<f64> = (0..measures).map(|_| float(rng)).collect();
        tmd.add_fact(&coords, Instant::at(rng.i64_in(10, 99)), &values)
            .unwrap();
    }
    // An evolution-log entry whose description quotes a hostile name.
    evolution::delete(&mut tmd, DimensionId(0), leaves[0][1], Instant::at(100)).unwrap();
    tmd
}

fn image(tmd: &Tmd) -> Vec<u8> {
    let mut out = Vec::new();
    write_tmd(tmd, &mut out).unwrap();
    out
}

// -------------------------------------------------------------- driver

/// Runs the three laws over one format. Equality is taken on the
/// `Debug` rendering: it tells `-0.0` from `0.0` and lets `NaN` equal
/// itself, which `==` on the decoded values would not.
fn laws<T: Debug>(
    name: &str,
    seed: u64,
    generate: impl Fn(&mut Rng) -> T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, String>,
) {
    let well_formed = |value: &T, why: &str| {
        let wire = encode(value);
        let back = decode(&wire).unwrap_or_else(|e| panic!("{name} {why}: {value:?}: {e}"));
        assert_eq!(format!("{back:?}"), format!("{value:?}"), "{name} {why}");
        assert_eq!(encode(&back), wire, "{name} {why}: not canonical");
        wire
    };
    check(150, seed, |rng| {
        let wire = well_formed(&generate(rng), "round trip");
        for cut in 0..wire.len() {
            if let Ok(shorter) = decode(&wire[..cut]) {
                well_formed(&shorter, "truncated");
            }
        }
        for _ in 0..8 {
            let mut noise = wire.clone();
            if rng.bool() || noise.is_empty() {
                noise = bytes(rng);
            } else {
                let at = rng.usize_below(noise.len());
                noise.splice(at..=at, bytes(rng));
            }
            if let Ok(value) = decode(&noise) {
                well_formed(&value, "from noise");
            }
        }
    });
}

fn typed<T, E: std::fmt::Display>(result: Result<T, E>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

#[test]
fn wal_records_obey_the_laws() {
    laws("wal record", 0xA1, wal_record, WalRecord::encode, |b| {
        typed(WalRecord::decode(b))
    });
}

#[test]
fn replica_messages_obey_the_laws() {
    laws("replica msg", 0xB2, replica_msg, ReplicaMsg::encode, |b| {
        typed(ReplicaMsg::decode(b))
    });
}

#[test]
fn batch_envelopes_obey_the_laws() {
    laws(
        "batch",
        0xC3,
        |rng| list(rng, replica_msg),
        |msgs| encode_batch(msgs),
        |b| typed(decode_batch(b)),
    );
}

#[test]
fn session_requests_and_replies_obey_the_laws() {
    laws("request", 0xD4, request, encode_request, |b| {
        typed(decode_request(b))
    });
    laws("reply", 0xE5, reply, encode_reply, |b| {
        typed(decode_reply(b))
    });
}

/// The snapshot law is on images: `Tmd` renders caches in `Debug`, and
/// an image is what checkpoints and followers actually compare.
#[test]
fn snapshot_images_obey_the_laws() {
    laws(
        "snapshot",
        0xF6,
        |rng| image(&schema(rng)),
        Vec::clone,
        |b| typed(read_tmd(&mut &b[..])).map(|tmd| image(&tmd)),
    );
}

/// The sidecar has no public codec: it is written by a checkpoint and
/// read by a reopen, and a line that does not parse ends the load. One
/// record per WAL segment and a trailing empty batch let the checkpoint
/// prune every `reconfig` frame, so the sidecar alone must bring the
/// log back (a reopen prefers what the WAL still holds).
#[test]
fn membership_sidecar_obeys_the_laws() {
    let dir = std::env::temp_dir().join(format!("mvolap_laws_memb_{}", std::process::id()));
    let opts = Options {
        segment_bytes: 1,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    };
    check(6, 0x17, |rng| {
        std::fs::remove_dir_all(&dir).ok();
        let empty = Tmd::new("t", Granularity::Month);
        let mut store = DurableTmd::create_with(&dir, empty, opts.clone(), Io::plain()).unwrap();
        for epoch in 0..rng.u64_below(4) + 1 {
            // Last on its line, where a line reader would eat the `\r`.
            let record = WalRecord::Reconfig {
                epoch,
                add: rng.bool(),
                member: text(rng),
                addr: text(rng) + "\r",
            };
            store.apply(record).unwrap();
        }
        store.apply(WalRecord::FactBatch { rows: vec![] }).unwrap();
        store.checkpoint().unwrap();
        let log = store.membership_log().to_vec();
        drop(store);
        let reopened = || {
            let store = DurableTmd::open_with(&dir, opts.clone(), Io::plain()).unwrap();
            store.membership_log().to_vec()
        };
        assert_eq!(reopened(), log, "round trip");

        let path = dir.join("membership");
        let sidecar = std::fs::read(&path).unwrap();
        for cut in 0..sidecar.len() {
            std::fs::write(&path, &sidecar[..cut]).unwrap();
            let shorter = reopened();
            // Whole lines survive; a cut line may parse as a shorter entry.
            let whole = shorter.len().saturating_sub(1);
            assert!(shorter.len() <= log.len(), "cut at {cut}");
            assert_eq!(shorter[..whole], log[..whole], "cut at {cut}");
        }
        for _ in 0..8 {
            let mut noise = sidecar.clone();
            let at = rng.usize_below(noise.len());
            noise.splice(at..=at, bytes(rng));
            std::fs::write(&path, &noise).unwrap();
            reopened();
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// `payload` as the one escaped token after `head`.
fn wrap(head: &str, payload: &str) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    w.raw(head).text(payload);
    w.finish()
}

/// A count the payload cannot hold is refused as a count — at parent a
/// 14-byte `facts 16777216` reserved ~830 MB before reporting a
/// truncation. Every decoder a session or a peer can reach says so.
#[test]
fn lying_counts_are_refused_as_counts_in_every_decoder() {
    let is_count = |name: &str, message: String| {
        assert!(
            message.contains("count 16777216") && message.contains("bytes left"),
            "{name}: {message}"
        );
    };
    let records = [
        "facts 16777216",
        "facts 1 5 16777216",
        "facts 1 5 0 16777216",
        "create 0 x 0 5 16777216",
        "transform 0 1 x 5 16777216",
        "merge 0 x 0 5 0 16777216",
        "merge 0 x 0 5 0 1 3 16777216",
        "split 0 4 5 0 16777216",
        "reclassify 0 1 5 16777216",
        "associate 0 1 2 16777216",
        "confidence 0 1 2 0 16777216",
        "increase 0 1 x 2 5 16777216",
    ];
    for payload in records {
        let err = WalRecord::decode(payload.as_bytes()).unwrap_err();
        is_count(payload, err.to_string());
        let commit = wrap("commit", payload);
        is_count(payload, decode_request(&commit).unwrap_err().to_string());
    }
    let frames = "frames 1 16777216";
    let refused = ReplicaMsg::decode(frames.as_bytes()).unwrap_err();
    is_count("frames", refused.to_string());
    let refused = decode_batch(&wrap("batch 1", frames)).unwrap_err();
    is_count("batched frames", refused.to_string());
    let refused = decode_batch(b"batch 16777216").unwrap_err();
    is_count("batch", refused.to_string());
}
