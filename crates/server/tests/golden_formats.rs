//! Golden vectors: the bytes every text format wrote at commit 7b1cc36
//! (the parent of the shared token layer), as literals. An encoder
//! that drifts from them changed a format that stores on disk and
//! peers on the wire still speak; a decoder that refuses them lost the
//! ability to read what is already written. One value of each kind:
//! 13 `WalRecord`s, 13 `ReplicaMsg`s, every `Request`/`Reply` shape, a
//! `batch` envelope, a membership sidecar and two snapshot images —
//! plus the session port's replies to a follower.

use std::collections::BTreeMap;

use mvolap_core::case_study::case_study;
use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::persist::{read_tmd, write_tmd};
use mvolap_core::{
    Confidence, DimensionId, MappingFunction, MappingRelationship, MeasureDef, MeasureMapping,
    MemberVersionId, MemberVersionSpec, TemporalDimension, Tmd,
};
use mvolap_durable::{DurableTmd, FactRow, TailFrame, WalRecord};
use mvolap_replica::{decode_batch, encode_batch, ReplicaError, ReplicaMsg};
use mvolap_server::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request, ServerError,
};
use mvolap_temporal::{Granularity, Instant, Interval};

/// Readable on mismatch: golden bytes are text but for a few payloads.
fn show(bytes: &[u8]) -> String {
    bytes.escape_ascii().to_string()
}

fn ids(raw: &[u32]) -> Vec<MemberVersionId> {
    raw.iter().copied().map(MemberVersionId).collect()
}

fn mm(func: MappingFunction, confidence: Confidence) -> MeasureMapping {
    MeasureMapping { func, confidence }
}

fn wal_records() -> Vec<WalRecord> {
    let dim = DimensionId(0);
    let at = Instant::ym(2003, 1);
    vec![
        WalRecord::Bootstrap {
            snapshot: b"mvolap-tmd v1\nschema t\xff month\n".to_vec(),
        },
        WalRecord::Create {
            dim,
            name: "Dpt. = weird \\name\t\u{e9}".into(),
            level: Some("Department level".into()),
            at,
            parents: ids(&[1, 2]),
        },
        WalRecord::Delete {
            dim: DimensionId(1),
            id: MemberVersionId(7),
            at: Instant::FOREVER,
        },
        WalRecord::Transform {
            dim,
            id: MemberVersionId(3),
            new_name: String::new(),
            new_attributes: BTreeMap::from([
                ("budget".to_owned(), "hi gh".to_owned()),
                (String::new(), "=".to_owned()),
                ("k\n".to_owned(), "v\r".to_owned()),
            ]),
            at: Instant::DAWN,
        },
        WalRecord::Merge {
            dim,
            sources: vec![
                MergeSource {
                    id: MemberVersionId(1),
                    forward: vec![MeasureMapping::EXACT_IDENTITY],
                    backward: vec![MeasureMapping::approx_scale(0.5)],
                },
                MergeSource {
                    id: MemberVersionId(2),
                    forward: vec![MeasureMapping::UNKNOWN],
                    backward: vec![mm(MappingFunction::Scale(f64::NAN), Confidence::Unknown)],
                },
            ],
            new_name: "Merged".into(),
            level: None,
            at,
            parents: ids(&[0]),
        },
        WalRecord::Split {
            dim,
            source: MemberVersionId(4),
            parts: vec![
                SplitPart {
                    name: "A b".into(),
                    forward: vec![MeasureMapping::approx_scale(0.4)],
                    backward: vec![MeasureMapping::EXACT_IDENTITY],
                },
                SplitPart {
                    name: String::new(),
                    forward: vec![mm(
                        MappingFunction::Affine { a: 0.1, b: -2.5 },
                        Confidence::Source,
                    )],
                    backward: vec![mm(
                        MappingFunction::Scale(f64::INFINITY),
                        Confidence::Approx,
                    )],
                },
            ],
            at,
            parents: vec![],
        },
        WalRecord::Reclassify {
            dim,
            id: MemberVersionId(5),
            at,
            old_parents: ids(&[0]),
            new_parents: ids(&[9, 10]),
        },
        WalRecord::Associate {
            dim,
            rel: MappingRelationship {
                from: MemberVersionId(1),
                to: MemberVersionId(2),
                forward: vec![
                    MeasureMapping::approx_scale(1.0 / 3.0),
                    MeasureMapping::UNKNOWN,
                ],
                backward: vec![
                    MeasureMapping::EXACT_IDENTITY,
                    mm(
                        MappingFunction::Affine {
                            a: f64::NEG_INFINITY,
                            b: -0.0,
                        },
                        Confidence::Source,
                    ),
                ],
            },
        },
        WalRecord::Confidence {
            dim,
            from: MemberVersionId(1),
            to: MemberVersionId(2),
            forward: vec![mm(MappingFunction::Scale(0.45), Confidence::Exact)],
            backward: vec![MeasureMapping::EXACT_IDENTITY],
        },
        WalRecord::Increase {
            dim,
            id: MemberVersionId(3),
            new_name: "Bigger".into(),
            factor: 1.25,
            at,
            parents: ids(&[0]),
        },
        WalRecord::Decrease {
            dim,
            id: MemberVersionId(3),
            new_name: "Smaller one".into(),
            kept: 0.75,
            at,
            parents: vec![],
        },
        WalRecord::FactBatch {
            rows: vec![
                FactRow {
                    coords: ids(&[1, 2]),
                    at: Instant::ym(2001, 6),
                    values: vec![100.0, -0.0],
                },
                FactRow {
                    coords: vec![],
                    at: Instant::DAWN,
                    values: vec![0.1 + 0.2, 1e-7, f64::NAN, f64::INFINITY, -f64::INFINITY],
                },
            ],
        },
        WalRecord::Reconfig {
            epoch: u64::MAX,
            add: true,
            member: "m3 with space".into(),
            addr: String::new(),
        },
    ]
}

const WAL_GOLDEN: [&[u8]; 13] = [
    b"bootstrap mvolap-tmd v1\nschema t\xff month\n",
    b"create 0 Dpt.\\s=\\sweird\\s\\\\name\\t\xc3\xa9 1 Department\\slevel 24036 2 1 2",
    b"delete 1 7 now",
    b"transform 0 3 \\0 dawn 3 \\0 = budget hi\\sgh k\\n v\r",
    b"merge 0 Merged 0 24036 1 0 2 1 1 id@em 1 s0.5@am 2 1 u@uk 1 sNaN@uk",
    b"split 0 4 24036 0 2 A\\sb 1 s0.4@am 1 id@em \\0 1 a0.1:-2.5@sd 1 sinf@am",
    b"reclassify 0 5 24036 1 0 2 9 10",
    b"associate 0 1 2 2 s0.3333333333333333@am u@uk 2 id@em a-inf:-0@sd",
    b"confidence 0 1 2 1 s0.45@em 1 id@em",
    b"increase 0 3 Bigger 1.25 24036 1 0",
    b"decrease 0 3 Smaller\\sone 0.75 24036 0",
    b"facts 2 24017 2 1 2 2 100 -0 dawn 0 5 0.30000000000000004 0.0000001 NaN inf -inf",
    b"reconfig 18446744073709551615 add m3\\swith\\sspace \\0",
];

#[test]
fn wal_records_encode_to_the_golden_bytes_and_decode_from_them() {
    let records = wal_records();
    let kinds: Vec<&str> = records.iter().map(WalRecord::kind).collect();
    assert_eq!(
        kinds,
        [
            "bootstrap",
            "create",
            "delete",
            "transform",
            "merge",
            "split",
            "reclassify",
            "associate",
            "confidence",
            "increase",
            "decrease",
            "facts",
            "reconfig"
        ]
    );
    for (record, golden) in records.iter().zip(WAL_GOLDEN) {
        assert_eq!(show(&record.encode()), show(golden), "{}", record.kind());
        // Re-encoding compares NaN payloads too, which `==` would not.
        let back = WalRecord::decode(golden).expect("golden bytes decode");
        assert_eq!(show(&back.encode()), show(golden), "{}", record.kind());
    }
}

fn replica_msgs() -> Vec<ReplicaMsg> {
    let frame = |lsn, payload: Vec<u8>| TailFrame {
        lsn,
        crc: 0xDEAD_BEEF,
        payload,
    };
    vec![
        ReplicaMsg::Hello {
            node: "f 1".into(),
            epoch: 3,
            next_lsn: 42,
            last_crc: u32::MAX,
        },
        ReplicaMsg::Heartbeat {
            epoch: 7,
            next_lsn: 1,
        },
        ReplicaMsg::Frames {
            epoch: 1,
            frames: vec![
                frame(2, wal_records()[1].encode()),
                frame(3, vec![]),
                frame(
                    4,
                    vec![0x00, 0xff, b' ', b'\\', b'\t', b'\n', 0x7f, b'=', b'\r'],
                ),
            ],
        },
        ReplicaMsg::Snapshot {
            epoch: 4,
            next_lsn: 99,
            snapshot: (0..=255u8).collect(),
        },
        ReplicaMsg::SnapChunk {
            epoch: 4,
            next_lsn: 99,
            seq: 2,
            total: 7,
            total_bytes: 1 << 20,
            chunk: b"schema t month\n".to_vec(),
        },
        ReplicaMsg::Reconfig {
            epoch: 8,
            add: false,
            member: "d\u{e9}part \u{2116}7".into(),
            addr: String::new(),
        },
        ReplicaMsg::Ack {
            node: "follower-two".into(),
            epoch: 0,
            next_lsn: u64::MAX,
        },
        ReplicaMsg::Promote {
            node: "f2".into(),
            epoch: 9,
        },
        ReplicaMsg::Fence { epoch: 10 },
        ReplicaMsg::Diverged {
            epoch: 2,
            lsn: 17,
            expected_crc: 1,
            got_crc: u32::MAX,
        },
        ReplicaMsg::QuorumAck {
            node: "member\ta".into(),
            epoch: 5,
            applied_lsn: 40,
            synced_lsn: 42,
        },
        ReplicaMsg::VoteRequest {
            candidate: String::new(),
            epoch: 6,
            synced_lsn: 41,
        },
        ReplicaMsg::VoteGrant {
            node: "member-a".into(),
            epoch: 6,
            candidate: "member\\b".into(),
            synced_lsn: 41,
        },
    ]
}

const REPLICA_GOLDEN: [&[u8]; 13] = [
    b"hello f\\s1 3 42 4294967295",
    b"heartbeat 7 1",
    b"frames 1 3 2 3735928559 create\\s0\\sDpt.\\\\s=\\\\sweird\\\\s\\\\\\\\name\\\\t\\xc3\\xa9\\s1\\sDepartment\\\\slevel\\s24036\\s2\\s1\\s2 3 3735928559 \\0 4 3735928559 \\x00\\xff\\s\\\\\\t\\n\\x7f=\\x0d",
    b"snapshot 4 99 \\x00\\x01\\x02\\x03\\x04\\x05\\x06\\x07\\x08\\t\\n\\x0b\\x0c\\x0d\\x0e\\x0f\\x10\\x11\\x12\\x13\\x14\\x15\\x16\\x17\\x18\\x19\\x1a\\x1b\\x1c\\x1d\\x1e\\x1f\\s!\"#$%&\'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\\x7f\\x80\\x81\\x82\\x83\\x84\\x85\\x86\\x87\\x88\\x89\\x8a\\x8b\\x8c\\x8d\\x8e\\x8f\\x90\\x91\\x92\\x93\\x94\\x95\\x96\\x97\\x98\\x99\\x9a\\x9b\\x9c\\x9d\\x9e\\x9f\\xa0\\xa1\\xa2\\xa3\\xa4\\xa5\\xa6\\xa7\\xa8\\xa9\\xaa\\xab\\xac\\xad\\xae\\xaf\\xb0\\xb1\\xb2\\xb3\\xb4\\xb5\\xb6\\xb7\\xb8\\xb9\\xba\\xbb\\xbc\\xbd\\xbe\\xbf\\xc0\\xc1\\xc2\\xc3\\xc4\\xc5\\xc6\\xc7\\xc8\\xc9\\xca\\xcb\\xcc\\xcd\\xce\\xcf\\xd0\\xd1\\xd2\\xd3\\xd4\\xd5\\xd6\\xd7\\xd8\\xd9\\xda\\xdb\\xdc\\xdd\\xde\\xdf\\xe0\\xe1\\xe2\\xe3\\xe4\\xe5\\xe6\\xe7\\xe8\\xe9\\xea\\xeb\\xec\\xed\\xee\\xef\\xf0\\xf1\\xf2\\xf3\\xf4\\xf5\\xf6\\xf7\\xf8\\xf9\\xfa\\xfb\\xfc\\xfd\\xfe\\xff",
    b"snap 4 99 2 7 1048576 schema\\st\\smonth\\n",
    b"reconfig 8 remove d\\xc3\\xa9part\\s\\xe2\\x84\\x967 \\0",
    b"ack follower-two 0 18446744073709551615",
    b"promote f2 9",
    b"fence 10",
    b"diverged 2 17 1 4294967295",
    b"qack member\\ta 5 40 42",
    b"votereq \\0 6 41",
    b"vote member-a 6 member\\\\b 41",
];

const BATCH_GOLDEN: &[u8] = b"batch 3 heartbeat\\s7\\s1 frames\\s1\\s3\\s2\\s3735928559\\screate\\\\s0\\\\sDpt.\\\\\\\\s=\\\\\\\\sweird\\\\\\\\s\\\\\\\\\\\\\\\\name\\\\\\\\t\\\\xc3\\\\xa9\\\\s1\\\\sDepartment\\\\\\\\slevel\\\\s24036\\\\s2\\\\s1\\\\s2\\s3\\s3735928559\\s\\\\0\\s4\\s3735928559\\s\\\\x00\\\\xff\\\\s\\\\\\\\\\\\t\\\\n\\\\x7f=\\\\x0d fence\\s10";

#[test]
fn replica_messages_and_the_batch_envelope_match_the_golden_bytes() {
    let msgs = replica_msgs();
    let kinds: Vec<&str> = msgs.iter().map(ReplicaMsg::kind).collect();
    assert_eq!(
        kinds,
        [
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
            "vote"
        ]
    );
    for (msg, golden) in msgs.iter().zip(REPLICA_GOLDEN) {
        assert_eq!(show(&msg.encode()), show(golden), "{}", msg.kind());
        assert_eq!(&ReplicaMsg::decode(golden).unwrap(), msg);
    }
    let envelope = [msgs[1].clone(), msgs[2].clone(), msgs[8].clone()];
    assert_eq!(show(&encode_batch(&envelope)), show(BATCH_GOLDEN));
    assert_eq!(decode_batch(BATCH_GOLDEN).unwrap(), envelope);
    assert_eq!(show(&encode_batch(&[])), "batch 0");
    assert_eq!(decode_batch(b"batch 0").unwrap(), []);
}

fn requests() -> Vec<Request> {
    vec![
        Request::Query("SELECT sum(Amount)\n\tBY year -- \u{e9}t\u{e9}".into()),
        Request::Read {
            min_lsn: 42,
            text: String::new(),
        },
        Request::Commit(wal_records()[2].clone()),
        Request::Ping,
    ]
}

const REQUEST_GOLDEN: [&[u8]; 4] = [
    b"query SELECT\\ssum(Amount)\\n\\tBY\\syear\\s--\\s\\xc3\\xa9t\\xc3\\xa9",
    b"read 42 \\0",
    b"commit delete\\s1\\s7\\snow",
    b"ping",
];

fn replies() -> Vec<Reply> {
    vec![
        Reply::Result("a table\nwith lines\t& bytes \u{2116}".into()),
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
            member: Some("m 2".into()),
        }),
        Reply::Err(ServerError::Unreplicated { lsn: 14, acked: 1 }),
        Reply::Err(ServerError::Query("no such level".into())),
        Reply::Err(ServerError::Commit("store poisoned".into())),
        Reply::Err(ServerError::Protocol(String::new())),
        Reply::Err(ServerError::Shutdown),
    ]
}

const REPLY_GOLDEN: [&[u8]; 11] = [
    b"ok a\\stable\\nwith\\slines\\t&\\sbytes\\s\\xe2\\x84\\x96",
    b"ok \\0",
    b"lsn 7",
    b"err busy 4 2",
    b"err stale 9 3",
    b"err stale 9 3 m\\s2",
    b"err unreplicated 14 1",
    b"err query no\\ssuch\\slevel",
    b"err commit store\\spoisoned",
    b"err proto \\0",
    b"err shutdown",
];

/// A client-local transport error degrades to `err proto` on the wire.
fn transport_reply() -> Reply {
    Reply::Err(ServerError::Transport(ReplicaError::Protocol("x y".into())))
}

const TRANSPORT_GOLDEN: &[u8] = b"err proto protocol\\sviolation:\\sx\\sy";

#[test]
fn session_requests_and_replies_match_the_golden_bytes() {
    for (request, golden) in requests().iter().zip(REQUEST_GOLDEN) {
        assert_eq!(show(&encode_request(request)), show(golden));
        assert_eq!(&decode_request(golden).unwrap(), request);
    }
    for (reply, golden) in replies().iter().zip(REPLY_GOLDEN) {
        assert_eq!(show(&encode_reply(reply)), show(golden));
        assert_eq!(&decode_reply(golden).unwrap(), reply);
    }
    assert_eq!(
        show(&encode_reply(&transport_reply())),
        show(TRANSPORT_GOLDEN)
    );
}

const MEMBERSHIP_GOLDEN: &[u8] = b"mvolap-membership v1\n2 1 add m3\\swith\\tspace 127.0.0.1:9001\n3 2 remove m\\\\1\\s=\\s\xc3\xa9 \\0\n";

#[test]
fn membership_sidecar_matches_the_golden_bytes_and_reloads() {
    let dir = std::env::temp_dir().join(format!("mvolap_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = DurableTmd::create(&dir, case_study().tmd).unwrap();
    let reconfig = |epoch, add, member: &str, addr: &str| WalRecord::Reconfig {
        epoch,
        add,
        member: member.into(),
        addr: addr.into(),
    };
    store
        .apply(reconfig(1, true, "m3 with\tspace", "127.0.0.1:9001"))
        .unwrap();
    store
        .apply(reconfig(2, false, "m\\1 = \u{e9}", ""))
        .unwrap();
    store.checkpoint().unwrap();
    let log = store.membership_log().to_vec();
    drop(store);
    let sidecar = std::fs::read(dir.join("membership")).unwrap();
    assert_eq!(show(&sidecar), show(MEMBERSHIP_GOLDEN));
    assert_eq!(DurableTmd::open(&dir).unwrap().membership_log(), log);
    std::fs::remove_dir_all(&dir).ok();
}

/// A schema whose every name needs escaping (none holds a carriage
/// return: the parent wrote that one byte differently, and wrongly).
fn hostile_schema() -> Tmd {
    let mut tmd = Tmd::new("name with spaces\nand=weird\\chars", Granularity::Month);
    let dim = tmd
        .add_dimension(TemporalDimension::new("d=1 \\ two"))
        .unwrap();
    tmd.add_dimension(TemporalDimension::new("")).unwrap();
    tmd.add_measure(MeasureDef::summed("m one")).unwrap();
    tmd.add_measure(MeasureDef::summed("\u{e9}=")).unwrap();
    let since = Interval::since(Instant::ym(2001, 1));
    let a = tmd
        .add_version(
            dim,
            MemberVersionSpec::named("member = tricky \\N")
                .at_level("level one")
                .with_attribute("key=", "va l")
                .with_attribute("", "\t"),
            since,
        )
        .unwrap();
    let b = tmd
        .add_version(dim, MemberVersionSpec::named("\\0"), since)
        .unwrap();
    let other = tmd
        .add_version(DimensionId(1), MemberVersionSpec::named("x"), since)
        .unwrap();
    tmd.add_mapping(
        dim,
        MappingRelationship {
            from: a,
            to: b,
            forward: vec![
                MeasureMapping::approx_scale(0.1),
                mm(
                    MappingFunction::Affine { a: 0.0025, b: -0.0 },
                    Confidence::Source,
                ),
            ],
            backward: vec![MeasureMapping::EXACT_IDENTITY, MeasureMapping::UNKNOWN],
        },
    )
    .unwrap();
    tmd.add_fact(
        &[a, other],
        Instant::ym(2002, 3),
        &[1.0 / 3.0, f64::INFINITY],
    )
    .unwrap();
    mvolap_core::evolution::delete(&mut tmd, dim, b, Instant::ym(2005, 1)).unwrap();
    tmd
}

const SNAPSHOT_GOLDEN: &[u8] = b"mvolap-tmd v1\nschema name\\swith\\sspaces\\nand\\eweird\\\\chars month\nmeasure m\\sone sum\nmeasure \xc3\xa9\\e sum\ndimension d\\e1\\s\\\\\\stwo\nversion 0 0 24012 now level\\sone member\\s\\e\\stricky\\s\\\\N \\0=\\t key\\e=va\\sl\nversion 0 1 24012 24059 - \\\\0\nmapping 0 0 1 s0.1@am a0.0025:-0@sd | id@em u@uk\ndimension \\0\nversion 1 0 24012 now - x\nfact 24026 0 0 | 0.3333333333333333 inf\nlogent 0 24060 exclude 1 excluded\\smember\\sversion\\s\'\\\\0\'\n";

/// FNV-1a (64-bit) of the case study's `write_tmd` image.
const CASE_STUDY_FNV1A: u64 = 0x6d723e0014160d86;

#[test]
fn snapshot_images_match_the_golden_bytes() {
    let mut image = Vec::new();
    write_tmd(&hostile_schema(), &mut image).unwrap();
    assert_eq!(show(&image), show(SNAPSHOT_GOLDEN));
    let mut again = Vec::new();
    write_tmd(&read_tmd(&mut &SNAPSHOT_GOLDEN[..]).unwrap(), &mut again).unwrap();
    assert_eq!(show(&again), show(SNAPSHOT_GOLDEN));

    let mut image = Vec::new();
    write_tmd(&case_study().tmd, &mut image).unwrap();
    let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(fnv, CASE_STUDY_FNV1A, "{}", show(&image));
}

/// The session port's replies to a follower, as the stand-alone replica
/// server that port replaced wrote them (captured from it, not from
/// 7b1cc36): a hello from LSN 2 against a primary at epoch 3 whose log
/// holds one fact batch there, and a stale-epoch fence.
const FOLLOWER_HELLO_GOLDEN: &[u8] = b"batch 2 heartbeat\\s3\\s3 frames\\s3\\s1\\s2\\s3541906585\\sfacts\\\\s1\\\\s24040\\\\s1\\\\s5\\\\s1\\\\s55";
const FOLLOWER_FENCE_GOLDEN: &[u8] = b"batch 1 fence\\s3";

#[test]
fn follower_replies_on_the_session_port_match_the_golden_bytes() {
    use mvolap_durable::{CheckpointPolicy, GroupCommit, GroupConfig, Io, Options};
    use mvolap_replica::{NetAddr, NetClient, NetConfig};
    use mvolap_server::{ServerOptions, SessionServer};

    assert_eq!(ReplicaMsg::KINDS.len(), replica_msgs().len());
    for msg in replica_msgs() {
        assert!(ReplicaMsg::KINDS.contains(&msg.kind()), "{}", msg.kind());
    }
    for kind in ReplicaMsg::KINDS {
        assert!(!["query", "read", "commit", "ping"].contains(&kind));
    }
    let dir = std::env::temp_dir().join(format!("mvolap_golden_follow_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cs = case_study();
    let opts = Options {
        policy: CheckpointPolicy::manual(),
        ..Options::default()
    };
    let store = DurableTmd::create_with(&dir, cs.tmd, opts, Io::plain()).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    group.adopt_epoch(3);
    let lsn = group
        .commit(WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.bill],
                at: Instant::ym(2003, 5),
                values: vec![55.0],
            }],
        })
        .unwrap();
    assert_eq!(lsn, 2);
    let server = SessionServer::spawn(
        &NetAddr::parse("127.0.0.1:0").unwrap(),
        group,
        ServerOptions::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.addr().clone(), NetConfig::default());
    let hello = ReplicaMsg::Hello {
        node: "f".into(),
        epoch: 0,
        next_lsn: lsn,
        last_crc: 0,
    };
    let reply = client.rpc(&hello.encode()).unwrap();
    assert_eq!(show(&reply), show(FOLLOWER_HELLO_GOLDEN));
    let reply = client
        .rpc(&ReplicaMsg::Fence { epoch: 1 }.encode())
        .unwrap();
    assert_eq!(show(&reply), show(FOLLOWER_FENCE_GOLDEN));
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// Not a 7b1cc36 image: that encoder wrote a level named `-` as the
/// bare `-`, which reads back as "no level". `\x2d` is a spelling every
/// decoder already accepted, so no earlier image changes.
const DASH_LEVEL_GOLDEN: &[u8] =
    b"mvolap-tmd v1\nschema s month\ndimension d\nversion 0 0 24012 now \\x2d m\nversion 0 1 24012 now - n\n";

#[test]
fn a_level_named_dash_is_spelled_out_and_reads_back() {
    let mut tmd = Tmd::new("s", Granularity::Month);
    let dim = tmd.add_dimension(TemporalDimension::new("d")).unwrap();
    let since = Interval::since(Instant::ym(2001, 1));
    let m = MemberVersionSpec::named("m").at_level("-");
    tmd.add_version(dim, m, since).unwrap();
    tmd.add_version(dim, MemberVersionSpec::named("n"), since)
        .unwrap();
    let mut image = Vec::new();
    write_tmd(&tmd, &mut image).unwrap();
    assert_eq!(show(&image), show(DASH_LEVEL_GOLDEN));
    let back = read_tmd(&mut &DASH_LEVEL_GOLDEN[..]).unwrap();
    let levels: Vec<Option<String>> = back.dimensions()[0]
        .versions()
        .iter()
        .map(|v| v.level.clone())
        .collect();
    assert_eq!(levels, [Some("-".to_owned()), None]);
}
