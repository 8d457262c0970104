//! Protocol fuzz rows for the follower protocol on the session port:
//! every malformed or hostile exchange with a live primary must surface
//! as a *typed* refusal — never a panic, never a hang, never a silent
//! success — and the server keeps serving afterwards. One test per row:
//!
//! * stale-epoch request            → fence reply / `Fenced`
//! * truncated quorum ack           → `Protocol` (server survives)
//! * undecodable message payload    → typed `err` (server survives)
//! * truncated `snap` chunk, lying chunk count, stale-epoch reconfig,
//!   unexpected chunk at a server   → `Protocol` / `Fenced` / `err`
//! * forged future ack              → clamped at the synced head
//!
//! The transport-level rows (framing, disconnects, votes, the batch
//! envelope) live in `mvolap-replica`'s `tests/net_protocol.rs`.
//!
//! Named `net_*` so CI's network job runs exactly this surface.

use std::path::{Path, PathBuf};

use mvolap_core::case_study;
use mvolap_core::token::{Escapes, TokenWriter};
use mvolap_durable::{CheckpointPolicy, DurableTmd, GroupCommit, GroupConfig, Io, Options};
use mvolap_replica::{
    decode_batch, sync_follower, Follower, NetAddr, NetClient, NetConfig, ReplicaError, ReplicaMsg,
};
use mvolap_server::{ServerOptions, SessionClient, SessionServer};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_netproto_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options {
        segment_bytes: 2048,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

/// Strict client config: tight read timeout, no reconnects — a
/// misbehaving server must surface as an error on the first exchange.
fn strict_cfg() -> NetConfig {
    NetConfig {
        connect_timeout_ms: 2_000,
        read_timeout_ms: 500,
        write_timeout_ms: 2_000,
        reconnect_attempts: 0,
        backoff_start_ms: 0,
    }
}

/// `inner` as the single message of a `batch` envelope, undecoded.
fn wrap(inner: &str) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    w.raw("batch").raw(1).text(inner);
    w.finish()
}

fn hello() -> ReplicaMsg {
    ReplicaMsg::Hello {
        node: "probe".into(),
        epoch: 0,
        next_lsn: 1,
        last_crc: 0,
    }
}

/// A session server over a fresh case-study store whose primary is at
/// `epoch`, with a second handle on its group commit.
fn spawn_primary(dir: &Path, epoch: u64) -> (SessionServer, GroupCommit) {
    let store =
        DurableTmd::create_with(dir, case_study::case_study().tmd, opts(), Io::plain()).unwrap();
    let group = GroupCommit::new(store, GroupConfig::default());
    group.adopt_epoch(epoch);
    let server = SessionServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        group.clone(),
        ServerOptions::default(),
    )
    .unwrap();
    (server, group)
}

/// A stale-epoch request against a real server is answered with
/// nothing but `fence`, and a fenced server refuses everyone: the
/// syncing client surfaces it as the typed [`ReplicaError::Fenced`].
#[test]
fn net_stale_epoch_request_is_fenced_at_the_protocol_layer() {
    let base = tmp("stale");
    let (server, group) = spawn_primary(&base.join("p"), 3);
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());

    // A stale ack (epoch 0 against a server at 3) plants nothing — the
    // server answers only with its fence.
    let reply = client
        .request(&ReplicaMsg::Ack {
            node: "old".into(),
            epoch: 0,
            next_lsn: 99,
        })
        .unwrap();
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 3 }]);
    assert_eq!(server.follower_acks(), [], "stale ack was not recorded");

    // A newer-epoch fence deposes the server — its group commit, for
    // every session; syncing against it now surfaces the typed refusal.
    client.request(&ReplicaMsg::Fence { epoch: 4 }).unwrap();
    assert!(group.is_fenced());
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    match sync_follower(&mut client, &mut f) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 4),
        other => panic!("expected Fenced, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Truncated or garbled quorum-envelope messages must die in the
/// decoder as typed `Protocol` errors — and when one arrives over the
/// wire, the server refuses it cleanly and keeps serving.
#[test]
fn net_truncated_quorum_ack_is_refused_and_server_survives() {
    // The decoder first: every truncation of a valid qack (and a vote
    // with a non-numeric LSN) is a typed refusal, never a panic.
    let full = ReplicaMsg::QuorumAck {
        node: "m1".into(),
        epoch: 3,
        applied_lsn: 9,
        synced_lsn: 9,
    }
    .encode();
    let text = String::from_utf8(full.clone()).unwrap();
    for cut in ["qack", "qack m1", "qack m1 3", "qack m1 3 9"] {
        assert!(
            matches!(
                ReplicaMsg::decode(cut.as_bytes()),
                Err(ReplicaError::Protocol(_))
            ),
            "truncation {cut:?} was not a typed protocol error"
        );
    }
    assert!(
        matches!(
            ReplicaMsg::decode(format!("{text} trailing").as_bytes()),
            Err(ReplicaError::Protocol(_))
        ),
        "trailing garbage accepted"
    );
    assert!(matches!(
        ReplicaMsg::decode(b"vote m1 3 cand notanumber"),
        Err(ReplicaError::Protocol(_))
    ));

    // Then the wire: the session port answers the truncated ack with a
    // typed `err` frame and survives for the next client.
    let base = tmp("qack");
    let (server, _group) = spawn_primary(&base.join("p"), 0);
    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(b"qack m1 3 9")
        .expect("the refusal must be a clean frame");
    let reply_text = String::from_utf8(reply).unwrap();
    assert!(reply_text.starts_with("err "), "{reply_text}");
    assert_eq!(server.follower_acks(), [], "truncated ack was recorded");

    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(replies.first(), Some(ReplicaMsg::Heartbeat { .. })),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A frame that passes the CRC but speaks neither grammar gets a typed
/// `err` refusal — and the server survives to serve the next,
/// well-formed client.
#[test]
fn net_undecodable_payload_is_refused_and_server_survives() {
    let base = tmp("garbage");
    let (server, _group) = spawn_primary(&base.join("p"), 0);

    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(b"warp speed")
        .expect("the refusal itself must be a clean frame");
    let text = String::from_utf8(reply).unwrap();
    assert!(text.starts_with("err "), "{text}");

    // A fresh, well-formed client is served normally afterwards.
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(
            replies.first(),
            Some(ReplicaMsg::Heartbeat { epoch: 0, .. })
        ),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The membership wire records: truncated `snap` chunks and malformed
/// `reconfig` records die in the decoder as typed `Protocol` errors; a
/// reassembly whose bytes do not add up to the declared image size (a
/// lying chunk count) is refused and the assembly dropped; a
/// stale-epoch reconfig is fenced; and a server that receives a chunk
/// it never asked for answers with a typed `err` frame and survives.
#[test]
fn net_snap_chunk_and_reconfig_rows_are_typed_refusals() {
    // Decoder rows: truncations and structural lies, also wrapped in
    // the pump's batch envelope (the only way these ship for real).
    let rows = [
        "snap",                      // bare tag
        "snap 1",                    // epoch only
        "snap 1 2 0 1",              // no byte count, no chunk
        "snap 1 2 0 1 3",            // no chunk payload
        "snap 1 2 3 3 10 abc",       // seq outside total
        "snap 1 2 0 0 10 abc",       // zero total
        "snap 1 2 0 1 2 abc",        // chunk larger than declared image
        "snap 1 2 0 1 3 abc extra",  // trailing garbage
        "reconfig",                  // bare tag
        "reconfig 1 add m3",         // no address
        "reconfig 1 sideways m3 a",  // unknown direction
        "reconfig notanint add m a", // non-numeric epoch
    ];
    for row in rows {
        assert!(
            matches!(
                ReplicaMsg::decode(row.as_bytes()),
                Err(ReplicaError::Protocol(_))
            ),
            "row {row:?} was not a typed protocol error"
        );
        assert!(
            matches!(decode_batch(&wrap(row)), Err(ReplicaError::Protocol(_))),
            "enveloped row {row:?} was not a typed protocol error"
        );
    }

    // Lying chunk count: both chunks arrive and the sequence is
    // complete, but the bytes do not add up to the declared image
    // size. The follower refuses with a typed `Protocol` error, drops
    // the assembly, and accepts a fresh (honest) restart at seq 0.
    let base = tmp("snapfuzz");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let chunk = |seq: u64, total_bytes: u64, body: &[u8]| ReplicaMsg::SnapChunk {
        epoch: 0,
        next_lsn: 9,
        seq,
        total: 2,
        total_bytes,
        chunk: body.to_vec(),
    };
    f.handle(chunk(0, 10, b"abc"))
        .expect("first chunk accepted");
    match f.handle(chunk(1, 10, b"def")) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("lying"), "{m}"),
        other => panic!("lying chunk count accepted: {other:?}"),
    }
    // The poisoned assembly is gone: a continuation is refused as an
    // out-of-order start, not resumed.
    match f.handle(chunk(1, 6, b"def")) {
        Err(ReplicaError::Protocol(_)) => {}
        other => panic!("continuation after drop accepted: {other:?}"),
    }

    // Stale-epoch reconfig: a follower fenced at epoch 3 refuses an
    // epoch-1 reconfig with the typed `Fenced`, like any stale write.
    f.handle(ReplicaMsg::Fence { epoch: 3 }).unwrap();
    match f.handle(ReplicaMsg::Reconfig {
        epoch: 1,
        add: true,
        member: "m9".into(),
        addr: "tcp:127.0.0.1:0".into(),
    }) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 3),
        other => panic!("stale-epoch reconfig accepted: {other:?}"),
    }

    // A chunk the server never asked for: answered with a typed `err`
    // frame — no hang, and the next client is served normally.
    let (server, _group) = spawn_primary(&base.join("p"), 0);
    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(&chunk(0, 3, b"abc").encode())
        .expect("the refusal must be a clean frame");
    let reply_text = String::from_utf8(reply).unwrap();
    assert!(reply_text.starts_with("err "), "{reply_text}");

    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(replies.first(), Some(ReplicaMsg::Heartbeat { .. })),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A follower cannot vouch for records the primary never wrote: an ack
/// claiming LSNs past the synced head is recorded clamped at that head
/// (and never reaches the quorum tracker), and the same connection
/// keeps speaking the session grammar afterwards.
#[test]
fn net_forged_future_ack_is_clamped_at_the_synced_head() {
    let base = tmp("forged");
    let (server, group) = spawn_primary(&base.join("p"), 0);
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = client
        .request(&ReplicaMsg::Ack {
            node: "liar".into(),
            epoch: 0,
            next_lsn: 1_000_000,
        })
        .unwrap();
    assert_eq!(reply, []);
    assert_eq!(
        server.follower_acks(),
        [("liar".to_string(), group.synced_lsn())],
        "a forged ack was recorded past the synced head"
    );
    assert_eq!(group.member_positions(), [], "follower acks never vote");
    SessionClient::connect(server.addr().clone(), strict_cfg())
        .ping()
        .expect("sessions are served beside followers");
    std::fs::remove_dir_all(&base).ok();
}
