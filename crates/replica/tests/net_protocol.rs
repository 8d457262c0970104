//! Protocol fuzz table for the networked transport: every malformed or
//! hostile exchange must surface as a *typed* [`ReplicaError`] — never
//! a panic, never a hang (every socket carries a read timeout), never
//! a silent success. One test per row:
//!
//! * truncated length prefix        → `Transport`
//! * oversized length field         → `Protocol`
//! * CRC-mismatched frame           → `Protocol`
//! * mid-stream disconnect          → `Transport`
//!
//! and for the quorum envelope (`qack` / `votereq` / `vote`):
//!
//! * stale-epoch vote request       → `Fenced`
//! * duplicate vote                 → idempotent re-grant; a second
//!   candidate in the same epoch is a typed `Protocol` violation
//! * vote for an under-ranked candidate → `Protocol`
//!
//! and for the batched frame envelope the async pump ships
//! (`batch <n> <frames …>*`):
//!
//! * truncated inner `frames` message → `Protocol`
//! * oversized inner frame count      → `Protocol`
//! * lying outer batch count          → `Protocol`
//!
//! The rows that need a live primary answering the follower protocol
//! (stale epoch, truncated `qack`, undecodable payload, `snap` /
//! `reconfig`, forged acks) run against the session server, in
//! `mvolap-server`'s `tests/net_protocol.rs`.
//!
//! Named `net_*` so CI's network job runs exactly this surface.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use mvolap_core::case_study;
use mvolap_core::token::{Escapes, TokenWriter};
use mvolap_durable::checksum::crc32;
use mvolap_durable::{frame, CheckpointPolicy, DurableTmd, Io, Options};
use mvolap_replica::{
    decode_batch, encode_batch, Follower, NetAddr, NetClient, NetConfig, ReplicaError, ReplicaMsg,
};

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

/// A server that misbehaves on exactly one connection: accepts it,
/// hands it to `abuse`, then exits.
fn rogue_server(abuse: impl FnOnce(TcpStream) + Send + 'static) -> NetAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = NetAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            abuse(stream);
        }
    });
    addr
}

/// Reads and discards one whole frame so the client's request is fully
/// consumed before the abuse starts.
fn swallow_request(s: &mut TcpStream) {
    let mut hdr = [0u8; frame::HEADER];
    s.read_exact(&mut hdr).unwrap();
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
}

#[test]
fn net_truncated_length_prefix_is_a_typed_transport_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        // Half a header, then hang up.
        s.write_all(&[0x2a, 0, 0, 0]).unwrap();
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn net_oversized_length_field_is_a_typed_protocol_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        let huge = (frame::MAX_PAYLOAD as u32) + 1;
        let mut hdr = huge.to_le_bytes().to_vec();
        hdr.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&hdr).unwrap();
        // Keep the connection open: the client must refuse from the
        // header alone, not wait for (or allocate) the claimed body.
        std::thread::sleep(std::time::Duration::from_millis(1_500));
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("exceeds"), "{m}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn net_crc_mismatched_frame_is_a_typed_protocol_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        let payload = b"batch 0";
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&(crc32(payload) ^ 0xDEAD_BEEF).to_le_bytes());
        buf.extend_from_slice(payload);
        s.write_all(&buf).unwrap();
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn net_mid_stream_disconnect_is_a_typed_transport_error() {
    let addr = rogue_server(|mut s| {
        // Take the whole request, answer nothing, hang up.
        swallow_request(&mut s);
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

/// A vote request that does not open a new epoch is refused with the
/// typed `Fenced` error carrying the voter's current epoch.
#[test]
fn net_stale_epoch_vote_request_is_fenced() {
    let base = tmp("stalevote");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    // The member is at epoch 5 (learnt from its primary's heartbeat).
    f.handle(ReplicaMsg::Heartbeat {
        epoch: 5,
        next_lsn: 1,
    })
    .unwrap();
    // A vote request from epoch 3 — decoded off the wire, as the
    // supervisor would deliver it — must be fenced, not granted.
    let stale = ReplicaMsg::decode(
        &ReplicaMsg::VoteRequest {
            candidate: "cand".into(),
            epoch: 3,
            synced_lsn: 99,
        }
        .encode(),
    )
    .unwrap();
    match f.handle(stale) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 5),
        other => panic!("expected Fenced, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// One candidate per epoch: re-granting the same candidate is
/// idempotent (lost grants can be re-requested), while a *different*
/// candidate in the same epoch is a typed protocol violation — the
/// split-vote guard.
#[test]
fn net_duplicate_vote_is_idempotent_and_second_candidate_refused() {
    let base = tmp("dupvote");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let req = |candidate: &str| {
        ReplicaMsg::decode(
            &ReplicaMsg::VoteRequest {
                candidate: candidate.into(),
                epoch: 7,
                synced_lsn: 42,
            }
            .encode(),
        )
        .unwrap()
    };
    let first = f.handle(req("cand-a")).expect("first vote granted");
    let again = f.handle(req("cand-a")).expect("re-grant is idempotent");
    assert_eq!(first, again, "duplicate grant differs from the original");
    assert!(
        matches!(
            first,
            Some(ReplicaMsg::VoteGrant { ref candidate, epoch: 7, .. }) if candidate == "cand-a"
        ),
        "{first:?}"
    );
    match f.handle(req("cand-b")) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("already voted"), "{m}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A vote request whose credential ranks below the voter's own is
/// refused: electing it could lose quorum-acknowledged records.
#[test]
fn net_under_ranked_candidate_is_refused() {
    let base = tmp("rankvote");
    let cs = case_study::case_study();
    // Give the voter real state so its own position outranks a
    // candidate claiming less.
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let position = store.wal_position();
    drop(store);
    let mut f = Follower::open("f1", base.join("p"), opts(), Io::plain()).unwrap();
    let lowball = ReplicaMsg::decode(
        &ReplicaMsg::VoteRequest {
            candidate: "cand".into(),
            epoch: 2,
            synced_lsn: position - 1,
        }
        .encode(),
    )
    .unwrap();
    match f.handle(lowball) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("ranks below"), "{m}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Fuzz rows for the **batched frame envelope** — the async pump's
/// wire shape: one `batch` envelope carrying several `frames`
/// messages (many WAL frames per request/reply round-trip). A valid
/// envelope round-trips exactly; truncated or oversized inner frames
/// die in the decoder as typed `Protocol` errors, never a panic.
#[test]
fn net_batched_frame_envelope_rejects_truncated_and_oversized_inners() {
    use mvolap_durable::TailFrame;
    let frame = |lsn: u64, payload: &[u8]| TailFrame {
        lsn,
        crc: crc32(payload),
        payload: payload.to_vec(),
    };

    // The happy row first: heartbeat + two frames messages in one
    // envelope — exactly what a pump ships — survives the round-trip.
    let msgs = vec![
        ReplicaMsg::Heartbeat {
            epoch: 3,
            next_lsn: 7,
        },
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(4, b"alpha"), frame(5, b"beta gamma")],
        },
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(6, &[0, 1, 2, 255])],
        },
    ];
    assert_eq!(decode_batch(&encode_batch(&msgs)).unwrap(), msgs);

    // An envelope whose inner frames message is cut anywhere — or
    // lies about its counts — is a typed protocol refusal.
    let truncated_or_oversized = [
        // Truncations of `frames <epoch> <n> (<lsn> <crc> <payload>)*`.
        "frames",
        "frames 3",
        "frames 3 2",
        "frames 3 2 4",
        "frames 3 2 4 12345",
        "frames 3 2 4 12345 alpha",
        "frames 3 2 4 12345 alpha 5 678",
        // Inner count larger than the frames actually present.
        "frames 3 9 4 12345 alpha",
        // Inner count past the decoder's hard cap (1 << 20).
        "frames 3 99999999",
        "frames 3 18446744073709551615",
        // Non-numeric and overflowing frame fields.
        "frames 3 1 notanlsn 12345 alpha",
        "frames 3 1 4 99999999999 alpha",
    ];
    for inner in truncated_or_oversized {
        assert!(
            matches!(decode_batch(&wrap(inner)), Err(ReplicaError::Protocol(_))),
            "inner {inner:?} was not a typed protocol error"
        );
    }

    // Trailing garbage after a complete inner message is refused too.
    let mut good = String::from_utf8(
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(4, b"alpha")],
        }
        .encode(),
    )
    .unwrap();
    good.push_str(" trailing");
    assert!(matches!(
        decode_batch(&wrap(&good)),
        Err(ReplicaError::Protocol(_))
    ));

    // And the envelope itself: a batch count exceeding its own cap or
    // claiming more messages than present is refused before any inner
    // decode runs.
    for envelope in [
        b"batch 2".as_slice(),
        b"batch 99999999999999999999".as_slice(),
        b"batch 1048577".as_slice(),
    ] {
        assert!(
            matches!(decode_batch(envelope), Err(ReplicaError::Protocol(_))),
            "envelope {:?} was not a typed protocol error",
            String::from_utf8_lossy(envelope)
        );
    }
}
