//! Networked replication: sockets under the same protocol.
//!
//! Replication messages cross a real socket here framed exactly like
//! the WAL itself: each request and each reply is **one**
//! `[len u32 LE][crc32 u32 LE][payload]` frame
//! ([`mvolap_durable::frame`]), and every payload is a line of
//! [`mvolap_core::token`] tokens reusing the canonical [`ReplicaMsg`]
//! encoding. TCP and unix sockets share one code path
//! ([`NetAddr`] / `NetStream`); every socket carries explicit connect,
//! read and write timeouts, so no request can hang an endpoint.
//!
//! The primary's side of the follower protocol is a function, not a
//! server: [`answer_follower`] answers one hello/ack/fence frame from a
//! [`GroupCommit`] — epoch fencing enforced on the group's own fence —
//! and the session server in `mvolap-server` calls it for every frame
//! [`is_follower_request`] recognises, on the same port as its queries.
//! [`sync_follower`] is the follower's side of that exchange.
//!
//! [`FaultProxy`] is the sweeps' faulty socket: a loopback hop that
//! echoes every request frame and, when a deterministic [`FaultPlan`]
//! fires, drops or stalls the connection — the socket version of a
//! lost or hung link. `mvolap-cluster` sends each exchange of its
//! replication link through one.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs as _};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mvolap_core::token::{Escapes, TokenReader, TokenWriter};
use mvolap_durable::checksum::crc32;
use mvolap_durable::{frame, FaultPlan, GroupCommit};

use crate::error::{ReplicaError, TransportError};
use crate::follower::Follower;
use crate::record::ReplicaMsg;
use crate::tailer::WalTailer;

// ---------------------------------------------------------------- addr

/// A listen/connect address: TCP (`host:port`) or a unix socket path
/// (`unix:/path/to.sock`), behind one code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    /// A TCP address in `host:port` form.
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl NetAddr {
    /// Parses an address string: a `unix:` prefix selects a unix
    /// socket, anything else is TCP `host:port`.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Protocol`] for a `unix:` address on a platform
    /// without unix sockets.
    pub fn parse(s: &str) -> Result<NetAddr, ReplicaError> {
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(NetAddr::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(ReplicaError::Protocol(format!(
                "unix socket address `{path}` unsupported on this platform"
            )));
        }
        Ok(NetAddr::Tcp(s.to_string()))
    }
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(a) => write!(f, "{a}"),
            #[cfg(unix)]
            NetAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Socket timeouts and reconnect policy of one client endpoint.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// TCP connect timeout, milliseconds (0 = OS default).
    pub connect_timeout_ms: u64,
    /// Per-read timeout, milliseconds (0 = block forever).
    pub read_timeout_ms: u64,
    /// Per-write timeout, milliseconds (0 = block forever).
    pub write_timeout_ms: u64,
    /// How many times one request is retried over a *fresh* connection
    /// after a transient failure before the error surfaces.
    pub reconnect_attempts: u32,
    /// Wait before the first reconnect, milliseconds; doubles per
    /// consecutive failure.
    pub backoff_start_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout_ms: 1_000,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            reconnect_attempts: 3,
            backoff_start_ms: 20,
        }
    }
}

// -------------------------------------------------------------- stream

/// One connected socket, TCP or unix, with uniform Read/Write. Public
/// so higher-level servers (the session front-end in `mvolap-server`)
/// can reuse the listener and the framing helpers.
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

fn opt_ms(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

impl NetStream {
    fn connect(addr: &NetAddr, cfg: &NetConfig) -> std::io::Result<NetStream> {
        let s = match addr {
            NetAddr::Tcp(a) => {
                let sa = a.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("`{a}` resolves to no address"),
                    )
                })?;
                let t = match opt_ms(cfg.connect_timeout_ms) {
                    Some(d) => TcpStream::connect_timeout(&sa, d)?,
                    None => TcpStream::connect(sa)?,
                };
                t.set_nodelay(true).ok();
                NetStream::Tcp(t)
            }
            #[cfg(unix)]
            NetAddr::Unix(p) => NetStream::Unix(UnixStream::connect(p)?),
        };
        s.set_timeouts(cfg.read_timeout_ms, cfg.write_timeout_ms)?;
        Ok(s)
    }

    /// Applies socket read/write timeouts (`0` disables one). They
    /// only govern *blocking* I/O — a connection parked non-blocking in
    /// a poll loop keeps them as latent socket options until a worker
    /// checks it back out with [`NetStream::set_nonblocking`]`(false)`.
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt` failure.
    pub fn set_timeouts(&self, read_ms: u64, write_ms: u64) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(t) => {
                t.set_read_timeout(opt_ms(read_ms))?;
                t.set_write_timeout(opt_ms(write_ms))
            }
            #[cfg(unix)]
            NetStream::Unix(u) => {
                u.set_read_timeout(opt_ms(read_ms))?;
                u.set_write_timeout(opt_ms(write_ms))
            }
        }
    }

    /// Switches the socket between blocking and non-blocking mode.
    /// Public so a session poll loop can park accepted connections
    /// non-blocking (reads via [`FrameReader`]) and hand them back to
    /// blocking workers for the reply write.
    ///
    /// # Errors
    ///
    /// The underlying `fcntl`/`ioctl` failure.
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(t) => t.set_nonblocking(nb),
            #[cfg(unix)]
            NetStream::Unix(u) => u.set_nonblocking(nb),
        }
    }
}

impl std::io::Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(t) => t.read(buf),
            #[cfg(unix)]
            NetStream::Unix(u) => u.read(buf),
        }
    }
}

impl std::io::Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(t) => t.write(buf),
            #[cfg(unix)]
            NetStream::Unix(u) => u.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(t) => t.flush(),
            #[cfg(unix)]
            NetStream::Unix(u) => u.flush(),
        }
    }
}

/// A bound listener over either socket family.
#[derive(Debug)]
pub struct NetListener {
    addr: NetAddr,
    inner: ListenerInner,
}

#[derive(Debug)]
enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds in *non-blocking* mode: the accept loop polls, so a
    /// shutdown request is honoured within one poll interval even when
    /// the listener can no longer be reached (e.g. a unix socket file
    /// already unlinked).
    pub fn bind(addr: &NetAddr) -> std::io::Result<NetListener> {
        match addr {
            NetAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                let bound = NetAddr::Tcp(l.local_addr()?.to_string());
                Ok(NetListener {
                    addr: bound,
                    inner: ListenerInner::Tcp(l),
                })
            }
            #[cfg(unix)]
            NetAddr::Unix(p) => {
                // A previous listener's socket file refuses rebinding.
                std::fs::remove_file(p).ok();
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok(NetListener {
                    addr: addr.clone(),
                    inner: ListenerInner::Unix(l),
                })
            }
        }
    }

    /// The address actually bound — for TCP with port 0 this carries
    /// the kernel-assigned port.
    pub fn local_addr(&self) -> &NetAddr {
        &self.addr
    }

    /// One non-blocking accept attempt; the accepted stream is switched
    /// back to blocking (its timeouts govern it from here).
    pub fn try_accept(&self) -> std::io::Result<Option<NetStream>> {
        let res = match &self.inner {
            ListenerInner::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
            #[cfg(unix)]
            ListenerInner::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
        };
        match res {
            Ok(s) => {
                s.set_nonblocking(false)?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ------------------------------------------------------------- framing

/// Maps socket errors to the typed transport errors the supervisor
/// retries on: a timeout is `Down` (the peer may be alive but slow), as
/// is a refused connection or a missing socket file (no peer yet); a
/// reset or EOF is `Lost`.
fn io_err(e: &std::io::Error) -> ReplicaError {
    ReplicaError::from_io(e)
}

/// Writes one CRC frame.
///
/// # Errors
///
/// [`ReplicaError::Protocol`] on an oversized payload,
/// [`ReplicaError::Transport`] on socket failure.
pub fn write_frame(s: &mut NetStream, payload: &[u8]) -> Result<(), ReplicaError> {
    if payload.len() > frame::MAX_PAYLOAD {
        return Err(ReplicaError::Protocol(format!(
            "frame payload of {} bytes exceeds the {} cap",
            payload.len(),
            frame::MAX_PAYLOAD
        )));
    }
    s.write_all(&frame::encode(payload))
        .and_then(|()| s.flush())
        .map_err(|e| io_err(&e))
}

/// Reads one CRC frame. Every malformation is a typed error: a
/// truncated or timed-out read is [`ReplicaError::Transport`], an
/// oversized length field or checksum mismatch is
/// [`ReplicaError::Protocol`] — never a panic, never an unbounded
/// allocation, never an indefinite hang (given a read timeout).
///
/// # Errors
///
/// As described above.
pub fn read_frame(s: &mut NetStream) -> Result<Vec<u8>, ReplicaError> {
    let mut hdr = [0u8; frame::HEADER];
    s.read_exact(&mut hdr).map_err(|e| io_err(&e))?;
    let len = u32::from_le_bytes(hdr[0..4].try_into().expect("4 bytes")) as usize;
    let sum = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
    if len > frame::MAX_PAYLOAD {
        return Err(ReplicaError::Protocol(format!(
            "frame length {len} exceeds the {} cap",
            frame::MAX_PAYLOAD
        )));
    }
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).map_err(|e| io_err(&e))?;
    if crc32(&payload) != sum {
        return Err(ReplicaError::protocol(
            "frame checksum mismatch on the wire",
        ));
    }
    Ok(payload)
}

/// Incremental CRC-frame reader for a connection parked in
/// *non-blocking* mode: bytes accumulate across [`FrameReader::poll`]
/// calls until one full `[len][crc][payload]` frame is buffered, so a
/// poll loop can multiplex thousands of mostly-idle connections without
/// dedicating a blocked thread (or a blocked `read_frame`) to each.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader (no partial frame buffered).
    #[must_use]
    pub fn new() -> FrameReader {
        FrameReader { buf: Vec::new() }
    }

    /// Bytes of the partial frame currently buffered — diagnostics.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// One poll: drains whatever the non-blocking socket has and
    /// returns the next complete frame payload, or `Ok(None)` when no
    /// full frame has arrived yet (the connection stays parked).
    /// Pipelined frames are returned one per call, oldest first.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the peer closed or the socket
    /// failed mid-read, [`ReplicaError::Protocol`] on an oversized
    /// length field or a checksum mismatch. Either way the connection
    /// is unusable and should be dropped.
    pub fn poll(&mut self, s: &mut NetStream) -> Result<Option<Vec<u8>>, ReplicaError> {
        loop {
            if let Some(payload) = self.take_frame()? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 4096];
            match s.read(&mut chunk) {
                Ok(0) => return Err(ReplicaError::Transport(TransportError::Lost)),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(&e)),
            }
        }
    }

    /// Splits one complete frame off the front of the buffer, if the
    /// header and payload have both fully arrived.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, ReplicaError> {
        if self.buf.len() < frame::HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        if len > frame::MAX_PAYLOAD {
            return Err(ReplicaError::Protocol(format!(
                "frame length {len} exceeds the {} cap",
                frame::MAX_PAYLOAD
            )));
        }
        if self.buf.len() < frame::HEADER + len {
            return Ok(None);
        }
        let payload = self.buf[frame::HEADER..frame::HEADER + len].to_vec();
        self.buf.drain(..frame::HEADER + len);
        if crc32(&payload) != sum {
            return Err(ReplicaError::protocol(
                "frame checksum mismatch on the wire",
            ));
        }
        Ok(Some(payload))
    }
}

// ----------------------------------------------------------- envelopes

/// Encodes messages into the `batch <n> <msg-token>*` wire envelope —
/// the server-reply grammar, shared with the async replication pump,
/// which packs many `frames` messages into one envelope so a single
/// request/reply round-trip ships a whole in-flight window of WAL
/// frames.
pub fn encode_batch(msgs: &[ReplicaMsg]) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    w.raw("batch").list(msgs, |w, m| {
        w.bytes(&m.encode());
    });
    w.finish()
}

/// `err <reason-token>` — a server-side refusal.
fn reply_err(reason: &str) -> Vec<u8> {
    let mut w = TokenWriter::new(Escapes::Binary);
    w.raw("err").text(reason);
    w.finish()
}

/// Decodes a `batch`/`err` envelope back into its messages — the
/// inverse of [`encode_batch`]; an `err` envelope becomes a typed
/// [`ReplicaError::Protocol`].
///
/// # Errors
///
/// [`ReplicaError::Protocol`] on a malformed envelope: a count the
/// payload cannot hold, a truncated message list, trailing tokens, or
/// any inner message that fails its own decode.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<ReplicaMsg>, ReplicaError> {
    let mut r = TokenReader::from_bytes(payload)?;
    match r.token()? {
        "batch" => {
            let msgs = (0..r.count()?)
                .map(|_| ReplicaMsg::decode(&r.bytes()?))
                .collect::<Result<_, _>>()?;
            r.finish()?;
            Ok(msgs)
        }
        "err" => Err(ReplicaError::Protocol(format!(
            "server refused: {}",
            r.text()?
        ))),
        other => Err(r.bad("reply envelope", other).into()),
    }
}

// -------------------------------------------------------- accept loop

/// Polls `listener` until `flag` is raised, handing each accepted
/// connection (10 s read and write timeouts) to `serve` on its own
/// thread. Polling — not blocking — accept keeps shutdown bounded even
/// when the listener can no longer be woken by a connection; a short
/// poll keeps the reconnect after each dropped connection cheap.
fn accept_loop<F>(listener: &NetListener, flag: &AtomicBool, serve: &Arc<F>)
where
    F: Fn(NetStream) + Send + Sync + 'static,
{
    loop {
        if flag.load(Ordering::SeqCst) {
            return;
        }
        match listener.try_accept() {
            Ok(Some(conn)) => {
                conn.set_timeouts(10_000, 10_000).ok();
                let serve = Arc::clone(serve);
                std::thread::spawn(move || serve(conn));
            }
            Ok(None) | Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// Sets the shutdown flag and joins the (polling) accept loop, which
/// notices the flag within one poll interval.
pub fn stop_listener(shutdown: &AtomicBool, accept: &mut Option<std::thread::JoinHandle<()>>) {
    if shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Some(h) = accept.take() {
        h.join().ok();
    }
}

// ----------------------------------------------------------- netclient

/// A connection-caching request/reply client: one frame out, one frame
/// back, with bounded reconnect (each retry starts a fresh connection
/// after an exponentially growing wait).
#[derive(Debug)]
pub struct NetClient {
    addr: NetAddr,
    cfg: NetConfig,
    conn: Option<NetStream>,
}

impl NetClient {
    /// A client for `addr`; connects lazily on first use.
    pub fn connect(addr: NetAddr, cfg: NetConfig) -> NetClient {
        NetClient {
            addr,
            cfg,
            conn: None,
        }
    }

    /// The server address.
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    fn rpc_once(&mut self, req: &[u8]) -> Result<Vec<u8>, ReplicaError> {
        if self.conn.is_none() {
            self.conn = Some(NetStream::connect(&self.addr, &self.cfg).map_err(|e| io_err(&e))?);
        }
        let s = self.conn.as_mut().expect("just connected");
        let res = write_frame(s, req).and_then(|()| read_frame(s));
        if res.is_err() {
            // The stream may hold half a frame; never reuse it.
            self.conn = None;
        }
        res
    }

    /// One raw request/reply exchange, reconnecting per the config.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] once reconnects are exhausted;
    /// [`ReplicaError::Protocol`] on malformed frames.
    pub fn rpc(&mut self, req: &[u8]) -> Result<Vec<u8>, ReplicaError> {
        let mut wait = self.cfg.backoff_start_ms;
        let mut attempt = 0u32;
        loop {
            match self.rpc_once(req) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_transient() && attempt < self.cfg.reconnect_attempts => {
                    attempt += 1;
                    if wait > 0 {
                        std::thread::sleep(Duration::from_millis(wait));
                    }
                    wait = wait.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one [`ReplicaMsg`] request and decodes the reply batch.
    ///
    /// # Errors
    ///
    /// As [`NetClient::rpc`], plus [`ReplicaError::Protocol`] for an
    /// `err` reply or a malformed batch.
    pub fn request(&mut self, msg: &ReplicaMsg) -> Result<Vec<ReplicaMsg>, ReplicaError> {
        decode_batch(&self.rpc(&msg.encode())?)
    }
}

// ---------------------------------------------------------- faultproxy

/// How a firing [`FaultProxy`] mistreats the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyFault {
    /// Close the connection at once — the client sees a reset.
    Drop,
    /// Go silent for this many milliseconds (longer than the client's
    /// read timeout), then close — the client sees a timeout.
    Stall(u64),
}

/// A faulty socket hop: it answers every request frame with the frame
/// itself, and counts each request frame against a [`FaultPlan`]. Once
/// the plan fires, the next `outage_len` request frames are dropped or
/// stalled per [`ProxyFault`] (use `u64::MAX` for a permanent
/// partition). A single-threaded client — one request at a time —
/// makes the frame count enumerate its requests deterministically.
#[derive(Debug)]
pub struct FaultProxy {
    addr: NetAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Listens on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Transport`] when the listener cannot bind.
    pub fn spawn(
        plan: FaultPlan,
        outage_len: u64,
        fault: ProxyFault,
    ) -> Result<FaultProxy, ReplicaError> {
        let listener =
            NetListener::bind(&NetAddr::Tcp("127.0.0.1:0".into())).map_err(|e| io_err(&e))?;
        let addr = listener.addr.clone();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        // (plan, frames faulted so far) — shared across connections so
        // the schedule survives reconnects.
        let state = Arc::new(Mutex::new((plan, 0u64)));
        let serve = Arc::new(move |conn| proxy_conn(conn, &state, outage_len, fault));
        let accept = std::thread::spawn(move || accept_loop(&listener, &flag, &serve));
        Ok(FaultProxy {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The proxy's listen address — point the client here.
    pub fn addr(&self) -> &NetAddr {
        &self.addr
    }

    /// Stops accepting and joins the accept thread.
    pub fn stop(&mut self) {
        stop_listener(&self.shutdown, &mut self.accept);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn proxy_conn(
    mut client: NetStream,
    state: &Mutex<(FaultPlan, u64)>,
    outage_len: u64,
    fault: ProxyFault,
) {
    loop {
        let Ok(req) = read_frame(&mut client) else {
            return;
        };
        let fire = {
            let mut g = state.lock().unwrap_or_else(|e| e.into_inner());
            let due = g.0.fires() && g.1 < outage_len;
            if due {
                g.1 += 1;
            }
            due
        };
        if fire {
            if let ProxyFault::Stall(ms) = fault {
                std::thread::sleep(Duration::from_millis(ms));
            }
            return;
        }
        if write_frame(&mut client, &req).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------- follower answers

/// Max WAL frames shipped per hello.
const HELLO_BATCH_FRAMES: usize = 64;

/// Whether a request frame speaks the follower protocol: its first
/// token is a [`ReplicaMsg`] kind. The session grammar's verbs
/// (`query`, `read`, `commit`, `ping`) are none of them, so one
/// listener serves both by this peek alone.
#[must_use]
pub fn is_follower_request(payload: &[u8]) -> bool {
    let verb = payload.split(|&b| b == b' ').next().unwrap_or_default();
    ReplicaMsg::KINDS.iter().any(|k| k.as_bytes() == verb)
}

/// Answers one follower-protocol request for the primary behind
/// `group`, whose log `tailer` reads: a `batch` of replies, or an
/// `err` refusal for anything but a hello, ack or fence.
///
/// **Fencing on the group's own fence.** Every stateful request
/// carries the sender's epoch. A request from an older epoch is
/// answered only with `fence <current>` — a deposed node can never
/// extract frames or plant acks here. A request carrying a *newer*
/// epoch proves a newer primary exists: the group is fenced on the
/// spot ([`GroupCommit::fence`] — every clone then refuses commits)
/// and the answer is `fence`, so a partitioned ex-primary still stops
/// writing the moment any newer-epoch traffic reaches it.
///
/// Hellos are answered from fsynced frames only: the heartbeat carries
/// [`GroupCommit::synced_lsn`] as the head and nothing at or past it
/// ships. Acks are recorded per follower in `acks`, clamped at that
/// head so a forged ack cannot claim records the primary never wrote;
/// they are never fed to the quorum tracker.
pub fn answer_follower(
    group: &GroupCommit,
    tailer: &WalTailer,
    acks: &Mutex<BTreeMap<String, u64>>,
    req: &[u8],
) -> Vec<u8> {
    let msg = match ReplicaMsg::decode(req) {
        Ok(msg) => msg,
        Err(e) => return reply_err(&e.to_string()),
    };
    let epoch = match &msg {
        ReplicaMsg::Hello { epoch, .. }
        | ReplicaMsg::Ack { epoch, .. }
        | ReplicaMsg::Fence { epoch } => *epoch,
        other => {
            return reply_err(&format!("unexpected {} request", other.kind()));
        }
    };
    let current = group.epoch();
    if epoch > current {
        // Proof of a newer primary: fence ourselves, answer fence.
        group.fence(epoch);
        return encode_batch(&[ReplicaMsg::Fence { epoch }]);
    }
    if group.is_fenced() || (epoch < current && !matches!(msg, ReplicaMsg::Hello { .. })) {
        // Deposed: nothing but fence, whoever asks. And stale senders
        // are refused — except hellos: the primary is authoritative
        // for the epoch, and a fresh or restarted follower
        // legitimately hellos at epoch 0 to be taught the current one
        // (via the heartbeat it gets back).
        return encode_batch(&[ReplicaMsg::Fence {
            epoch: group.epoch(),
        }]);
    }
    let head = group.synced_lsn();
    match msg {
        ReplicaMsg::Hello {
            next_lsn, last_crc, ..
        } => match tailer.answer_hello(current, head, next_lsn, last_crc, HELLO_BATCH_FRAMES) {
            Ok(answer) => encode_batch(&answer.msgs),
            Err(e) => reply_err(&format!("position check failed: {e}")),
        },
        ReplicaMsg::Ack { node, next_lsn, .. } => {
            let mut map = acks.lock().unwrap_or_else(|e| e.into_inner());
            let entry = map.entry(node).or_insert(0);
            *entry = (*entry).max(next_lsn.min(head));
            encode_batch(&[])
        }
        // epoch == current and not newer: nothing to do, report state.
        _ => encode_batch(&[ReplicaMsg::Fence { epoch: current }]),
    }
}

// ------------------------------------------------------- follower sync

/// What one [`sync_follower`] round observed.
#[derive(Debug, Clone, Copy)]
pub struct SyncRound {
    /// The server's log head (its next LSN) at the time of the round.
    pub head: u64,
    /// The follower's next LSN after applying the round's payload.
    pub next_lsn: u64,
}

impl SyncRound {
    /// Whether the follower holds everything the server does.
    pub fn caught_up(&self) -> bool {
        self.next_lsn >= self.head
    }
}

/// One synchronisation round of a [`Follower`] against a primary that
/// answers with [`answer_follower`] (a session server's port): send
/// the follower's hello, apply whatever comes back (heartbeat, frames
/// or snapshot), forward the resulting ack.
///
/// # Errors
///
/// [`ReplicaError::Fenced`] when the server answers with a fence (it
/// is deposed, or it refuses our stale epoch) — stop following it;
/// [`ReplicaError::Diverged`] when our history provably forks from
/// its log; transport and protocol errors as raised.
pub fn sync_follower(client: &mut NetClient, f: &mut Follower) -> Result<SyncRound, ReplicaError> {
    let replies = client.request(&f.hello())?;
    let mut head = f.next_lsn();
    let mut ack = None;
    for msg in replies {
        if let ReplicaMsg::Fence { epoch } = msg {
            return Err(ReplicaError::Fenced { epoch });
        }
        if let ReplicaMsg::Heartbeat { next_lsn, .. } = &msg {
            head = *next_lsn;
        }
        if let Some(reply) = f.handle(msg)? {
            ack = Some(reply);
        }
    }
    if let Some(ack) = ack {
        client.request(&ack)?;
    }
    Ok(SyncRound {
        head,
        next_lsn: f.next_lsn(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parses_tcp_and_unix() {
        assert_eq!(
            NetAddr::parse("127.0.0.1:7070").unwrap(),
            NetAddr::Tcp("127.0.0.1:7070".into())
        );
        #[cfg(unix)]
        {
            let a = NetAddr::parse("unix:/tmp/x.sock").unwrap();
            assert_eq!(a, NetAddr::Unix(PathBuf::from("/tmp/x.sock")));
            assert_eq!(a.to_string(), "unix:/tmp/x.sock");
        }
    }

    #[test]
    fn reply_envelope_roundtrips_and_refuses() {
        let msgs = vec![
            ReplicaMsg::Heartbeat {
                epoch: 1,
                next_lsn: 9,
            },
            ReplicaMsg::Fence { epoch: 2 },
        ];
        assert_eq!(decode_batch(&encode_batch(&msgs)).unwrap(), msgs);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
        match decode_batch(&reply_err("no such thing")) {
            Err(ReplicaError::Protocol(m)) => assert!(m.contains("no such thing")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        assert!(decode_batch(b"batch").is_err());
        assert!(decode_batch(b"batch 2 \\0").is_err());
        assert!(decode_batch(b"warp 1").is_err());
    }
}
