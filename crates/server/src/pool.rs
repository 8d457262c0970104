//! The fixed worker pool multiplexing nonblocking sessions.
//!
//! One **poll loop** (the thread that also accepts) owns every parked
//! connection: it reads bytes non-blockingly through
//! [`mvolap_replica::FrameReader`] until a full CRC frame is buffered,
//! then hands the `(connection, request)` pair to one of `N` worker
//! threads over a bounded queue. The worker decodes, executes, writes
//! the reply in blocking mode (socket timeouts apply) and returns the
//! connection to the poll loop. Idle sessions therefore cost one file
//! descriptor and a few buffered bytes — never a thread.
//!
//! Admission and overflow keep the typed [`ServerError::Busy`] shape:
//!
//! * a connection beyond `max_sessions` is answered `Busy` on its
//!   first frame and closed (the session-level refusal);
//! * a request arriving while all workers are busy and `max_queued`
//!   more requests already wait is answered `Busy` **from the poll
//!   loop** and the session stays parked — overflow never blocks a
//!   worker, and never blocks the poll loop.
//!
//! Every connection holds an RAII permit ([`super::server`]'s gate):
//! dropping a parked, queued or checked-out connection — disconnect,
//! worker write failure, shutdown — releases its session slot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use mvolap_core::MemoStats;
use mvolap_replica::{write_frame, FrameReader, NetListener, NetStream};

use crate::proto::{self, Reply, ServerError};
use crate::server::{handle_frame, lock, GatePermit, SessionCtx};

/// A point-in-time snapshot of the pool's occupancy counters — the
/// observability surface behind `SHOW STATUS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolStats {
    /// Worker threads serving requests.
    pub workers: usize,
    /// Connected sessions holding a slot (parked, queued or being
    /// served).
    pub active: usize,
    /// Requests waiting in the bounded queue for a free worker.
    pub queued: usize,
    /// Idle connections currently parked in the poll set.
    pub parked: usize,
    /// Requests served to completion since the server started.
    pub served: u64,
    /// Typed `Busy` refusals issued (admission + queue overflow).
    pub refused: u64,
    /// Non-commit requests forwarded to a fleet member.
    pub forwarded: u64,
    /// Per-shard memo counters, in shard order: route, roll-up and
    /// presented-table hits/misses plus presented tables extended over
    /// appended facts (the tables themselves sit in one store all
    /// shards share).
    pub memo: Vec<MemoStats>,
}

/// Monotonic pool counters shared between the poll loop, the workers
/// and the server handle.
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    pub(crate) parked: AtomicUsize,
    pub(crate) served: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) forwarded: AtomicU64,
}

/// One parked session: its socket (non-blocking while parked), the
/// partial-frame buffer, a stable session id (shard affinity) and the
/// RAII admission permit.
pub(crate) struct Conn {
    pub(crate) stream: NetStream,
    pub(crate) reader: FrameReader,
    pub(crate) session: u64,
    #[allow(dead_code)] // held for its Drop: releases the session slot
    pub(crate) permit: GatePermit,
}

/// A ready, fully-framed request checked out to a worker together with
/// its connection.
pub(crate) struct Job {
    pub(crate) conn: Conn,
    pub(crate) payload: Vec<u8>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers currently executing a request — counted so overflow is
    /// judged on *outstanding* work (queued + in flight), not just the
    /// queue depth.
    busy: usize,
}

/// The bounded hand-off between the poll loop and the workers.
/// Capacity is `workers + max_queued`: one outstanding request per
/// worker plus the configured wait allowance; pushes beyond that are
/// refused so the poll loop can answer `Busy` without ever waiting.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    slots: usize,
}

impl JobQueue {
    pub(crate) fn new(workers: usize, max_queued: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                busy: 0,
            }),
            ready: Condvar::new(),
            slots: workers.max(1) + max_queued,
        }
    }

    /// Requests waiting for a worker (not counting those in flight).
    pub(crate) fn waiting(&self) -> usize {
        lock(&self.state).jobs.len()
    }

    /// Enqueues unless outstanding work already fills every slot; the
    /// job comes back on overflow so the caller can refuse typed.
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut st = lock(&self.state);
        if st.jobs.len() + st.busy >= self.slots {
            return Err(job);
        }
        st.jobs.push_back(job);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks (in bounded slices, responsive to shutdown) until a job
    /// is available; `None` once the server stops and the queue has
    /// drained — jobs accepted before shutdown still get their reply.
    pub(crate) fn pop(&self, shutdown: &std::sync::atomic::AtomicBool) -> Option<Job> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                st.busy += 1;
                return Some(job);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            st = self
                .ready
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Marks the worker's current job finished.
    pub(crate) fn done(&self) {
        let mut st = lock(&self.state);
        st.busy = st.busy.saturating_sub(1);
    }

    /// Wakes every waiting worker (shutdown).
    pub(crate) fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// An accepted connection that was refused admission: it is answered
/// `Busy` on its first complete frame (request/reply discipline — the
/// client reads the refusal as a normal reply) and then closed.
struct Doomed {
    stream: NetStream,
    reader: FrameReader,
    refusal: Vec<u8>,
}

/// The poll loop: accept, reclaim worker-returned connections, poll
/// every parked socket for a full frame, dispatch ready requests to
/// the worker queue. Runs on the server's accept thread until the
/// shutdown flag is raised; on exit each parked session is sent a
/// best-effort `err shutdown` before its socket closes.
pub(crate) fn poll_loop(
    listener: &NetListener,
    ctx: &Arc<SessionCtx>,
    returned: &mpsc::Receiver<Conn>,
    write_ms: u64,
) {
    let queue = &ctx.queue;
    let mut parked: Vec<Conn> = Vec::new();
    let mut doomed: Vec<Doomed> = Vec::new();
    let mut next_session: u64 = 1;
    // Consecutive scans that found nothing to do. While requests are
    // flowing the loop stays hot (yield, no sleep) so dispatch latency
    // is one scan, not a timer tick; once the set has proven idle it
    // backs off to 1ms naps so parked sessions cost almost no CPU. A
    // worker handing a connection back ends the nap — the session's
    // next request is usually right behind its reply.
    let mut idle_scans: u32 = 0;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut progress = false;

        // Connections handed back by workers re-park.
        while let Ok(conn) = returned.try_recv() {
            parked.push(conn);
            progress = true;
        }

        // New connections: admit (slot permit for the connection's
        // lifetime) or schedule a typed refusal.
        while let Ok(Some(stream)) = listener.try_accept() {
            progress = true;
            // Parked sessions are read nonblocking, without a
            // deadline; only the workers' blocking reply write is
            // timed.
            stream.set_timeouts(0, write_ms).ok();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            match ctx.gate.try_admit(queue.waiting()) {
                Ok(permit) => {
                    parked.push(Conn {
                        stream,
                        reader: FrameReader::new(),
                        session: next_session,
                        permit,
                    });
                    next_session += 1;
                }
                Err(refusal) => {
                    ctx.counters.refused.fetch_add(1, Ordering::Relaxed);
                    doomed.push(Doomed {
                        stream,
                        reader: FrameReader::new(),
                        refusal: proto::encode_reply(&Reply::Err(refusal)),
                    });
                }
            }
        }

        // Refused connections: answer their first frame, then close.
        doomed.retain_mut(|d| match d.reader.poll(&mut d.stream) {
            Ok(Some(_)) => {
                progress = true;
                if d.stream.set_nonblocking(false).is_ok() {
                    let refusal = std::mem::take(&mut d.refusal);
                    write_frame(&mut d.stream, &refusal).ok();
                }
                false
            }
            Ok(None) => true,
            Err(_) => {
                progress = true;
                false
            }
        });

        // Parked sessions: a full frame dispatches (or overflows into
        // a typed Busy written right here); any read error drops the
        // connection and its permit with it.
        let mut i = 0;
        while i < parked.len() {
            let Conn { stream, reader, .. } = &mut parked[i];
            match reader.poll(stream) {
                Ok(Some(payload)) => {
                    progress = true;
                    let conn = parked.swap_remove(i);
                    if let Err(job) = queue.try_push(Job { conn, payload }) {
                        ctx.counters.refused.fetch_add(1, Ordering::Relaxed);
                        let mut conn = job.conn;
                        let busy = proto::encode_reply(&Reply::Err(ServerError::Busy {
                            active: ctx.gate.active(),
                            queued: queue.waiting(),
                        }));
                        // Blocking write (socket write timeout applies)
                        // so the refusal frame can never go out torn;
                        // a peer that stopped reading is dropped.
                        let wrote = conn.stream.set_nonblocking(false).is_ok()
                            && write_frame(&mut conn.stream, &busy).is_ok()
                            && conn.stream.set_nonblocking(true).is_ok();
                        if wrote {
                            parked.push(conn);
                        }
                    }
                }
                Ok(None) => i += 1,
                Err(_) => {
                    progress = true;
                    parked.swap_remove(i); // disconnect or corrupt frame
                }
            }
        }
        ctx.counters.parked.store(parked.len(), Ordering::Relaxed);

        if progress {
            idle_scans = 0;
        } else {
            idle_scans = idle_scans.saturating_add(1);
            if idle_scans > 256 {
                if let Ok(conn) = returned.recv_timeout(Duration::from_millis(1)) {
                    parked.push(conn);
                    idle_scans = 0;
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    // Shutdown: tell every parked session, then drop the sockets (and
    // their permits). Checked-out connections are dropped by their
    // worker or when the return channel's receiver goes away.
    let shutdown = proto::encode_reply(&Reply::Err(ServerError::Shutdown));
    for mut conn in parked {
        conn.stream.set_nonblocking(false).ok();
        write_frame(&mut conn.stream, &shutdown).ok();
    }
    ctx.counters.parked.store(0, Ordering::Relaxed);
}

/// One pool worker: pop a ready request (a session request or a
/// follower-protocol frame), execute it against the shared context,
/// write the reply in blocking mode and hand the connection
/// back to the poll loop. Any socket failure just drops the connection
/// — its permit releases the session slot, the worker moves on.
pub(crate) fn worker_loop(ctx: &Arc<SessionCtx>, back: &mpsc::Sender<Conn>) {
    let queue = &ctx.queue;
    while let Some(Job { mut conn, payload }) = queue.pop(&ctx.shutdown) {
        let reply = handle_frame(ctx, conn.session, &payload);
        // Count before the reply goes out: a client that has its answer
        // must already be visible in `served`.
        ctx.counters.served.fetch_add(1, Ordering::Relaxed);
        let wrote = conn.stream.set_nonblocking(false).is_ok()
            && write_frame(&mut conn.stream, &reply).is_ok();
        queue.done();
        if wrote && conn.stream.set_nonblocking(true).is_ok() {
            back.send(conn).ok(); // a gone poll loop drops the conn here
        }
    }
}
