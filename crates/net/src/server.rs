//! The threaded TCP server: an acceptor thread plus a reader/writer
//! thread pair per connection, serving decoded requests through the
//! caller's [`Engine`] so its bounded queue *is* the admission control.
//!
//! Layering (top to bottom):
//!
//! ```text
//! DbLshClient ──TCP──▶ DbLshServer (acceptor + per-conn reader/writer)
//!                          │  Engine::try_run (non-blocking)
//!                          ▼
//!                      Engine (bounded queue + worker pool)
//!                          │  canonical ladder, per-shard RwLocks
//!                          ▼
//!                      ShardedDbLsh
//! ```
//!
//! * **Two paths.** A request runs on the connection's reader thread,
//!   which writes the reply itself, when nothing of that connection's
//!   is in flight, no further bytes are buffered after its frame, the
//!   engine's queue is empty and an execution slot is free. A quiet
//!   closed-loop caller thus costs one thread and two socket calls per
//!   request. Everything else — frames that arrive together, a
//!   backlog, a busy pool — takes the queued path: reader → engine
//!   queue → worker → the connection's writer thread. The gate sees
//!   only bytes already read, so a pipelining client whose frames
//!   arrive spaced out has its first frame run inline, and the frames
//!   behind it wait unread until that one finishes instead of starting
//!   on another worker: the gain is for closed-loop connections.
//!   Replies that need no engine (ping, stats, metrics, protocol
//!   errors) follow the same rule: written by the reader when nothing
//!   is in flight, else queued to the writer. The writer counts a
//!   reply out only once it is written, so a direct reply never
//!   overtakes or interleaves with an earlier one.
//! * A full engine queue never blocks a connection thread: submissions
//!   go through [`Engine::try_run`], and a refusal comes back over the
//!   wire as a typed [`DbLshError::Busy`] error response. Inline
//!   execution never bypasses that: the engine runs a request inline
//!   only while its queue is empty and a slot free, so at most
//!   `workers` requests execute at once.
//! * Every frame goes out in one `write` (length prefix and body
//!   together), and the reader pulls up to 64 KiB per `read` into a
//!   reusable buffer.
//! * Malformed bytes never kill the connection thread: oversized or
//!   lying length prefixes, bad magic, checksum mismatches, and stale
//!   versions are all answered with typed protocol error frames (the
//!   length prefix keeps framing intact, so the connection survives
//!   everything except a broken length prefix itself).
//! * Graceful drain: [`DbLshServer::shutdown`] stops accepting, lets
//!   every already-accepted request finish and its response flush, then
//!   closes. Accepted work is never dropped; new connects are refused
//!   with a `Shutdown` error frame.
//! * Memory: a connection thread that runs queries inline warms its own
//!   per-thread prober scratch on its first one, as a worker does — at
//!   most `max_connections` of them beside the engine's workers'.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dblsh_data::io::write_len_frame;
use dblsh_data::DbLshError;
use dblsh_serve::{Engine, Op, OpTicket};

use crate::proto::{
    decode_frame, encode_response, Message, MetricsFormat, NetError, Request, Response,
    DEFAULT_MAX_FRAME,
};

/// Server tuning knobs. The defaults suit tests and small deployments;
/// every limit exists so a misbehaving peer costs bounded resources.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accepted connections beyond this are refused with a typed error
    /// frame and closed (each costs two threads).
    pub max_connections: usize,
    /// Requests a single connection may have in flight before its
    /// reader stops pulling new frames off the socket (per-connection
    /// pipelining cap; TCP backpressure does the rest).
    pub max_in_flight: usize,
    /// Largest accepted frame body; a length prefix above this is
    /// answered with a typed error before any allocation.
    pub max_frame: u32,
    /// Connections idle (no complete frame) longer than this are
    /// closed. `None` disables the idle timeout.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_in_flight: 32,
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Lifetime counters, returned by [`DbLshServer::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections: u64,
    /// Connections refused (limit reached or server draining).
    pub refused: u64,
    /// Request frames decoded and dispatched.
    pub requests: u64,
    /// Error responses sent (engine refusals and protocol violations).
    pub errors: u64,
}

#[derive(Debug, Default)]
struct SharedStats {
    connections: AtomicU64,
    refused: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            // order: independent monotone counters sampled for reporting;
            // cross-counter skew of in-flight requests is inherent to a
            // live snapshot, so relaxed loads suffice for all four.
            connections: self.connections.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    engine: Arc<Engine>,
    config: ServerConfig,
    draining: AtomicBool,
    live_connections: AtomicUsize,
    stats: SharedStats,
}

/// A dispatched request's reply: either an engine ticket still being
/// worked (always handed to the connection's writer), or a response
/// already known — the request ran inline, or needed no engine trip
/// (pings, stats, metrics, protocol errors, refusals). A ready reply is
/// written by the reader itself when nothing is in flight; otherwise it
/// queues behind the earlier replies at the writer, which keeps every
/// connection's replies in request order.
enum Pending {
    Queued(u64, OpTicket),
    Ready(u64, Response),
}

/// The TCP front door. Owns the acceptor thread and every connection
/// thread it spawns; dispatches onto a caller-owned [`Engine`] (shared
/// by `Arc`, never shut down by the server — in-process callers keep
/// working across a server restart).
pub struct DbLshServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl DbLshServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// start accepting.
    pub fn bind(
        addr: &str,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> Result<DbLshServer, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io("bind", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io("set_nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("local_addr", e))?;
        let shared = Arc::new(Shared {
            engine,
            config,
            draining: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            stats: SharedStats::default(),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("dblsh-net-acceptor".into())
                .spawn(move || acceptor_loop(listener, shared, conns))
                .map_err(|e| NetError::io("spawn", e))?
        };
        Ok(DbLshServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Graceful drain: stop accepting, refuse new connections, let every
    /// accepted request finish and its response flush, then join all
    /// threads. Returns the lifetime counters. The engine is *not*
    /// drained — it belongs to the caller.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_drain();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The handle list is a plain Vec, valid in every published
        // state; recover from poisoning so teardown always joins.
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
        self.shared.stats.snapshot()
    }

    fn begin_drain(&self) {
        // order: the drain flag and `live_connections` coordinate
        // admission across acceptor and connection threads; SeqCst keeps
        // every participant in one total order so "flag set before the
        // accept check" cannot be reordered away. Cold path — clarity
        // over cycles.
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

impl Drop for DbLshServer {
    fn drop(&mut self) {
        self.begin_drain();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for h in handles {
            let _ = h.join();
        }
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(5);
const READ_POLL: Duration = Duration::from_millis(50);

fn acceptor_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        // order: drain flag participates in the SeqCst admission order
        // (see `begin_drain`) so a drain is never missed once stored.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // order: re-check after accept, same SeqCst admission
                // order — an accepted stream must see a set flag.
                if shared.draining.load(Ordering::SeqCst) {
                    refuse(&shared, stream, NetError::Remote(DbLshError::Shutdown));
                    return;
                }
                // order: admission-limit check in the same SeqCst order
                // as the fetch_add/fetch_sub below, so the acceptor
                // never reads a count older than its own last update.
                let live = shared.live_connections.load(Ordering::SeqCst);
                if live >= shared.config.max_connections {
                    refuse(&shared, stream, NetError::Remote(DbLshError::Busy));
                    continue;
                }
                // order: SeqCst keeps the live count in the admission
                // total order shared with the drain flag.
                shared.live_connections.fetch_add(1, Ordering::SeqCst);
                // order: standalone lifetime counter, reporting only.
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                match thread::Builder::new()
                    .name("dblsh-net-conn".into())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        // order: release the admission slot in the same
                        // SeqCst order the acceptor's limit check uses.
                        conn_shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                    }) {
                    Ok(handle) => {
                        let mut guard = conns.lock().unwrap_or_else(PoisonError::into_inner);
                        // Opportunistically reap finished connection
                        // threads so the handle list stays bounded by
                        // live connections, not lifetime connections.
                        guard.retain(|h| !h.is_finished());
                        guard.push(handle);
                    }
                    Err(_) => {
                        // order: roll back the reservation in the same
                        // SeqCst admission order.
                        shared.live_connections.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// How long [`refuse`] waits for a refused peer to hang up.
const REFUSE_DRAIN: Duration = Duration::from_millis(50);

/// Send a best-effort typed error frame (request id 0: connection-level,
/// not tied to any request) and close.
///
/// Closing a socket that still holds unread bytes — a peer's first
/// request usually arrives before the acceptor gets to it — sends RST,
/// which can discard the frame just written before the peer reads it.
/// So: half-close the write side (FIN after the frame), then read and
/// discard until the peer hangs up. The wait is bounded by
/// [`REFUSE_DRAIN`] and one `max_frame` of bytes, so a peer that keeps
/// sending, or never closes, holds the acceptor no longer than that.
fn refuse(shared: &Shared, stream: TcpStream, err: NetError) {
    // order: standalone lifetime counter, reporting only.
    shared.stats.refused.fetch_add(1, Ordering::Relaxed);
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    // Some platforms hand accepted sockets the listener's non-blocking
    // mode; the bounded drain below needs timed blocking reads.
    let _ = stream.set_nonblocking(false);
    let response = Response::Error(err);
    let _ = send_response(&mut stream, 0, &response, shared.config.max_frame);
    let _ = stream.flush();
    let _ = stream.shutdown(SockShutdown::Write);
    let deadline = Instant::now() + REFUSE_DRAIN;
    let mut budget = shared.config.max_frame as usize + 4;
    let mut sink = [0u8; 4096];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        let want = budget.min(sink.len());
        match stream.read(&mut sink[..want]) {
            Ok(0) => break, // the peer closed: nothing unread is left
            Ok(n) => budget -= n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // timed out, or the peer reset
        }
    }
}

/// Bytes of a frame's little-endian `u32` length prefix.
const PREFIX: usize = 4;

/// Bytes the frame reader asks the socket for per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// Buffered frame reader that survives read timeouts: it pulls up to
/// [`READ_CHUNK`] bytes per `read` into one reusable buffer, so a
/// partial frame is kept across polls and the bytes after a frame start
/// the next one. A length prefix is validated against `max_frame`
/// *before* the buffer grows to fit its body.
struct FrameReader {
    buf: Vec<u8>,
    /// First byte not yet handed out.
    start: usize,
    /// One past the last byte read.
    end: usize,
}

enum ReadStep<'a> {
    /// A complete frame body; `more` when bytes after it are already
    /// buffered (the peer is pipelining).
    Frame { body: &'a [u8], more: bool },
    /// No bytes pending and none buffered — safe point to check
    /// drain/idle deadlines.
    IdleBoundary,
    /// Timed out mid-frame; keep reading.
    MidFrame,
    /// Clean EOF at a frame boundary.
    Eof,
    /// The peer sent a length prefix above the cap. Unrecoverable for
    /// the connection (framing is lost) but reported before any
    /// allocation.
    TooLarge(u32),
    /// Hard socket error or mid-frame EOF.
    Broken,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    fn step(&mut self, stream: &mut impl Read, max_frame: u32) -> ReadStep<'_> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            // Give back what one large frame grew the buffer to.
            if self.buf.len() > READ_CHUNK {
                self.buf = vec![0; READ_CHUNK];
            }
        }
        loop {
            let mut need = PREFIX;
            if let Some(prefix) = self.buf[self.start..self.end].first_chunk::<PREFIX>() {
                let len = u32::from_le_bytes(*prefix);
                if len > max_frame {
                    return ReadStep::TooLarge(len);
                }
                need += len as usize;
                let frame_end = self.start + need;
                if frame_end <= self.end {
                    let body = self.start + PREFIX..frame_end;
                    self.start = frame_end;
                    return ReadStep::Frame {
                        body: &self.buf[body],
                        more: frame_end < self.end,
                    };
                }
            }
            // Make room for the whole pending frame: move its bytes to
            // the front and, for a frame over one chunk, grow (its length
            // was checked above).
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            let to = self.buf.len().min(self.end + READ_CHUNK);
            match stream.read(&mut self.buf[self.end..to]) {
                Ok(0) if self.start == self.end => return ReadStep::Eof,
                Ok(0) => return ReadStep::Broken,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return if self.start == self.end {
                        ReadStep::IdleBoundary
                    } else {
                        ReadStep::MidFrame
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return ReadStep::Broken,
            }
        }
    }
}

/// Encode `response` and write it as one frame (one `write`).
fn send_response(
    stream: &mut TcpStream,
    id: u64,
    response: &Response,
    max_frame: u32,
) -> Result<(), DbLshError> {
    write_len_frame(stream, &encode_response(id, response), max_frame)
}

fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let max_frame = shared.config.max_frame;

    // Replies handed to the writer and not yet written. Only this reader
    // raises it; only the writer lowers it, after a reply is out.
    let in_flight = Arc::new(AtomicUsize::new(0));
    // Reader → writer queue, bounded at the in-flight cap: a reader that
    // decodes faster than the engine answers blocks here, which stops it
    // pulling frames, which backs TCP up to the client — end-to-end
    // backpressure with no unbounded buffer anywhere.
    let (tx, rx) = mpsc::sync_channel::<Pending>(shared.config.max_in_flight.max(1));
    let writer = {
        let in_flight = Arc::clone(&in_flight);
        thread::Builder::new()
            .name("dblsh-net-writer".into())
            .spawn(move || writer_loop(write_stream, rx, max_frame, &in_flight))
    };
    let writer = match writer {
        Ok(h) => h,
        Err(_) => return,
    };

    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();
    loop {
        match reader.step(&mut stream, max_frame) {
            ReadStep::Frame { body, more } => {
                last_activity = Instant::now();
                // order: standalone lifetime counter, reporting only.
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                // order: Acquire pairs with the writer's Release decrement:
                // reading 0 means every reply handed over is fully written
                // and the writer is idle until this reader hands it more,
                // so a reply written here cannot overtake or interleave.
                let direct = !more && in_flight.load(Ordering::Acquire) == 0;
                match dispatch(body, shared, direct) {
                    Pending::Ready(id, response) if direct => {
                        if send_response(&mut stream, id, &response, max_frame).is_err() {
                            break; // socket dead
                        }
                    }
                    pending => {
                        // order: raised before the hand-off; the channel
                        // publishes it to the writer, whose decrement
                        // (an RMW) therefore never precedes it.
                        in_flight.fetch_add(1, Ordering::Relaxed);
                        if tx.send(pending).is_err() {
                            break; // writer gone (socket died)
                        }
                    }
                }
            }
            ReadStep::IdleBoundary => {
                // order: drain check in the SeqCst admission order so an
                // idle connection exits promptly once drain begins.
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(limit) = shared.config.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        break;
                    }
                }
            }
            ReadStep::MidFrame => {
                // Partial frame buffered; even while draining we give the
                // peer a grace window to finish it, since an accepted
                // byte stream deserves a typed answer.
                // order: drain check in the SeqCst admission order.
                if shared.draining.load(Ordering::SeqCst)
                    && last_activity.elapsed() >= Duration::from_secs(1)
                {
                    break;
                }
                if let Some(limit) = shared.config.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        break;
                    }
                }
            }
            ReadStep::TooLarge(len) => {
                let err = NetError::protocol(format!(
                    "frame of {len} bytes exceeds the {max_frame}-byte limit"
                ));
                // order: counted like every hand-off (see above).
                in_flight.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(refused(shared, 0, err));
                break; // framing lost: cannot resynchronise
            }
            ReadStep::Eof | ReadStep::Broken => break,
        }
    }
    // Dropping `tx` lets the writer drain every pending response, flush,
    // and exit — accepted requests always get their answer out.
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(SockShutdown::Both);
}

/// An error reply for a request the server refused or could not parse,
/// counted in [`ServerStats::errors`].
fn refused(shared: &Shared, id: u64, err: NetError) -> Pending {
    // order: standalone lifetime counter, reporting only.
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    Pending::Ready(id, Response::Error(err))
}

/// Decode one frame and hand it to the engine, inline when `direct`
/// allows and the engine is idle. Every failure mode maps to a typed
/// error response; nothing here blocks on the engine queue (a full one
/// refuses instead).
fn dispatch(body: &[u8], shared: &Shared, direct: bool) -> Pending {
    let (id, msg) = match decode_frame(body) {
        Ok(decoded) => decoded,
        Err(err) => return refused(shared, 0, err),
    };
    let req = match msg {
        Message::Request(req) => req,
        Message::Response(_) => {
            let err = NetError::protocol("received a response frame where a request was expected");
            return refused(shared, id, err);
        }
    };
    let op = match req {
        Request::Ping { token } => return Pending::Ready(id, Response::Pong { token }),
        Request::Stats => {
            return Pending::Ready(id, Response::Stats(Box::new(shared.engine.stats())))
        }
        Request::Metrics { format } => {
            let text = match format {
                MetricsFormat::Prometheus => shared.engine.render_metrics_prometheus(),
                MetricsFormat::Json => shared.engine.render_metrics_json(),
            };
            return Pending::Ready(id, Response::Metrics { text });
        }
        Request::Knn { query, k, opts } => Op::Search {
            query,
            k: k as usize,
            opts,
        },
        Request::RcNn { query, r } => Op::RcNn { query, r },
        Request::Insert { point } => Op::Insert { point },
        Request::Remove { id: point_id } => Op::Remove { id: point_id },
    };
    match shared.engine.try_run(op, direct) {
        Ok((ticket, true)) => Pending::Ready(id, answer(ticket)),
        Ok((ticket, false)) => Pending::Queued(id, ticket),
        Err(e) => refused(shared, id, NetError::Remote(e)),
    }
}

/// Write the replies the reader hands over, in acceptance order, waiting
/// on each queued ticket in turn. In-order per connection (concurrency
/// comes from the engine's worker pool working many tickets at once,
/// and from many connections); clients still match by request id, so
/// the ordering is a server implementation detail, not a protocol
/// promise.
fn writer_loop(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Pending>,
    max_frame: u32,
    in_flight: &AtomicUsize,
) {
    for pending in rx.iter() {
        let (id, response) = match pending {
            Pending::Ready(id, response) => (id, response),
            Pending::Queued(id, ticket) => (id, answer(ticket)),
        };
        if send_response(&mut stream, id, &response, max_frame).is_err() {
            // Socket dead: drain remaining tickets so engine replies
            // are consumed, then exit. (Dropping a Ticket is safe; the
            // worker's Reply just goes unread.)
            for _ in rx.iter() {}
            return;
        }
        // order: Release publishes the finished write to the reader's
        // Acquire load, which may then write a reply of its own.
        in_flight.fetch_sub(1, Ordering::Release);
    }
    let _ = stream.flush();
}

/// Wait for an engine ticket and turn its outcome into a response.
fn answer(ticket: OpTicket) -> Response {
    let outcome = match ticket {
        OpTicket::Search(t) => t.wait().map(Response::Knn),
        OpTicket::RcNn(t) => t
            .wait()
            .map(|(nearest, stats)| Response::RcNn { nearest, stats }),
        OpTicket::Insert(t) => t.wait().map(|id| Response::Insert { id }),
        OpTicket::Remove(t) => t.wait().map(|removed| Response::Remove { removed }),
    };
    outcome.unwrap_or_else(|e| Response::Error(NetError::Remote(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Serves scripted `read` results: bytes in the given pieces, with a
    /// timeout wherever a piece is `None`.
    struct Script(VecDeque<Option<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(ErrorKind::WouldBlock.into()),
                Some(Some(mut piece)) => {
                    let n = piece.len().min(out.len());
                    out[..n].copy_from_slice(&piece[..n]);
                    if n < piece.len() {
                        self.0.push_front(Some(piece.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    /// What one `step` returned, owned.
    #[derive(Debug, PartialEq)]
    enum Got {
        Frame(Vec<u8>, bool),
        Idle,
        Mid,
        Eof,
        TooLarge(u32),
        Broken,
    }

    fn step(reader: &mut FrameReader, script: &mut Script, max_frame: u32) -> Got {
        match reader.step(script, max_frame) {
            ReadStep::Frame { body, more } => Got::Frame(body.to_vec(), more),
            ReadStep::IdleBoundary => Got::Idle,
            ReadStep::MidFrame => Got::Mid,
            ReadStep::Eof => Got::Eof,
            ReadStep::TooLarge(len) => Got::TooLarge(len),
            ReadStep::Broken => Got::Broken,
        }
    }

    #[test]
    fn frame_reader_splits_joins_and_grows() {
        let big: Vec<u8> = (0..READ_CHUNK + 5000).map(|i| i as u8).collect();
        // Two small frames in one read, then a frame over one chunk split
        // across a timeout and its own prefix, then an empty frame.
        let mut pipelined = frame(b"abc");
        pipelined.extend(frame(b"defg"));
        let big_frame = frame(&big);
        let mut script = Script(VecDeque::from([
            Some(pipelined),
            None,
            Some(big_frame[..2].to_vec()),
            None,
            Some(big_frame[2..7000].to_vec()),
            Some(big_frame[7000..].to_vec()),
            Some(frame(b"")),
        ]));
        let mut reader = FrameReader::new();
        let max = 1 << 20;
        assert_eq!(
            step(&mut reader, &mut script, max),
            Got::Frame(b"abc".to_vec(), true)
        );
        assert_eq!(
            step(&mut reader, &mut script, max),
            Got::Frame(b"defg".to_vec(), false)
        );
        assert_eq!(step(&mut reader, &mut script, max), Got::Idle);
        assert_eq!(step(&mut reader, &mut script, max), Got::Mid);
        assert_eq!(step(&mut reader, &mut script, max), Got::Frame(big, false));
        assert_eq!(
            step(&mut reader, &mut script, max),
            Got::Frame(Vec::new(), false)
        );
        assert_eq!(
            reader.buf.len(),
            READ_CHUNK,
            "a large frame's growth is given back"
        );
        assert_eq!(step(&mut reader, &mut script, max), Got::Eof);
    }

    #[test]
    fn frame_reader_refuses_oversized_prefixes_and_torn_frames() {
        let mut script = Script(VecDeque::from([Some(frame(&[7; 100]))]));
        assert_eq!(
            step(&mut FrameReader::new(), &mut script, 64),
            Got::TooLarge(100)
        );
        let mut script = Script(VecDeque::from([Some(frame(b"hello")[..6].to_vec())]));
        assert_eq!(step(&mut FrameReader::new(), &mut script, 64), Got::Broken);
    }
}
