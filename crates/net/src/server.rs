//! The threaded TCP server: an acceptor thread plus a reader/writer
//! thread pair per connection, dispatching decoded requests onto the
//! caller's [`Engine`] so its bounded queue *is* the admission control.
//!
//! Layering (top to bottom):
//!
//! ```text
//! DbLshClient ──TCP──▶ DbLshServer (acceptor + per-conn reader/writer)
//!                          │  try_* submission (non-blocking)
//!                          ▼
//!                      Engine (bounded queue + worker pool)
//!                          │  canonical ladder, per-shard RwLocks
//!                          ▼
//!                      ShardedDbLsh
//! ```
//!
//! * A full engine queue never blocks a connection thread: submissions
//!   go through the engine's `try_*` API, and a refusal comes back over
//!   the wire as a typed [`DbLshError::Busy`] error response.
//! * Malformed bytes never kill the connection thread: oversized or
//!   lying length prefixes, bad magic, checksum mismatches, and stale
//!   versions are all answered with typed protocol error frames (the
//!   length prefix keeps framing intact, so the connection survives
//!   everything except a broken length prefix itself).
//! * Graceful drain: [`DbLshServer::shutdown`] stops accepting, lets
//!   every already-accepted request finish and its response flush, then
//!   closes. Accepted work is never dropped; new connects are refused
//!   with a `Shutdown` error frame.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dblsh_data::io::write_len_frame;
use dblsh_data::{DbLshError, Neighbor, QueryStats, SearchResult};
use dblsh_serve::{Engine, Ticket};

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

/// What a reader hands its connection's writer: either an engine ticket
/// still being worked, or a response that needed no engine trip
/// (protocol errors, refusals, pings answered in the reader for
/// simplicity would reorder — so even pings flow through here).
enum Pending {
    Search(u64, Ticket<SearchResult>),
    RcNn(u64, Ticket<(Option<Neighbor>, QueryStats)>),
    Insert(u64, Ticket<u32>),
    Remove(u64, Ticket<bool>),
    Immediate(u64, Response),
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
    let body = encode_response(0, &Response::Error(err));
    let _ = write_len_frame(&mut stream, &body, shared.config.max_frame);
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

/// Incremental frame reader that survives read timeouts: `read_exact`
/// would drop already-read bytes on `WouldBlock`, so partial length
/// prefixes and bodies are retained across polls. The length prefix is
/// validated against `max_frame` *before* any body allocation.
struct FrameReader {
    prefix: [u8; 4],
    prefix_filled: usize,
    body: Vec<u8>,
    body_filled: usize,
}

enum ReadStep {
    /// A complete frame body.
    Frame(Vec<u8>),
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
            prefix: [0; 4],
            prefix_filled: 0,
            body: Vec::new(),
            body_filled: 0,
        }
    }

    fn mid_frame(&self) -> bool {
        self.prefix_filled > 0 || self.body_filled > 0
    }

    fn step(&mut self, stream: &mut TcpStream, max_frame: u32) -> ReadStep {
        loop {
            if self.prefix_filled < 4 {
                match stream.read(&mut self.prefix[self.prefix_filled..]) {
                    Ok(0) => {
                        return if self.mid_frame() {
                            ReadStep::Broken
                        } else {
                            ReadStep::Eof
                        }
                    }
                    Ok(n) => {
                        self.prefix_filled += n;
                        if self.prefix_filled < 4 {
                            continue;
                        }
                        let len = u32::from_le_bytes(self.prefix);
                        if len > max_frame {
                            return ReadStep::TooLarge(len);
                        }
                        self.body = vec![0u8; len as usize];
                        self.body_filled = 0;
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        return if self.mid_frame() {
                            ReadStep::MidFrame
                        } else {
                            ReadStep::IdleBoundary
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ReadStep::Broken,
                }
            }
            if self.body_filled < self.body.len() {
                match stream.read(&mut self.body[self.body_filled..]) {
                    Ok(0) => return ReadStep::Broken,
                    Ok(n) => {
                        self.body_filled += n;
                        if self.body_filled < self.body.len() {
                            continue;
                        }
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        return ReadStep::MidFrame
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ReadStep::Broken,
                }
            }
            self.prefix_filled = 0;
            self.body_filled = 0;
            return ReadStep::Frame(std::mem::take(&mut self.body));
        }
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };

    // Reader → writer queue, bounded at the in-flight cap: a reader that
    // decodes faster than the engine answers blocks here, which stops it
    // pulling frames, which backs TCP up to the client — end-to-end
    // backpressure with no unbounded buffer anywhere.
    let (tx, rx) = mpsc::sync_channel::<Pending>(shared.config.max_in_flight.max(1));
    let writer = {
        let max_frame = shared.config.max_frame;
        thread::Builder::new()
            .name("dblsh-net-writer".into())
            .spawn(move || writer_loop(write_stream, rx, max_frame))
    };
    let writer = match writer {
        Ok(h) => h,
        Err(_) => return,
    };

    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();
    loop {
        match reader.step(&mut stream, shared.config.max_frame) {
            ReadStep::Frame(body) => {
                last_activity = Instant::now();
                // order: standalone lifetime counter, reporting only.
                shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                let pending = dispatch(&body, shared);
                if matches!(&pending, Pending::Immediate(_, Response::Error(_))) {
                    // order: standalone lifetime counter, reporting only.
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                if tx.send(pending).is_err() {
                    break; // writer gone (socket died)
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
                // order: standalone lifetime counter, reporting only.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let err = NetError::protocol(format!(
                    "frame of {len} bytes exceeds the {}-byte limit",
                    shared.config.max_frame
                ));
                let _ = tx.send(Pending::Immediate(0, Response::Error(err)));
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

/// Decode one frame and dispatch it onto the engine. Every failure mode
/// maps to a typed error response; nothing here blocks on the engine
/// queue (the `try_*` API refuses instead).
fn dispatch(body: &[u8], shared: &Shared) -> Pending {
    let (id, msg) = match decode_frame(body) {
        Ok(decoded) => decoded,
        Err(err) => return Pending::Immediate(0, Response::Error(err)),
    };
    let req = match msg {
        Message::Request(req) => req,
        Message::Response(_) => {
            return Pending::Immediate(
                id,
                Response::Error(NetError::protocol(
                    "received a response frame where a request was expected",
                )),
            )
        }
    };
    match req {
        Request::Ping { token } => Pending::Immediate(id, Response::Pong { token }),
        Request::Knn { query, k, opts } => {
            match shared.engine.try_search_with(&query, k as usize, opts) {
                Ok(ticket) => Pending::Search(id, ticket),
                Err(e) => Pending::Immediate(id, Response::Error(NetError::Remote(e))),
            }
        }
        Request::RcNn { query, r } => match shared.engine.try_r_c_nn(&query, r) {
            Ok(ticket) => Pending::RcNn(id, ticket),
            Err(e) => Pending::Immediate(id, Response::Error(NetError::Remote(e))),
        },
        Request::Insert { point } => match shared.engine.try_insert(&point) {
            Ok(ticket) => Pending::Insert(id, ticket),
            Err(e) => Pending::Immediate(id, Response::Error(NetError::Remote(e))),
        },
        Request::Remove { id: point_id } => match shared.engine.try_remove(point_id) {
            Ok(ticket) => Pending::Remove(id, ticket),
            Err(e) => Pending::Immediate(id, Response::Error(NetError::Remote(e))),
        },
        Request::Stats => Pending::Immediate(id, Response::Stats(Box::new(shared.engine.stats()))),
        Request::Metrics { format } => {
            let text = match format {
                MetricsFormat::Prometheus => shared.engine.render_metrics_prometheus(),
                MetricsFormat::Json => shared.engine.render_metrics_json(),
            };
            Pending::Immediate(id, Response::Metrics { text })
        }
    }
}

/// Resolve pending responses in acceptance order and write them out.
/// In-order per connection (concurrency comes from the engine's worker
/// pool working many tickets at once, and from many connections);
/// clients still match by request id, so the ordering is a server
/// implementation detail, not a protocol promise.
fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Pending>, max_frame: u32) {
    let mut queue: VecDeque<Pending> = VecDeque::new();
    loop {
        let next = match queue.pop_front() {
            Some(p) => p,
            None => match rx.recv() {
                Ok(p) => p,
                Err(_) => break, // reader gone and nothing pending
            },
        };
        let (id, response) = resolve(next);
        let body = encode_response(id, &response);
        if write_len_frame(&mut stream, &body, max_frame).is_err() {
            // Socket dead: drain remaining tickets so engine replies
            // are consumed, then exit. (Dropping a Ticket is safe; the
            // worker's Reply just goes unread.)
            for _ in rx.iter() {}
            return;
        }
    }
    let _ = stream.flush();
}

fn resolve(p: Pending) -> (u64, Response) {
    match p {
        Pending::Immediate(id, resp) => (id, resp),
        Pending::Search(id, t) => match t.wait() {
            Ok(res) => (id, Response::Knn(res)),
            Err(e) => (id, Response::Error(NetError::Remote(e))),
        },
        Pending::RcNn(id, t) => match t.wait() {
            Ok((nearest, stats)) => (id, Response::RcNn { nearest, stats }),
            Err(e) => (id, Response::Error(NetError::Remote(e))),
        },
        Pending::Insert(id, t) => match t.wait() {
            Ok(point_id) => (id, Response::Insert { id: point_id }),
            Err(e) => (id, Response::Error(NetError::Remote(e))),
        },
        Pending::Remove(id, t) => match t.wait() {
            Ok(removed) => (id, Response::Remove { removed }),
            Err(e) => (id, Response::Error(NetError::Remote(e))),
        },
    }
}
