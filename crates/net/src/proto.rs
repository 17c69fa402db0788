//! The DB-LSH binary wire protocol.
//!
//! Every message travels as one **length-prefixed frame**
//! ([`dblsh_data::io::write_len_frame`] /
//! [`dblsh_data::io::read_len_frame`]) whose body
//! follows the `SnapshotWriter`/`SnapshotReader` framing discipline —
//! magic, version, CRC, and a typed error for every way bytes can lie:
//!
//! ```text
//! length   u32 LE   body byte count (bounded; checked before any
//!                   allocation — a lying prefix is a typed error)
//! magic    4 bytes  "DBLN"
//! version  u16 LE   wire protocol version (currently 1)
//! kind     u8       0 = request, 1 = ok-response, 2 = error-response
//! opcode   u8       Ping/Knn/RcNn/Insert/Remove/Stats
//! reqid    u64 LE   request id, echoed verbatim in the response —
//!                   pipelined callers match responses by it
//! payload  ...      opcode-specific, little-endian throughout
//! crc32    u32 LE   CRC-32 over magic..payload
//! ```
//!
//! Payloads are built with [`dblsh_data::io::SectionBuf`] and decoded
//! with bounds-checked [`dblsh_data::io::SectionCursor`] reads, so a
//! truncated or trailing-byte payload surfaces as a typed
//! [`NetError::Protocol`] — never a panic, never a silently misparsed
//! request. [`SearchOptions`] ride each `Knn` request (presence-flagged
//! overrides), so probe-plan knobs are per-request wire state, not
//! server configuration.

use std::fmt;

use dblsh_core::SearchOptions;
use dblsh_data::io::{crc32, SectionBuf, SectionCursor};
use dblsh_data::{DbLshError, Neighbor, QueryStats, SearchResult};
use dblsh_serve::EngineStats;

/// Magic bytes opening every frame body.
pub const WIRE_MAGIC: [u8; 4] = *b"DBLN";

/// Current wire protocol version. A frame carrying any other version is
/// answered with a typed [`NetError::Version`] error response — the
/// length prefix keeps framing intact across versions, so the
/// connection survives.
pub const WIRE_VERSION: u16 = 1;

/// Smallest legal frame body: magic + version + kind + opcode + request
/// id + CRC, with an empty payload.
pub const MIN_FRAME: usize = 4 + 2 + 1 + 1 + 8 + 4;

/// Default cap on a frame body. Generous for any sane request (a 1M-d
/// query would still fit) while bounding what a malicious length prefix
/// can make either side allocate.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

const KIND_REQUEST: u8 = 0;
const KIND_OK: u8 = 1;
const KIND_ERROR: u8 = 2;

const OP_PING: u8 = 1;
const OP_KNN: u8 = 2;
const OP_RCNN: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_REMOVE: u8 = 5;
const OP_STATS: u8 = 6;
const OP_METRICS: u8 = 7;

/// Everything that can go wrong on the wire path, client or server
/// side. `Clone + PartialEq` like [`DbLshError`], so tests can assert
/// exact outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A socket-level failure. `op` names the operation; the OS error
    /// text is kept as a string.
    Io { op: &'static str, error: String },
    /// Bytes that violate the wire protocol: bad magic, checksum
    /// mismatch, truncated or oversized frame, unknown opcode, payload
    /// schema violation.
    Protocol { reason: String },
    /// The peer speaks an unsupported wire protocol version.
    Version { got: u16 },
    /// The remote engine reported a typed error ([`DbLshError::Busy`]
    /// for admission-control refusals, [`DbLshError::Shutdown`] for a
    /// draining engine, validation errors for malformed requests, ...).
    Remote(DbLshError),
    /// The connection closed before the response arrived.
    Disconnected,
}

impl NetError {
    /// Shorthand for [`NetError::Protocol`].
    pub fn protocol(reason: impl Into<String>) -> Self {
        NetError::Protocol {
            reason: reason.into(),
        }
    }

    /// Wrap an [`std::io::Error`] under the named operation.
    pub fn io(op: &'static str, error: std::io::Error) -> Self {
        NetError::Io {
            op,
            error: error.to_string(),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { op, error } => write!(f, "socket {op} failed: {error}"),
            NetError::Protocol { reason } => write!(f, "wire protocol violation: {reason}"),
            NetError::Version { got } => write!(
                f,
                "unsupported wire protocol version {got} (this build speaks {WIRE_VERSION})"
            ),
            NetError::Remote(e) => write!(f, "remote error: {e}"),
            NetError::Disconnected => write!(f, "connection closed before the response arrived"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<DbLshError> for NetError {
    fn from(e: DbLshError) -> Self {
        NetError::Remote(e)
    }
}

/// Map a frame/payload decoding error (the typed errors the shared
/// [`SectionCursor`]/[`read_len_frame`] helpers produce) onto the wire
/// error space.
///
/// [`read_len_frame`]: dblsh_data::io::read_len_frame
pub fn decode_error(e: DbLshError) -> NetError {
    match e {
        DbLshError::CorruptSnapshot { reason } => NetError::Protocol { reason },
        DbLshError::Io { op, error } => NetError::Io { op, error },
        other => NetError::Remote(other),
    }
}

/// A request, as decoded from (or encoded into) one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; the token is echoed back.
    Ping { token: u64 },
    /// (c,k)-ANN search with per-request [`SearchOptions`].
    Knn {
        query: Vec<f32>,
        k: u32,
        opts: SearchOptions,
    },
    /// (r,c)-NN probe at radius `r`.
    RcNn { query: Vec<f32>, r: f64 },
    /// Insert one point; responds with its assigned global id.
    Insert { point: Vec<f32> },
    /// Remove by id; responds with whether the id was live.
    Remove { id: u32 },
    /// Engine counter snapshot.
    Stats,
    /// Scrape the full metrics registry in the requested exposition
    /// format (Prometheus text or JSON).
    Metrics { format: MetricsFormat },
}

/// Exposition format requested by a [`Request::Metrics`] scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Prometheus text exposition format.
    #[default]
    Prometheus,
    /// Single JSON document (keeps raw sparse histogram buckets).
    Json,
}

impl MetricsFormat {
    fn to_wire(self) -> u8 {
        match self {
            MetricsFormat::Prometheus => 0,
            MetricsFormat::Json => 1,
        }
    }

    fn from_wire(v: u8) -> Result<MetricsFormat, DbLshError> {
        match v {
            0 => Ok(MetricsFormat::Prometheus),
            1 => Ok(MetricsFormat::Json),
            other => Err(DbLshError::corrupt(format!(
                "unknown metrics format {other} (0 = prometheus, 1 = json)"
            ))),
        }
    }
}

/// A response, matched to its request by the echoed request id.
#[derive(Debug, Clone)]
pub enum Response {
    Pong {
        token: u64,
    },
    Knn(SearchResult),
    RcNn {
        nearest: Option<Neighbor>,
        stats: QueryStats,
    },
    Insert {
        id: u32,
    },
    Remove {
        removed: bool,
    },
    /// Boxed: the counter snapshot (64 latency buckets) dwarfs every
    /// other variant.
    Stats(Box<EngineStats>),
    /// A rendered metrics exposition document (format chosen by the
    /// request; the bytes are UTF-8 text either way).
    Metrics {
        text: String,
    },
    /// A typed failure: engine-level ([`NetError::Remote`]) or
    /// protocol-level, reported instead of an ok-response.
    Error(NetError),
}

/// One decoded frame: the echoed request id plus the message.
#[derive(Debug, Clone)]
pub enum Message {
    Request(Request),
    Response(Response),
}

// ---------------------------------------------------------------------
// SearchOptions <-> wire
// ---------------------------------------------------------------------

const OPT_BUDGET: u8 = 1 << 0;
const OPT_R_MIN: u8 = 1 << 1;
const OPT_MAX_ROUNDS: u8 = 1 << 2;
const OPT_SKIP_STATS: u8 = 1 << 3;
const OPT_TIME_VERIFICATION: u8 = 1 << 4;
/// Set when the request *disables* the SQ8 pre-filter (the default is
/// on), so pre-flag frames — which never carry the bit — keep decoding
/// to the default behavior.
const OPT_NO_PREFILTER: u8 = 1 << 5;
/// Per-stage tracing requested: the serving engine times the request
/// through the pipeline stages and feeds the stage histograms and
/// slow-query log. Off by default (old frames never carry the bit).
const OPT_TRACE: u8 = 1 << 6;

fn put_options(buf: &mut SectionBuf, opts: &SearchOptions) {
    let mut flags = 0u8;
    flags |= if opts.budget.is_some() { OPT_BUDGET } else { 0 };
    flags |= if opts.r_min.is_some() { OPT_R_MIN } else { 0 };
    flags |= if opts.max_rounds.is_some() {
        OPT_MAX_ROUNDS
    } else {
        0
    };
    flags |= if opts.skip_stats { OPT_SKIP_STATS } else { 0 };
    flags |= if opts.time_verification {
        OPT_TIME_VERIFICATION
    } else {
        0
    };
    flags |= if opts.prefilter { 0 } else { OPT_NO_PREFILTER };
    flags |= if opts.trace { OPT_TRACE } else { 0 };
    buf.put_u8(flags);
    if let Some(b) = opts.budget {
        buf.put_u64(b as u64);
    }
    if let Some(r) = opts.r_min {
        buf.put_f64(r);
    }
    if let Some(m) = opts.max_rounds {
        buf.put_u64(m as u64);
    }
}

fn get_options(c: &mut SectionCursor<'_>) -> Result<SearchOptions, DbLshError> {
    let flags = c.get_u8()?;
    if flags
        & !(OPT_BUDGET
            | OPT_R_MIN
            | OPT_MAX_ROUNDS
            | OPT_SKIP_STATS
            | OPT_TIME_VERIFICATION
            | OPT_NO_PREFILTER
            | OPT_TRACE)
        != 0
    {
        return Err(DbLshError::corrupt(format!(
            "unknown SearchOptions flag bits {flags:#04x}"
        )));
    }
    let mut opts = SearchOptions::default();
    if flags & OPT_BUDGET != 0 {
        opts.budget = Some(get_usize(c)?);
    }
    if flags & OPT_R_MIN != 0 {
        opts.r_min = Some(c.get_f64()?);
    }
    if flags & OPT_MAX_ROUNDS != 0 {
        opts.max_rounds = Some(get_usize(c)?);
    }
    opts.skip_stats = flags & OPT_SKIP_STATS != 0;
    opts.time_verification = flags & OPT_TIME_VERIFICATION != 0;
    opts.prefilter = flags & OPT_NO_PREFILTER == 0;
    opts.trace = flags & OPT_TRACE != 0;
    Ok(opts)
}

fn get_usize(c: &mut SectionCursor<'_>) -> Result<usize, DbLshError> {
    let v = c.get_u64()?;
    usize::try_from(v).map_err(|_| DbLshError::corrupt(format!("value {v} does not fit in usize")))
}

fn put_query(buf: &mut SectionBuf, q: &[f32]) {
    buf.put_u32(q.len() as u32);
    buf.put_f32_slice(q);
}

fn get_query(c: &mut SectionCursor<'_>) -> Result<Vec<f32>, DbLshError> {
    let dim = c.get_u32()? as usize;
    c.get_f32_vec(dim)
}

fn put_stats(buf: &mut SectionBuf, s: &QueryStats) {
    buf.put_u64(s.candidates as u64);
    buf.put_u64(s.rounds as u64);
    buf.put_u64(s.index_probes as u64);
    buf.put_u64(s.prefilter_pruned as u64);
    buf.put_u64(s.prefilter_survivors as u64);
    buf.put_u64(s.verify_nanos);
}

fn get_stats(c: &mut SectionCursor<'_>) -> Result<QueryStats, DbLshError> {
    Ok(QueryStats {
        candidates: get_usize(c)?,
        rounds: get_usize(c)?,
        index_probes: get_usize(c)?,
        prefilter_pruned: get_usize(c)?,
        prefilter_survivors: get_usize(c)?,
        verify_nanos: c.get_u64()?,
    })
}

// ---------------------------------------------------------------------
// Typed error <-> wire
// ---------------------------------------------------------------------

// Error payload: code u16, two u64 auxiliary fields, message bytes.
// Structured variants (DimensionMismatch, UnknownId, CapacityExceeded,
// Version) round-trip exactly through the aux fields; string-carrying
// ones through the message.
const E_BUSY: u16 = 1;
const E_SHUTDOWN: u16 = 2;
const E_EMPTY: u16 = 3;
const E_DIM: u16 = 4;
const E_NONFINITE: u16 = 5;
const E_PARAM: u16 = 6;
const E_CAPACITY: u16 = 7;
const E_UNKNOWN_ID: u16 = 8;
const E_IO: u16 = 9;
const E_CORRUPT: u16 = 10;
const E_DEADLINE: u16 = 11;
const E_POISONED: u16 = 12;
const E_PROTOCOL: u16 = 100;
const E_VERSION: u16 = 101;
const E_DISCONNECTED: u16 = 102;

/// `param` names cross the wire as text but [`DbLshError`] wants
/// `&'static str`; known knobs map back to their static name, anything
/// else to `"remote"` (the original name stays in the reason text).
fn static_param(name: &str) -> &'static str {
    for known in [
        "k",
        "r",
        "budget",
        "r_min",
        "max_rounds",
        "frame",
        "engine",
        "c",
        "w0",
        "l",
        "t",
    ] {
        if name == known {
            return known;
        }
    }
    "remote"
}

fn static_op(name: &str) -> &'static str {
    for known in ["read", "write", "create", "rename", "open", "flush"] {
        if name == known {
            return known;
        }
    }
    "io"
}

fn static_lock(name: &str) -> &'static str {
    for known in ["shard", "router", "wal", "queue", "registry"] {
        if name == known {
            return known;
        }
    }
    "remote"
}

fn put_error(buf: &mut SectionBuf, err: &NetError) {
    let (code, aux0, aux1, msg): (u16, u64, u64, String) = match err {
        NetError::Remote(e) => match e {
            DbLshError::Busy => (E_BUSY, 0, 0, String::new()),
            DbLshError::Shutdown => (E_SHUTDOWN, 0, 0, String::new()),
            DbLshError::EmptyDataset => (E_EMPTY, 0, 0, String::new()),
            DbLshError::DimensionMismatch { expected, got } => {
                (E_DIM, *expected as u64, *got as u64, String::new())
            }
            DbLshError::NonFiniteCoordinate => (E_NONFINITE, 0, 0, String::new()),
            DbLshError::InvalidParameter { param, reason } => {
                (E_PARAM, 0, 0, format!("{param}\u{1f}{reason}"))
            }
            DbLshError::CapacityExceeded { limit } => (E_CAPACITY, *limit as u64, 0, String::new()),
            DbLshError::UnknownId { id } => (E_UNKNOWN_ID, *id as u64, 0, String::new()),
            DbLshError::Io { op, error } => (E_IO, 0, 0, format!("{op}\u{1f}{error}")),
            DbLshError::CorruptSnapshot { reason } => (E_CORRUPT, 0, 0, reason.clone()),
            DbLshError::DeadlineExceeded => (E_DEADLINE, 0, 0, String::new()),
            DbLshError::LockPoisoned { what } => (E_POISONED, 0, 0, what.to_string()),
        },
        NetError::Protocol { reason } => (E_PROTOCOL, 0, 0, reason.clone()),
        NetError::Version { got } => (E_VERSION, *got as u64, 0, String::new()),
        NetError::Disconnected => (E_DISCONNECTED, 0, 0, String::new()),
        // Socket errors are connection-local and never travel; if one is
        // asked to, degrade to a protocol-level report.
        NetError::Io { op, error } => (E_PROTOCOL, 0, 0, format!("socket {op} failed: {error}")),
    };
    buf.put_u16(code);
    buf.put_u64(aux0);
    buf.put_u64(aux1);
    buf.put_u32(msg.len() as u32);
    buf.put_bytes(msg.as_bytes());
}

fn get_error(c: &mut SectionCursor<'_>) -> Result<NetError, DbLshError> {
    let code = c.get_u16()?;
    let aux0 = c.get_u64()?;
    let aux1 = c.get_u64()?;
    let msg_len = c.get_u32()? as usize;
    let msg = String::from_utf8_lossy(c.get_bytes(msg_len)?).into_owned();
    let split = |s: &str| -> (String, String) {
        match s.split_once('\u{1f}') {
            Some((a, b)) => (a.to_string(), b.to_string()),
            None => (String::new(), s.to_string()),
        }
    };
    Ok(match code {
        E_BUSY => NetError::Remote(DbLshError::Busy),
        E_SHUTDOWN => NetError::Remote(DbLshError::Shutdown),
        E_EMPTY => NetError::Remote(DbLshError::EmptyDataset),
        E_DIM => NetError::Remote(DbLshError::DimensionMismatch {
            expected: aux0 as usize,
            got: aux1 as usize,
        }),
        E_NONFINITE => NetError::Remote(DbLshError::NonFiniteCoordinate),
        E_PARAM => {
            let (param, reason) = split(&msg);
            NetError::Remote(DbLshError::InvalidParameter {
                param: static_param(&param),
                reason,
            })
        }
        E_CAPACITY => NetError::Remote(DbLshError::CapacityExceeded {
            limit: aux0 as usize,
        }),
        E_UNKNOWN_ID => NetError::Remote(DbLshError::UnknownId { id: aux0 as u32 }),
        E_IO => {
            let (op, error) = split(&msg);
            NetError::Remote(DbLshError::Io {
                op: static_op(&op),
                error,
            })
        }
        E_CORRUPT => NetError::Remote(DbLshError::CorruptSnapshot { reason: msg }),
        E_DEADLINE => NetError::Remote(DbLshError::DeadlineExceeded),
        E_POISONED => NetError::Remote(DbLshError::LockPoisoned {
            what: static_lock(&msg),
        }),
        E_PROTOCOL => NetError::Protocol { reason: msg },
        E_VERSION => NetError::Version { got: aux0 as u16 },
        E_DISCONNECTED => NetError::Disconnected,
        other => {
            return Err(DbLshError::corrupt(format!(
                "unknown wire error code {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------
// EngineStats <-> wire
// ---------------------------------------------------------------------

fn put_engine_stats(buf: &mut SectionBuf, s: &EngineStats) {
    buf.put_u64(s.searches);
    buf.put_u64(s.inserts);
    buf.put_u64(s.removes);
    buf.put_u64(s.errors);
    buf.put_u64(s.rejected);
    buf.put_u64(s.deadline_expired);
    buf.put_u64(s.queue_depth);
    put_stats(buf, &s.query);
    buf.put_f64(s.elapsed_secs);
    buf.put_f64(s.qps);
    buf.put_f64(s.mean_latency_us);
    buf.put_f64(s.p50_latency_us);
    buf.put_f64(s.p99_latency_us);
    buf.put_u64_slice(&s.latency_buckets);
    // Appended after the original layout; readers treat them as
    // optional (forward-compatible defaults when absent).
    buf.put_u64(s.knn_requests);
    buf.put_u64(s.rcnn_requests);
    buf.put_f64(s.uptime_secs);
    buf.put_u64(s.started_at_unix);
}

fn get_engine_stats(c: &mut SectionCursor<'_>) -> Result<EngineStats, DbLshError> {
    let mut s = EngineStats {
        searches: c.get_u64()?,
        inserts: c.get_u64()?,
        removes: c.get_u64()?,
        errors: c.get_u64()?,
        rejected: c.get_u64()?,
        deadline_expired: c.get_u64()?,
        queue_depth: c.get_u64()?,
        query: get_stats(c)?,
        elapsed_secs: c.get_f64()?,
        qps: c.get_f64()?,
        mean_latency_us: c.get_f64()?,
        p50_latency_us: c.get_f64()?,
        p99_latency_us: c.get_f64()?,
        ..EngineStats::default()
    };
    let buckets = c.get_u64_vec(64)?;
    s.latency_buckets.copy_from_slice(&buckets);
    // Fields appended after the original layout: a peer that predates
    // them simply stops here, and the defaults stand.
    if c.remaining() > 0 {
        s.knn_requests = c.get_u64()?;
        s.rcnn_requests = c.get_u64()?;
        s.uptime_secs = c.get_f64()?;
        s.started_at_unix = c.get_u64()?;
    }
    Ok(s)
}

// ---------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------

fn encode_frame(kind: u8, opcode: u8, request_id: u64, payload: SectionBuf) -> Vec<u8> {
    let mut body = Vec::with_capacity(MIN_FRAME + payload.len());
    body.extend_from_slice(&WIRE_MAGIC);
    body.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    body.push(kind);
    body.push(opcode);
    body.extend_from_slice(&request_id.to_le_bytes());
    body.extend_from_slice(payload.as_bytes());
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Encode a request into a frame body (send with
/// [`dblsh_data::io::write_len_frame`]).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut p = SectionBuf::new();
    let opcode = match req {
        Request::Ping { token } => {
            p.put_u64(*token);
            OP_PING
        }
        Request::Knn { query, k, opts } => {
            p.put_u32(*k);
            put_options(&mut p, opts);
            put_query(&mut p, query);
            OP_KNN
        }
        Request::RcNn { query, r } => {
            p.put_f64(*r);
            put_query(&mut p, query);
            OP_RCNN
        }
        Request::Insert { point } => {
            put_query(&mut p, point);
            OP_INSERT
        }
        Request::Remove { id } => {
            p.put_u32(*id);
            OP_REMOVE
        }
        Request::Stats => OP_STATS,
        Request::Metrics { format } => {
            p.put_u8(format.to_wire());
            OP_METRICS
        }
    };
    encode_frame(KIND_REQUEST, opcode, request_id, p)
}

/// Encode a response into a frame body. The opcode mirrors the request
/// it answers (errors carry the opcode of the failing request, or 0 for
/// connection-level faults).
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut p = SectionBuf::new();
    let (kind, opcode) = match resp {
        Response::Pong { token } => {
            p.put_u64(*token);
            (KIND_OK, OP_PING)
        }
        Response::Knn(res) => {
            p.put_u32(res.neighbors.len() as u32);
            for n in &res.neighbors {
                p.put_u32(n.id);
                p.put_f32(n.dist);
            }
            put_stats(&mut p, &res.stats);
            (KIND_OK, OP_KNN)
        }
        Response::RcNn { nearest, stats } => {
            match nearest {
                Some(n) => {
                    p.put_u8(1);
                    p.put_u32(n.id);
                    p.put_f32(n.dist);
                }
                None => p.put_u8(0),
            }
            put_stats(&mut p, stats);
            (KIND_OK, OP_RCNN)
        }
        Response::Insert { id } => {
            p.put_u32(*id);
            (KIND_OK, OP_INSERT)
        }
        Response::Remove { removed } => {
            p.put_u8(u8::from(*removed));
            (KIND_OK, OP_REMOVE)
        }
        Response::Stats(stats) => {
            put_engine_stats(&mut p, stats);
            (KIND_OK, OP_STATS)
        }
        Response::Metrics { text } => {
            p.put_u32(text.len() as u32);
            p.put_bytes(text.as_bytes());
            (KIND_OK, OP_METRICS)
        }
        Response::Error(err) => {
            put_error(&mut p, err);
            (KIND_ERROR, 0)
        }
    };
    encode_frame(kind, opcode, request_id, p)
}

/// Decode one frame body into `(request_id, message)`. Every violation —
/// short body, bad magic, stale version, checksum mismatch, unknown
/// kind/opcode, payload schema breakage, trailing payload bytes — is a
/// typed [`NetError`], never a panic.
pub fn decode_frame(body: &[u8]) -> Result<(u64, Message), NetError> {
    if body.len() < MIN_FRAME {
        return Err(NetError::protocol(format!(
            "frame body of {} bytes is shorter than the {MIN_FRAME}-byte minimum",
            body.len()
        )));
    }
    if body[..4] != WIRE_MAGIC {
        return Err(NetError::protocol("not a DB-LSH wire frame (bad magic)"));
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != WIRE_VERSION {
        return Err(NetError::Version { got: version });
    }
    let crc_at = body.len() - 4;
    // Both `try_into`s below are over fixed-width slices of a body whose
    // minimum length was checked above, so the error arms are dead —
    // spelled as protocol errors to keep the decode path panic-free.
    let sent_crc = match body[crc_at..].try_into() {
        Ok(bytes) => u32::from_le_bytes(bytes),
        Err(_) => return Err(NetError::protocol("truncated frame checksum")),
    };
    if crc32(&body[..crc_at]) != sent_crc {
        return Err(NetError::protocol(
            "frame checksum mismatch (payload corrupted in flight)",
        ));
    }
    let kind = body[6];
    let opcode = body[7];
    let request_id = match body[8..16].try_into() {
        Ok(bytes) => u64::from_le_bytes(bytes),
        Err(_) => return Err(NetError::protocol("truncated request id")),
    };
    let mut c = SectionCursor::over(*b"WIRE", &body[16..crc_at]);
    let msg = match kind {
        KIND_REQUEST => Message::Request(decode_request(opcode, &mut c).map_err(decode_error)?),
        KIND_OK => Message::Response(decode_ok(opcode, &mut c).map_err(decode_error)?),
        KIND_ERROR => Message::Response(Response::Error(get_error(&mut c).map_err(decode_error)?)),
        other => return Err(NetError::protocol(format!("unknown frame kind {other}"))),
    };
    c.finish().map_err(decode_error)?;
    Ok((request_id, msg))
}

fn decode_request(opcode: u8, c: &mut SectionCursor<'_>) -> Result<Request, DbLshError> {
    Ok(match opcode {
        OP_PING => Request::Ping {
            token: c.get_u64()?,
        },
        OP_KNN => {
            let k = c.get_u32()?;
            let opts = get_options(c)?;
            let query = get_query(c)?;
            Request::Knn { query, k, opts }
        }
        OP_RCNN => {
            let r = c.get_f64()?;
            let query = get_query(c)?;
            Request::RcNn { query, r }
        }
        OP_INSERT => Request::Insert {
            point: get_query(c)?,
        },
        OP_REMOVE => Request::Remove { id: c.get_u32()? },
        OP_STATS => Request::Stats,
        OP_METRICS => Request::Metrics {
            format: MetricsFormat::from_wire(c.get_u8()?)?,
        },
        other => {
            return Err(DbLshError::corrupt(format!(
                "unknown request opcode {other}"
            )))
        }
    })
}

fn decode_ok(opcode: u8, c: &mut SectionCursor<'_>) -> Result<Response, DbLshError> {
    Ok(match opcode {
        OP_PING => Response::Pong {
            token: c.get_u64()?,
        },
        OP_KNN => {
            let count = c.get_u32()? as usize;
            let mut neighbors = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let id = c.get_u32()?;
                let dist = c.get_f32()?;
                neighbors.push(Neighbor { id, dist });
            }
            let stats = get_stats(c)?;
            Response::Knn(SearchResult { neighbors, stats })
        }
        OP_RCNN => {
            let nearest = match c.get_u8()? {
                0 => None,
                1 => Some(Neighbor {
                    id: c.get_u32()?,
                    dist: c.get_f32()?,
                }),
                other => {
                    return Err(DbLshError::corrupt(format!(
                        "RcNn presence byte must be 0 or 1, got {other}"
                    )))
                }
            };
            let stats = get_stats(c)?;
            Response::RcNn { nearest, stats }
        }
        OP_INSERT => Response::Insert { id: c.get_u32()? },
        OP_REMOVE => Response::Remove {
            removed: match c.get_u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(DbLshError::corrupt(format!(
                        "Remove result byte must be 0 or 1, got {other}"
                    )))
                }
            },
        },
        OP_STATS => Response::Stats(Box::new(get_engine_stats(c)?)),
        OP_METRICS => {
            let len = c.get_u32()? as usize;
            let text = String::from_utf8(c.get_bytes(len)?.to_vec())
                .map_err(|_| DbLshError::corrupt("metrics exposition is not valid UTF-8"))?;
            Response::Metrics { text }
        }
        other => {
            return Err(DbLshError::corrupt(format!(
                "unknown response opcode {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping { token: 0xDEAD_BEEF },
            Request::Knn {
                query: vec![1.0, -2.5, 3.25],
                k: 10,
                opts: SearchOptions {
                    budget: Some(512),
                    r_min: Some(0.75),
                    max_rounds: Some(9),
                    skip_stats: true,
                    time_verification: false,
                    prefilter: false,
                    trace: true,
                },
            },
            Request::Knn {
                query: vec![0.0; 8],
                k: 1,
                opts: SearchOptions::default(),
            },
            Request::RcNn {
                query: vec![9.0, 8.0],
                r: 2.5,
            },
            Request::Insert {
                point: vec![0.5, 0.25],
            },
            Request::Remove { id: 77 },
            Request::Stats,
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Metrics {
                format: MetricsFormat::Json,
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let stats = QueryStats {
            candidates: 42,
            rounds: 3,
            index_probes: 99,
            prefilter_pruned: 17,
            prefilter_survivors: 25,
            verify_nanos: 1234,
        };
        vec![
            Response::Pong { token: 7 },
            Response::Knn(SearchResult {
                neighbors: vec![
                    Neighbor { id: 3, dist: 0.5 },
                    Neighbor { id: 9, dist: 1.25 },
                ],
                stats,
            }),
            Response::RcNn {
                nearest: Some(Neighbor { id: 1, dist: 0.1 }),
                stats,
            },
            Response::RcNn {
                nearest: None,
                stats: QueryStats::default(),
            },
            Response::Insert { id: 1000 },
            Response::Remove { removed: true },
            Response::Stats(Box::new(EngineStats {
                searches: 5,
                knn_requests: 4,
                rcnn_requests: 1,
                rejected: 2,
                deadline_expired: 3,
                queue_depth: 1,
                qps: 123.5,
                uptime_secs: 9.25,
                started_at_unix: 1_754_000_000,
                ..EngineStats::default()
            })),
            Response::Metrics {
                text: "# HELP dblsh_queue_depth Jobs queued.\n# TYPE dblsh_queue_depth gauge\ndblsh_queue_depth 3\n".to_string(),
            },
            Response::Error(NetError::Remote(DbLshError::Busy)),
            Response::Error(NetError::Remote(DbLshError::Shutdown)),
            Response::Error(NetError::Remote(DbLshError::DimensionMismatch {
                expected: 16,
                got: 3,
            })),
            Response::Error(NetError::Remote(DbLshError::invalid(
                "k",
                "must be at least 1",
            ))),
            Response::Error(NetError::Remote(DbLshError::UnknownId { id: 8 })),
            Response::Error(NetError::Remote(DbLshError::DeadlineExceeded)),
            Response::Error(NetError::protocol("bad frame")),
            Response::Error(NetError::Version { got: 9 }),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let body = encode_request(i as u64 + 1, &req);
            let (id, msg) = decode_frame(&body).unwrap();
            assert_eq!(id, i as u64 + 1);
            match msg {
                Message::Request(back) => assert_eq!(back, req, "request {i}"),
                other => panic!("request {i} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        for (i, resp) in sample_responses().into_iter().enumerate() {
            let body = encode_response(i as u64, &resp);
            let (id, msg) = decode_frame(&body).unwrap();
            assert_eq!(id, i as u64);
            let back = match msg {
                Message::Response(r) => r,
                other => panic!("response {i} decoded as {other:?}"),
            };
            match (&resp, &back) {
                (Response::Pong { token: a }, Response::Pong { token: b }) => assert_eq!(a, b),
                (Response::Knn(a), Response::Knn(b)) => {
                    assert_eq!(a.neighbors, b.neighbors);
                    assert_eq!(a.stats, b.stats);
                }
                (
                    Response::RcNn {
                        nearest: a,
                        stats: sa,
                    },
                    Response::RcNn {
                        nearest: b,
                        stats: sb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(sa, sb);
                }
                (Response::Insert { id: a }, Response::Insert { id: b }) => assert_eq!(a, b),
                (Response::Remove { removed: a }, Response::Remove { removed: b }) => {
                    assert_eq!(a, b)
                }
                (Response::Stats(a), Response::Stats(b)) => assert_eq!(a, b),
                (Response::Metrics { text: a }, Response::Metrics { text: b }) => {
                    assert_eq!(a, b)
                }
                (Response::Error(a), Response::Error(b)) => assert_eq!(a, b),
                (a, b) => panic!("response {i}: {a:?} decoded as {b:?}"),
            }
        }
    }

    #[test]
    fn every_prefix_truncation_is_a_typed_error() {
        let body = encode_request(
            42,
            &Request::Knn {
                query: vec![1.0, 2.0, 3.0, 4.0],
                k: 5,
                opts: SearchOptions {
                    budget: Some(100),
                    ..Default::default()
                },
            },
        );
        for cut in 0..body.len() {
            match decode_frame(&body[..cut]) {
                Err(NetError::Protocol { .. }) | Err(NetError::Version { .. }) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
                Ok(_) => panic!("cut at {cut} decoded successfully"),
            }
        }
    }

    #[test]
    fn every_byte_bit_flip_is_detected() {
        // Flip one bit in every byte position of an encoded frame; each
        // flip must surface as a typed error (magic, version, checksum,
        // or schema) — never a panic, never a silently changed request.
        let body = encode_request(
            7,
            &Request::Knn {
                query: vec![0.5, -1.5],
                k: 3,
                opts: SearchOptions::default(),
            },
        );
        for pos in 0..body.len() {
            let mut bad = body.clone();
            bad[pos] ^= 0x10;
            match decode_frame(&bad) {
                Err(NetError::Protocol { .. }) | Err(NetError::Version { .. }) => {}
                Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
                Ok(_) => panic!("flip at {pos} went undetected"),
            }
        }
    }

    #[test]
    fn metrics_frames_survive_truncation_and_bit_flips_as_typed_errors() {
        // Same torture as the Knn frames, but for the Metrics opcode:
        // every prefix truncation and every in-flight bit flip of both
        // the request and a response must surface as a typed error.
        let req = encode_request(
            11,
            &Request::Metrics {
                format: MetricsFormat::Json,
            },
        );
        let resp = encode_response(
            11,
            &Response::Metrics {
                text: "dblsh_queue_depth 3\n".to_string(),
            },
        );
        for body in [&req, &resp] {
            for cut in 0..body.len() {
                match decode_frame(&body[..cut]) {
                    Err(NetError::Protocol { .. }) | Err(NetError::Version { .. }) => {}
                    Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
                    Ok(_) => panic!("cut at {cut} decoded successfully"),
                }
            }
            for pos in 0..body.len() {
                let mut bad = body.clone();
                bad[pos] ^= 0x10;
                match decode_frame(&bad) {
                    Err(NetError::Protocol { .. }) | Err(NetError::Version { .. }) => {}
                    Err(other) => panic!("flip at {pos}: unexpected error {other:?}"),
                    Ok(_) => panic!("flip at {pos} went undetected"),
                }
            }
        }
    }

    #[test]
    fn unknown_metrics_format_is_a_typed_error() {
        let mut p = SectionBuf::new();
        p.put_u8(9); // no such format
        let body = encode_frame(KIND_REQUEST, OP_METRICS, 1, p);
        assert!(matches!(
            decode_frame(&body),
            Err(NetError::Protocol { .. })
        ));
    }

    #[test]
    fn engine_stats_decode_without_appended_fields_defaults_them() {
        // A frame from a peer that predates the knn/rcnn/uptime fields:
        // encode, strip the appended tail, re-frame, and decode — the
        // original fields survive and the new ones default.
        let full = EngineStats {
            searches: 12,
            knn_requests: 11,
            rcnn_requests: 1,
            inserts: 4,
            uptime_secs: 33.0,
            started_at_unix: 1_700_000_000,
            ..EngineStats::default()
        };
        let mut p = SectionBuf::new();
        put_engine_stats(&mut p, &full);
        // appended tail: knn u64 + rcnn u64 + uptime f64 + started u64
        let old_len = p.len() - 32;
        let mut old = SectionBuf::new();
        old.put_bytes(&p.as_bytes()[..old_len]);
        let body = encode_frame(KIND_OK, OP_STATS, 5, old);
        let (_, msg) = decode_frame(&body).unwrap();
        let got = match msg {
            Message::Response(Response::Stats(s)) => *s,
            other => panic!("decoded as {other:?}"),
        };
        assert_eq!(got.searches, 12);
        assert_eq!(got.inserts, 4);
        assert_eq!(got.knn_requests, 0, "absent field must default");
        assert_eq!(got.rcnn_requests, 0);
        assert_eq!(got.uptime_secs, 0.0);
        assert_eq!(got.started_at_unix, 0);
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A frame whose payload holds more bytes than the opcode's
        // schema consumes: CRC passes (bytes are authentic) but decode
        // must still refuse — reader and writer disagree on the schema.
        let mut p = SectionBuf::new();
        p.put_u32(5); // Remove id
        p.put_u8(0xAA); // trailing garbage
        let body = encode_frame(KIND_REQUEST, OP_REMOVE, 1, p);
        assert!(matches!(
            decode_frame(&body),
            Err(NetError::Protocol { .. })
        ));
    }

    #[test]
    fn unknown_opcode_and_kind_rejected() {
        let body = encode_frame(KIND_REQUEST, 0xFF, 1, SectionBuf::new());
        assert!(matches!(
            decode_frame(&body),
            Err(NetError::Protocol { .. })
        ));
        let body = encode_frame(9, OP_PING, 1, SectionBuf::new());
        assert!(matches!(
            decode_frame(&body),
            Err(NetError::Protocol { .. })
        ));
    }

    #[test]
    fn stale_version_is_typed() {
        let mut body = encode_request(3, &Request::Stats);
        // Overwrite the version field and re-stamp the CRC so only the
        // version disagrees.
        body[4..6].copy_from_slice(&7u16.to_le_bytes());
        let crc_at = body.len() - 4;
        let crc = crc32(&body[..crc_at]);
        body[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_frame(&body).unwrap_err(),
            NetError::Version { got: 7 }
        );
    }

    #[test]
    fn error_display_is_descriptive() {
        let cases: Vec<(NetError, &str)> = vec![
            (
                NetError::io("read", std::io::Error::other("boom")),
                "socket read",
            ),
            (NetError::protocol("bad magic"), "bad magic"),
            (NetError::Version { got: 3 }, "version 3"),
            (NetError::Remote(DbLshError::Busy), "queue is full"),
            (NetError::Disconnected, "closed before"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
