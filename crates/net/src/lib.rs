//! # dblsh-net — the TCP front door for the DB-LSH serving engine
//!
//! Everything below the socket already existed: [`dblsh_serve::Engine`]
//! gives a bounded admission queue over a worker pool, and
//! [`dblsh_serve::ShardedDbLsh`] answers queries byte-identically to the
//! canonical single-index ladder. This crate puts a network protocol in
//! front of that stack without weakening any of its guarantees:
//!
//! ```text
//!           DbLshClient            (blocking, pipelined, reconnects)
//!               │ TCP, length-prefixed CRC-checked frames
//!               ▼
//!           DbLshServer            (acceptor + per-conn reader/writer)
//!               │ Engine::try_run: inline on the reader when idle
//!               ▼
//!           Engine                 (bounded queue = admission control)
//!               │ canonical round-exhaustive ladder
//!               ▼
//!           ShardedDbLsh           (per-shard RwLocks, global ids)
//! ```
//!
//! ## Wire format
//!
//! One frame per message, mirroring the snapshot files' framing
//! discipline (shared magic/version/CRC helpers live in
//! [`dblsh_data::io`]):
//!
//! ```text
//! ┌────────────┬───────┬─────────┬──────┬────────┬─────────┬─────────┬───────┐
//! │ length u32 │ magic │ version │ kind │ opcode │ request │ payload │ crc32 │
//! │ (bounded)  │ DBLN  │   u16   │  u8  │   u8   │ id u64  │   ...   │  u32  │
//! └────────────┴───────┴─────────┴──────┴────────┴─────────┴─────────┴───────┘
//!               └──────────────── CRC-32 covers this span ───────────┘
//! ```
//!
//! The length prefix is validated against a cap **before** any
//! allocation, so a malicious 4 GiB header costs the server four bytes
//! of reading, not four gigabytes of memory. Inside the frame, bad
//! magic, stale versions, checksum mismatches, unknown opcodes, and
//! truncated or over-long payloads each decode to a typed
//! [`NetError`] — property-swept in the crate tests by truncating at
//! every prefix length and flipping a bit at every byte position.
//!
//! ## Semantics worth relying on
//!
//! * **Admission control is inherited, not reimplemented.** Connection
//!   threads submit through the engine's non-blocking
//!   [`dblsh_serve::Engine::try_run`]; a full queue answers
//!   [`dblsh_data::DbLshError::Busy`] over the wire and counts in
//!   [`dblsh_serve::EngineStats::rejected`]. A slow engine backs
//!   pressure up through the per-connection in-flight cap into TCP
//!   itself. A quiet connection's request runs inline on its reader
//!   thread when the engine is idle (see [`server`]), within the same
//!   `workers` execution slots.
//! * **Graceful drain.** [`DbLshServer::shutdown`] stops accepting,
//!   refuses new connects with a typed `Shutdown` frame, finishes every
//!   accepted request, flushes every response, then joins all threads.
//! * **Canonical answers.** A `Knn` request returns exactly what
//!   `DbLsh::search_canonical` returns on the same data — the e2e tests
//!   assert byte-identical neighbor lists through real sockets.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dblsh_core::DbLshBuilder;
//! use dblsh_data::synthetic::{gaussian_mixture, MixtureConfig};
//! use dblsh_serve::{Engine, EngineConfig, ShardPolicy, ShardedDbLsh};
//! use dblsh_net::{DbLshClient, DbLshServer, ServerConfig};
//!
//! let data = gaussian_mixture(&MixtureConfig { n: 1000, dim: 16, ..Default::default() });
//! let index = ShardedDbLsh::build(
//!     &data, &DbLshBuilder::new().l(3).auto_r_min(), 4, ShardPolicy::RoundRobin,
//! ).unwrap();
//! let engine = Arc::new(Engine::start(Arc::new(index), EngineConfig::default()));
//!
//! let server = DbLshServer::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default()).unwrap();
//! let mut client = DbLshClient::connect(&server.local_addr().to_string()).unwrap();
//! let top5 = client.knn(&data.point(0).to_vec(), 5).unwrap();
//! assert_eq!(top5.neighbors[0].id, 0);
//! server.shutdown();
//! ```

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, DbLshClient, RequestId, RetryPolicy};
pub use proto::{
    MetricsFormat, NetError, Request, Response, DEFAULT_MAX_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
pub use server::{DbLshServer, ServerConfig, ServerStats};
